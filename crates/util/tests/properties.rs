//! Property-based tests for the PRNG, statistics and varint substrate.

use gossipopt_util::varint::{read_varint, write_varint, MAX_VARINT_LEN};
use gossipopt_util::{mann_whitney, OnlineStats, Rng64, SplitMix64, StreamId, Xoshiro256pp};
use proptest::prelude::*;

/// The textbook byte-at-a-time LEB128 encoder, kept as the oracle for the
/// word-at-a-time one.
fn reference_varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// The byte-at-a-time LEB128 decoder, the oracle for `read_varint` on
/// arbitrary (including non-canonical and overlong) input.
fn reference_read_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(MAX_VARINT_LEN) {
        let group = (byte & 0x7f) as u64;
        if i == MAX_VARINT_LEN - 1 && group > 1 {
            return None;
        }
        v |= group << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Check one value against the oracle: encoding, decoding with any
/// trailing bytes, and rejection of every strict prefix.
fn check_varint(v: u64, trailing: &[u8]) -> Result<(), TestCaseError> {
    let mut enc = Vec::new();
    write_varint(&mut enc, v);
    let expect = reference_varint(v);
    prop_assert_eq!(&enc, &expect);
    let len = enc.len();
    for cut in 0..len {
        prop_assert_eq!(read_varint(&enc[..cut]), None);
    }
    enc.extend_from_slice(trailing);
    prop_assert_eq!(read_varint(&enc), Some((v, len)));
    Ok(())
}

#[test]
fn varint_word_path_boundaries() {
    for v in [
        0,
        (1 << 56) - 1,
        1 << 56,
        1 << 63,
        u64::MAX,
        (1 << 49) - 1,
        1 << 49,
    ] {
        for trailing in [&[][..], &[0xff; 9], &[0; 9]] {
            check_varint(v, trailing).unwrap();
        }
    }
    // Eleven bytes, and a tenth byte carrying more than the top bit, are
    // rejected whatever follows.
    let mut eleven = vec![0x80; MAX_VARINT_LEN];
    eleven.push(0);
    assert_eq!(read_varint(&eleven), None);
    let mut tenth = vec![0xff; MAX_VARINT_LEN - 1];
    tenth.extend_from_slice(&[0x02, 0, 0, 0]);
    assert_eq!(read_varint(&tenth), None);
}

proptest! {
    /// `below(n)` is always in range, for arbitrary seeds and moduli.
    #[test]
    fn below_always_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut rng = Xoshiro256pp::seeded(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// `range_f64` respects its bounds for arbitrary finite intervals.
    #[test]
    fn range_f64_in_bounds(seed in any::<u64>(), lo in -1e12f64..1e12, width in 1e-6f64..1e12) {
        let mut rng = Xoshiro256pp::seeded(seed);
        let hi = lo + width;
        for _ in 0..20 {
            let x = rng.range_f64(lo, hi);
            prop_assert!(x >= lo && x < hi, "{x} outside [{lo}, {hi})");
        }
    }

    /// Shuffle always yields a permutation.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = Xoshiro256pp::seeded(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// Distinct sampling yields distinct in-range indices.
    #[test]
    fn sample_indices_invariants(seed in any::<u64>(), n in 1usize..100, frac in 0.0f64..1.0) {
        let m = ((n as f64) * frac) as usize;
        let mut rng = Xoshiro256pp::seeded(seed);
        let s = rng.sample_indices(n, m);
        prop_assert_eq!(s.len(), m);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        prop_assert_eq!(t.len(), m);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Derived streams are reproducible and order-independent.
    #[test]
    fn derive_reproducible(root in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let x = Xoshiro256pp::derive(root, StreamId(a, b));
        let y = Xoshiro256pp::derive(root, StreamId(a, b));
        prop_assert_eq!(x.state(), y.state());
    }

    /// SplitMix64 streams from different seeds diverge immediately
    /// (no collisions expected over arbitrary pairs).
    #[test]
    fn splitmix_seed_separation(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let mut x = SplitMix64::new(a);
        let mut y = SplitMix64::new(b);
        prop_assert_ne!(x.next_u64(), y.next_u64());
    }

    /// Merging stats in arbitrary split points equals sequential pushes.
    #[test]
    fn stats_merge_associative(
        xs in prop::collection::vec(-1e9f64..1e9, 1..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let whole: OnlineStats = xs.iter().copied().collect();
        let left: OnlineStats = xs[..split].iter().copied().collect();
        let right: OnlineStats = xs[split..].iter().copied().collect();
        let mut merged = left;
        merged.merge(&right);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!(
            (merged.variance() - whole.variance()).abs()
                < 1e-5 * whole.variance().abs().max(1.0)
        );
    }

    /// Mann–Whitney p-values stay in [0, 1] and A12 in [0, 1] for
    /// arbitrary samples.
    #[test]
    fn mann_whitney_ranges(
        xs in prop::collection::vec(-1e6f64..1e6, 1..40),
        ys in prop::collection::vec(-1e6f64..1e6, 1..40),
    ) {
        if let Some(mw) = mann_whitney(&xs, &ys) {
            prop_assert!((0.0..=1.0).contains(&mw.p_value));
            prop_assert!((0.0..=1.0).contains(&mw.a12));
            // Antisymmetry of the effect size.
            let rev = mann_whitney(&ys, &xs).expect("same degeneracy class");
            prop_assert!((mw.a12 + rev.a12 - 1.0).abs() < 1e-9);
        }
    }

    /// `write_varint`/`read_varint` agree with the byte-loop oracle for
    /// values of every bit width, with 0–9 arbitrary trailing bytes.
    #[test]
    fn varint_matches_byte_loop(
        v in any::<u64>(),
        shift in 0u32..64,
        trailing in prop::collection::vec(any::<u8>(), 0..10),
    ) {
        check_varint(v >> shift, &trailing)?;
    }

    /// On arbitrary bytes — mostly continuation bytes, so long, overlong
    /// and non-canonical encodings all occur — `read_varint` accepts and
    /// rejects exactly what the byte-loop oracle does.
    #[test]
    fn read_varint_matches_byte_loop_on_any_bytes(
        buf in prop::collection::vec(prop_oneof![0x80u8..=0xff, any::<u8>()], 0..14),
    ) {
        prop_assert_eq!(read_varint(&buf), reference_read_varint(&buf));
    }
}

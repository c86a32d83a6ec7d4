//! Registry-wide batch-vs-pointwise equivalence on adversarial inputs:
//! `eval_batch` (4-wide lane groups plus scalar tail) must agree with
//! point-wise `eval` for every registered objective, at dimensionalities
//! exercising full lane groups and tails, over 1.5x-domain points with
//! NaN, infinities, signed zeros, a subnormal and 1e308 spliced in —
//! input coverage the in-crate registry test (finite points only) does
//! not have.
//!
//! Agreement here is "bit-equal, or both NaN": on non-finite coordinates
//! the lane and iterator reductions may return NaNs of different sign or
//! payload (e.g. `schwefel12` on a point holding `inf`, `-inf` and NaN),
//! and no caller distinguishes NaNs.

use gossipopt_functions::{by_name, names};
use gossipopt_util::{Rng64, SplitMix64, Xoshiro256pp};
use proptest::prelude::*;

/// Specials to splice in: the kernels must agree even on inputs no
/// solver produces (NaN trajectories, infinities, signed zeros).
const SPECIALS: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 2.0, // subnormal
    1e308,
];

/// Build one batch: mostly 1.5x-domain samples, with specials spliced in
/// at positions keyed by `salt`.
fn batch(f: &dyn gossipopt_functions::Objective, n: usize, salt: u64) -> Vec<f64> {
    let k = f.dim();
    let mut rng = Xoshiro256pp::seeded(salt);
    let mut sm = SplitMix64::new(salt ^ 0x5eed);
    (0..n * k)
        .map(|i| {
            let (lo, hi) = f.bounds(i % k);
            let draw = rng.range_f64(lo * 1.5, hi * 1.5);
            // ~1 in 8 positions becomes a special value.
            let roll = sm.mix();
            if roll.is_multiple_of(8) {
                SPECIALS[(roll >> 8) as usize % SPECIALS.len()]
            } else {
                draw
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn registry_batches_match_pointwise_on_adversarial_inputs(
        salt in any::<u64>(),
        n_sel in 1usize..10,
    ) {
        for name in names() {
            for dim in [1usize, 2, 3, 4, 5, 7, 8, 12, 33] {
                let f = by_name(name, dim).expect("registered");
                let k = f.dim();
                let xs = batch(f.as_ref(), n_sel, salt ^ (k as u64) << 32);
                let mut out = vec![0.0f64; n_sel];
                f.eval_batch(&xs, k, &mut out);
                for (i, chunk) in xs.chunks_exact(k).enumerate() {
                    let pointwise = f.eval(chunk);
                    prop_assert!(
                        out[i].to_bits() == pointwise.to_bits()
                            || (out[i].is_nan() && pointwise.is_nan()),
                        "{} dim {}: batch[{}] = {} != eval = {}",
                        name,
                        k,
                        i,
                        out[i],
                        pointwise
                    );
                }
            }
        }
    }
}

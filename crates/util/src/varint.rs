//! LEB128 variable-length integers and zig-zag signed mapping.
//!
//! The coordination-batch frame (`core::messages::CoordBatch` and wire
//! tag `COORD_BATCH` in `runtime::wire`) delta-encodes optimum payloads
//! against the frame's first payload: each `f64` is transmitted as the
//! zig-zag-mapped difference of its raw bit pattern from the reference
//! payload's bit pattern, LEB128-encoded. Identical values — the common
//! case once the network has converged on one optimum — cost a single
//! byte instead of eight. Both the simulator's byte accounting
//! (`Msg::wire_bytes`) and the real codec go through these helpers so
//! the two can never drift.
//!
//! [`write_varint`] and [`read_varint`] work a `u64` word at a time for
//! encodings of up to eight bytes (values below `2^56`): three
//! mask-and-shift steps spread the 7-bit groups into bytes (or squeeze
//! them back), and the terminator is the lowest clear continuation bit,
//! found with one `trailing_zeros`. Nine- and ten-byte encodings, and
//! reads with fewer than eight bytes left in the buffer, take the plain
//! byte loop.

/// Maximum encoded size of a `u64` varint (ten 7-bit groups).
pub const MAX_VARINT_LEN: usize = 10;

/// Continuation bit of every byte of a little-endian `u64` word.
const CONT: u64 = 0x8080_8080_8080_8080;

/// Append `v` to `out` as an LEB128 varint (7 bits per byte, low groups
/// first, high bit = continuation).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, v: u64) {
    if v >> 56 != 0 {
        return write_varint_bytes(out, v);
    }
    // Spread 28-bit halves to 32-bit lanes, 14-bit quarters to 16-bit
    // lanes, 7-bit groups to bytes.
    let mut w = (v & 0x0fff_ffff) | ((v & 0x00ff_ffff_f000_0000) << 4);
    w = (w & 0x0000_3fff_0000_3fff) | ((w & 0x0fff_c000_0fff_c000) << 2);
    w = (w & 0x007f_007f_007f_007f) | ((w & 0x3f80_3f80_3f80_3f80) << 1);
    // Bytes up to the highest non-zero one, at least one.
    let len = (71 - (w | 1).leading_zeros() as usize) / 8;
    // Continuation bits on every byte before the last one.
    w |= (CONT >> 8) >> (8 * (8 - len));
    out.extend_from_slice(&w.to_le_bytes());
    out.truncate(out.len() - 8 + len);
}

fn write_varint_bytes(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded size of `v` as an LEB128 varint, in bytes (1–10).
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(bits / 7) with a 1-byte floor for v = 0.
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Decode one LEB128 varint from the front of `buf`; returns the value
/// and the number of bytes consumed, or `None` on truncated input or an
/// encoding longer than [`MAX_VARINT_LEN`] / overflowing 64 bits.
#[inline]
pub fn read_varint(buf: &[u8]) -> Option<(u64, usize)> {
    if let Some(word) = buf.first_chunk::<8>() {
        let w = u64::from_le_bytes(*word);
        let stops = !w & CONT;
        if stops != 0 {
            // Keep the bytes up to and including the first one whose
            // continuation bit is clear, then squeeze out the flag bits:
            // bytes to 14-bit groups, to 28-bit groups, to one value.
            let len = stops.trailing_zeros() as usize / 8 + 1;
            let mut w = w & (stops ^ (stops - 1)) & !CONT;
            w = (w & 0x007f_007f_007f_007f) | ((w & 0x7f00_7f00_7f00_7f00) >> 1);
            w = (w & 0x0000_3fff_0000_3fff) | ((w & 0x3fff_0000_3fff_0000) >> 2);
            w = (w & 0x0fff_ffff) | ((w & 0x0fff_ffff_0000_0000) >> 4);
            return Some((w, len));
        }
    }
    read_varint_bytes(buf)
}

fn read_varint_bytes(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(MAX_VARINT_LEN) {
        let group = (byte & 0x7f) as u64;
        // The tenth byte may only carry the top bit of the u64.
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

/// Zig-zag map: small-magnitude signed values (of either sign) become
/// small unsigned values, which LEB128 then encodes compactly.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encoded size of `x` delta-encoded against `reference`: the zig-zag
/// varint of the bit-pattern difference (see the module docs).
#[inline]
pub fn f64_delta_len(x: f64, reference: f64) -> usize {
    varint_len(zigzag(x.to_bits().wrapping_sub(reference.to_bits()) as i64))
}

/// Append `x` delta-encoded against `reference`.
#[inline]
pub fn write_f64_delta(out: &mut Vec<u8>, x: f64, reference: f64) {
    write_varint(
        out,
        zigzag(x.to_bits().wrapping_sub(reference.to_bits()) as i64),
    );
}

/// Decode one delta-encoded `f64` against `reference`; returns the value
/// and bytes consumed. Exact for every bit pattern including NaNs,
/// infinities and signed zeros (the mapping is on raw bits, never on
/// float arithmetic).
#[inline]
pub fn read_f64_delta(buf: &[u8], reference: f64) -> Option<(f64, usize)> {
    let (z, used) = read_varint(buf)?;
    let bits = reference.to_bits().wrapping_add(unzigzag(z) as u64);
    Some((f64::from_bits(bits), used))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len of {v}");
            let (back, used) = read_varint(&buf).expect("decodes");
            assert_eq!((back, used), (v, buf.len()), "round trip of {v}");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        assert_eq!(read_varint(&[]), None);
        assert_eq!(read_varint(&[0x80]), None);
        assert_eq!(read_varint(&[0x80; 10]), None);
        // Ten continuation-free groups whose tenth carries > 1 bit would
        // overflow 64 bits.
        let mut buf = vec![0xff; 9];
        buf.push(0x02);
        assert_eq!(read_varint(&buf), None);
        // u64::MAX itself is fine: tenth byte is exactly 1.
        let mut ok = Vec::new();
        write_varint(&mut ok, u64::MAX);
        assert_eq!(ok.len(), 10);
        assert_eq!(read_varint(&ok), Some((u64::MAX, 10)));
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -2, 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn f64_delta_round_trips_every_bit_pattern_class() {
        let specials = [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001), // payload-carrying NaN
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        for &reference in &specials {
            for &x in &specials {
                let mut buf = Vec::new();
                write_f64_delta(&mut buf, x, reference);
                assert_eq!(buf.len(), f64_delta_len(x, reference));
                let (back, used) = read_f64_delta(&buf, reference).expect("decodes");
                assert_eq!(used, buf.len());
                assert_eq!(
                    back.to_bits(),
                    x.to_bits(),
                    "{x} vs reference {reference} must survive bit-exactly"
                );
            }
        }
    }

    #[test]
    fn identical_values_cost_one_byte() {
        for v in [0.0f64, 3.25, -17.5, f64::NAN] {
            assert_eq!(f64_delta_len(v, v), 1);
        }
    }
}

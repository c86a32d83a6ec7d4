//! Four-wide lane-group driver for the batch evaluation hot path.
//!
//! Batch kernels process **four points per lane group**: a fixed 4-lane
//! pack ([`gossipopt_util::simd::V`]) holds one partial result per point
//! while the dimension loop advances all four in lock-step.
//!
//! Because each lane performs exactly the scalar kernel's operations in
//! the scalar kernel's order (lanes never mix, no FMA), every result is
//! bit-identical to point-wise evaluation — locked by the
//! registry-exhaustive test below.

/// A 4-wide objective kernel plus its scalar single-point form for tail
/// points. Implemented by every registry objective with a specialized
/// `eval_batch` (mostly via the `simple_objective!` /
/// `extended_objective!` macros).
pub(crate) trait LaneKernel {
    /// Evaluate four points (each of length `k`) in lock-step lanes.
    fn lanes(&self, pts: [&[f64]; 4]) -> [f64; 4];
    /// Evaluate one point (the `< 4` tail of a batch).
    fn point(&self, x: &[f64]) -> f64;
}

/// Evaluate a point-major batch (`out.len()` points of stride `k` in
/// `xs`): groups of four points go to `kernel.lanes`, the remaining
/// `< 4` tail points to `kernel.point`.
///
/// `kernel` lane implementations must compute each lane with the exact
/// arithmetic and reduction order of `kernel.point` so the grouping
/// stays bit-for-bit equivalent to point-wise evaluation.
///
/// Panics if `xs.len() != k * out.len()`: a mis-sized batch would
/// silently evaluate garbage (or skip points) in release builds, so the
/// length contract is a hard assert on this batch entry point.
#[inline(always)]
pub(crate) fn eval_groups<K: LaneKernel>(xs: &[f64], k: usize, out: &mut [f64], kernel: &K) {
    assert_eq!(
        xs.len(),
        k * out.len(),
        "eval_batch: xs must hold exactly out.len() points of stride k"
    );
    let groups = out.len() / 4 * 4;
    let mut j = 0;
    while j < groups {
        let b = j * k;
        let pts = [
            &xs[b..b + k],
            &xs[b + k..b + 2 * k],
            &xs[b + 2 * k..b + 3 * k],
            &xs[b + 3 * k..b + 4 * k],
        ];
        let r = kernel.lanes(pts);
        out[j..j + 4].copy_from_slice(&r);
        j += 4;
    }
    for (chunk, slot) in xs[groups * k..]
        .chunks_exact(k)
        .zip(out[groups..].iter_mut())
    {
        *slot = kernel.point(chunk);
    }
}

#[cfg(test)]
mod tests {
    use crate::registry;
    use gossipopt_util::{Rng64, Xoshiro256pp};

    /// The lane kernels must be bit-for-bit equivalent to point-wise
    /// `eval` for every registered function, at dimensionalities that
    /// exercise both full lane groups and the scalar tail, including
    /// batch sizes below one group.
    #[test]
    fn batch_is_bit_identical_to_pointwise_for_entire_registry() {
        let mut rng = Xoshiro256pp::seeded(0xeba1);
        for name in registry::names() {
            for dim in [1usize, 2, 3, 4, 5, 10, 32] {
                let f = registry::by_name(name, dim).expect("registered");
                let k = f.dim();
                for n_points in [1usize, 3, 4, 7, 16, 21] {
                    let xs: Vec<f64> = (0..n_points * k)
                        .map(|i| {
                            let (lo, hi) = f.bounds(i % k);
                            // Include out-of-domain points: kernels must
                            // agree everywhere, not just inside the box.
                            rng.range_f64(lo * 1.5, hi * 1.5)
                        })
                        .collect();
                    let mut batch = vec![0.0f64; n_points];
                    f.eval_batch(&xs, k, &mut batch);
                    for (i, chunk) in xs.chunks_exact(k).enumerate() {
                        let pointwise = f.eval(chunk);
                        assert_eq!(
                            batch[i].to_bits(),
                            pointwise.to_bits(),
                            "{name} dim {k}: batch[{i}] = {} != eval = {pointwise}",
                            batch[i],
                        );
                    }
                }
            }
        }
    }

    /// A mis-sized `xs` must be a hard error in release builds, not a
    /// silent partial evaluation.
    #[test]
    #[should_panic(expected = "xs must hold exactly")]
    fn mis_sized_batch_is_rejected() {
        let f = registry::by_name("sphere", 4).expect("registered");
        let xs = vec![0.0; 4 * 3 + 1]; // not a whole number of points
        let mut out = vec![0.0; 3];
        f.eval_batch(&xs, 4, &mut out);
    }
}

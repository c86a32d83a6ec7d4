//! The four-wide lane-group kernel of the PSO update hot path.
//!
//! [`pso_move_lanes`] processes **four dimensions per lane group**
//! ([`gossipopt_util::simd::V`]) with a scalar tail. The scalar update
//! loop interleaves `rng` draws with arithmetic, which serializes the
//! whole loop behind the RNG's dependency chain. The lane kernel splits
//! each group into a **pre-draw phase** (the group's RNG values, drawn in
//! exactly the scalar loop's order) and a packed arithmetic phase over
//! the four lanes. It is the workspace's only lane kernel: objectives
//! evaluate one point at a time, and DE crossover and ES mutation run
//! their scalar loops (no benchmark workload runs DE or ES, so their lane
//! kernels had no end-to-end number to keep them).
//!
//! **Bit-identity contract:** every lane evaluates the scalar loop's
//! exact FP expressions (same associativity, no FMA), in the scalar
//! loop's per-dimension order, on the same RNG values the scalar loop
//! would have drawn for that dimension — so positions, velocities and
//! the RNG stream are bit-for-bit identical to the scalar code it
//! replaces. `tests` below lock the kernel against a verbatim copy of
//! the scalar loop it replaced.

use gossipopt_util::simd::V;
use gossipopt_util::{Rng64, Xoshiro256pp};

/// Classic (gbest / best-of-neighborhood) PSO velocity + position update
/// for one particle with no bound policy and a known social attractor —
/// the innermost kernel of the network tick, run by the shared PSO
/// update (`crate::pso`) for [`crate::Swarm`] and [`crate::ArenaPso`].
///
/// Per dimension `d`, replays exactly:
///
/// ```text
/// cognitive = c1·rand()·(pb[d] − x[d])
/// social    = c2·rand()·(g[d] − x[d])
/// vel       = χ·(w·v[d] + (cognitive + social)), clamped to ±vmax[d]
/// v[d] = vel;  x[d] += vel
/// ```
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn pso_move_lanes(
    xs: &mut [f64],
    vs: &mut [f64],
    pb: &[f64],
    g: &[f64],
    vmax: &[f64],
    c1: f64,
    c2: f64,
    chi: f64,
    w: f64,
    rng: &mut Xoshiro256pp,
) {
    let k = xs.len();
    debug_assert!(vs.len() == k && pb.len() == k && g.len() == k && vmax.len() == k);
    let groups = k / 4 * 4;
    let mut d = 0;
    while d < groups {
        // Pre-draw the group's randoms in the scalar order (cognitive
        // then social, dimensions ascending) — the draws are the serial
        // dependency chain, the arithmetic below is not.
        let mut r1 = [0.0f64; 4];
        let mut r2 = [0.0f64; 4];
        for l in 0..4 {
            r1[l] = rng.next_f64();
            r2[l] = rng.next_f64();
        }
        let x = V::load(&xs[d..d + 4]);
        let v = V::load(&vs[d..d + 4]);
        let pbv = V::load(&pb[d..d + 4]);
        let gv = V::load(&g[d..d + 4]);
        let vm = V::load(&vmax[d..d + 4]);
        let cognitive = c1 * V::from_array(r1) * (pbv - x);
        let social_term = c2 * V::from_array(r2) * (gv - x);
        let attraction = cognitive + social_term;
        let vel = (chi * (w * v + attraction)).clamp(-vm, vm);
        vel.store(&mut vs[d..d + 4]);
        (x + vel).store(&mut xs[d..d + 4]);
        d += 4;
    }
    for d in groups..k {
        let xd = xs[d];
        let cognitive = c1 * rng.next_f64() * (pb[d] - xd);
        let social_term = c2 * rng.next_f64() * (g[d] - xd);
        let attraction = cognitive + social_term;
        let mut vel = chi * (w * vs[d] + attraction);
        vel = vel.clamp(-vmax[d], vmax[d]);
        vs[d] = vel;
        xs[d] = xd + vel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verbatim copy of the scalar PSO update loop the lane kernel
    /// replaced (the general branch of the shared PSO update with no
    /// bound policy).
    #[allow(clippy::too_many_arguments)]
    fn pso_move_reference(
        xs: &mut [f64],
        vs: &mut [f64],
        pb: &[f64],
        g: &[f64],
        vmax: &[f64],
        c1: f64,
        c2: f64,
        chi: f64,
        w: f64,
        rng: &mut Xoshiro256pp,
    ) {
        for d in 0..xs.len() {
            let xd = xs[d];
            let cognitive = c1 * rng.next_f64() * (pb[d] - xd);
            let social_term = c2 * rng.next_f64() * (g[d] - xd);
            let attraction = cognitive + social_term;
            let mut vel = chi * (w * vs[d] + attraction);
            vel = vel.clamp(-vmax[d], vmax[d]);
            vs[d] = vel;
            xs[d] = xd + vel;
        }
    }

    fn fill(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| rng.range_f64(lo, hi)).collect()
    }

    /// The lane kernel must leave positions, velocities *and the RNG
    /// stream* bit-identical to the scalar loop, at dimensionalities that
    /// exercise both full lane groups and the scalar tail.
    #[test]
    fn pso_lanes_bit_identical_to_scalar() {
        let mut seed_rng = Xoshiro256pp::seeded(0x950);
        for k in [1usize, 2, 3, 4, 5, 7, 8, 10, 12, 13, 32, 33] {
            for trial in 0..8 {
                let mut xs_a = fill(&mut seed_rng, k, -100.0, 100.0);
                let mut vs_a = fill(&mut seed_rng, k, -50.0, 50.0);
                let pb = fill(&mut seed_rng, k, -100.0, 100.0);
                let g = fill(&mut seed_rng, k, -100.0, 100.0);
                let vmax = fill(&mut seed_rng, k, 1.0, 100.0);
                let (mut xs_b, mut vs_b) = (xs_a.clone(), vs_a.clone());
                let (c1, c2, chi, w) = (2.05, 2.05, 0.729_843_788, 1.0);
                let mut rng_a = Xoshiro256pp::seeded(1000 + trial);
                let mut rng_b = Xoshiro256pp::seeded(1000 + trial);
                pso_move_lanes(
                    &mut xs_a, &mut vs_a, &pb, &g, &vmax, c1, c2, chi, w, &mut rng_a,
                );
                pso_move_reference(
                    &mut xs_b, &mut vs_b, &pb, &g, &vmax, c1, c2, chi, w, &mut rng_b,
                );
                for d in 0..k {
                    assert_eq!(xs_a[d].to_bits(), xs_b[d].to_bits(), "x[{d}] at k={k}");
                    assert_eq!(vs_a[d].to_bits(), vs_b[d].to_bits(), "v[{d}] at k={k}");
                }
                assert_eq!(
                    rng_a.next_u64(),
                    rng_b.next_u64(),
                    "RNG streams diverged at k={k}"
                );
            }
        }
    }
}

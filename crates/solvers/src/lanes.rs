//! Four-wide lane-group kernels for the solver update hot paths.
//!
//! Same discipline as the objective batch kernels in
//! `gossipopt_functions::lanes`: process **four dimensions per lane
//! group** ([`gossipopt_util::simd::V`]) with a scalar tail.
//!
//! The twist the solver loops add over `eval_batch` is the RNG: the
//! scalar update loops interleave `rng` draws with arithmetic, which
//! serializes the whole loop behind the RNG's dependency chain. The lane
//! kernels split each group into a **pre-draw phase** (the group's RNG
//! values, drawn in exactly the scalar loop's order) and a packed
//! arithmetic phase over the four lanes.
//!
//! **Bit-identity contract:** every lane evaluates the scalar loop's
//! exact FP expressions (same associativity, no FMA), in the scalar
//! loop's per-dimension order, on the same RNG values the scalar loop
//! would have drawn for that dimension — so positions, velocities and
//! the RNG stream are bit-for-bit identical to the scalar code they
//! replace. `tests` below lock each kernel against a verbatim copy of
//! the scalar loop it replaced.

use gossipopt_functions::Objective;
use gossipopt_util::simd::V;
use gossipopt_util::{Rng64, Xoshiro256pp};

/// Classic (gbest / best-of-neighborhood) PSO velocity + position update
/// for one particle with no bound policy and a known social attractor —
/// the innermost kernel of the network tick, shared by
/// [`crate::Swarm`] and [`crate::ArenaPso`].
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

/// `DE/rand/1/bin` crossover: per dimension, replace `trial[d]` with the
/// mutant `a[d] + F·(b[d] − c[d])` when `d == forced` or with probability
/// `cr`. The scalar loop short-circuits the `chance` draw at the forced
/// dimension; the pre-draw phase replicates that, so the RNG stream is
/// untouched. The mutant is computed packed for all four lanes and
/// stored only where taken — pure arithmetic, so discarded lanes are
/// behavior-free.
#[allow(clippy::needless_range_loop)]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn de_crossover_lanes(
    trial: &mut [f64],
    a: &[f64],
    b: &[f64],
    c: &[f64],
    forced: usize,
    f_weight: f64,
    cr: f64,
    rng: &mut Xoshiro256pp,
) {
    let k = trial.len();
    debug_assert!(a.len() >= k && b.len() >= k && c.len() >= k);
    let groups = k / 4 * 4;
    let mut d = 0;
    while d < groups {
        let mut take = [false; 4];
        for l in 0..4 {
            // Same short-circuit as the scalar loop: no draw at `forced`.
            take[l] = d + l == forced || rng.chance(cr);
        }
        let m = (V::load(&a[d..d + 4])
            + f_weight * (V::load(&b[d..d + 4]) - V::load(&c[d..d + 4])))
        .to_array();
        for l in 0..4 {
            if take[l] {
                trial[d + l] = m[l];
            }
        }
        d += 4;
    }
    for d in groups..k {
        if d == forced || rng.chance(cr) {
            trial[d] = a[d] + f_weight * (b[d] - c[d]);
        }
    }
}

/// (1+1)-ES mutation: `child[d] += σ_frac·(hi − lo)·N(0,1)` per
/// dimension. The normal draws are pre-drawn per group in the scalar
/// order (`bounds(d)` consumes no randomness, so hoisting it into the
/// arithmetic phase changes nothing).
#[allow(clippy::needless_range_loop)]
#[inline(always)]
pub(crate) fn es_mutate_lanes(
    child: &mut [f64],
    f: &dyn Objective,
    sigma_frac: f64,
    rng: &mut Xoshiro256pp,
) {
    let k = child.len();
    let groups = k / 4 * 4;
    let mut d = 0;
    while d < groups {
        let mut n = [0.0f64; 4];
        for l in 0..4 {
            n[l] = rng.normal();
        }
        // Scalar expression is sigma_frac * (hi - lo) * n — left-assoc,
        // so the step factor packs separately from the normal draw.
        let mut scale = [0.0f64; 4];
        for l in 0..4 {
            let (lo, hi) = f.bounds(d + l);
            scale[l] = sigma_frac * (hi - lo);
        }
        let c = V::load(&child[d..d + 4]);
        (c + V::from_array(scale) * V::from_array(n)).store(&mut child[d..d + 4]);
        d += 4;
    }
    for d in groups..k {
        let (lo, hi) = f.bounds(d);
        child[d] += sigma_frac * (hi - lo) * rng.normal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::registry;

    /// Verbatim copy of the scalar PSO update loop the lane kernel
    /// replaced (`ArenaPso::move_particle`'s hot branch / the
    /// `Swarm::move_particle` gbest expressions).
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

    /// Verbatim copy of the scalar DE crossover loop.
    #[allow(clippy::too_many_arguments)]
    fn de_crossover_reference(
        trial: &mut [f64],
        a: &[f64],
        b: &[f64],
        c: &[f64],
        forced: usize,
        f_weight: f64,
        cr: f64,
        rng: &mut Xoshiro256pp,
    ) {
        for (d, gene) in trial.iter_mut().enumerate() {
            if d == forced || rng.chance(cr) {
                *gene = a[d] + f_weight * (b[d] - c[d]);
            }
        }
    }

    /// Verbatim copy of the scalar ES mutation loop.
    fn es_mutate_reference(
        child: &mut [f64],
        f: &dyn Objective,
        sigma_frac: f64,
        rng: &mut Xoshiro256pp,
    ) {
        for (d, coord) in child.iter_mut().enumerate() {
            let (lo, hi) = f.bounds(d);
            *coord += sigma_frac * (hi - lo) * rng.normal();
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

    #[test]
    fn de_lanes_bit_identical_to_scalar() {
        let mut seed_rng = Xoshiro256pp::seeded(0xde0);
        for k in [1usize, 3, 4, 5, 8, 10, 13, 32, 33] {
            for trial in 0..8 {
                let base = fill(&mut seed_rng, k, -30.0, 30.0);
                let a = fill(&mut seed_rng, k, -30.0, 30.0);
                let b = fill(&mut seed_rng, k, -30.0, 30.0);
                let c = fill(&mut seed_rng, k, -30.0, 30.0);
                // Exercise every forced position, incl. tail dimensions.
                for forced in [0, k / 2, k - 1] {
                    let (mut t_a, mut t_b) = (base.clone(), base.clone());
                    let mut rng_a = Xoshiro256pp::seeded(2000 + trial);
                    let mut rng_b = Xoshiro256pp::seeded(2000 + trial);
                    de_crossover_lanes(&mut t_a, &a, &b, &c, forced, 0.5, 0.9, &mut rng_a);
                    de_crossover_reference(&mut t_b, &a, &b, &c, forced, 0.5, 0.9, &mut rng_b);
                    for d in 0..k {
                        assert_eq!(
                            t_a[d].to_bits(),
                            t_b[d].to_bits(),
                            "trial[{d}] at k={k} forced={forced}"
                        );
                    }
                    assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG diverged at k={k}");
                }
            }
        }
    }

    #[test]
    fn es_lanes_bit_identical_to_scalar_for_entire_registry() {
        let mut seed_rng = Xoshiro256pp::seeded(0xe5);
        for name in registry::names() {
            for dim in [1usize, 2, 4, 5, 10, 32] {
                let Some(f) = registry::by_name(name, dim) else {
                    continue;
                };
                let k = f.dim();
                let base = fill(&mut seed_rng, k, -5.0, 5.0);
                let (mut c_a, mut c_b) = (base.clone(), base.clone());
                let mut rng_a = Xoshiro256pp::seeded(3000 + dim as u64);
                let mut rng_b = Xoshiro256pp::seeded(3000 + dim as u64);
                es_mutate_lanes(&mut c_a, f.as_ref(), 0.1, &mut rng_a);
                es_mutate_reference(&mut c_b, f.as_ref(), 0.1, &mut rng_b);
                for d in 0..k {
                    assert_eq!(
                        c_a[d].to_bits(),
                        c_b[d].to_bits(),
                        "{name} dim {k}: child[{d}]"
                    );
                }
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{name}: RNG diverged");
            }
        }
    }
}

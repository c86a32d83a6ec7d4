//! Extended benchmark functions beyond the paper's six.
//!
//! The paper's future work calls for "various different solvers" and richer
//! evaluation services; exercising those needs a broader objective
//! portfolio than the six functions of §4. This module adds fifteen
//! classic continuous benchmarks spanning the same difficulty axes the
//! paper samples (unimodal/multimodal, separable/non-separable, smooth/
//! plateaued), all registered in [`crate::registry`].
//!
//! Functions whose classic optimum value is nonzero (Easom, Drop-Wave,
//! Branin, Trid, Schwefel 2.26) are shifted so `f* = 0`, keeping the
//! paper's solution-quality metric `f(x) − f*` uniform across the suite.
//! Michalewicz is the exception: its minimum is only known numerically for
//! specific dimensionalities, so it overrides [`Objective::optimum_value`]
//! instead (and only admits the dimensionalities with published optima).

use crate::Objective;
use std::f64::consts::PI;

macro_rules! extended_objective {
    (
        $(#[$meta:meta])*
        $name:ident, $str_name:expr, lo: $lo:expr, hi: $hi:expr,
        min_dim: $min_dim:expr,
        optimum: $opt:expr,
        eval($x:ident) $body:block
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            dim: usize,
        }

        impl $name {
            /// Create an instance with the given dimensionality.
            pub fn new(dim: usize) -> Self {
                assert!(
                    dim >= $min_dim,
                    concat!($str_name, " needs dim >= ", stringify!($min_dim))
                );
                Self { dim }
            }
        }

        impl Objective for $name {
            fn name(&self) -> &str {
                $str_name
            }
            fn dim(&self) -> usize {
                self.dim
            }
            fn bounds(&self, _dim: usize) -> (f64, f64) {
                ($lo, $hi)
            }
            fn eval(&self, $x: &[f64]) -> f64 {
                debug_assert_eq!($x.len(), self.dim);
                $body
            }
            fn optimum_position(&self) -> Option<Vec<f64>> {
                ($opt)(self.dim)
            }
        }
    };
}

macro_rules! fixed_2d_objective {
    (
        $(#[$meta:meta])*
        $name:ident, $str_name:expr, lo: $lo:expr, hi: $hi:expr,
        optimum: $opt:expr,
        eval($a:ident, $b:ident) $body:block
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        pub struct $name;

        impl $name {
            /// Create the (always 2-D) instance.
            pub fn new() -> Self {
                $name
            }
        }

        impl Objective for $name {
            fn name(&self) -> &str {
                $str_name
            }
            fn dim(&self) -> usize {
                2
            }
            fn bounds(&self, _dim: usize) -> (f64, f64) {
                ($lo, $hi)
            }
            fn eval(&self, x: &[f64]) -> f64 {
                debug_assert_eq!(x.len(), 2);
                let ($a, $b) = (x[0], x[1]);
                $body
            }
            fn optimum_position(&self) -> Option<Vec<f64>> {
                Some($opt.to_vec())
            }
        }
    };
}

extended_objective! {
    /// Levy: piecewise-sinusoidal multimodal surface with optimum `1…1`.
    Levy, "levy", lo: -10.0, hi: 10.0,
    min_dim: 1,
    optimum: |d| Some(vec![1.0; d]),
    eval(x) {
        let w = |v: f64| 1.0 + (v - 1.0) / 4.0;
        let w1 = w(x[0]);
        let wd = w(x[x.len() - 1]);
        let head = (PI * w1).sin().powi(2);
        let tail = (wd - 1.0).powi(2) * (1.0 + (2.0 * PI * wd).sin().powi(2));
        let mid: f64 = x[..x.len() - 1]
            .iter()
            .map(|&v| {
                let wi = w(v);
                (wi - 1.0).powi(2) * (1.0 + 10.0 * (PI * wi + 1.0).sin().powi(2))
            })
            .sum();
        head + mid + tail
    }
}

extended_objective! {
    /// Dixon–Price: `(x₁−1)² + Σᵢ i(2xᵢ² − xᵢ₋₁)²`; a bent unimodal valley
    /// whose minimizer coordinates decay as `2^(−(2ⁱ−2)/2ⁱ)`.
    DixonPrice, "dixon-price", lo: -10.0, hi: 10.0,
    min_dim: 1,
    optimum: |d: usize| {
        Some(
            (1..=d)
                .map(|i| {
                    let e = -((2f64.powi(i as i32) - 2.0) / 2f64.powi(i as i32));
                    2f64.powf(e)
                })
                .collect(),
        )
    },
    eval(x) {
        let head = (x[0] - 1.0).powi(2);
        let tail: f64 = x
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let t = 2.0 * w[1] * w[1] - w[0];
                (i + 2) as f64 * t * t
            })
            .sum();
        head + tail
    }
}

extended_objective! {
    /// Sum-of-squares (axis-weighted sphere): `Σ i·xᵢ²`; unimodal,
    /// separable, mildly ill-conditioned.
    SumSquares, "sum-squares", lo: -10.0, hi: 10.0,
    min_dim: 1,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        x.iter()
            .enumerate()
            .map(|(i, v)| (i + 1) as f64 * v * v)
            .sum()
    }
}

extended_objective! {
    /// Bent cigar: `x₁² + 10⁶ Σᵢ≥₂ xᵢ²`; extreme conditioning (10⁶) along
    /// one axis — a stress test for step-size adaptation.
    BentCigar, "bent-cigar", lo: -100.0, hi: 100.0,
    min_dim: 1,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        x[0] * x[0] + 1e6 * x[1..].iter().map(|v| v * v).sum::<f64>()
    }
}

extended_objective! {
    /// Ellipsoid: `Σ 10^(6(i−1)/(d−1)) xᵢ²`; smoothly graded conditioning
    /// from 1 to 10⁶ across coordinates (the CMA-ES standard test).
    Ellipsoid, "ellipsoid", lo: -100.0, hi: 100.0,
    min_dim: 1,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        let d = x.len();
        if d == 1 {
            return x[0] * x[0];
        }
        x.iter()
            .enumerate()
            .map(|(i, v)| 10f64.powf(6.0 * i as f64 / (d - 1) as f64) * v * v)
            .sum()
    }
}

extended_objective! {
    /// Alpine N.1: `Σ |xᵢ sin(xᵢ) + 0.1 xᵢ|`; non-smooth and multimodal
    /// with the optimum at the origin.
    Alpine1, "alpine1", lo: -10.0, hi: 10.0,
    min_dim: 1,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        x.iter().map(|v| (v * v.sin() + 0.1 * v).abs()).sum()
    }
}

extended_objective! {
    /// Salomon: `1 − cos(2π‖x‖) + 0.1‖x‖`; spherically symmetric ripples —
    /// only the radius matters, so it probes step-size control rather than
    /// direction finding.
    Salomon, "salomon", lo: -100.0, hi: 100.0,
    min_dim: 1,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        let r = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        1.0 - (2.0 * PI * r).cos() + 0.1 * r
    }
}

/// Per-dimension value of the Schwefel 2.26 additive constant that shifts
/// the global minimum to 0.
const SCHWEFEL226_OFFSET: f64 = 418.982_887_272_433_8;
/// Coordinate of the Schwefel 2.26 global minimizer.
const SCHWEFEL226_ARGMIN: f64 = 420.968_746_359_982_5;

extended_objective! {
    /// Schwefel 2.26 (shifted to `f* = 0`):
    /// `418.9829·d − Σ xᵢ sin(√|xᵢ|)`. The global optimum sits near the
    /// domain corner at `x ≈ 420.97`, far from the second-best basin —
    /// famously deceptive for swarm methods.
    ///
    /// Outside `[-500, 500]^d` the raw formula is unbounded below, which
    /// lets boundary-free solvers "beat" the declared optimum; following
    /// the usual benchmark convention the function is extended by
    /// evaluating at the clamped point plus a quadratic distance penalty
    /// (in-domain values are untouched).
    Schwefel226, "schwefel226", lo: -500.0, hi: 500.0,
    min_dim: 1,
    optimum: |d| Some(vec![SCHWEFEL226_ARGMIN; d]),
    eval(x) {
        let mut raw = 0.0;
        let mut penalty = 0.0;
        for &v in x {
            let c = v.clamp(-500.0, 500.0);
            raw += c * c.abs().sqrt().sin();
            let excess = v - c;
            penalty += excess * excess;
        }
        SCHWEFEL226_OFFSET * x.len() as f64 - raw + penalty
    }
}

fixed_2d_objective! {
    /// Booth: `(x + 2y − 7)² + (2x + y − 5)²`; a gentle 2-D quadratic with
    /// optimum `(1, 3)`.
    Booth, "booth", lo: -10.0, hi: 10.0,
    optimum: [1.0, 3.0],
    eval(a, b) {
        (a + 2.0 * b - 7.0).powi(2) + (2.0 * a + b - 5.0).powi(2)
    }
}

fixed_2d_objective! {
    /// Beale: sharp curved valley with optimum `(3, 0.5)` and large flat
    /// regions near the domain boundary.
    Beale, "beale", lo: -4.5, hi: 4.5,
    optimum: [3.0, 0.5],
    eval(a, b) {
        (1.5 - a + a * b).powi(2)
            + (2.25 - a + a * b * b).powi(2)
            + (2.625 - a + a * b * b * b).powi(2)
    }
}

fixed_2d_objective! {
    /// Himmelblau: `(x² + y − 11)² + (x + y² − 7)²`; four equal global
    /// optima (the registered position is `(3, 2)`).
    Himmelblau, "himmelblau", lo: -5.0, hi: 5.0,
    optimum: [3.0, 2.0],
    eval(a, b) {
        (a * a + b - 11.0).powi(2) + (a + b * b - 7.0).powi(2)
    }
}

fixed_2d_objective! {
    /// Easom (shifted to `f* = 0`): a needle-in-a-haystack — the unit-deep
    /// well at `(π, π)` is invisible from almost everywhere on the
    /// `[-100, 100]²` plateau.
    Easom, "easom", lo: -100.0, hi: 100.0,
    optimum: [PI, PI],
    eval(a, b) {
        1.0 - a.cos() * b.cos() * (-((a - PI).powi(2) + (b - PI).powi(2))).exp()
    }
}

fixed_2d_objective! {
    /// Drop-Wave (shifted to `f* = 0`): concentric ripples collapsing into
    /// a single deep well at the origin.
    DropWave, "drop-wave", lo: -5.12, hi: 5.12,
    optimum: [0.0, 0.0],
    eval(a, b) {
        let r2 = a * a + b * b;
        1.0 - (1.0 + (12.0 * r2.sqrt()).cos()) / (0.5 * r2 + 2.0)
    }
}

/// Branin minimum value before the `f* = 0` shift.
const BRANIN_MIN: f64 = 0.397_887_357_729_738_1;

/// Branin (shifted to `f* = 0`): the classic 2-D test with three global
/// optima and an asymmetric domain `[-5, 10] × [0, 15]`.
#[derive(Debug, Clone, Default)]
pub struct Branin;

impl Branin {
    /// Create the (always 2-D) Branin instance.
    pub fn new() -> Self {
        Branin
    }
}

impl Objective for Branin {
    fn name(&self) -> &str {
        "branin"
    }
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        if dim == 0 {
            (-5.0, 10.0)
        } else {
            (0.0, 15.0)
        }
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), 2);
        let (a, b) = (x[0], x[1]);
        let t1 = b - 5.1 / (4.0 * PI * PI) * a * a + 5.0 / PI * a - 6.0;
        let t2 = 10.0 * (1.0 - 1.0 / (8.0 * PI)) * a.cos();
        t1 * t1 + t2 + 10.0 - BRANIN_MIN
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        Some(vec![PI, 2.275])
    }
}

/// Trid (shifted to `f* = 0`): `Σ(xᵢ−1)² − Σ xᵢxᵢ₋₁` on `[-d², d²]^d`.
/// Strongly non-separable; its minimizer `xᵢ = i(d+1−i)` grows with the
/// dimension, so the optimum is far from the domain centre.
#[derive(Debug, Clone)]
pub struct Trid {
    dim: usize,
}

impl Trid {
    /// Create an instance with `dim ≥ 2`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 2, "trid needs dim >= 2");
        Trid { dim }
    }

    /// The unshifted optimum value `−d(d+4)(d−1)/6`.
    fn raw_minimum(&self) -> f64 {
        let d = self.dim as f64;
        -d * (d + 4.0) * (d - 1.0) / 6.0
    }
}

impl Objective for Trid {
    fn name(&self) -> &str {
        "trid"
    }
    fn dim(&self) -> usize {
        self.dim
    }
    fn bounds(&self, _dim: usize) -> (f64, f64) {
        let w = (self.dim * self.dim) as f64;
        (-w, w)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        let s1: f64 = x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum();
        let s2: f64 = x.windows(2).map(|w| w[0] * w[1]).sum();
        s1 - s2 - self.raw_minimum()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        let d = self.dim as f64;
        Some(
            (1..=self.dim)
                .map(|i| i as f64 * (d + 1.0 - i as f64))
                .collect(),
        )
    }
}

/// Michalewicz steepness parameter (the conventional `m = 10`).
const MICHALEWICZ_M: i32 = 10;

/// Published Michalewicz global minima `(dim, f*, best-known x for 2-D)`.
const MICHALEWICZ_OPTIMA: &[(usize, f64)] = &[
    (2, -1.801_303_410_098_554),
    (5, -4.687_658),
    (10, -9.660_151_7),
];

/// Michalewicz: `−Σ sin(xᵢ)·sin²ᵐ(i xᵢ²/π)` on `[0, π]^d` with steep,
/// narrow ridges whose count grows factorially with `d`.
///
/// Unlike the rest of the suite the minimum value is only known numerically
/// for `d ∈ {2, 5, 10}`, so this type restricts construction to those
/// dimensionalities and overrides [`Objective::optimum_value`] rather than
/// shifting.
#[derive(Debug, Clone)]
pub struct Michalewicz {
    dim: usize,
    fstar: f64,
}

impl Michalewicz {
    /// Create an instance; `dim` must be one of `{2, 5, 10}` (the
    /// dimensionalities with published global minima).
    pub fn new(dim: usize) -> Self {
        let fstar = MICHALEWICZ_OPTIMA
            .iter()
            .find(|(d, _)| *d == dim)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| panic!("michalewicz supports dim in {{2,5,10}}, got {dim}"));
        Michalewicz { dim, fstar }
    }
}

impl Objective for Michalewicz {
    fn name(&self) -> &str {
        "michalewicz"
    }
    fn dim(&self) -> usize {
        self.dim
    }
    fn bounds(&self, _dim: usize) -> (f64, f64) {
        (0.0, PI)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        -x.iter()
            .enumerate()
            .map(|(i, &v)| v.sin() * ((i + 1) as f64 * v * v / PI).sin().powi(2 * MICHALEWICZ_M))
            .sum::<f64>()
    }
    fn optimum_value(&self) -> f64 {
        self.fstar
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        // Only the 2-D minimizer is published to useful precision; its
        // second coordinate is exactly π/2.
        if self.dim == 2 {
            Some(vec![2.202_905_48, std::f64::consts::FRAC_PI_2])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::{Rng64, Xoshiro256pp};

    fn all_extended(dim: usize) -> Vec<Box<dyn Objective>> {
        vec![
            Box::new(Levy::new(dim)),
            Box::new(DixonPrice::new(dim)),
            Box::new(SumSquares::new(dim)),
            Box::new(BentCigar::new(dim)),
            Box::new(Ellipsoid::new(dim)),
            Box::new(Alpine1::new(dim)),
            Box::new(Salomon::new(dim)),
            Box::new(Schwefel226::new(dim)),
            Box::new(Trid::new(dim.max(2))),
            Box::new(Booth::new()),
            Box::new(Beale::new()),
            Box::new(Himmelblau::new()),
            Box::new(Easom::new()),
            Box::new(DropWave::new()),
            Box::new(Branin::new()),
            Box::new(Michalewicz::new(2)),
        ]
    }

    #[test]
    fn optima_evaluate_to_optimum_value() {
        for f in all_extended(10) {
            if let Some(x) = f.optimum_position() {
                assert_eq!(x.len(), f.dim(), "{}", f.name());
                let q = f.quality(&x);
                assert!(
                    q.abs() < 1e-5,
                    "{}: f(opt) off by {q} (f = {}, f* = {})",
                    f.name(),
                    f.eval(&x),
                    f.optimum_value()
                );
            }
        }
    }

    #[test]
    fn optimum_positions_inside_domain() {
        for f in all_extended(10) {
            if let Some(x) = f.optimum_position() {
                for (d, v) in x.iter().enumerate() {
                    let (lo, hi) = f.bounds(d);
                    assert!(
                        (lo..=hi).contains(v),
                        "{}: optimum coord {d} = {v} outside [{lo}, {hi}]",
                        f.name()
                    );
                }
            }
        }
    }

    #[test]
    fn random_points_never_beat_optimum() {
        let mut rng = Xoshiro256pp::seeded(41);
        for f in all_extended(10) {
            for _ in 0..300 {
                let x: Vec<f64> = (0..f.dim())
                    .map(|d| {
                        let (lo, hi) = f.bounds(d);
                        rng.range_f64(lo, hi)
                    })
                    .collect();
                let v = f.eval(&x);
                assert!(v.is_finite(), "{} not finite at {x:?}", f.name());
                assert!(
                    v >= f.optimum_value() - 1e-9,
                    "{} below optimum at {x:?}: {v}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn levy_hand_computed_at_origin() {
        // d=1, x=0: w = 0.75, f = sin²(0.75π) + (w−1)²(1+sin²(2πw)).
        let f = Levy::new(1);
        let w: f64 = 0.75;
        let expect =
            (PI * w).sin().powi(2) + (w - 1.0).powi(2) * (1.0 + (2.0 * PI * w).sin().powi(2));
        assert!((f.eval(&[0.0]) - expect).abs() < 1e-12);
        // sin(π) is ~1e-16 in floating point, so f(1) is ~1e-32, not 0.
        assert!(f.eval(&[1.0]) < 1e-30);
    }

    #[test]
    fn dixon_price_closed_form_minimizer() {
        let f = DixonPrice::new(5);
        let x = f.optimum_position().unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12, "x1 = 2^0 = 1");
        assert!((x[1] - 2f64.powf(-0.5)).abs() < 1e-12);
        assert!(f.eval(&x) < 1e-12);
    }

    #[test]
    fn bent_cigar_conditioning() {
        let f = BentCigar::new(3);
        assert_eq!(f.eval(&[1.0, 0.0, 0.0]), 1.0);
        assert_eq!(f.eval(&[0.0, 1.0, 0.0]), 1e6);
    }

    #[test]
    fn ellipsoid_weights_grow_to_1e6() {
        let f = Ellipsoid::new(2);
        assert_eq!(f.eval(&[1.0, 0.0]), 1.0);
        assert_eq!(f.eval(&[0.0, 1.0]), 1e6);
        // d=1 degenerates to sphere.
        let g = Ellipsoid::new(1);
        assert_eq!(g.eval(&[3.0]), 9.0);
    }

    #[test]
    fn salomon_depends_only_on_radius() {
        let f = Salomon::new(2);
        let a = f.eval(&[3.0, 4.0]);
        let b = f.eval(&[5.0, 0.0]);
        assert!((a - b).abs() < 1e-12, "radius-5 points must agree");
    }

    #[test]
    fn schwefel226_deceptive_second_basin() {
        let f = Schwefel226::new(1);
        // The second-best basin is near −302.5; it must be clearly worse
        // than the global one near +420.97.
        let global = f.eval(&[SCHWEFEL226_ARGMIN]);
        let deceptive = f.eval(&[-302.52]);
        assert!(global < 1e-4, "global {global}");
        assert!(deceptive > 100.0, "deceptive basin value {deceptive}");
    }

    #[test]
    fn himmelblau_all_four_optima() {
        let f = Himmelblau::new();
        for p in [
            [3.0, 2.0],
            [-2.805118, 3.131312],
            [-3.779310, -3.283186],
            [3.584428, -1.848126],
        ] {
            assert!(f.eval(&p) < 1e-9, "optimum {p:?} -> {}", f.eval(&p));
        }
    }

    #[test]
    fn branin_three_optima_and_asymmetric_domain() {
        let f = Branin::new();
        for p in [[-PI, 12.275], [PI, 2.275], [9.424_78, 2.475]] {
            assert!(f.eval(&p) < 1e-4, "optimum {p:?} -> {}", f.eval(&p));
        }
        assert_eq!(f.bounds(0), (-5.0, 10.0));
        assert_eq!(f.bounds(1), (0.0, 15.0));
    }

    #[test]
    fn easom_is_flat_far_from_the_needle() {
        let f = Easom::new();
        assert!((f.eval(&[PI, PI])).abs() < 1e-12);
        assert!((f.eval(&[50.0, -50.0]) - 1.0).abs() < 1e-12, "plateau at 1");
    }

    #[test]
    fn drop_wave_well_depth() {
        let f = DropWave::new();
        assert!(f.eval(&[0.0, 0.0]).abs() < 1e-12);
        assert!(f.eval(&[5.0, 5.0]) > 0.5);
    }

    #[test]
    fn trid_closed_form_optimum() {
        for d in [2, 5, 10] {
            let f = Trid::new(d);
            let x = f.optimum_position().unwrap();
            assert!(
                f.eval(&x).abs() < 1e-8,
                "trid d={d}: f(opt) = {}",
                f.eval(&x)
            );
        }
        // Bounds scale with d².
        assert_eq!(Trid::new(5).bounds(0), (-25.0, 25.0));
    }

    #[test]
    fn michalewicz_published_minima() {
        let f2 = Michalewicz::new(2);
        let x = f2.optimum_position().unwrap();
        assert!(f2.quality(&x) < 1e-6, "2-D quality {}", f2.quality(&x));
        // 5-D and 10-D: known value available even without the position.
        assert!((Michalewicz::new(5).optimum_value() + 4.687658).abs() < 1e-9);
        assert!((Michalewicz::new(10).optimum_value() + 9.6601517).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "michalewicz supports dim")]
    fn michalewicz_rejects_unpublished_dims() {
        let _ = Michalewicz::new(3);
    }

    #[test]
    fn sum_squares_weighted() {
        let f = SumSquares::new(3);
        assert_eq!(f.eval(&[1.0, 1.0, 1.0]), 6.0); // 1 + 2 + 3
    }

    #[test]
    fn alpine1_nonnegative_and_nonsmooth() {
        let f = Alpine1::new(4);
        assert_eq!(f.eval(&[0.0; 4]), 0.0);
        let v = f.eval(&[1.0, -2.0, 3.0, -4.0]);
        assert!(v > 0.0);
    }
}

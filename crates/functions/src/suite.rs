//! The benchmark function suite.
//!
//! The six paper functions, with the domains conventional in the PSO
//! literature of the period (the paper omits analytical expressions and
//! domains, citing their ubiquity):
//!
//! | Function | Domain | Dim (paper) | Character |
//! |---|---|---|---|
//! | De Jong F2 | `[-2.048, 2.048]^2` | 2 | "easy" (2-D Rosenbrock) |
//! | Zakharov | `[-5, 10]^d` | 10 | unimodal, "nice" |
//! | Rosenbrock | `[-30, 30]^d` | 10 | narrow curved valley |
//! | Sphere | `[-100, 100]^d` | 10 | unimodal, separable |
//! | Schaffer F6 | `[-100, 100]^2` | 2* | concentric ripple rings |
//! | Griewank | `[-600, 600]^d` | 10 | many regular local optima |
//!
//! *The paper states 10-D for everything but F2, yet its Schaffer results
//! pin at `0.009716`, the second-ring value of the **2-D** Schaffer F6; we
//! provide both the 2-D original and an N-D generalization.
//!
//! Extension functions (Rastrigin, Ackley, Schwefel 1.2, Step,
//! Styblinski–Tang) support the future-work experiments.

use crate::Objective;
use std::f64::consts::PI;

macro_rules! simple_objective {
    (
        $(#[$meta:meta])*
        $name:ident, $str_name:expr, lo: $lo:expr, hi: $hi:expr,
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
                assert!(dim >= 1, concat!($str_name, " needs dim >= 1"));
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

simple_objective! {
    /// Sphere: `f(x) = Σ xᵢ²`; the canonical unimodal baseline.
    Sphere, "sphere", lo: -100.0, hi: 100.0,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) { x.iter().map(|v| v * v).sum() }
}

simple_objective! {
    /// Rosenbrock: `Σ 100(x_{i+1} − xᵢ²)² + (1 − xᵢ)²`; a narrow curved
    /// valley whose floor must be followed to reach the optimum at `1…1`.
    Rosenbrock, "rosenbrock", lo: -30.0, hi: 30.0,
    optimum: |d| Some(vec![1.0; d]),
    eval(x) {
        x.windows(2)
            .map(|w| {
                let t = w[1] - w[0] * w[0];
                100.0 * t * t + (1.0 - w[0]) * (1.0 - w[0])
            })
            .sum()
    }
}

simple_objective! {
    /// Zakharov: `Σ xᵢ² + (Σ 0.5 i xᵢ)² + (Σ 0.5 i xᵢ)⁴` (1-based `i`);
    /// unimodal with a plate-shaped region.
    Zakharov, "zakharov", lo: -5.0, hi: 10.0,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        let s1: f64 = x.iter().map(|v| v * v).sum();
        let s2: f64 = x
            .iter()
            .enumerate()
            .map(|(i, v)| 0.5 * (i + 1) as f64 * v)
            .sum();
        s1 + s2 * s2 + s2 * s2 * s2 * s2
    }
}

simple_objective! {
    /// Griewank: `1 + Σ xᵢ²/4000 − Π cos(xᵢ/√i)`; thousands of regularly
    /// spaced local optima superimposed on a parabola.
    Griewank, "griewank", lo: -600.0, hi: 600.0,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        let s: f64 = x.iter().map(|v| v * v).sum::<f64>() / 4000.0;
        let p: f64 = x
            .iter()
            .enumerate()
            .map(|(i, v)| (v / ((i + 1) as f64).sqrt()).cos())
            .product();
        1.0 + s - p
    }
}

simple_objective! {
    /// Rastrigin (extension): `10d + Σ xᵢ² − 10 cos(2π xᵢ)`; highly
    /// multimodal with a regular lattice of local optima.
    Rastrigin, "rastrigin", lo: -5.12, hi: 5.12,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        10.0 * x.len() as f64
            + x.iter()
                .map(|v| v * v - 10.0 * (2.0 * PI * v).cos())
                .sum::<f64>()
    }
}

simple_objective! {
    /// Ackley (extension): exponential well with a nearly flat outer region.
    Ackley, "ackley", lo: -32.768, hi: 32.768,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        let d = x.len() as f64;
        let sq = x.iter().map(|v| v * v).sum::<f64>() / d;
        let cs = x.iter().map(|v| (2.0 * PI * v).cos()).sum::<f64>() / d;
        -20.0 * (-0.2 * sq.sqrt()).exp() - cs.exp() + 20.0 + std::f64::consts::E
    }
}

simple_objective! {
    /// Schwefel problem 1.2 / double-sum (extension): `Σᵢ (Σ_{j≤i} xⱼ)²`;
    /// unimodal but strongly non-separable.
    Schwefel12, "schwefel12", lo: -100.0, hi: 100.0,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        let mut total = 0.0;
        let mut prefix = 0.0;
        for v in x {
            prefix += v;
            total += prefix * prefix;
        }
        total
    }
}

simple_objective! {
    /// De Jong's step function (extension): `Σ ⌊xᵢ + 0.5⌋²`; piecewise
    /// constant — gradient-free plateaus everywhere.
    Step, "step", lo: -100.0, hi: 100.0,
    optimum: |d| Some(vec![0.0; d]),
    eval(x) {
        x.iter()
            .map(|v| {
                let t = (v + 0.5).floor();
                t * t
            })
            .sum()
    }
}

/// De Jong's F2 — the 2-dimensional Rosenbrock specialization on the classic
/// `[-2.048, 2.048]²` domain, the paper's "easy" function.
#[derive(Debug, Clone, Default)]
pub struct DeJongF2;

impl DeJongF2 {
    /// Create the (always 2-D) De Jong F2 instance.
    pub fn new() -> Self {
        DeJongF2
    }
}

impl Objective for DeJongF2 {
    fn name(&self) -> &str {
        "f2"
    }
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self, _dim: usize) -> (f64, f64) {
        (-2.048, 2.048)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), 2);
        let t = x[0] * x[0] - x[1];
        100.0 * t * t + (1.0 - x[0]) * (1.0 - x[0])
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        Some(vec![1.0, 1.0])
    }
}

/// Schaffer's F6 — the classic 2-D ripple function
/// `0.5 + (sin²√(x²+y²) − 0.5) / (1 + 0.001(x²+y²))²`.
///
/// Its global optimum `0` at the origin is ringed by local optima; the best
/// ring value `≈ 0.0097159` is the plateau visible in the paper's Schaffer
/// rows (Tables 1–3 report exactly `0.00972`).
#[derive(Debug, Clone, Default)]
pub struct SchafferF6;

impl SchafferF6 {
    /// Create the (always 2-D) Schaffer F6 instance.
    pub fn new() -> Self {
        SchafferF6
    }

    /// The ripple term for squared radius `r2`.
    #[inline]
    fn ripple(r2: f64) -> f64 {
        let s = r2.sqrt().sin();
        let denom = 1.0 + 0.001 * r2;
        0.5 + (s * s - 0.5) / (denom * denom)
    }
}

impl Objective for SchafferF6 {
    fn name(&self) -> &str {
        "schaffer"
    }
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self, _dim: usize) -> (f64, f64) {
        (-100.0, 100.0)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), 2);
        Self::ripple(x[0] * x[0] + x[1] * x[1])
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        Some(vec![0.0, 0.0])
    }
}

/// Generalized N-D Schaffer F6: sum of the 2-D ripple over consecutive
/// coordinate pairs `(xᵢ, xᵢ₊₁)`, `i = 1..d−1` (a common "expanded F6").
#[derive(Debug, Clone)]
pub struct SchafferF6Nd {
    dim: usize,
}

impl SchafferF6Nd {
    /// Create the expanded Schaffer F6 with `dim ≥ 2` coordinates.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 2, "expanded Schaffer F6 needs dim >= 2");
        SchafferF6Nd { dim }
    }
}

impl Objective for SchafferF6Nd {
    fn name(&self) -> &str {
        "schaffer-nd"
    }
    fn dim(&self) -> usize {
        self.dim
    }
    fn bounds(&self, _dim: usize) -> (f64, f64) {
        (-100.0, 100.0)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        x.windows(2)
            .map(|w| SchafferF6::ripple(w[0] * w[0] + w[1] * w[1]))
            .sum()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        Some(vec![0.0; self.dim])
    }
}

/// Styblinski–Tang (extension): `½ Σ xᵢ⁴ − 16xᵢ² + 5xᵢ`, shifted so the
/// global optimum value is 0 (at `xᵢ ≈ −2.903534`).
#[derive(Debug, Clone)]
pub struct StyblinskiTang {
    dim: usize,
}

/// Per-dimension offset making the Styblinski–Tang optimum exactly the
/// value at the analytic minimizer (so `quality = f − f*` is 0 there).
const STYBLINSKI_MIN_PER_DIM: f64 = -39.166_165_703_771_41;
/// Analytic minimizer coordinate of the Styblinski–Tang polynomial.
const STYBLINSKI_ARGMIN: f64 = -2.903_534_018_185_96;

impl StyblinskiTang {
    /// Create an instance with the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1);
        StyblinskiTang { dim }
    }
}

impl Objective for StyblinskiTang {
    fn name(&self) -> &str {
        "styblinski-tang"
    }
    fn dim(&self) -> usize {
        self.dim
    }
    fn bounds(&self, _dim: usize) -> (f64, f64) {
        (-5.0, 5.0)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        let raw: f64 = x
            .iter()
            .map(|v| 0.5 * (v.powi(4) - 16.0 * v * v + 5.0 * v))
            .sum();
        raw - STYBLINSKI_MIN_PER_DIM * self.dim as f64
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        Some(vec![STYBLINSKI_ARGMIN; self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::{Rng64, Xoshiro256pp};

    fn assert_optimum_is_zero(f: &dyn Objective, tol: f64) {
        let x = f.optimum_position().expect("suite functions have optima");
        assert_eq!(x.len(), f.dim());
        let v = f.eval(&x);
        assert!(
            (v - f.optimum_value()).abs() <= tol,
            "{}: f(opt) = {v}, expected {}",
            f.name(),
            f.optimum_value()
        );
    }

    #[test]
    fn optima_evaluate_to_optimum_value() {
        assert_optimum_is_zero(&Sphere::new(10), 0.0);
        assert_optimum_is_zero(&Rosenbrock::new(10), 0.0);
        assert_optimum_is_zero(&Zakharov::new(10), 0.0);
        assert_optimum_is_zero(&Griewank::new(10), 1e-15);
        assert_optimum_is_zero(&Rastrigin::new(10), 1e-12);
        assert_optimum_is_zero(&Ackley::new(10), 1e-12);
        assert_optimum_is_zero(&Schwefel12::new(10), 0.0);
        assert_optimum_is_zero(&Step::new(10), 0.0);
        assert_optimum_is_zero(&DeJongF2::new(), 0.0);
        assert_optimum_is_zero(&SchafferF6::new(), 0.0);
        assert_optimum_is_zero(&SchafferF6Nd::new(10), 0.0);
        assert_optimum_is_zero(&StyblinskiTang::new(10), 1e-10);
    }

    #[test]
    fn sphere_known_values() {
        let f = Sphere::new(3);
        assert_eq!(f.eval(&[1.0, 2.0, 3.0]), 14.0);
        assert_eq!(f.eval(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn rosenbrock_valley_floor() {
        let f = Rosenbrock::new(2);
        // Points on the parabola x2 = x1^2 leave only the (1-x1)^2 term.
        assert!((f.eval(&[0.5, 0.25]) - 0.25).abs() < 1e-12);
        assert_eq!(f.eval(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn dejong_f2_matches_rosenbrock_2d_up_to_domain() {
        let f2 = DeJongF2::new();
        let r = Rosenbrock::new(2);
        let pts = [[0.3, -0.7], [1.0, 1.0], [-1.5, 2.0]];
        for p in pts {
            assert!((f2.eval(&p) - r.eval(&p)).abs() < 1e-12);
        }
        assert_eq!(f2.bounds(0), (-2.048, 2.048));
        assert_eq!(r.bounds(0), (-30.0, 30.0));
    }

    #[test]
    fn zakharov_hand_computed() {
        let f = Zakharov::new(2);
        // x = [1, 1]: s1 = 2, s2 = 0.5*1*1 + 0.5*2*1 = 1.5
        let s2: f64 = 1.5;
        let expect = 2.0 + s2.powi(2) + s2.powi(4);
        assert!((f.eval(&[1.0, 1.0]) - expect).abs() < 1e-12);
    }

    #[test]
    fn griewank_product_term_range() {
        let f = Griewank::new(10);
        // Far from the origin the quadratic dominates and the value is large.
        let far = vec![500.0; 10];
        assert!(f.eval(&far) > 100.0);
    }

    #[test]
    fn schaffer_ring_value_matches_paper_constant() {
        let f = SchafferF6::new();
        // The best local ring of 2-D Schaffer F6 sits near radius π (first
        // ring where sin^2 = 0 is r = π); scan radii to find the best
        // non-global local plateau the paper reports as 0.00972.
        let mut best_ring = f64::INFINITY;
        let mut r = 2.5;
        while r < 4.0 {
            let v = f.eval(&[r, 0.0]);
            best_ring = best_ring.min(v);
            r += 1e-4;
        }
        assert!(
            (best_ring - 0.00972).abs() < 2e-4,
            "ring value {best_ring} should match the paper's 0.00972"
        );
    }

    #[test]
    fn schaffer_is_radially_symmetric() {
        let f = SchafferF6::new();
        let r: f64 = 7.3;
        let a = f.eval(&[r, 0.0]);
        let b = f.eval(&[0.0, r]);
        let c = f.eval(&[r / 2f64.sqrt(), r / 2f64.sqrt()]);
        assert!((a - b).abs() < 1e-12);
        assert!((a - c).abs() < 1e-9);
    }

    #[test]
    fn schaffer_nd_reduces_to_2d() {
        let nd = SchafferF6Nd::new(2);
        let d2 = SchafferF6::new();
        for p in [[3.0, 4.0], [0.0, 0.0], [-10.0, 2.0]] {
            assert!((nd.eval(&p) - d2.eval(&p)).abs() < 1e-12);
        }
    }

    #[test]
    fn rastrigin_lattice_local_minima() {
        let f = Rastrigin::new(2);
        // Integer lattice points are stationary; (1,0) is a local min with
        // value 1 (since cos(2π·1)=1, contribution 1^2).
        assert!((f.eval(&[1.0, 0.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ackley_far_field_plateau() {
        let f = Ackley::new(10);
        let far = vec![30.0; 10];
        let v = f.eval(&far);
        assert!(v > 19.0 && v < 23.0, "far-field value {v}");
    }

    #[test]
    fn schwefel12_nonseparable_prefix_sums() {
        let f = Schwefel12::new(3);
        // prefix sums: 1, 3, 6 -> 1 + 9 + 36 = 46
        assert_eq!(f.eval(&[1.0, 2.0, 3.0]), 46.0);
    }

    #[test]
    fn step_plateaus() {
        let f = Step::new(1);
        assert_eq!(f.eval(&[0.2]), 0.0);
        assert_eq!(f.eval(&[0.49]), 0.0);
        assert_eq!(f.eval(&[0.51]), 1.0);
        assert_eq!(f.eval(&[-0.51]), 1.0);
        assert_eq!(f.eval(&[-0.49]), 0.0);
    }

    #[test]
    fn quality_is_value_minus_optimum() {
        let f = StyblinskiTang::new(3);
        let x = vec![0.0; 3];
        assert!((f.quality(&x) - (f.eval(&x) - f.optimum_value())).abs() < 1e-12);
    }

    #[test]
    fn random_points_never_beat_optimum() {
        // A light property check shared by all suite functions: random
        // in-domain points never evaluate below the declared optimum.
        let mut rng = Xoshiro256pp::seeded(77);
        let fns: Vec<Box<dyn Objective>> = vec![
            Box::new(Sphere::new(10)),
            Box::new(Rosenbrock::new(10)),
            Box::new(Zakharov::new(10)),
            Box::new(Griewank::new(10)),
            Box::new(Rastrigin::new(10)),
            Box::new(Ackley::new(10)),
            Box::new(Schwefel12::new(10)),
            Box::new(Step::new(10)),
            Box::new(DeJongF2::new()),
            Box::new(SchafferF6::new()),
            Box::new(SchafferF6Nd::new(10)),
            Box::new(StyblinskiTang::new(10)),
        ];
        for f in &fns {
            for _ in 0..500 {
                let x: Vec<f64> = (0..f.dim())
                    .map(|d| {
                        let (lo, hi) = f.bounds(d);
                        rng.range_f64(lo, hi)
                    })
                    .collect();
                let v = f.eval(&x);
                assert!(
                    v >= f.optimum_value() - 1e-9,
                    "{} below optimum at {x:?}: {v}",
                    f.name()
                );
                assert!(v.is_finite(), "{} not finite at {x:?}", f.name());
            }
        }
    }
}

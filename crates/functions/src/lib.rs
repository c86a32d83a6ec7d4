#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gossipopt-functions
//!
//! The continuous benchmark objective suite used in the paper's evaluation —
//! De Jong's F2, Zakharov, Rosenbrock, Sphere, Schaffer's F6 and Griewank —
//! plus a set of classic extensions (Rastrigin, Ackley, Schwefel 1.2, Step,
//! Styblinski–Tang) for the follow-on experiments.
//!
//! All functions are **minimization** problems exposing their search domain
//! and known global optimum through the [`Objective`] trait, and are
//! registered by name in [`registry`] so experiments can be configured from
//! strings.
//!
//! Every objective evaluates one point at a time through
//! [`Objective::eval`], the unit of work a node spends per local step.
//! [`wrappers::RestrictedObjective`] restricts a function to a sub-box
//! (used by the search-space-partitioning coordination strategy).

pub mod extended;
pub mod registry;
pub mod suite;
pub mod wrappers;

pub use extended::*;
pub use registry::{by_name, names, paper_suite, FunctionSpec};
pub use suite::*;
pub use wrappers::RestrictedObjective;

/// A continuous objective function to be minimized over a box domain.
///
/// Implementations must be pure (no interior mutability observable through
/// `eval`) so they can be shared freely across simulated nodes and threads.
pub trait Objective: Send + Sync {
    /// Human-readable identifier (stable; used in experiment manifests).
    fn name(&self) -> &str;

    /// Problem dimensionality.
    fn dim(&self) -> usize;

    /// Per-coordinate search interval `[lo, hi]`.
    ///
    /// All suite functions use a hypercube, but the trait allows
    /// per-dimension bounds (needed by [`RestrictedObjective`]).
    fn bounds(&self, dim: usize) -> (f64, f64);

    /// Evaluate at `x`; `x.len()` must equal [`Objective::dim`].
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluate `out.len()` points stored contiguously in `xs` with stride
    /// `k` (point `i` is `xs[i*k..(i+1)*k]`), writing values into `out`.
    ///
    /// Calls [`Objective::eval`] once per point, so values are the
    /// point-wise ones bit for bit. No objective overrides it and no solver
    /// batches: solvers evaluate one point per step through `eval`.
    ///
    /// Panics if `k` is not the dimensionality or `xs` does not hold
    /// exactly `out.len()` points.
    fn eval_batch(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        assert_eq!(k, self.dim(), "stride must equal the dimensionality");
        assert_eq!(xs.len(), k * out.len(), "xs must hold out.len() points");
        for (chunk, slot) in xs.chunks_exact(k).zip(out.iter_mut()) {
            *slot = self.eval(chunk);
        }
    }

    /// The known global minimum value, used to compute solution quality
    /// `f(x) − f*` (all suite functions have `f* = 0`).
    fn optimum_value(&self) -> f64 {
        0.0
    }

    /// A known global minimizer, if any (used by tests).
    fn optimum_position(&self) -> Option<Vec<f64>> {
        None
    }

    /// Solution quality as defined in the paper: distance of the achieved
    /// value from the best known value.
    fn quality(&self, x: &[f64]) -> f64 {
        self.eval(x) - self.optimum_value()
    }
}

/// Blanket impl so `&T` can be used wherever an [`Objective`] is expected.
impl<T: Objective + ?Sized> Objective for &T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        (**self).bounds(dim)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        (**self).eval(x)
    }
    fn optimum_value(&self) -> f64 {
        (**self).optimum_value()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        (**self).optimum_position()
    }
}

/// Blanket impl for shared ownership across simulated nodes.
impl<T: Objective + ?Sized> Objective for std::sync::Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        (**self).bounds(dim)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        (**self).eval(x)
    }
    fn optimum_value(&self) -> f64 {
        (**self).optimum_value()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        (**self).optimum_position()
    }
}

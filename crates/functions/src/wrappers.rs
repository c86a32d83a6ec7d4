//! Objective adapters: sub-box restriction.

use crate::Objective;

/// Restricts the search domain to a sub-box (used by the search-space
/// partitioning coordination strategy, where each node owns a zone).
///
/// Evaluation is unchanged — only the advertised [`Objective::bounds`]
/// shrink, steering initialization and bound-respecting solvers into the
/// zone.
pub struct RestrictedObjective<F> {
    inner: F,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl<F: Objective> RestrictedObjective<F> {
    /// Restrict to the box `[lo, hi]` per dimension; the box must be
    /// non-empty and inside the inner domain.
    pub fn new(inner: F, lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), inner.dim());
        assert_eq!(hi.len(), inner.dim());
        for d in 0..inner.dim() {
            let (ilo, ihi) = inner.bounds(d);
            assert!(
                ilo <= lo[d] && lo[d] < hi[d] && hi[d] <= ihi,
                "restriction [{}, {}] outside domain [{ilo}, {ihi}] at dim {d}",
                lo[d],
                hi[d]
            );
        }
        RestrictedObjective { inner, lo, hi }
    }

    /// The zone this instance is restricted to.
    pub fn zone(&self) -> (&[f64], &[f64]) {
        (&self.lo, &self.hi)
    }
}

impl<F: Objective> Objective for RestrictedObjective<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        (self.lo[dim], self.hi[dim])
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.inner.eval(x)
    }
    fn optimum_value(&self) -> f64 {
        self.inner.optimum_value()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        self.inner.optimum_position()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Sphere;

    #[test]
    fn restricted_narrows_bounds_only() {
        let f = RestrictedObjective::new(Sphere::new(2), vec![0.0, 0.0], vec![10.0, 10.0]);
        assert_eq!(f.bounds(0), (0.0, 10.0));
        // Evaluation outside the zone still works (zone is advisory).
        assert_eq!(f.eval(&[-5.0, 0.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn restricted_rejects_escape() {
        RestrictedObjective::new(Sphere::new(1), vec![-500.0], vec![0.0]);
    }
}

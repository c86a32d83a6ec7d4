//! Streaming statistics for experiment aggregation.
//!
//! The paper reports `avg / min / max / Var` over 50 repetitions of each
//! experiment cell (Tables 1–4). [`OnlineStats`] accumulates exactly those
//! aggregates in one pass with Welford's numerically stable update, and
//! [`Summary`] is the frozen result attached to emitted CSV/JSON rows.

use serde::{Deserialize, Serialize};

/// Welford online accumulator of count, mean, variance, min and max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction;
    /// Chan et al. pairwise update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (`NaN` when empty). The paper's `Var` column is a
    /// population variance over the repetitions.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (`NaN` when fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Freeze into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            avg: self.mean(),
            min: self.min(),
            max: self.max(),
            var: self.variance(),
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Frozen aggregate in the paper's table format: `avg min max Var`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of repetitions aggregated.
    pub count: u64,
    /// Mean over repetitions.
    pub avg: f64,
    /// Best (smallest) repetition.
    pub min: f64,
    /// Worst (largest) repetition.
    pub max: f64,
    /// Population variance over repetitions.
    pub var: f64,
}

impl Summary {
    /// Render in the paper's scientific-notation style.
    pub fn paper_row(&self) -> String {
        format!(
            "{:<12.5e} {:<12.5e} {:<12.5e} {:<12.5e}",
            self.avg, self.min, self.max, self.var
        )
    }
}

/// Percentile of a sample by linear interpolation (`q` in `[0,1]`).
///
/// Sorts a copy; intended for post-hoc analysis, not hot loops.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q={q} out of [0,1]");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// `log10` clamped to the smallest positive normal, the transform used on the
/// paper's "solution quality (log)" axes where qualities may reach exact 0.
pub fn log10_clamped(x: f64) -> f64 {
    x.max(f64::MIN_POSITIVE).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (mean, var, min, max)
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [3.0, 1.5, -2.0, 8.25, 0.0, 4.5];
        let s: OnlineStats = xs.iter().copied().collect();
        let (mean, var, min, max) = naive(&xs);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn empty_behaviour() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.sample_variance().is_nan());
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: OnlineStats = xs.iter().copied().collect();
        let left: OnlineStats = xs[..37].iter().copied().collect();
        let right: OnlineStats = xs[37..].iter().copied().collect();
        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut s: OnlineStats = xs.iter().copied().collect();
        let before = s.summary();
        s.merge(&OnlineStats::new());
        assert_eq!(s.summary(), before);

        let mut e = OnlineStats::new();
        e.merge(&xs.iter().copied().collect());
        assert_eq!(e.summary(), before);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Classic catastrophic-cancellation scenario for naive two-pass sums.
        let base = 1e9;
        let xs: Vec<f64> = (0..1000).map(|i| base + (i % 7) as f64).collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let (_, var, _, _) = naive(&xs);
        assert!(
            (s.variance() - var).abs() / var < 1e-6,
            "{} vs {}",
            s.variance(),
            var
        );
    }

    #[test]
    fn percentile_basics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert!((percentile(&xs, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn log10_clamped_handles_zero() {
        assert!(log10_clamped(0.0).is_finite());
        assert!(log10_clamped(0.0) < -300.0);
        assert_eq!(log10_clamped(100.0), 2.0);
    }

    #[test]
    fn summary_row_formats() {
        let s: OnlineStats = [0.5, 1.5].iter().copied().collect();
        let row = s.summary().paper_row();
        assert!(
            row.contains("e0") || row.contains("e-") || row.contains('e'),
            "{row}"
        );
    }
}

//! Churn models: node crashes and joins over time.
//!
//! The paper's target deployment is an organization's pool of desktop
//! workstations where "nodes may join and leave the system at will". The
//! engines drive churn from this declarative description; scripted
//! crash/join calls are also available on the engines for tests and
//! catastrophic-failure experiments.

use gossipopt_util::{Rng64, Xoshiro256pp};

/// Declarative churn process, evaluated once per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Probability that each live node crashes in a given tick.
    pub crash_prob_per_tick: f64,
    /// Expected number of joins per tick (Poisson-thinned Bernoulli: the
    /// integer part joins deterministically, the fraction probabilistically).
    pub joins_per_tick: f64,
    /// Never crash below this population (keeps experiments well-defined).
    pub min_nodes: usize,
    /// Never join above this population.
    pub max_nodes: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig::none()
    }
}

impl ChurnConfig {
    /// Static network: no crashes, no joins.
    pub fn none() -> Self {
        ChurnConfig {
            crash_prob_per_tick: 0.0,
            joins_per_tick: 0.0,
            min_nodes: 0,
            max_nodes: usize::MAX,
        }
    }

    /// Balanced churn keeping the expected population near `n`: each tick a
    /// node crashes with probability `rate` and on average `rate * n` nodes
    /// join.
    pub fn balanced(rate: f64, n: usize) -> Self {
        assert!((0.0..=1.0).contains(&rate), "churn rate out of [0,1]");
        ChurnConfig {
            crash_prob_per_tick: rate,
            joins_per_tick: rate * n as f64,
            min_nodes: 1,
            max_nodes: 2 * n,
        }
    }

    /// True if this configuration can never change the population.
    pub fn is_static(&self) -> bool {
        self.crash_prob_per_tick == 0.0 && self.joins_per_tick == 0.0
    }

    /// Number of joins to perform this tick.
    pub fn sample_joins(&self, rng: &mut Xoshiro256pp) -> usize {
        let whole = self.joins_per_tick.trunc() as usize;
        let frac = self.joins_per_tick.fract();
        whole + usize::from(frac > 0.0 && rng.chance(frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_static() {
        assert!(ChurnConfig::none().is_static());
        assert!(!ChurnConfig::balanced(0.01, 100).is_static());
    }

    #[test]
    fn sample_joins_mean() {
        let cfg = ChurnConfig {
            joins_per_tick: 2.25,
            ..ChurnConfig::none()
        };
        let mut rng = Xoshiro256pp::seeded(5);
        let total: usize = (0..40_000).map(|_| cfg.sample_joins(&mut rng)).sum();
        let mean = total as f64 / 40_000.0;
        assert!((mean - 2.25).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn sample_joins_integer_rate_is_deterministic() {
        let cfg = ChurnConfig {
            joins_per_tick: 3.0,
            ..ChurnConfig::none()
        };
        let mut rng = Xoshiro256pp::seeded(6);
        assert!((0..100).all(|_| cfg.sample_joins(&mut rng) == 3));
    }

    #[test]
    fn balanced_targets_population() {
        let cfg = ChurnConfig::balanced(0.05, 200);
        assert_eq!(cfg.crash_prob_per_tick, 0.05);
        assert!((cfg.joins_per_tick - 10.0).abs() < 1e-12);
        assert_eq!(cfg.max_nodes, 400);
    }
}

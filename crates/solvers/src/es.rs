//! (1+1) evolution strategy with the 1/5-success-rule step adaptation.
//!
//! A single parent; each step mutates all coordinates with `σ·N(0,1)`,
//! keeps the child only when it is no worse, and rescales `σ` every
//! `adapt_every` evaluations so roughly one fifth of mutations succeed
//! (Rechenberg's rule).

use crate::{random_position, BestPoint, Solver};
use gossipopt_functions::Objective;
use gossipopt_util::{Rng64, Xoshiro256pp};
use serde::{Deserialize, Serialize};

/// (1+1)-ES parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EsParams {
    /// Initial mutation strength as a fraction of domain width.
    pub sigma_frac: f64,
    /// Adaptation window in evaluations.
    pub adapt_every: u64,
    /// Multiplicative σ update factor (`> 1`).
    pub adapt_factor: f64,
    /// Smallest allowed σ fraction (avoids numeric freeze).
    pub sigma_min_frac: f64,
}

impl Default for EsParams {
    fn default() -> Self {
        EsParams {
            sigma_frac: 0.1,
            adapt_every: 20,
            adapt_factor: 1.5,
            sigma_min_frac: 1e-12,
        }
    }
}

/// A (1+1)-ES implementing [`Solver`].
#[derive(Debug, Clone)]
pub struct EvolutionStrategy {
    params: EsParams,
    parent: Option<(Vec<f64>, f64)>,
    best: Option<BestPoint>,
    sigma_frac: f64,
    successes: u64,
    window: u64,
    evals: u64,
}

impl EvolutionStrategy {
    /// Fresh strategy; the parent is sampled on the first step.
    pub fn new(params: EsParams) -> Self {
        assert!(params.adapt_factor > 1.0, "adapt_factor must exceed 1");
        assert!(params.adapt_every >= 1);
        EvolutionStrategy {
            sigma_frac: params.sigma_frac,
            params,
            parent: None,
            best: None,
            successes: 0,
            window: 0,
            evals: 0,
        }
    }

    /// Current mutation strength (fraction of domain width).
    pub fn sigma_frac(&self) -> f64 {
        self.sigma_frac
    }

    fn note_best(&mut self, x: &[f64], f: f64) {
        if self.best.as_ref().is_none_or(|b| f < b.f) {
            self.best = Some(BestPoint { x: x.to_vec(), f });
        }
    }
}

impl Solver for EvolutionStrategy {
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        match self.parent.take() {
            None => {
                let x = random_position(f, rng);
                let value = crate::eval_point(f, &x);
                self.evals += 1;
                self.note_best(&x, value);
                self.parent = Some((x, value));
            }
            Some((x, fx)) => {
                let mut child = x.clone();
                for (d, coord) in child.iter_mut().enumerate() {
                    let (lo, hi) = f.bounds(d);
                    *coord += self.sigma_frac * (hi - lo) * rng.normal();
                }
                let value = crate::eval_point(f, &child);
                self.evals += 1;
                self.note_best(&child, value);
                self.window += 1;
                if value <= fx {
                    self.successes += 1;
                    self.parent = Some((child, value));
                } else {
                    self.parent = Some((x, fx));
                }
                if self.window >= self.params.adapt_every {
                    let rate = self.successes as f64 / self.window as f64;
                    if rate > 0.2 {
                        self.sigma_frac *= self.params.adapt_factor;
                    } else if rate < 0.2 {
                        self.sigma_frac /= self.params.adapt_factor;
                    }
                    self.sigma_frac = self.sigma_frac.max(self.params.sigma_min_frac);
                    self.successes = 0;
                    self.window = 0;
                }
            }
        }
    }

    fn best(&self) -> Option<&BestPoint> {
        self.best.as_ref()
    }

    fn tell_best(&mut self, point: BestPoint) {
        if self.best.as_ref().is_none_or(|b| point.f < b.f) {
            self.parent = Some((point.x.clone(), point.f));
            self.best = Some(point);
        }
    }

    fn evals(&self) -> u64 {
        self.evals
    }

    fn name(&self) -> &str {
        "es"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::Sphere;

    #[test]
    fn converges_on_sphere_with_adaptation() {
        let f = Sphere::new(8);
        let mut es = EvolutionStrategy::new(EsParams::default());
        let mut rng = Xoshiro256pp::seeded(1);
        for _ in 0..30_000 {
            es.step(&f, &mut rng);
        }
        let best = es.best().unwrap().f;
        assert!(best < 1e-8, "(1+1)-ES on sphere reached {best}");
        // σ should have shrunk far below its initial value.
        assert!(es.sigma_frac() < EsParams::default().sigma_frac);
    }

    #[test]
    fn sigma_grows_when_everything_succeeds() {
        // On a plane tilted downward along x0, any step with negative dx0
        // succeeds ~half the time; craft success by huge adapt window? We
        // instead test the mechanism directly.
        let mut es = EvolutionStrategy::new(EsParams {
            adapt_every: 4,
            ..EsParams::default()
        });
        es.parent = Some((vec![0.0], 0.0));
        es.successes = 4;
        es.window = 4;
        // trigger adaptation manually through a step on a flat function
        #[derive(Debug)]
        struct Flat;
        impl gossipopt_functions::Objective for Flat {
            fn name(&self) -> &str {
                "flat"
            }
            fn dim(&self) -> usize {
                1
            }
            fn bounds(&self, _dim: usize) -> (f64, f64) {
                (-1.0, 1.0)
            }
            fn eval(&self, _x: &[f64]) -> f64 {
                0.0
            }
        }
        let mut rng = Xoshiro256pp::seeded(2);
        let sigma0 = es.sigma_frac();
        es.step(&Flat, &mut rng); // window hits 5 >= 4 -> success rate 1.0
        assert!(es.sigma_frac() > sigma0);
    }

    #[test]
    fn parent_never_worsens() {
        let f = Sphere::new(4);
        let mut es = EvolutionStrategy::new(EsParams::default());
        let mut rng = Xoshiro256pp::seeded(3);
        es.step(&f, &mut rng);
        let mut last = es.parent.as_ref().unwrap().1;
        for _ in 0..2000 {
            es.step(&f, &mut rng);
            let cur = es.parent.as_ref().unwrap().1;
            assert!(cur <= last + 1e-15);
            last = cur;
        }
    }
}

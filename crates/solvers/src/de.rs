//! Differential evolution (Storn & Price), `DE/rand/1/bin`.
//!
//! One of the paper's future-work "different solvers". Stepped one
//! evaluation at a time: the first `NP` steps evaluate the random initial
//! population; afterwards each step builds one mutant+crossover trial for
//! the cursor individual and keeps the better of trial and target.

use crate::{random_position, BestPoint, Solver};
use gossipopt_functions::Objective;
use gossipopt_util::{Rng64, Xoshiro256pp};
use serde::{Deserialize, Serialize};

/// DE hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeParams {
    /// Differential weight `F`.
    pub f_weight: f64,
    /// Crossover probability `CR`.
    pub crossover: f64,
}

impl Default for DeParams {
    fn default() -> Self {
        DeParams {
            f_weight: 0.5,
            crossover: 0.9,
        }
    }
}

/// `DE/rand/1/bin` population implementing [`Solver`].
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    params: DeParams,
    np: usize,
    population: Vec<Vec<f64>>,
    fitness: Vec<f64>,
    best: Option<BestPoint>,
    cursor: usize,
    evals: u64,
    initialized: usize, // individuals evaluated so far during init
}

impl DifferentialEvolution {
    /// Population of `np ≥ 4` individuals (mutation needs three distinct
    /// non-target donors).
    pub fn new(np: usize, params: DeParams) -> Self {
        assert!(np >= 4, "DE/rand/1 needs a population of at least 4");
        DifferentialEvolution {
            params,
            np,
            population: Vec::new(),
            fitness: Vec::new(),
            best: None,
            cursor: 0,
            evals: 0,
            initialized: 0,
        }
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.np
    }

    fn note_best(&mut self, x: &[f64], f: f64) {
        if self.best.as_ref().is_none_or(|b| f < b.f) {
            self.best = Some(BestPoint { x: x.to_vec(), f });
        }
    }

    fn distinct_donors(&self, target: usize, rng: &mut Xoshiro256pp) -> [usize; 3] {
        let mut picks = [0usize; 3];
        let mut chosen = 0;
        while chosen < 3 {
            let c = rng.index(self.np);
            if c != target && !picks[..chosen].contains(&c) {
                picks[chosen] = c;
                chosen += 1;
            }
        }
        picks
    }
}

impl Solver for DifferentialEvolution {
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        if self.population.is_empty() {
            self.population = (0..self.np).map(|_| random_position(f, rng)).collect();
            self.fitness = vec![f64::INFINITY; self.np];
        }
        if self.initialized < self.np {
            let i = self.initialized;
            let value = crate::eval_point(f, &self.population[i]);
            self.evals += 1;
            self.fitness[i] = value;
            let x = self.population[i].clone();
            self.note_best(&x, value);
            self.initialized += 1;
            return;
        }
        let i = self.cursor;
        self.cursor = (self.cursor + 1) % self.np;
        let [a, b, c] = self.distinct_donors(i, rng);
        let dim = f.dim();
        let forced = rng.index(dim); // at least one mutant coordinate survives
        let mut trial = self.population[i].clone();
        let [a, b, c] = [a, b, c].map(|j| &self.population[j]);
        let (f_weight, cr) = (self.params.f_weight, self.params.crossover);
        for (d, gene) in trial[..dim].iter_mut().enumerate() {
            if d == forced || rng.chance(cr) {
                *gene = a[d] + f_weight * (b[d] - c[d]);
            }
        }
        let value = crate::eval_point(f, &trial);
        self.evals += 1;
        if value <= self.fitness[i] {
            self.population[i] = trial.clone();
            self.fitness[i] = value;
            self.note_best(&trial, value);
        }
    }

    fn best(&self) -> Option<&BestPoint> {
        self.best.as_ref()
    }

    fn tell_best(&mut self, point: BestPoint) {
        // Adopt as best, and plant it over the current worst individual so
        // future mutants can exploit it.
        if self.best.as_ref().is_none_or(|b| point.f < b.f) {
            if !self.population.is_empty() && self.initialized == self.np {
                let worst = (0..self.np)
                    .max_by(|&a, &b| self.fitness[a].total_cmp(&self.fitness[b]))
                    .expect("non-empty population");
                if point.f < self.fitness[worst] && point.x.len() == self.population[worst].len() {
                    self.population[worst] = point.x.clone();
                    self.fitness[worst] = point.f;
                }
            }
            self.best = Some(point);
        }
    }

    fn evals(&self) -> u64 {
        self.evals
    }

    fn name(&self) -> &str {
        "de"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::{Rosenbrock, Sphere};

    #[test]
    fn init_phase_evaluates_each_individual_once() {
        let f = Sphere::new(4);
        let mut de = DifferentialEvolution::new(8, DeParams::default());
        let mut rng = Xoshiro256pp::seeded(1);
        for _ in 0..8 {
            de.step(&f, &mut rng);
        }
        assert_eq!(de.evals(), 8);
        assert!(de.fitness.iter().all(|&v| v.is_finite()));
    }

    #[test]
    fn converges_on_sphere() {
        let f = Sphere::new(10);
        let mut de = DifferentialEvolution::new(30, DeParams::default());
        let mut rng = Xoshiro256pp::seeded(2);
        for _ in 0..30_000 {
            de.step(&f, &mut rng);
        }
        let best = de.best().unwrap().f;
        assert!(best < 1e-6, "DE on sphere reached {best}");
    }

    #[test]
    fn improves_on_rosenbrock() {
        let f = Rosenbrock::new(5);
        let mut de = DifferentialEvolution::new(20, DeParams::default());
        let mut rng = Xoshiro256pp::seeded(3);
        for _ in 0..20 {
            de.step(&f, &mut rng);
        }
        let early = de.best().unwrap().f;
        for _ in 0..20_000 {
            de.step(&f, &mut rng);
        }
        let late = de.best().unwrap().f;
        assert!(late < early / 100.0, "{early} -> {late}");
    }

    #[test]
    fn donors_are_distinct_and_not_target() {
        let de = DifferentialEvolution {
            params: DeParams::default(),
            np: 6,
            population: vec![vec![0.0]; 6],
            fitness: vec![0.0; 6],
            best: None,
            cursor: 0,
            evals: 0,
            initialized: 6,
        };
        let mut rng = Xoshiro256pp::seeded(4);
        for target in 0..6 {
            for _ in 0..50 {
                let [a, b, c] = de.distinct_donors(target, &mut rng);
                assert!(a != target && b != target && c != target);
                assert!(a != b && b != c && a != c);
            }
        }
    }

    #[test]
    fn tell_best_plants_into_population() {
        let f = Sphere::new(3);
        let mut de = DifferentialEvolution::new(5, DeParams::default());
        let mut rng = Xoshiro256pp::seeded(5);
        for _ in 0..5 {
            de.step(&f, &mut rng);
        }
        de.tell_best(BestPoint {
            x: vec![0.0; 3],
            f: 0.0,
        });
        assert!(de.fitness.contains(&0.0), "optimum planted");
        assert_eq!(de.best().unwrap().f, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        DifferentialEvolution::new(3, DeParams::default());
    }
}

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gossipopt-solvers
//!
//! The *function optimization service* implementations: metaheuristics that
//! run inside each node of the decentralized architecture.
//!
//! The paper instantiates the service with particle swarm optimization
//! ([`pso`]); its future work calls for "various different solvers to
//! enrich the function evaluation service", which this crate provides:
//! differential evolution ([`de`]), a real-coded genetic algorithm
//! ([`ga`]), separable CMA-ES ([`cmaes`]), Nelder–Mead simplex
//! ([`nelder_mead`]), simulated annealing ([`sa`]), a (1+1) evolution
//! strategy ([`es`]), and uniform random search ([`random_search`]).
//!
//! All solvers implement [`Solver`], whose contract is shaped by the
//! architecture:
//!
//! * **one evaluation per [`Solver::step`]** — the paper measures time in
//!   local function evaluations and triggers gossip every `r` of them, so
//!   the framework needs evaluation-granular control;
//! * **[`Solver::tell_best`] injection** — the coordination service feeds
//!   remotely discovered optima into the local search (for PSO this sets
//!   the swarm optimum `g`, exactly the paper's mechanism);
//! * **[`Solver::best`] extraction** — what the coordination service
//!   gossips out.

pub mod cmaes;
pub mod de;
pub mod es;
pub mod ga;
mod lanes;
pub mod nelder_mead;
pub mod pso;
pub mod random_search;
pub mod row_pso;
pub mod sa;

use gossipopt_functions::Objective;
use gossipopt_util::{Rng64, Xoshiro256pp};

pub use cmaes::{CmaesParams, SepCmaes};
pub use de::{DeParams, DifferentialEvolution};
pub use es::{EsParams, EvolutionStrategy};
pub use ga::{GaParams, GeneticAlgorithm};
pub use nelder_mead::{NelderMead, NelderMeadParams};
pub use pso::{BoundPolicy, Inertia, PsoParams, Swarm, Topology};
pub use random_search::RandomSearch;
pub use row_pso::RowPso;
pub use sa::{SaParams, SimulatedAnnealing};

/// A best-so-far point: position and its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct BestPoint {
    /// Position in the search space.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
}

impl BestPoint {
    /// True when `self` is a strictly better (lower) point than `other`.
    pub fn better_than(&self, other: &BestPoint) -> bool {
        self.f < other.f
    }
}

/// An iterative minimizer driven one function evaluation at a time.
///
/// ```
/// use gossipopt_functions::Sphere;
/// use gossipopt_solvers::{solver_by_name, BestPoint, Solver};
/// use gossipopt_util::Xoshiro256pp;
///
/// let mut solver = solver_by_name("pso", 8).unwrap();
/// let f = Sphere::new(4);
/// let mut rng = Xoshiro256pp::seeded(1);
/// for _ in 0..100 {
///     solver.step(&f, &mut rng); // exactly one evaluation each
/// }
/// assert_eq!(solver.evals(), 100);
/// // The coordination hook: a remote optimum improves the local best.
/// solver.tell_best(BestPoint { x: vec![0.0; 4], f: 0.0 });
/// assert_eq!(solver.best().unwrap().f, 0.0);
/// ```
pub trait Solver: Send {
    /// Perform exactly one function evaluation and the bookkeeping around
    /// it (move a particle, accept/reject a proposal, …).
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp);

    /// Best point found (or injected) so far.
    fn best(&self) -> Option<&BestPoint>;

    /// Inject an externally discovered point (the coordination hook). The
    /// solver must never let this worsen [`Solver::best`], and is free to
    /// exploit it to guide the search.
    fn tell_best(&mut self, point: BestPoint);

    /// Borrowed-payload variant of [`Solver::tell_best`], for callers that
    /// hold the position as a slice (the coordination service's gossiped
    /// optima). Must behave exactly like
    /// `tell_best(BestPoint { x: x.to_vec(), f })` — the default does just
    /// that — but implementations can override it to reuse an existing
    /// allocation, keeping steady-state optimum adoption allocation-free.
    fn tell_best_slice(&mut self, x: &[f64], f: f64) {
        self.tell_best(BestPoint { x: x.to_vec(), f });
    }

    /// Evaluations performed by [`Solver::step`] so far.
    fn evals(&self) -> u64;

    /// Identifier for manifests and reports.
    fn name(&self) -> &str;

    /// Select an individual to emigrate to a peer node (island-model
    /// migration, the paper's future-work "diverse domain space
    /// allocation"). Defaults to a copy of the best-so-far point;
    /// population solvers may send a random member instead to preserve
    /// diversity. Emigration is by copy — the local individual stays.
    fn emigrate(&mut self, rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let _ = rng;
        self.best().cloned()
    }

    /// Absorb an immigrant individual from a peer node. Defaults to
    /// [`Solver::tell_best`]; population solvers should instead splice the
    /// immigrant into the population (replacing a weak member) so it
    /// actively joins the search. Must never worsen [`Solver::best`].
    fn immigrate(&mut self, point: BestPoint, rng: &mut Xoshiro256pp) {
        let _ = rng;
        self.tell_best(point);
    }
}

/// Evaluate a single point: [`Objective::eval`] between the wall-clock
/// span pair of [`gossipopt_obs::wall::Phase::EvalBatch`].
///
/// All solver evaluation sites route through this helper, so every
/// evaluation is timed in one place.
#[inline]
pub fn eval_point(f: &dyn Objective, x: &[f64]) -> f64 {
    let span = gossipopt_obs::wall::start();
    let v = f.eval(x);
    gossipopt_obs::wall::finish(gossipopt_obs::wall::Phase::EvalBatch, span);
    v
}

/// Uniform random position inside `f`'s box domain.
pub fn random_position(f: &dyn Objective, rng: &mut Xoshiro256pp) -> Vec<f64> {
    (0..f.dim())
        .map(|d| {
            let (lo, hi) = f.bounds(d);
            rng.range_f64(lo, hi)
        })
        .collect()
}

/// Construct a registered solver by name with default parameters sized for
/// `k` concurrent search points (PSO particles / DE population; ignored by
/// the point-based solvers).
///
/// Known names: `"pso"`, `"de"`, `"ga"`, `"cmaes"`, `"nelder-mead"`,
/// `"sa"`, `"es"`, `"random"`.
pub fn solver_by_name(name: &str, k: usize) -> Option<Box<dyn Solver>> {
    let s: Box<dyn Solver> = match name {
        "pso" => Box::new(Swarm::new(k, PsoParams::default())),
        "de" => Box::new(DifferentialEvolution::new(k.max(4), DeParams::default())),
        "ga" => Box::new(GeneticAlgorithm::new(k.max(2), GaParams::default())),
        "cmaes" => Box::new(SepCmaes::with_lambda(k.max(2), CmaesParams::default())),
        "nelder-mead" => Box::new(NelderMead::new(NelderMeadParams::default())),
        "sa" => Box::new(SimulatedAnnealing::new(SaParams::default())),
        "es" => Box::new(EvolutionStrategy::new(EsParams::default())),
        "random" => Box::new(RandomSearch::new()),
        _ => return None,
    };
    Some(s)
}

/// Every registered solver name (used by heterogeneous-mix experiments
/// and exhaustive contract tests).
pub fn solver_names() -> &'static [&'static str] {
    &[
        "pso",
        "de",
        "ga",
        "cmaes",
        "nelder-mead",
        "sa",
        "es",
        "random",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::Sphere;

    #[test]
    fn best_point_ordering() {
        let a = BestPoint {
            x: vec![0.0],
            f: 1.0,
        };
        let b = BestPoint {
            x: vec![1.0],
            f: 2.0,
        };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert!(!a.better_than(&a), "strict ordering");
    }

    #[test]
    fn random_position_in_bounds() {
        let f = Sphere::new(10);
        let mut rng = Xoshiro256pp::seeded(1);
        for _ in 0..100 {
            let x = random_position(&f, &mut rng);
            assert_eq!(x.len(), 10);
            for (d, v) in x.iter().enumerate() {
                let (lo, hi) = f.bounds(d);
                assert!((lo..hi).contains(v));
            }
        }
    }

    #[test]
    fn registry_builds_all_names() {
        for name in solver_names() {
            let mut s = solver_by_name(name, 8).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(s.name(), *name);
            let f = Sphere::new(4);
            let mut rng = Xoshiro256pp::seeded(2);
            for _ in 0..20 {
                s.step(&f, &mut rng);
            }
            assert_eq!(s.evals(), 20);
            assert!(s.best().is_some());
        }
        assert!(solver_by_name("nope", 8).is_none());
    }

    /// Every registered solver must respect the tell_best contract.
    #[test]
    fn tell_best_contract() {
        for name in solver_names() {
            let mut s = solver_by_name(name, 8).unwrap();
            let f = Sphere::new(3);
            let mut rng = Xoshiro256pp::seeded(3);
            for _ in 0..10 {
                s.step(&f, &mut rng);
            }
            let injected = BestPoint {
                x: vec![0.0, 0.0, 0.0],
                f: 0.0,
            };
            s.tell_best(injected.clone());
            assert_eq!(
                s.best().unwrap().f,
                0.0,
                "{name}: injection must improve best"
            );
            // A worse injection must not regress the best.
            s.tell_best(BestPoint {
                x: vec![9.0, 9.0, 9.0],
                f: 243.0,
            });
            assert_eq!(s.best().unwrap().f, 0.0, "{name}: regression");
        }
    }

    /// Every solver must honor the migration contract: emigrants are
    /// real evaluated points and immigration never regresses the best.
    #[test]
    fn migration_contract() {
        for name in solver_names() {
            let mut s = solver_by_name(name, 8).unwrap();
            let f = Sphere::new(4);
            let mut rng = Xoshiro256pp::seeded(11);
            for _ in 0..40 {
                s.step(&f, &mut rng);
            }
            let e = s.emigrate(&mut rng).unwrap_or_else(|| panic!("{name}"));
            assert!(e.f.is_finite(), "{name}: emigrant fitness");
            assert_eq!(e.x.len(), 4, "{name}: emigrant dimension");
            let before = s.best().unwrap().f;
            // A strong immigrant improves the best...
            s.immigrate(
                BestPoint {
                    x: vec![0.0; 4],
                    f: 0.0,
                },
                &mut rng,
            );
            assert_eq!(s.best().unwrap().f, 0.0, "{name}: strong immigrant");
            // ...and a terrible one never regresses it.
            s.immigrate(
                BestPoint {
                    x: vec![99.0; 4],
                    f: 4.0 * 99.0 * 99.0,
                },
                &mut rng,
            );
            assert_eq!(s.best().unwrap().f, 0.0, "{name}: weak immigrant");
            let _ = before;
        }
    }

    /// Best must be monotonically non-increasing across steps.
    #[test]
    fn best_is_monotone() {
        for name in solver_names() {
            let mut s = solver_by_name(name, 6).unwrap();
            let f = Sphere::new(5);
            let mut rng = Xoshiro256pp::seeded(4);
            let mut last = f64::INFINITY;
            for i in 0..300 {
                s.step(&f, &mut rng);
                let b = s.best().expect("best after step").f;
                assert!(
                    b <= last + 1e-15,
                    "{name}: best rose from {last} to {b} at step {i}"
                );
                last = b;
            }
        }
    }
}

//! A PSO whose particles live in a row its host lends.
//!
//! 100k boxed [`crate::Swarm`]s are 100k scattered allocations that a
//! network tick pointer-chases. A [`RowPso`] owns only its bookkeeping
//! (`g`, the cursor, the evaluation count) and a shared update rule; its
//! particles are a `&mut [f64]` passed to every call, which the simulation
//! kernels lend from one table contiguous in slot order (`Ctx::row`).
//!
//! It runs [`crate::Swarm`]'s `Update` and `Progress` over the row for the
//! gbest/classic configuration (any inertia and bound policy), so it is
//! bit-identical to a boxed swarm; `tests/arena_equivalence.rs` locks that.
//!
//! Row layout: `x | v | pbest_x | pbest_f | evaluated`, each position
//! segment (`particles × dim`) and the row padded to whole 8-float cache
//! lines, so on a line-aligned table the lane kernel's 4-wide groups
//! never straddle lines.

use crate::pso::{Influence, Progress, PsoParams, Row, Topology, Update};
use crate::BestPoint;
use gossipopt_functions::Objective;
use gossipopt_util::Xoshiro256pp;
use std::sync::Arc;

/// A gbest/classic particle swarm over a lent row (see the module docs).
/// Cloning it clones the bookkeeping and shares the update rule.
#[derive(Debug, Clone)]
pub struct RowPso {
    /// The update rule, with the objective's domain cached; every node of
    /// a network shares one.
    update: Arc<Update>,
    particles: usize,
    /// `g`, the cursor and the evaluation count.
    progress: Progress,
}

impl RowPso {
    /// A swarm of `particles` over `objective`'s search space.
    ///
    /// Panics on the same parameter errors as [`crate::Swarm::new`], and
    /// on the configurations it does not implement (see
    /// [`RowPso::supports`]).
    pub fn new(particles: usize, params: PsoParams, objective: &dyn Objective) -> Self {
        assert!(
            Self::supports(&params),
            "RowPso supports the gbest/classic configuration only"
        );
        let mut update = Update::new(particles, params);
        update.set_domain(objective);
        RowPso {
            update: Arc::new(update),
            particles,
            progress: Progress::default(),
        }
    }

    /// Does this type implement `params` bit-identically to
    /// [`crate::Swarm`]? (The lbest topologies and FIPS stay on boxed
    /// swarms.)
    pub fn supports(params: &PsoParams) -> bool {
        params.topology == Topology::Gbest && params.influence == Influence::BestOfNeighborhood
    }

    /// Floats in one position segment: `particles × dim`, padded to lines.
    fn segment(&self) -> usize {
        (self.particles * self.update.dim()).next_multiple_of(8)
    }

    /// Length of the row every call must be lent.
    pub fn row_len(&self) -> usize {
        (3 * self.segment() + 2 * self.particles).next_multiple_of(8)
    }

    /// Split `row` into the particle columns. Panics when `row` is not
    /// [`RowPso::row_len`] floats long.
    fn columns<'r>(&self, row: &'r mut [f64]) -> Row<'r> {
        assert_eq!(
            row.len(),
            self.row_len(),
            "RowPso was lent a row of the wrong length"
        );
        let (n, seg, p) = (
            self.particles * self.update.dim(),
            self.segment(),
            self.particles,
        );
        let (x, rest) = row.split_at_mut(seg);
        let (v, rest) = rest.split_at_mut(seg);
        let (pbest_x, rest) = rest.split_at_mut(seg);
        let (pbest_f, rest) = rest.split_at_mut(p);
        Row {
            dim: self.update.dim(),
            x: &mut x[..n],
            v: &mut v[..n],
            pbest_x: &mut pbest_x[..n],
            pbest_f,
            evaluated: &mut rest[..p],
        }
    }

    /// One evaluation, as [`crate::Solver::step`].
    pub fn step(&mut self, row: &mut [f64], f: &dyn Objective, rng: &mut Xoshiro256pp) {
        let mut row = self.columns(row);
        let (update, progress) = (&*self.update, &mut self.progress);
        if !progress.initialized {
            assert_eq!(
                f.dim(),
                row.dim,
                "objective dimensionality differs from the swarm's"
            );
            update.init(&mut row, rng);
            progress.initialized = true;
        }
        let i = progress.next(self.particles);
        if row.evaluated[i] == crate::pso::EVALUATED {
            let (k, g) = (row.dim, progress.best.as_ref().map(|b| b.x.as_slice()));
            let at = i * k;
            let (x, v) = (&mut row.x[at..at + k], &mut row.v[at..at + k]);
            update.classic_move(x, v, &row.pbest_x[at..at + k], g, rng);
        }
        progress.evaluate(&mut row, i, f);
    }

    /// As [`crate::Solver::best`].
    pub fn best(&self) -> Option<&BestPoint> {
        self.progress.best.as_ref()
    }

    /// As [`crate::Solver::tell_best`].
    pub fn tell_best(&mut self, point: BestPoint) {
        self.progress.tell_best(point);
    }

    /// As [`crate::Solver::tell_best_slice`].
    pub fn tell_best_slice(&mut self, x: &[f64], f: f64) {
        self.progress.tell_best_slice(x, f);
    }

    /// As [`crate::Solver::evals`].
    pub fn evals(&self) -> u64 {
        self.progress.evals
    }

    /// Reports "pso", like the boxed swarm it is a drop-in for.
    pub fn name(&self) -> &str {
        "pso"
    }

    /// As [`crate::Solver::emigrate`].
    pub fn emigrate(&mut self, row: &mut [f64], rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let row = self.columns(row);
        self.progress.emigrate(&row, rng)
    }

    /// As [`crate::Solver::immigrate`].
    pub fn immigrate(&mut self, row: &mut [f64], point: BestPoint) {
        let mut row = self.columns(row);
        self.progress.immigrate(&mut row, point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::Sphere;

    #[test]
    fn rows_are_whole_lines_and_independent_searches() {
        let f = Sphere::new(3);
        let proto = RowPso::new(4, PsoParams::default(), &f);
        // 4 × 3 = 12 floats per position segment, padded to 16.
        assert_eq!(proto.row_len(), 3 * 16 + 8);
        let mut table = vec![0.0; 2 * proto.row_len()];
        let (r0, r1) = table.split_at_mut(proto.row_len());
        let (mut s0, mut s1) = (proto.clone(), proto);
        let mut rng0 = Xoshiro256pp::seeded(1);
        let mut rng1 = Xoshiro256pp::seeded(2);
        for _ in 0..200 {
            s0.step(r0, &f, &mut rng0);
            s1.step(r1, &f, &mut rng1);
        }
        assert_eq!((s0.evals(), s1.evals()), (200, 200));
        let (b0, b1) = (s0.best().unwrap().f, s1.best().unwrap().f);
        assert!(b0.is_finite() && b1.is_finite());
        assert_ne!(b0.to_bits(), b1.to_bits(), "distinct seeds, distinct runs");
    }

    #[test]
    fn concurrent_rows_step_soundly() {
        // One table split into disjoint rows, one thread per row: the
        // result must equal the same steps taken sequentially.
        let f = Sphere::new(4);
        let proto = RowPso::new(3, PsoParams::default(), &f);
        let run = |threads: bool| -> Vec<u64> {
            let mut table = vec![0.0; 8 * proto.row_len()];
            let work = |i: usize, row: &mut [f64]| {
                let (mut s, mut rng) = (proto.clone(), Xoshiro256pp::seeded(100 + i as u64));
                for _ in 0..300 {
                    s.step(row, &f, &mut rng);
                }
                s.best().unwrap().f.to_bits()
            };
            let rows = table.chunks_mut(proto.row_len()).enumerate();
            if threads {
                std::thread::scope(|scope| {
                    let joins: Vec<_> = rows
                        .map(|(i, row)| scope.spawn(move || work(i, row)))
                        .collect();
                    joins.into_iter().map(|j| j.join().unwrap()).collect()
                })
            } else {
                rows.map(|(i, row)| work(i, row)).collect()
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn a_short_row_is_refused() {
        let f = Sphere::new(2);
        let mut s = RowPso::new(2, PsoParams::default(), &f);
        s.step(&mut [0.0; 3], &f, &mut Xoshiro256pp::seeded(1));
    }

    #[test]
    #[should_panic(expected = "gbest/classic")]
    fn unsupported_topology_rejected() {
        let f = Sphere::new(2);
        RowPso::new(
            4,
            PsoParams {
                topology: Topology::Ring(1),
                ..PsoParams::default()
            },
            &f,
        );
    }
}

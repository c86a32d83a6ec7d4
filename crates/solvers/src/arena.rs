//! Cross-node swarm arena: one flat SoA store for *every node's* PSO
//! particles.
//!
//! [`crate::Swarm`] already stores its own particles structure-of-arrays,
//! but a 100k-node network still holds 100k separately boxed swarms —
//! per-node allocations scattered across the heap, so a network tick
//! pointer-chases instead of streaming memory (ROADMAP: the dpso tick is
//! memory-bound at 100k, ≈8 µs/node-tick vs 0.26 µs at 1k). The
//! [`SwarmArena`] lifts the hot particle state of all nodes into shared
//! flat buffers (positions / velocities / personal bests, stride
//! `particles × dim` per node) allocated once per run; each node holds an
//! [`ArenaPso`] handle that implements [`Solver`] over its exclusive row.
//!
//! **Bit-identical contract:** an [`ArenaPso`] reproduces
//! [`crate::Swarm`]'s trajectories exactly — same update rule, iteration
//! order and RNG draw order — for the gbest/classic configuration it
//! supports (`Topology::Gbest` + `Influence::BestOfNeighborhood`, any
//! inertia and bound policy). Swapping boxed swarms for arena handles
//! therefore cannot change any seeded result; `tests/arena_equivalence.rs`
//! locks this bit-for-bit against `Swarm`.
//!
//! ## Concurrency contract
//!
//! The arena is shared between nodes via `Arc` and the simulation kernels
//! may run nodes of different shards concurrently (`threads >= 1`), so the
//! buffers use interior mutability. Soundness rests on two invariants the
//! construction enforces and the kernels guarantee:
//!
//! 1. every handle owns a **unique row** ([`SwarmArena::alloc`] hands each
//!    row out at most once, and `ArenaPso` is not `Clone`), and
//! 2. a node's callbacks never run concurrently with themselves (the
//!    kernels give each shard exclusive access to disjoint node sets).
//!
//! Under those invariants the `&mut` row slices taken during a step are
//! exclusive, which is exactly what the `unsafe impl Sync` below asserts.

use crate::pso::{BoundPolicy, Inertia, Influence, PsoParams, Topology};
use crate::{BestPoint, Solver};
use gossipopt_functions::Objective;
use gossipopt_util::{Rng64, Xoshiro256pp};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Fixed-size column of `T` with row-granular interior mutability,
/// 64-byte aligned (see [`gossipopt_util::mem::AlignedBox`]) so f64 rows
/// laid out at 8-multiple strides start on cache-line boundaries and the
/// lane kernels' 4-wide groups never straddle lines.
struct Column<T> {
    cells: gossipopt_util::AlignedBox<UnsafeCell<T>>,
}

// SAFETY: a `Column` is an inert buffer; all mutation goes through
// `slice_mut`, whose callers guarantee range exclusivity (see the module
// docs). `T: Send` suffices because no `&T` is ever shared across threads
// while a `&mut T` to the same cell exists.
unsafe impl<T: Send> Sync for Column<T> {}

impl<T: Clone> Column<T> {
    fn new(len: usize, fill: T) -> Self {
        // AlignedBox advises huge pages *before* first touch: with THP in
        // `madvise` mode the kernel only installs 2 MiB pages at fault
        // time for advised ranges, and the columns are walked in random
        // row order every tick — at large capacities 4 KiB pages overflow
        // the TLB (which also makes hardware drop the sweep's prefetches).
        Column {
            cells: gossipopt_util::AlignedBox::new_with(len, |_| UnsafeCell::new(fill.clone())),
        }
    }

    /// Exclusive view of `cells[start..start + len]`.
    ///
    /// SAFETY: the caller must guarantee nothing else reads or writes this
    /// range for the lifetime of the returned slice (rows are handle-owned
    /// and handles are used by one thread at a time).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.cells.len());
        // UnsafeCell<T> is repr(transparent) over T.
        std::slice::from_raw_parts_mut(self.cells.as_ptr().add(start) as *mut T, len)
    }
}

/// Exclusive per-step view of one node's particle row.
struct Row<'a> {
    /// Positions, `particles × dim`.
    x: &'a mut [f64],
    /// Velocities, `particles × dim`.
    v: &'a mut [f64],
    /// Personal-best positions, `particles × dim`.
    pbest_x: &'a mut [f64],
    /// Personal-best values, `particles`.
    pbest_f: &'a mut [f64],
    /// Evaluated-at-least-once flags, `particles`.
    evaluated: &'a mut [bool],
}

/// Shared flat particle store for all nodes' swarms (see module docs).
pub struct SwarmArena {
    params: PsoParams,
    particles: usize,
    dim: usize,
    capacity: usize,
    /// Element stride between consecutive rows in the `f64` per-dimension
    /// columns: `particles * dim` rounded up to a multiple of 8, so every
    /// row starts on a 64-byte boundary of the aligned columns (the pad
    /// elements are never read or written). Row *slices* keep length
    /// `particles * dim`.
    row_stride: usize,
    next_row: AtomicU32,
    /// Cached constriction factor and inertia weight (same hoisting as
    /// [`crate::Swarm`]).
    chi: f64,
    w: f64,
    /// Per-dimension domain bounds and velocity clamp, cached from the
    /// objective at construction (every node shares the objective).
    bounds_lo: Vec<f64>,
    bounds_hi: Vec<f64>,
    vmax: Vec<f64>,
    x: Column<f64>,
    v: Column<f64>,
    pbest_x: Column<f64>,
    pbest_f: Column<f64>,
    evaluated: Column<bool>,
}

impl SwarmArena {
    /// An arena with room for `capacity` nodes of `particles`-sized swarms
    /// over `objective`'s search space.
    ///
    /// Panics on the same parameter errors as [`crate::Swarm::new`], and
    /// on the configurations the arena does not implement (only the
    /// gbest/classic neighborhood is supported — callers fall back to
    /// boxed [`crate::Swarm`]s for anything else, see
    /// [`SwarmArena::supports`]).
    pub fn new(
        capacity: usize,
        particles: usize,
        params: PsoParams,
        objective: &dyn Objective,
    ) -> Self {
        assert!(particles >= 1, "swarm needs at least one particle");
        assert!(
            Self::supports(&params),
            "SwarmArena supports the gbest/classic configuration only"
        );
        if let Inertia::Constriction = params.inertia {
            assert!(
                params.c1 + params.c2 > 4.0,
                "constriction requires c1 + c2 > 4"
            );
        }
        let chi = match params.inertia {
            Inertia::Vanilla | Inertia::Constant(_) => 1.0,
            Inertia::Constriction => {
                let phi = params.c1 + params.c2;
                2.0 / (2.0 - phi - (phi * phi - 4.0 * phi).sqrt()).abs()
            }
        };
        let w = match params.inertia {
            Inertia::Constant(w) => w,
            _ => 1.0,
        };
        let dim = objective.dim();
        let mut bounds_lo = Vec::with_capacity(dim);
        let mut bounds_hi = Vec::with_capacity(dim);
        let mut vmax = Vec::with_capacity(dim);
        for d in 0..dim {
            let (lo, hi) = objective.bounds(d);
            bounds_lo.push(lo);
            bounds_hi.push(hi);
            vmax.push(params.vmax_frac * (hi - lo));
        }
        // Pad each row out to a whole number of cache lines (8 f64s) so
        // row starts inherit the columns' 64-byte alignment.
        let row_stride = (particles * dim).next_multiple_of(8);
        SwarmArena {
            params,
            particles,
            dim,
            capacity,
            row_stride,
            next_row: AtomicU32::new(0),
            chi,
            w,
            bounds_lo,
            bounds_hi,
            vmax,
            x: Column::new(capacity * row_stride, 0.0),
            v: Column::new(capacity * row_stride, 0.0),
            pbest_x: Column::new(capacity * row_stride, 0.0),
            pbest_f: Column::new(capacity * particles, f64::INFINITY),
            evaluated: Column::new(capacity * particles, false),
        }
    }

    /// Does the arena implement this parameterization bit-identically?
    /// (The lbest topologies and FIPS influence stay on boxed
    /// [`crate::Swarm`]s.)
    pub fn supports(params: &PsoParams) -> bool {
        params.topology == Topology::Gbest && params.influence == Influence::BestOfNeighborhood
    }

    /// Number of node rows handed out so far.
    pub fn rows_allocated(&self) -> usize {
        (self.next_row.load(Ordering::Relaxed) as usize).min(self.capacity)
    }

    /// Total node capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Claim the next free row as a [`Solver`] handle; `None` once the
    /// arena is full (callers then fall back to a boxed swarm — the
    /// trajectories are identical either way).
    pub fn alloc(self: &Arc<Self>) -> Option<ArenaPso> {
        // fetch_update (not fetch_add) so the counter saturates at
        // capacity: an endless stream of post-exhaustion alloc calls (a
        // churny run spawning joiners forever) must not wrap the u32 and
        // hand row 0 out a second time — that would alias two handles on
        // one row, violating the exclusivity contract of `slice_mut`.
        let row = self
            .next_row
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                ((r as usize) < self.capacity).then(|| r + 1)
            });
        row.ok().map(|row| ArenaPso {
            arena: Arc::clone(self),
            row,
            swarm_best: None,
            cursor: 0,
            evals: 0,
            initialized: false,
        })
    }

    /// Exclusive view of `row`'s particle buffers.
    ///
    /// SAFETY: `row` must be owned by the calling handle (rows are handed
    /// out once) and the handle must not be used from two threads at once
    /// (the kernels' shard discipline).
    unsafe fn row(&self, row: u32) -> Row<'_> {
        let row = row as usize;
        debug_assert!(row < self.capacity);
        let stride = self.particles * self.dim;
        Row {
            x: self.x.slice_mut(row * self.row_stride, stride),
            v: self.v.slice_mut(row * self.row_stride, stride),
            pbest_x: self.pbest_x.slice_mut(row * self.row_stride, stride),
            pbest_f: self.pbest_f.slice_mut(row * self.particles, self.particles),
            evaluated: self
                .evaluated
                .slice_mut(row * self.particles, self.particles),
        }
    }
}

/// A node's [`Solver`] handle into a [`SwarmArena`] row. Drop-in for a
/// gbest/classic [`crate::Swarm`] — identical trajectories, RNG draws and
/// reported name.
pub struct ArenaPso {
    arena: Arc<SwarmArena>,
    row: u32,
    /// The swarm optimum `g` (possibly injected remotely). Warm state
    /// only — the hot particle buffers live in the arena.
    swarm_best: Option<BestPoint>,
    cursor: usize,
    evals: u64,
    initialized: bool,
}

impl ArenaPso {
    /// Lazily initialize the row, drawing positions/velocities from the
    /// node's RNG in exactly [`crate::Swarm::new`]'s order (all position
    /// coordinates, then all velocities, per particle).
    fn initialize(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        let a = &self.arena;
        assert_eq!(
            f.dim(),
            a.dim,
            "objective dimensionality differs from the arena's"
        );
        // SAFETY: see `SwarmArena::row` — this handle owns the row.
        let row = unsafe { a.row(self.row) };
        let k = a.dim;
        let mut at = 0usize;
        for _ in 0..a.particles {
            for d in 0..k {
                row.x[at + d] = rng.range_f64(a.bounds_lo[d], a.bounds_hi[d]);
            }
            for d in 0..k {
                let vmax = a.vmax[d];
                row.v[at + d] = rng.range_f64(-vmax, vmax);
            }
            at += k;
        }
        row.pbest_x.copy_from_slice(row.x);
        row.pbest_f.fill(f64::INFINITY);
        row.evaluated.fill(false);
        self.initialized = true;
    }

    /// One velocity/position update of particle `i` — the gbest/classic
    /// branch of [`crate::Swarm`]'s `move_particle`, same FP expression
    /// order and RNG draws.
    fn move_particle(&mut self, i: usize, rng: &mut Xoshiro256pp) {
        let a = &self.arena;
        let (c1, c2) = (a.params.c1, a.params.c2);
        let k = a.dim;
        let (chi, w) = (a.chi, a.w);
        // SAFETY: see `SwarmArena::row` — this handle owns the row.
        let row = unsafe { a.row(self.row) };
        let social: Option<&[f64]> = self.swarm_best.as_ref().map(|b| b.x.as_slice());
        let at = i * k;
        // Hot specialization for the default parameterization: no bound
        // policy and a known swarm optimum (always the case once any
        // particle has been evaluated — `step` evaluates a particle before
        // it ever moves it). Same FP expressions and RNG draw order as the
        // general branch below, but with the per-dimension `Option` match
        // and bound-policy match hoisted out, every operand pre-sliced to
        // length `k`, and the update run through the 4-wide lane kernel
        // (see [`crate::lanes`]) — this is the innermost kernel of the
        // network tick.
        if a.params.bounds == BoundPolicy::None {
            if let Some(g) = social.filter(|g| g.len() == k) {
                let xs = &mut row.x[at..at + k];
                let vs = &mut row.v[at..at + k];
                let pb = &row.pbest_x[at..at + k];
                let vmax = &a.vmax[..k];
                crate::lanes::pso_move_lanes(xs, vs, pb, g, vmax, c1, c2, chi, w, rng);
                return;
            }
        }
        for d in 0..k {
            let (lo, hi) = (a.bounds_lo[d], a.bounds_hi[d]);
            let vmax = a.vmax[d];
            let xd = row.x[at + d];
            // Same FP association as `Swarm::move_particle`: the
            // attraction sums first, then joins the inertia term.
            let cognitive = c1 * rng.next_f64() * (row.pbest_x[at + d] - xd);
            let social_term = match social {
                Some(g) => c2 * rng.next_f64() * (g[d] - xd),
                None => 0.0,
            };
            let attraction = cognitive + social_term;
            let mut vel = chi * (w * row.v[at + d] + attraction);
            vel = vel.clamp(-vmax, vmax);
            row.v[at + d] = vel;
            row.x[at + d] += vel;
            match a.params.bounds {
                BoundPolicy::None => {}
                BoundPolicy::Clamp => {
                    if row.x[at + d] < lo {
                        row.x[at + d] = lo;
                        row.v[at + d] = 0.0;
                    } else if row.x[at + d] > hi {
                        row.x[at + d] = hi;
                        row.v[at + d] = 0.0;
                    }
                }
                BoundPolicy::Reflect => {
                    if row.x[at + d] < lo {
                        row.x[at + d] = lo + (lo - row.x[at + d]);
                        row.v[at + d] = -row.v[at + d];
                    } else if row.x[at + d] > hi {
                        row.x[at + d] = hi - (row.x[at + d] - hi);
                        row.v[at + d] = -row.v[at + d];
                    }
                    row.x[at + d] = row.x[at + d].clamp(lo, hi);
                }
            }
        }
    }

    /// Evaluate particle `i` and fold the result into pbest / swarm best —
    /// [`crate::Swarm`]'s `evaluate`, verbatim logic.
    fn evaluate(&mut self, i: usize, f: &dyn Objective) {
        let a = &self.arena;
        let k = a.dim;
        // SAFETY: see `SwarmArena::row` — this handle owns the row.
        let row = unsafe { a.row(self.row) };
        let at = i * k;
        let value = crate::eval_point(f, &row.x[at..at + k]);
        self.evals += 1;
        row.evaluated[i] = true;
        if value < row.pbest_f[i] {
            row.pbest_f[i] = value;
            let (pb, x) = (&mut row.pbest_x[at..at + k], &row.x[at..at + k]);
            pb.copy_from_slice(x);
        }
        let pf = row.pbest_f[i];
        match &mut self.swarm_best {
            Some(b) if pf < b.f => {
                if b.x.len() == k {
                    b.x.copy_from_slice(&row.pbest_x[at..at + k]);
                } else {
                    b.x = row.pbest_x[at..at + k].to_vec();
                }
                b.f = pf;
            }
            Some(_) => {}
            none => {
                *none = Some(BestPoint {
                    x: row.pbest_x[at..at + k].to_vec(),
                    f: pf,
                });
            }
        }
    }
}

impl Solver for ArenaPso {
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        if !self.initialized {
            self.initialize(f, rng);
        }
        let i = self.cursor;
        self.cursor += 1;
        if self.cursor == self.arena.particles {
            self.cursor = 0;
        }
        // SAFETY: see `SwarmArena::row` — this handle owns the row (a
        // single-flag read; building the whole `Row` view here would cost
        // more than the read).
        let was_evaluated = unsafe {
            self.arena
                .evaluated
                .slice_mut(self.row as usize * self.arena.particles + i, 1)[0]
        };
        if was_evaluated {
            self.move_particle(i, rng);
        }
        self.evaluate(i, f);
    }

    fn best(&self) -> Option<&BestPoint> {
        self.swarm_best.as_ref()
    }

    fn tell_best(&mut self, point: BestPoint) {
        if self.swarm_best.as_ref().is_none_or(|b| point.f < b.f) {
            self.swarm_best = Some(point);
        }
    }

    fn tell_best_slice(&mut self, x: &[f64], f: f64) {
        match &mut self.swarm_best {
            Some(b) if f < b.f => {
                // Reuse the existing allocation: gossiped optima arrive on
                // every coordination exchange, and this is the adoption path.
                b.x.clear();
                b.x.extend_from_slice(x);
                b.f = f;
            }
            Some(_) => {}
            none => {
                *none = Some(BestPoint { x: x.to_vec(), f });
            }
        }
    }

    fn evals(&self) -> u64 {
        self.evals
    }

    /// Reports "pso", like the boxed swarm it is a drop-in for.
    fn name(&self) -> &str {
        "pso"
    }

    fn prefetch(&self) {
        let a = &self.arena;
        let at = self.row as usize * a.row_stride + self.cursor * a.dim;
        // The next `step` reads this particle's position/velocity/pbest
        // segments plus the per-particle flag columns; pull their first
        // lines in now (a row segment is at most a couple of lines — the
        // adjacent-line prefetcher covers the rest).
        gossipopt_util::prefetch_read(a.x.cells.as_ptr().wrapping_add(at));
        gossipopt_util::prefetch_read(a.v.cells.as_ptr().wrapping_add(at));
        gossipopt_util::prefetch_read(a.pbest_x.cells.as_ptr().wrapping_add(at));
        gossipopt_util::prefetch_read(
            a.pbest_f
                .cells
                .as_ptr()
                .wrapping_add(self.row as usize * a.particles),
        );
        if let Some(b) = &self.swarm_best {
            gossipopt_util::prefetch_read(b.x.as_ptr());
        }
    }

    fn emigrate(&mut self, rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let a = &self.arena;
        // SAFETY: see `SwarmArena::row` — this handle owns the row.
        let row = unsafe { a.row(self.row) };
        let evaluated: Vec<usize> = (0..a.particles)
            .filter(|&i| self.initialized && row.evaluated[i])
            .collect();
        if evaluated.is_empty() {
            return self.swarm_best.clone();
        }
        let i = evaluated[rng.index(evaluated.len())];
        let at = i * a.dim;
        Some(BestPoint {
            x: row.pbest_x[at..at + a.dim].to_vec(),
            f: row.pbest_f[i],
        })
    }

    fn immigrate(&mut self, point: BestPoint, _rng: &mut Xoshiro256pp) {
        let a = &self.arena;
        if self.initialized && point.x.len() == a.dim {
            // SAFETY: see `SwarmArena::row` — this handle owns the row.
            let row = unsafe { a.row(self.row) };
            let worst = (0..a.particles)
                .max_by(|&x, &y| row.pbest_f[x].total_cmp(&row.pbest_f[y]))
                .expect("non-empty swarm");
            if point.f < row.pbest_f[worst] {
                let k = a.dim;
                let at = worst * k;
                row.x[at..at + k].copy_from_slice(&point.x);
                row.v[at..at + k].fill(0.0);
                row.pbest_x[at..at + k].copy_from_slice(&point.x);
                row.pbest_f[worst] = point.f;
                row.evaluated[worst] = true;
            }
        }
        self.tell_best(point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::Sphere;

    #[test]
    fn alloc_hands_out_each_row_once_then_none() {
        let f = Sphere::new(4);
        let arena = Arc::new(SwarmArena::new(3, 2, PsoParams::default(), &f));
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        let c = arena.alloc().unwrap();
        assert_eq!([a.row, b.row, c.row], [0, 1, 2]);
        assert!(arena.alloc().is_none(), "capacity 3 exhausted");
        assert_eq!(arena.rows_allocated(), 3);
        assert_eq!(arena.capacity(), 3);
    }

    #[test]
    fn rows_are_independent_searches() {
        let f = Sphere::new(3);
        let arena = Arc::new(SwarmArena::new(2, 4, PsoParams::default(), &f));
        let mut s0 = arena.alloc().unwrap();
        let mut s1 = arena.alloc().unwrap();
        let mut r0 = Xoshiro256pp::seeded(1);
        let mut r1 = Xoshiro256pp::seeded(2);
        for _ in 0..200 {
            s0.step(&f, &mut r0);
            s1.step(&f, &mut r1);
        }
        assert_eq!(s0.evals(), 200);
        assert_eq!(s1.evals(), 200);
        let (b0, b1) = (s0.best().unwrap().f, s1.best().unwrap().f);
        assert!(b0.is_finite() && b1.is_finite());
        assert_ne!(b0.to_bits(), b1.to_bits(), "distinct seeds, distinct runs");
    }

    #[test]
    #[should_panic(expected = "gbest/classic")]
    fn unsupported_topology_rejected() {
        let f = Sphere::new(2);
        SwarmArena::new(
            1,
            4,
            PsoParams {
                topology: Topology::Ring(1),
                ..PsoParams::default()
            },
            &f,
        );
    }

    #[test]
    fn concurrent_rows_step_soundly() {
        // Each thread owns a disjoint handle; the arena is shared. The
        // result must equal the same steps taken sequentially.
        let f = Sphere::new(4);
        let run = |threads: bool| -> Vec<u64> {
            let arena = Arc::new(SwarmArena::new(8, 3, PsoParams::default(), &f));
            let handles: Vec<ArenaPso> = (0..8).map(|_| arena.alloc().unwrap()).collect();
            let mut results: Vec<(u32, u64)> = if threads {
                std::thread::scope(|s| {
                    let js: Vec<_> = handles
                        .into_iter()
                        .enumerate()
                        .map(|(i, mut h)| {
                            let f = &f;
                            s.spawn(move || {
                                let mut rng = Xoshiro256pp::seeded(100 + i as u64);
                                for _ in 0..300 {
                                    h.step(f, &mut rng);
                                }
                                (h.row, h.best().unwrap().f.to_bits())
                            })
                        })
                        .collect();
                    js.into_iter().map(|j| j.join().unwrap()).collect()
                })
            } else {
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut h)| {
                        let mut rng = Xoshiro256pp::seeded(100 + i as u64);
                        for _ in 0..300 {
                            h.step(&f, &mut rng);
                        }
                        (h.row, h.best().unwrap().f.to_bits())
                    })
                    .collect()
            };
            results.sort_unstable();
            results.into_iter().map(|(_, b)| b).collect()
        };
        assert_eq!(run(true), run(false));
    }
}

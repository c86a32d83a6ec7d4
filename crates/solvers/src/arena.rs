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
//! **Bit-identical contract:** an [`ArenaPso`] runs [`crate::Swarm`]'s
//! update rule and bookkeeping (`crate::pso`'s `Update` and `Progress`)
//! over its arena row, for the gbest/classic configuration it supports
//! (`Topology::Gbest` + `Influence::BestOfNeighborhood`, any inertia and
//! bound policy). Swapping boxed swarms for arena handles therefore
//! cannot change any seeded result; `tests/arena_equivalence.rs` locks
//! this bit-for-bit against `Swarm`.
//!
//! ## Concurrency contract
//!
//! The arena is shared between nodes via `Arc` and the simulation kernels
//! may run nodes of different shards concurrently (`threads >= 1`), so the
//! buffers use interior mutability. Soundness rests on two invariants:
//!
//! 1. every handle owns a **unique row** ([`SwarmArena::alloc`] hands each
//!    row out at most once, and `ArenaPso` is not `Clone`), and
//! 2. the row view is only reachable through `&mut ArenaPso`, so it is
//!    exclusive for as long as it lives.
//!
//! Under those invariants the `&mut` row slices are exclusive, which is
//! exactly what the `Sync` impl on the columns asserts.

use crate::pso::{Influence, Progress, PsoParams, Row, Topology, Update};
use crate::{BestPoint, Solver};
use gossipopt_functions::Objective;
use gossipopt_util::Xoshiro256pp;
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
    /// range for the lifetime of the returned slice.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.cells.len());
        // UnsafeCell<T> is repr(transparent) over T.
        std::slice::from_raw_parts_mut(self.cells.as_ptr().add(start) as *mut T, len)
    }
}

/// Shared flat particle store for all nodes' swarms (see module docs).
pub struct SwarmArena {
    /// The update rule every handle runs, with the objective's domain
    /// cached (every node shares the objective).
    update: Update,
    particles: usize,
    capacity: usize,
    /// Element stride between consecutive rows in the `f64` per-dimension
    /// columns: `particles * dim` rounded up to a multiple of 8, so every
    /// row starts on a 64-byte boundary of the aligned columns (the pad
    /// elements are never read or written). Row *slices* keep length
    /// `particles * dim`.
    row_stride: usize,
    next_row: AtomicU32,
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
        assert!(
            Self::supports(&params),
            "SwarmArena supports the gbest/classic configuration only"
        );
        let mut update = Update::new(particles, params);
        update.set_domain(objective);
        // Pad each row out to a whole number of cache lines (8 f64s) so
        // row starts inherit the columns' 64-byte alignment.
        let row_stride = (particles * update.dim()).next_multiple_of(8);
        SwarmArena {
            update,
            particles,
            capacity,
            row_stride,
            next_row: AtomicU32::new(0),
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
            progress: Progress::default(),
        })
    }
}

/// A node's [`Solver`] handle into a [`SwarmArena`] row. Drop-in for a
/// gbest/classic [`crate::Swarm`] — identical trajectories, RNG draws and
/// reported name.
pub struct ArenaPso {
    arena: Arc<SwarmArena>,
    row: u32,
    /// `g`, the cursor and the evaluation count. Warm state only — the
    /// hot particle buffers live in the arena.
    progress: Progress,
}

impl ArenaPso {
    /// This handle's arena row, with the arena's update rule and the
    /// handle's bookkeeping.
    fn parts(&mut self) -> (Row<'_>, &Update, &mut Progress) {
        let a = &*self.arena;
        let (at, n) = (
            self.row as usize * a.row_stride,
            a.particles * a.update.dim(),
        );
        let flags = self.row as usize * a.particles;
        // SAFETY: `alloc` hands each row to exactly one handle, which is
        // not `Clone`, and the view borrows that handle mutably — nothing
        // else can read or write these ranges while it lives.
        let row = unsafe {
            Row {
                dim: a.update.dim(),
                x: a.x.slice_mut(at, n),
                v: a.v.slice_mut(at, n),
                pbest_x: a.pbest_x.slice_mut(at, n),
                pbest_f: a.pbest_f.slice_mut(flags, a.particles),
                evaluated: a.evaluated.slice_mut(flags, a.particles),
            }
        };
        (row, &a.update, &mut self.progress)
    }
}

impl Solver for ArenaPso {
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        let (mut row, update, progress) = self.parts();
        if !progress.initialized {
            assert_eq!(
                f.dim(),
                row.dim,
                "objective dimensionality differs from the arena's"
            );
            update.init(&mut row, rng);
            progress.initialized = true;
        }
        let i = progress.next(row.pbest_f.len());
        if row.evaluated[i] {
            let (k, g) = (row.dim, progress.best.as_ref().map(|b| b.x.as_slice()));
            let at = i * k;
            let (x, v) = (&mut row.x[at..at + k], &mut row.v[at..at + k]);
            update.classic_move(x, v, &row.pbest_x[at..at + k], g, rng);
        }
        progress.evaluate(&mut row, i, f);
    }

    fn best(&self) -> Option<&BestPoint> {
        self.progress.best.as_ref()
    }

    fn tell_best(&mut self, point: BestPoint) {
        self.progress.tell_best(point);
    }

    fn tell_best_slice(&mut self, x: &[f64], f: f64) {
        self.progress.tell_best_slice(x, f);
    }

    fn evals(&self) -> u64 {
        self.progress.evals
    }

    /// Reports "pso", like the boxed swarm it is a drop-in for.
    fn name(&self) -> &str {
        "pso"
    }

    fn prefetch(&self) {
        let a = &self.arena;
        let at = self.row as usize * a.row_stride + self.progress.cursor() * a.update.dim();
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
        if let Some(b) = &self.progress.best {
            gossipopt_util::prefetch_read(b.x.as_ptr());
        }
    }

    fn emigrate(&mut self, rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let (row, _, progress) = self.parts();
        progress.emigrate(&row, rng)
    }

    fn immigrate(&mut self, point: BestPoint, _rng: &mut Xoshiro256pp) {
        let (mut row, _, progress) = self.parts();
        progress.immigrate(&mut row, point);
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

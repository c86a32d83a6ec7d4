//! Particle swarm optimization.
//!
//! The default configuration is the paper's: the original 1995 update rule
//!
//! ```text
//! vᵢ ← vᵢ + c₁·rand()·(pᵢ − xᵢ) + c₂·rand()·(g − xᵢ)
//! xᵢ ← xᵢ + vᵢ
//! ```
//!
//! with `c₁ = c₂ = 2`, per-dimension velocity clamped to `vmax`, and the
//! *swarm optimum* `g` re-selected **after every evaluation** (the paper's
//! §3.3.2 wording — an asynchronous-update PSO, which is also what makes
//! evaluation-granular stepping well-defined). `g` may additionally be
//! **injected** from outside via `tell_best`, which is precisely how the
//! epidemic coordination service couples remote swarms.
//!
//! Beyond the paper, the module implements the standard refinements used by
//! its background references: inertia weight and constriction-factor
//! updates, bound policies, and lbest neighborhood topologies (ring, von
//! Neumann, random) from Kennedy's population-structure studies
//! [CEC'99/'02, Mendes et al. 2004].

use crate::{BestPoint, Solver};
use gossipopt_functions::Objective;
use gossipopt_util::{Rng64, Xoshiro256pp};

/// Velocity-update discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inertia {
    /// The original 1995 rule (no inertia term) — the paper's choice.
    Vanilla,
    /// Constant inertia weight `w` multiplying the previous velocity.
    Constant(f64),
    /// Clerc–Kennedy constriction: `χ·(v + c₁r(p−x) + c₂r(g−x))` with
    /// `χ = 2/|2−φ−√(φ²−4φ)|`, `φ = c₁+c₂` (requires `φ > 4`).
    Constriction,
}

/// What to do with particles that leave the box domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundPolicy {
    /// Let them fly (classic behaviour; the paper takes no provision).
    None,
    /// Clamp position to the boundary and zero the offending velocity
    /// component.
    Clamp,
    /// Reflect position off the boundary and negate the velocity component.
    Reflect,
}

/// How neighborhood information enters the velocity update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Influence {
    /// Classic PSO: one social attractor — the best point in the
    /// neighborhood (the swarm optimum under [`Topology::Gbest`]).
    BestOfNeighborhood,
    /// Mendes, Kennedy & Neves' *fully informed* particle swarm (FIPS):
    /// every neighbor's pbest contributes `φ·r·(p_k − x)/|N|`; requires
    /// constriction (`φ = c₁+c₂ > 4`). Cited by the paper's background as
    /// "simpler, maybe better".
    FullyInformed,
}

/// Swarm neighborhood structure for the *social* term `g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Fully-informed swarm: one global best (the paper's per-node swarms).
    Gbest,
    /// Ring lattice: each particle sees `k` neighbors on each side.
    Ring(usize),
    /// Von Neumann lattice: particles arranged on a near-square 2-D torus,
    /// each seeing its 4 lattice neighbors (Kennedy & Mendes' strongest
    /// classic structure).
    VonNeumann,
    /// Random fixed digraph with out-degree `k` (re-drawn at construction).
    Random(usize),
}

/// PSO hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsoParams {
    /// Cognitive learning factor `c₁`.
    pub c1: f64,
    /// Social learning factor `c₂`.
    pub c2: f64,
    /// Velocity-update discipline.
    pub inertia: Inertia,
    /// `vmax` as a fraction of each dimension's domain width.
    pub vmax_frac: f64,
    /// Domain-boundary policy.
    pub bounds: BoundPolicy,
    /// Neighborhood structure.
    pub topology: Topology,
    /// How neighbors influence the velocity update.
    pub influence: Influence,
}

impl Default for PsoParams {
    /// Clerc–Kennedy constriction with `c₁ = c₂ = 2.05` — the de-facto
    /// standard by 2008 and the only classic configuration consistent with
    /// the solution qualities the paper reports (its text states the 1995
    /// rule with `c₁ = c₂ = 2`, but that rule oscillates without converging
    /// to the `1e-51`-grade qualities of its Tables 1–2; see DESIGN.md).
    fn default() -> Self {
        PsoParams {
            c1: 2.05,
            c2: 2.05,
            inertia: Inertia::Constriction,
            vmax_frac: 0.5,
            bounds: BoundPolicy::None,
            topology: Topology::Gbest,
            influence: Influence::BestOfNeighborhood,
        }
    }
}

impl PsoParams {
    /// The configuration exactly as printed in the paper (Kennedy &
    /// Eberhart 1995): no inertia, `c₁ = c₂ = 2`, velocity clamping only.
    /// Kept for the ablation experiment comparing it against
    /// [`PsoParams::default`].
    pub fn paper_1995() -> Self {
        PsoParams {
            c1: 2.0,
            c2: 2.0,
            inertia: Inertia::Vanilla,
            vmax_frac: 0.5,
            bounds: BoundPolicy::None,
            topology: Topology::Gbest,
            influence: Influence::BestOfNeighborhood,
        }
    }

    /// Mendes et al.'s FIPS on a ring lattice (their strongest published
    /// configuration): constriction with `φ = 4.1` split over the full
    /// neighborhood.
    pub fn fips_ring() -> Self {
        PsoParams {
            c1: 2.05,
            c2: 2.05,
            inertia: Inertia::Constriction,
            vmax_frac: 0.5,
            bounds: BoundPolicy::None,
            topology: Topology::Ring(1),
            influence: Influence::FullyInformed,
        }
    }

    /// Can a swarm of `size` particles run these parameters? It needs at
    /// least one particle, and constriction needs `c1 + c2 > 4`. The error
    /// is the message [`Swarm::new`] panics with.
    pub fn check(&self, size: usize) -> Result<(), &'static str> {
        let phi = self.c1 + self.c2;
        if size == 0 {
            Err("swarm needs at least one particle")
        } else if self.inertia == Inertia::Constriction && (phi.is_nan() || phi <= 4.0) {
            Err("constriction requires c1 + c2 > 4")
        } else {
            Ok(())
        }
    }
}

/// Borrowed view of one swarm's particle columns: [`Swarm`]'s own
/// buffers, or an [`crate::ArenaPso`]'s row of the shared arena. The
/// `f64` columns hold `particles × dim` values, particle-major.
pub(crate) struct Row<'a> {
    /// Problem dimensionality (the stride of the `f64` columns).
    pub(crate) dim: usize,
    /// Positions.
    pub(crate) x: &'a mut [f64],
    /// Velocities.
    pub(crate) v: &'a mut [f64],
    /// Personal-best positions.
    pub(crate) pbest_x: &'a mut [f64],
    /// Personal-best values, one per particle.
    pub(crate) pbest_f: &'a mut [f64],
    /// Evaluated-at-least-once flags, one per particle.
    pub(crate) evaluated: &'a mut [bool],
}

/// The PSO update rule shared by [`Swarm`] and [`crate::ArenaPso`]: the
/// parameters and the constants they fix — χ and `w` at construction,
/// the per-dimension bounds and velocity clamp once a domain is set.
#[derive(Debug, Clone)]
pub(crate) struct Update {
    pub(crate) params: PsoParams,
    /// Constriction factor χ (hoisted out of every move).
    chi: f64,
    /// Inertia weight `w`.
    w: f64,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// `vmax_frac · (hi − lo)` per dimension.
    vmax: Vec<f64>,
}

impl Update {
    /// The rule for a swarm of `size` particles; panics with
    /// [`PsoParams::check`]'s message when it fails.
    pub(crate) fn new(size: usize, params: PsoParams) -> Self {
        if let Err(e) = params.check(size) {
            panic!("{e}");
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
        Update {
            params,
            chi,
            w,
            lo: Vec::new(),
            hi: Vec::new(),
            vmax: Vec::new(),
        }
    }

    /// Cache `f`'s per-dimension bounds and velocity clamp.
    pub(crate) fn set_domain(&mut self, f: &dyn Objective) {
        self.lo.clear();
        self.hi.clear();
        self.vmax.clear();
        for d in 0..f.dim() {
            let (lo, hi) = f.bounds(d);
            self.lo.push(lo);
            self.hi.push(hi);
            self.vmax.push(self.params.vmax_frac * (hi - lo));
        }
    }

    /// Dimensionality of the cached domain (0 before [`Update::set_domain`]).
    pub(crate) fn dim(&self) -> usize {
        self.vmax.len()
    }

    /// Draw a fresh swarm into `row`: for each particle, every position
    /// coordinate, then every velocity component; personal bests start at
    /// the positions with value `+inf`, no particle evaluated.
    pub(crate) fn init(&self, row: &mut Row<'_>, rng: &mut Xoshiro256pp) {
        let k = row.dim;
        for p in 0..row.pbest_f.len() {
            let at = p * k;
            for d in 0..k {
                row.x[at + d] = rng.range_f64(self.lo[d], self.hi[d]);
            }
            for d in 0..k {
                let vmax = self.vmax[d];
                row.v[at + d] = rng.range_f64(-vmax, vmax);
            }
        }
        row.pbest_x.copy_from_slice(row.x);
        row.pbest_f.fill(f64::INFINITY);
        row.evaluated.fill(false);
    }

    /// Classic (best-of-neighbourhood) move of one particle: `x`, `v` and
    /// `pb` are its position, velocity and personal best, `social` its
    /// attractor if one is known. With no bound policy and a known
    /// attractor — the default distributed-PSO configuration and the
    /// innermost kernel of the network tick — the update runs through the
    /// 4-wide lane kernel (see [`crate::lanes`]); the general loop draws
    /// the same randoms in the same order.
    #[inline]
    pub(crate) fn classic_move(
        &self,
        x: &mut [f64],
        v: &mut [f64],
        pb: &[f64],
        social: Option<&[f64]>,
        rng: &mut Xoshiro256pp,
    ) {
        let (c1, c2) = (self.params.c1, self.params.c2);
        let k = x.len();
        if self.params.bounds == BoundPolicy::None {
            if let Some(g) = social.filter(|g| g.len() == k) {
                crate::lanes::pso_move_lanes(
                    x,
                    v,
                    pb,
                    g,
                    &self.vmax[..k],
                    c1,
                    c2,
                    self.chi,
                    self.w,
                    rng,
                );
                return;
            }
        }
        for d in 0..k {
            let xd = x[d];
            // The attraction sums first, then joins the inertia term.
            let cognitive = c1 * rng.next_f64() * (pb[d] - xd);
            let social_term = match social {
                Some(g) => c2 * rng.next_f64() * (g[d] - xd),
                None => 0.0,
            };
            self.advance(d, &mut x[d], &mut v[d], cognitive + social_term);
        }
    }

    /// Move coordinate `d` under `attraction`: the velocity update clamped
    /// to `±vmax`, the position step, then the bound policy.
    #[inline(always)]
    pub(crate) fn advance(&self, d: usize, x: &mut f64, v: &mut f64, attraction: f64) {
        let vmax = self.vmax[d];
        let vel = (self.chi * (self.w * *v + attraction)).clamp(-vmax, vmax);
        *v = vel;
        *x += vel;
        let (lo, hi) = (self.lo[d], self.hi[d]);
        match self.params.bounds {
            BoundPolicy::None => {}
            BoundPolicy::Clamp => {
                if *x < lo {
                    *x = lo;
                    *v = 0.0;
                } else if *x > hi {
                    *x = hi;
                    *v = 0.0;
                }
            }
            BoundPolicy::Reflect => {
                if *x < lo {
                    *x = lo + (lo - *x);
                    *v = -*v;
                } else if *x > hi {
                    *x = hi - (*x - hi);
                    *v = -*v;
                }
                // A huge overshoot can still escape after one fold;
                // clamp as a backstop.
                *x = x.clamp(lo, hi);
            }
        }
    }
}

/// Per-swarm bookkeeping shared by [`Swarm`] and [`crate::ArenaPso`]: the
/// swarm optimum `g`, the round-robin cursor and the evaluation count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Progress {
    /// The swarm optimum `g` (possibly injected from remote swarms).
    pub(crate) best: Option<BestPoint>,
    cursor: usize,
    pub(crate) evals: u64,
    /// Whether the particles have been drawn.
    pub(crate) initialized: bool,
}

impl Progress {
    /// The particle to step next; advances the cursor over `size`
    /// particles (a compare instead of a divide per step).
    #[inline]
    pub(crate) fn next(&mut self, size: usize) -> usize {
        let i = self.cursor;
        self.cursor += 1;
        if self.cursor == size {
            self.cursor = 0;
        }
        i
    }

    /// The particle the next step will visit.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Evaluate particle `i` and fold the value into its personal best and
    /// `g`. Paper §3.3.2: the swarm optimum is re-selected after each
    /// evaluation; the update reuses `g`'s allocation.
    #[inline]
    pub(crate) fn evaluate(&mut self, row: &mut Row<'_>, i: usize, f: &dyn Objective) {
        let k = row.dim;
        let at = i * k;
        let value = crate::eval_point(f, &row.x[at..at + k]);
        self.evals += 1;
        row.evaluated[i] = true;
        if value < row.pbest_f[i] {
            row.pbest_f[i] = value;
            row.pbest_x[at..at + k].copy_from_slice(&row.x[at..at + k]);
        }
        let (pb, pf) = (&row.pbest_x[at..at + k], row.pbest_f[i]);
        match &mut self.best {
            Some(b) if pf < b.f => {
                if b.x.len() == k {
                    b.x.copy_from_slice(pb);
                } else {
                    b.x = pb.to_vec();
                }
                b.f = pf;
            }
            Some(_) => {}
            none => {
                *none = Some(BestPoint {
                    x: pb.to_vec(),
                    f: pf,
                });
            }
        }
    }

    /// [`Solver::tell_best`]: adopt `point` as `g` if it is better.
    pub(crate) fn tell_best(&mut self, point: BestPoint) {
        if self.best.as_ref().is_none_or(|b| point.f < b.f) {
            self.best = Some(point);
        }
    }

    /// [`Solver::tell_best_slice`]: as [`Progress::tell_best`], reusing
    /// `g`'s allocation (gossiped optima arrive on every coordination
    /// exchange).
    pub(crate) fn tell_best_slice(&mut self, x: &[f64], f: f64) {
        match &mut self.best {
            Some(b) if f < b.f => {
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

    /// Emigrate a uniformly random evaluated particle's personal best,
    /// preserving swarm diversity (the swarm optimum would make every
    /// island identical); `g` while no particle is evaluated.
    pub(crate) fn emigrate(&self, row: &Row<'_>, rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let evaluated: Vec<usize> = (0..row.pbest_f.len())
            .filter(|&i| self.initialized && row.evaluated[i])
            .collect();
        if evaluated.is_empty() {
            return self.best.clone();
        }
        let i = evaluated[rng.index(evaluated.len())];
        let at = i * row.dim;
        Some(BestPoint {
            x: row.pbest_x[at..at + row.dim].to_vec(),
            f: row.pbest_f[i],
        })
    }

    /// The immigrant replaces the worst particle: it restarts there with
    /// zero velocity and the received personal best, actively joining the
    /// swarm rather than only moving `g`.
    pub(crate) fn immigrate(&mut self, row: &mut Row<'_>, point: BestPoint) {
        if self.initialized && point.x.len() == row.dim {
            let worst = (0..row.pbest_f.len())
                .max_by(|&a, &b| row.pbest_f[a].total_cmp(&row.pbest_f[b]))
                .expect("non-empty swarm");
            if point.f < row.pbest_f[worst] {
                let k = row.dim;
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

/// A particle swarm implementing [`Solver`] (one evaluation per step).
///
/// ## Hot-path layout
///
/// Particle state is stored **structure-of-arrays**: positions,
/// velocities and personal bests live in flat `Vec<f64>` buffers with
/// stride `dim`, so the velocity/position update is one tight loop over
/// contiguous memory and a step performs no heap allocation. The update
/// rule and bookkeeping are the ones [`crate::ArenaPso`] runs over its
/// arena row; this type adds the lbest neighbourhoods and FIPS.
#[derive(Debug, Clone)]
pub struct Swarm {
    size: usize,
    update: Update,
    progress: Progress,
    /// Positions, `size × dim`, particle-major.
    x: Vec<f64>,
    /// Velocities, `size × dim`, particle-major.
    v: Vec<f64>,
    /// Personal-best positions, `size × dim`, particle-major.
    pbest_x: Vec<f64>,
    /// Personal-best values.
    pbest_f: Vec<f64>,
    /// Whether the particle has been evaluated at least once.
    evaluated: Vec<bool>,
    /// Adjacency for lbest topologies (empty for gbest).
    neighbors: Vec<Vec<usize>>,
    /// FIPS informant scratch, reused across steps.
    informant_buf: Vec<usize>,
}

impl Swarm {
    /// A swarm of `size` particles. Particles are lazily initialized on the
    /// first [`Solver::step`] so that construction needs no RNG/objective.
    ///
    /// Panics when [`PsoParams::check`] fails: `size == 0`, or
    /// constriction with `c1 + c2 <= 4`.
    pub fn new(size: usize, params: PsoParams) -> Self {
        Swarm {
            size,
            update: Update::new(size, params),
            progress: Progress::default(),
            x: Vec::new(),
            v: Vec::new(),
            pbest_x: Vec::new(),
            pbest_f: Vec::new(),
            evaluated: Vec::new(),
            neighbors: Vec::new(),
            informant_buf: Vec::new(),
        }
    }

    /// Number of particles.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The parameters in use.
    pub fn params(&self) -> &PsoParams {
        &self.update.params
    }

    /// Problem dimensionality the swarm was initialized with (0 before the
    /// first step).
    pub fn dim(&self) -> usize {
        self.update.dim()
    }

    /// Particle `i`'s current position (panics before initialization).
    pub fn position(&self, i: usize) -> &[f64] {
        let k = self.dim();
        &self.x[i * k..(i + 1) * k]
    }

    /// Particle `i`'s current velocity (panics before initialization).
    pub fn velocity(&self, i: usize) -> &[f64] {
        let k = self.dim();
        &self.v[i * k..(i + 1) * k]
    }

    /// Particle `i`'s personal best `(position, value)`; the value is
    /// `+inf` until the particle's first evaluation.
    pub fn pbest(&self, i: usize) -> (&[f64], f64) {
        let k = self.dim();
        (&self.pbest_x[i * k..(i + 1) * k], self.pbest_f[i])
    }

    /// Whether particle `i` has been evaluated at least once.
    pub fn is_evaluated(&self, i: usize) -> bool {
        self.evaluated[i]
    }

    /// The particle columns as a [`Row`], with the update rule and the
    /// bookkeeping.
    fn parts(&mut self) -> (Row<'_>, &Update, &mut Progress) {
        let row = Row {
            dim: self.update.dim(),
            x: &mut self.x,
            v: &mut self.v,
            pbest_x: &mut self.pbest_x,
            pbest_f: &mut self.pbest_f,
            evaluated: &mut self.evaluated,
        };
        (row, &self.update, &mut self.progress)
    }

    fn initialize(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        self.update.set_domain(f);
        let (n, k) = (self.size, f.dim());
        self.x.resize(n * k, 0.0);
        self.v.resize(n * k, 0.0);
        self.pbest_x.resize(n * k, 0.0);
        self.pbest_f.resize(n, f64::INFINITY);
        self.evaluated.resize(n, false);
        let (mut row, update, progress) = self.parts();
        update.init(&mut row, rng);
        progress.initialized = true;
        self.neighbors = match self.params().topology {
            Topology::Gbest => Vec::new(),
            Topology::VonNeumann => {
                // Near-square torus: cols = ceil(sqrt(n)), rows to cover.
                let cols = (n as f64).sqrt().ceil() as usize;
                let rows = n.div_ceil(cols);
                (0..n)
                    .map(|i| {
                        let (r, c) = (i / cols, i % cols);
                        let mut nbrs: Vec<usize> = [
                            ((r + rows - 1) % rows, c),
                            ((r + 1) % rows, c),
                            (r, (c + cols - 1) % cols),
                            (r, (c + 1) % cols),
                        ]
                        .into_iter()
                        .map(|(rr, cc)| rr * cols + cc)
                        .filter(|&j| j < n && j != i) // ragged last row
                        .collect();
                        nbrs.sort_unstable();
                        nbrs.dedup();
                        nbrs
                    })
                    .collect()
            }
            Topology::Ring(k) => (0..n)
                .map(|i| {
                    let mut nbrs = Vec::with_capacity(2 * k);
                    for off in 1..=k {
                        nbrs.push((i + off) % n);
                        nbrs.push((i + n - off % n) % n);
                    }
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    nbrs.retain(|&j| j != i);
                    nbrs
                })
                .collect(),
            Topology::Random(k) => (0..n)
                .map(|i| {
                    let mut o: Vec<usize> = (0..n).filter(|&j| j != i).collect();
                    rng.shuffle(&mut o);
                    o.truncate(k.min(n.saturating_sub(1)));
                    o
                })
                .collect(),
        };
    }

    fn move_particle(&mut self, i: usize, rng: &mut Xoshiro256pp) {
        let k = self.dim();
        let at = i * k;
        let params = self.update.params;
        if params.influence == Influence::BestOfNeighborhood {
            // Social attractor: the swarm optimum under gbest, the best
            // evaluated pbest in the neighborhood (own pbest included)
            // under lbest topologies.
            let social: Option<&[f64]> = match params.topology {
                Topology::Gbest => self.progress.best.as_ref().map(|b| b.x.as_slice()),
                Topology::Ring(_) | Topology::VonNeumann | Topology::Random(_) => {
                    let (pbest_f, evaluated) = (&self.pbest_f, &self.evaluated);
                    let mut best: Option<(usize, f64)> = None;
                    if evaluated[i] {
                        best = Some((i, pbest_f[i]));
                    }
                    for &j in &self.neighbors[i] {
                        if evaluated[j] && best.is_none_or(|(_, bf)| pbest_f[j] < bf) {
                            best = Some((j, pbest_f[j]));
                        }
                    }
                    best.map(|(j, _)| &self.pbest_x[j * k..(j + 1) * k])
                }
            };
            self.update.classic_move(
                &mut self.x[at..at + k],
                &mut self.v[at..at + k],
                &self.pbest_x[at..at + k],
                social,
                rng,
            );
            return;
        }

        // FIPS: every informant (neighborhood plus self under lbest, the
        // whole swarm under gbest), filtered to evaluated particles,
        // contributes `φ·r·(p_k − x)/|N|`.
        let mut informants = std::mem::take(&mut self.informant_buf);
        informants.clear();
        match params.topology {
            Topology::Gbest => {
                informants.extend((0..self.size).filter(|&j| self.evaluated[j]));
            }
            Topology::Ring(_) | Topology::VonNeumann | Topology::Random(_) => {
                informants.extend(
                    self.neighbors[i]
                        .iter()
                        .copied()
                        .chain(std::iter::once(i))
                        .filter(|&j| self.evaluated[j]),
                );
            }
        }
        let phi_total = params.c1 + params.c2;
        let (x, v) = (&mut self.x[at..at + k], &mut self.v[at..at + k]);
        for d in 0..k {
            let xd = x[d];
            let attraction = if informants.is_empty() {
                0.0
            } else {
                let share = phi_total / informants.len() as f64;
                informants
                    .iter()
                    .map(|&j| share * rng.next_f64() * (self.pbest_x[j * k + d] - xd))
                    .sum()
            };
            self.update.advance(d, &mut x[d], &mut v[d], attraction);
        }
        informants.clear();
        self.informant_buf = informants;
    }
}

impl Solver for Swarm {
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        if !self.progress.initialized {
            self.initialize(f, rng);
        }
        let i = self.progress.next(self.size);
        if self.evaluated[i] {
            self.move_particle(i, rng);
        }
        // First visit evaluates the random initial position as-is.
        let (mut row, _, progress) = self.parts();
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

    fn name(&self) -> &str {
        "pso"
    }

    /// Emigrate a uniformly random particle's personal best, preserving
    /// swarm diversity (the swarm optimum would make every island
    /// identical).
    fn emigrate(&mut self, rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let (row, _, progress) = self.parts();
        progress.emigrate(&row, rng)
    }

    /// The immigrant replaces the worst particle: it restarts there with
    /// zero velocity and the received personal best, actively joining the
    /// swarm rather than only moving the shared optimum `g`.
    fn immigrate(&mut self, point: BestPoint, _rng: &mut Xoshiro256pp) {
        let (mut row, _, progress) = self.parts();
        progress.immigrate(&mut row, point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::{Rastrigin, Sphere};

    fn run(mut swarm: Swarm, f: &dyn Objective, evals: u64, seed: u64) -> f64 {
        let mut rng = Xoshiro256pp::seeded(seed);
        for _ in 0..evals {
            swarm.step(f, &mut rng);
        }
        swarm.best().unwrap().f
    }

    #[test]
    fn converges_on_sphere() {
        let f = Sphere::new(10);
        let best = run(Swarm::new(20, PsoParams::default()), &f, 20_000, 1);
        assert!(
            best < 1e-6,
            "default (constricted) PSO on sphere reached {best}"
        );
    }

    #[test]
    fn constriction_converges_deeper_than_vanilla_on_sphere() {
        // The discrepancy documented in DESIGN.md: the paper's literal 1995
        // parameters stall orders of magnitude above the constricted
        // configuration at equal budget.
        let f = Sphere::new(10);
        let vanilla = run(Swarm::new(20, PsoParams::paper_1995()), &f, 10_000, 2);
        let constricted = run(Swarm::new(20, PsoParams::default()), &f, 10_000, 2);
        assert!(
            constricted < vanilla / 1e3,
            "constriction {constricted} vs vanilla {vanilla}"
        );
    }

    #[test]
    fn vanilla_1995_still_improves_over_random_init() {
        let f = Sphere::new(10);
        let best = run(Swarm::new(20, PsoParams::paper_1995()), &f, 10_000, 14);
        // Random 10-D points in [-100,100] average f = 10 * E[x^2] ~ 33,000.
        assert!(best < 5_000.0, "vanilla PSO reached {best}");
    }

    #[test]
    fn first_steps_evaluate_initial_positions() {
        let f = Sphere::new(3);
        let mut swarm = Swarm::new(5, PsoParams::default());
        let mut rng = Xoshiro256pp::seeded(3);
        for step in 1..=5 {
            swarm.step(&f, &mut rng);
            assert_eq!(swarm.evals(), step as u64);
        }
        // All five particles evaluated exactly once.
        assert!((0..swarm.size()).all(|i| swarm.is_evaluated(i)));
    }

    #[test]
    fn velocity_respects_vmax() {
        let f = Sphere::new(4);
        let mut swarm = Swarm::new(6, PsoParams::default());
        let mut rng = Xoshiro256pp::seeded(4);
        for _ in 0..600 {
            swarm.step(&f, &mut rng);
        }
        let (lo, hi) = f.bounds(0);
        let vmax = swarm.params().vmax_frac * (hi - lo);
        for i in 0..swarm.size() {
            for &v in swarm.velocity(i) {
                assert!(v.abs() <= vmax + 1e-12, "|{v}| > vmax {vmax}");
            }
        }
    }

    #[test]
    fn clamp_policy_keeps_positions_inside() {
        let f = Sphere::new(4);
        let mut swarm = Swarm::new(
            6,
            PsoParams {
                bounds: BoundPolicy::Clamp,
                ..PsoParams::default()
            },
        );
        let mut rng = Xoshiro256pp::seeded(5);
        for _ in 0..600 {
            swarm.step(&f, &mut rng);
            for i in 0..swarm.size() {
                for (d, &x) in swarm.position(i).iter().enumerate() {
                    let (lo, hi) = f.bounds(d);
                    assert!((lo..=hi).contains(&x));
                }
            }
        }
    }

    #[test]
    fn reflect_policy_keeps_positions_inside() {
        let f = Sphere::new(4);
        let mut swarm = Swarm::new(
            6,
            PsoParams {
                bounds: BoundPolicy::Reflect,
                ..PsoParams::default()
            },
        );
        let mut rng = Xoshiro256pp::seeded(6);
        for _ in 0..600 {
            swarm.step(&f, &mut rng);
            for i in 0..swarm.size() {
                for (d, &x) in swarm.position(i).iter().enumerate() {
                    let (lo, hi) = f.bounds(d);
                    assert!((lo..=hi).contains(&x));
                }
            }
        }
    }

    #[test]
    fn pbest_never_worse_than_current_eval() {
        let f = Rastrigin::new(5);
        let mut swarm = Swarm::new(8, PsoParams::default());
        let mut rng = Xoshiro256pp::seeded(7);
        for _ in 0..400 {
            swarm.step(&f, &mut rng);
        }
        for i in 0..swarm.size() {
            let (px, pf) = swarm.pbest(i);
            assert!(pf <= f.eval(px) + 1e-12);
        }
    }

    #[test]
    fn injected_best_steers_swarm() {
        // Inject the exact optimum into a swarm far from it: the swarm
        // best must become 0 and stay there.
        let f = Sphere::new(6);
        let mut swarm = Swarm::new(10, PsoParams::default());
        let mut rng = Xoshiro256pp::seeded(8);
        for _ in 0..50 {
            swarm.step(&f, &mut rng);
        }
        swarm.tell_best(BestPoint {
            x: vec![0.0; 6],
            f: 0.0,
        });
        assert_eq!(swarm.best().unwrap().f, 0.0);
        for _ in 0..100 {
            swarm.step(&f, &mut rng);
        }
        assert_eq!(swarm.best().unwrap().f, 0.0);
    }

    #[test]
    fn ring_topology_neighbors_are_symmetric_lattice() {
        let f = Sphere::new(2);
        let mut swarm = Swarm::new(
            6,
            PsoParams {
                topology: Topology::Ring(1),
                ..PsoParams::default()
            },
        );
        let mut rng = Xoshiro256pp::seeded(9);
        swarm.step(&f, &mut rng); // triggers initialization
        assert_eq!(swarm.neighbors[0], vec![1, 5]);
        assert_eq!(swarm.neighbors[3], vec![2, 4]);
    }

    #[test]
    fn von_neumann_lattice_neighbors() {
        let f = Sphere::new(2);
        // 9 particles -> 3x3 torus.
        let mut swarm = Swarm::new(
            9,
            PsoParams {
                topology: Topology::VonNeumann,
                ..PsoParams::default()
            },
        );
        let mut rng = Xoshiro256pp::seeded(30);
        swarm.step(&f, &mut rng);
        // Particle 4 (centre of 3x3): neighbors 1, 3, 5, 7.
        assert_eq!(swarm.neighbors[4], vec![1, 3, 5, 7]);
        // Corner particle 0 wraps: up -> 6, down -> 3, left -> 2, right -> 1.
        assert_eq!(swarm.neighbors[0], vec![1, 2, 3, 6]);
        // Every particle has degree <= 4 and no self-loop.
        for (i, nbrs) in swarm.neighbors.iter().enumerate() {
            assert!(nbrs.len() <= 4 && !nbrs.is_empty());
            assert!(!nbrs.contains(&i));
        }
    }

    #[test]
    fn von_neumann_ragged_grid_is_valid() {
        let f = Sphere::new(2);
        // 7 particles -> 3 cols x 3 rows with a ragged last row.
        let mut swarm = Swarm::new(
            7,
            PsoParams {
                topology: Topology::VonNeumann,
                ..PsoParams::default()
            },
        );
        let mut rng = Xoshiro256pp::seeded(31);
        swarm.step(&f, &mut rng);
        for (i, nbrs) in swarm.neighbors.iter().enumerate() {
            assert!(!nbrs.is_empty(), "particle {i} isolated");
            assert!(nbrs.iter().all(|&j| j < 7 && j != i));
        }
    }

    #[test]
    fn von_neumann_converges_on_sphere() {
        let f = Sphere::new(6);
        let best = run(
            Swarm::new(
                16,
                PsoParams {
                    topology: Topology::VonNeumann,
                    ..PsoParams::default()
                },
            ),
            &f,
            16_000,
            32,
        );
        assert!(best < 1e-3, "von Neumann PSO reached {best}");
    }

    #[test]
    fn random_topology_has_requested_degree() {
        let f = Sphere::new(2);
        let mut swarm = Swarm::new(
            10,
            PsoParams {
                topology: Topology::Random(3),
                ..PsoParams::default()
            },
        );
        let mut rng = Xoshiro256pp::seeded(10);
        swarm.step(&f, &mut rng);
        for (i, nbrs) in swarm.neighbors.iter().enumerate() {
            assert_eq!(nbrs.len(), 3);
            assert!(!nbrs.contains(&i));
        }
    }

    #[test]
    fn lbest_still_converges_on_sphere() {
        let f = Sphere::new(6);
        let best = run(
            Swarm::new(
                16,
                PsoParams {
                    topology: Topology::Ring(1),
                    ..PsoParams::default()
                },
            ),
            &f,
            16_000,
            11,
        );
        assert!(best < 1e-3, "lbest PSO reached {best}");
    }

    #[test]
    fn fips_ring_converges_on_sphere() {
        let f = Sphere::new(10);
        let best = run(Swarm::new(20, PsoParams::fips_ring()), &f, 20_000, 21);
        assert!(best < 1e-4, "FIPS-ring on sphere reached {best}");
    }

    #[test]
    fn fips_gbest_uses_all_informants() {
        // FIPS over gbest: informants = whole swarm; must still converge.
        let f = Sphere::new(6);
        let params = PsoParams {
            influence: Influence::FullyInformed,
            ..PsoParams::default()
        };
        let best = run(Swarm::new(12, params), &f, 12_000, 22);
        assert!(best < 1.0, "FIPS-gbest reached {best}");
    }

    #[test]
    fn fips_on_multimodal_beats_or_matches_gbest_sometimes() {
        // Mendes et al.'s headline: FIPS-ring is markedly better on
        // multimodal functions. We assert the weaker, stable property that
        // it is competitive (within two orders of magnitude) on Rastrigin.
        let f = Rastrigin::new(10);
        let gbest = run(Swarm::new(20, PsoParams::default()), &f, 20_000, 23);
        let fips = run(Swarm::new(20, PsoParams::fips_ring()), &f, 20_000, 23);
        assert!(
            fips.log10() <= gbest.log10() + 2.0,
            "fips {fips} vs gbest {gbest}"
        );
    }

    #[test]
    fn single_particle_swarm_works() {
        let f = Sphere::new(3);
        let best = run(Swarm::new(1, PsoParams::default()), &f, 1000, 12);
        assert!(best.is_finite());
    }

    #[test]
    fn immigrant_replaces_worst_particle() {
        let f = Sphere::new(3);
        let mut swarm = Swarm::new(5, PsoParams::default());
        let mut rng = Xoshiro256pp::seeded(77);
        for _ in 0..25 {
            swarm.step(&f, &mut rng);
        }
        let worst_pbest = |s: &Swarm| {
            (0..s.size())
                .map(|i| s.pbest(i).1)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let worst_before = worst_pbest(&swarm);
        swarm.immigrate(
            BestPoint {
                x: vec![0.0; 3],
                f: 0.0,
            },
            &mut rng,
        );
        let worst_after = worst_pbest(&swarm);
        assert!(worst_after < worst_before, "worst particle replaced");
        assert!((0..swarm.size()).any(|i| swarm.pbest(i).1 == 0.0));
        assert_eq!(swarm.best().unwrap().f, 0.0);
    }

    #[test]
    fn emigrant_is_a_particle_pbest() {
        let f = Sphere::new(3);
        let mut swarm = Swarm::new(5, PsoParams::default());
        let mut rng = Xoshiro256pp::seeded(78);
        for _ in 0..25 {
            swarm.step(&f, &mut rng);
        }
        for _ in 0..20 {
            let e = swarm.emigrate(&mut rng).unwrap();
            assert!(
                (0..swarm.size()).any(|i| {
                    let (px, pf) = swarm.pbest(i);
                    pf == e.f && px == e.x.as_slice()
                }),
                "emigrant must be some particle's pbest"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn zero_particles_rejected() {
        Swarm::new(0, PsoParams::default());
    }

    #[test]
    #[should_panic(expected = "constriction requires")]
    fn bad_constriction_rejected() {
        Swarm::new(
            5,
            PsoParams {
                c1: 1.0,
                c2: 1.0,
                inertia: Inertia::Constriction,
                ..PsoParams::default()
            },
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let f = Sphere::new(5);
        let a = run(Swarm::new(12, PsoParams::default()), &f, 3000, 13);
        let b = run(Swarm::new(12, PsoParams::default()), &f, 3000, 13);
        assert_eq!(a, b);
    }
}

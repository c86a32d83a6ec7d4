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
}

/// A particle swarm implementing [`Solver`] (one evaluation per step).
///
/// ## Hot-path layout
///
/// Particle state is stored **structure-of-arrays**: positions,
/// velocities and personal bests live in flat `Vec<f64>` buffers with
/// stride `dim`, so the velocity/position update is one tight loop over
/// contiguous memory and a step performs no heap allocation (the former
/// per-particle `Vec<f64>` layout allocated a social-best snapshot and a
/// `BestPoint` candidate on every single evaluation). The update rule,
/// iteration order and RNG draws are unchanged, so trajectories are
/// bit-identical to the per-particle implementation.
#[derive(Debug, Clone)]
pub struct Swarm {
    params: PsoParams,
    size: usize,
    /// Problem dimensionality (the SoA stride); fixed at initialization.
    dim: usize,
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
    /// The swarm optimum `g` (possibly injected from remote swarms).
    swarm_best: Option<BestPoint>,
    /// Adjacency for lbest topologies (empty for gbest).
    neighbors: Vec<Vec<usize>>,
    /// FIPS informant scratch, reused across steps.
    informant_buf: Vec<usize>,
    /// Cached per-dimension domain bounds (from the objective at init).
    bounds_lo: Vec<f64>,
    bounds_hi: Vec<f64>,
    /// Cached per-dimension velocity clamp `vmax_frac · (hi − lo)`.
    vmax: Vec<f64>,
    /// Cached constriction factor χ (params are immutable after
    /// construction, so the per-move `sqrt` is hoisted here).
    chi: f64,
    /// Cached inertia weight `w`.
    w: f64,
    cursor: usize,
    evals: u64,
    initialized: bool,
}

impl Swarm {
    /// A swarm of `size` particles. Particles are lazily initialized on the
    /// first [`Solver::step`] so that construction needs no RNG/objective.
    pub fn new(size: usize, params: PsoParams) -> Self {
        assert!(size >= 1, "swarm needs at least one particle");
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
        Swarm {
            params,
            size,
            dim: 0,
            x: Vec::new(),
            v: Vec::new(),
            pbest_x: Vec::new(),
            pbest_f: Vec::new(),
            evaluated: Vec::new(),
            swarm_best: None,
            neighbors: Vec::new(),
            informant_buf: Vec::new(),
            bounds_lo: Vec::new(),
            bounds_hi: Vec::new(),
            vmax: Vec::new(),
            chi,
            w,
            cursor: 0,
            evals: 0,
            initialized: false,
        }
    }

    /// Number of particles.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The parameters in use.
    pub fn params(&self) -> &PsoParams {
        &self.params
    }

    /// Problem dimensionality the swarm was initialized with (0 before the
    /// first step).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Particle `i`'s current position (panics before initialization).
    pub fn position(&self, i: usize) -> &[f64] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Particle `i`'s current velocity (panics before initialization).
    pub fn velocity(&self, i: usize) -> &[f64] {
        &self.v[i * self.dim..(i + 1) * self.dim]
    }

    /// Particle `i`'s personal best `(position, value)`; the value is
    /// `+inf` until the particle's first evaluation.
    pub fn pbest(&self, i: usize) -> (&[f64], f64) {
        (
            &self.pbest_x[i * self.dim..(i + 1) * self.dim],
            self.pbest_f[i],
        )
    }

    /// Whether particle `i` has been evaluated at least once.
    pub fn is_evaluated(&self, i: usize) -> bool {
        self.evaluated[i]
    }

    fn initialize(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        let k = f.dim();
        self.dim = k;
        self.bounds_lo.clear();
        self.bounds_hi.clear();
        self.vmax.clear();
        for d in 0..k {
            let (lo, hi) = f.bounds(d);
            self.bounds_lo.push(lo);
            self.bounds_hi.push(hi);
            self.vmax.push(self.params.vmax_frac * (hi - lo));
        }
        self.x.clear();
        self.v.clear();
        // Draw order matches the per-particle layout this replaces: for
        // each particle, all position coordinates, then all velocities.
        for _ in 0..self.size {
            for d in 0..k {
                self.x
                    .push(rng.range_f64(self.bounds_lo[d], self.bounds_hi[d]));
            }
            for d in 0..k {
                let vmax = self.vmax[d];
                self.v.push(rng.range_f64(-vmax, vmax));
            }
        }
        self.pbest_x.clear();
        self.pbest_x.extend_from_slice(&self.x);
        self.pbest_f.clear();
        self.pbest_f.resize(self.size, f64::INFINITY);
        self.evaluated.clear();
        self.evaluated.resize(self.size, false);
        self.neighbors = match self.params.topology {
            Topology::Gbest => Vec::new(),
            Topology::VonNeumann => {
                // Near-square torus: cols = ceil(sqrt(n)), rows to cover.
                let n = self.size;
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
            Topology::Ring(k) => (0..self.size)
                .map(|i| {
                    let mut nbrs = Vec::with_capacity(2 * k);
                    for off in 1..=k {
                        nbrs.push((i + off) % self.size);
                        nbrs.push((i + self.size - off % self.size) % self.size);
                    }
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    nbrs.retain(|&j| j != i);
                    nbrs
                })
                .collect(),
            Topology::Random(k) => (0..self.size)
                .map(|i| {
                    let others: Vec<usize> = (0..self.size).filter(|&j| j != i).collect();
                    let mut o = others;
                    rng.shuffle(&mut o);
                    o.truncate(k.min(self.size.saturating_sub(1)));
                    o
                })
                .collect(),
        };
        self.initialized = true;
    }

    fn move_particle(&mut self, i: usize, rng: &mut Xoshiro256pp) {
        let (c1, c2) = (self.params.c1, self.params.c2);
        let k = self.dim;
        let (chi, w) = (self.chi, self.w);
        let phi_total = c1 + c2;

        // FIPS informants (neighborhood plus self under lbest, the whole
        // swarm under gbest), filtered to evaluated particles — collected
        // into a reusable scratch buffer (untouched on the classic path).
        let fips = self.params.influence == Influence::FullyInformed;
        let mut informants = if fips {
            std::mem::take(&mut self.informant_buf)
        } else {
            Vec::new()
        };
        if fips {
            informants.clear();
            match self.params.topology {
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
        }

        // Split borrows: the social attractor and informant pbests borrow
        // `pbest_x`/`swarm_best` immutably while `x`/`v` are mutated —
        // disjoint SoA buffers, so no snapshot clones are needed.
        let x = &mut self.x;
        let v = &mut self.v;
        let pbest_x = &self.pbest_x;
        let pbest_f = &self.pbest_f;
        let evaluated = &self.evaluated;

        // Social attractor for the classic update: the swarm optimum under
        // gbest, the best evaluated pbest in the neighborhood (own pbest
        // included) under lbest topologies.
        let social: Option<&[f64]> = match self.params.topology {
            Topology::Gbest => self.swarm_best.as_ref().map(|b| b.x.as_slice()),
            Topology::Ring(_) | Topology::VonNeumann | Topology::Random(_) => {
                let mut best: Option<(usize, f64)> = None;
                if evaluated[i] {
                    best = Some((i, pbest_f[i]));
                }
                for &j in &self.neighbors[i] {
                    if evaluated[j] && best.is_none_or(|(_, bf)| pbest_f[j] < bf) {
                        best = Some((j, pbest_f[j]));
                    }
                }
                best.map(|(j, _)| &pbest_x[j * k..(j + 1) * k])
            }
        };

        let row = i * k;
        // Hot specialization mirroring `ArenaPso`'s: classic influence, no
        // bound policy and a known social attractor — the default
        // distributed-PSO configuration. Same FP expressions and RNG draw
        // order as the general loop below, run through the 4-wide lane
        // kernel (see [`crate::lanes`]) so the per-dimension chains
        // vectorize.
        if self.params.influence == Influence::BestOfNeighborhood
            && self.params.bounds == BoundPolicy::None
        {
            if let Some(g) = social.filter(|g| g.len() == k) {
                let xs = &mut x[row..row + k];
                let vs = &mut v[row..row + k];
                let pb = &pbest_x[row..row + k];
                crate::lanes::pso_move_lanes(xs, vs, pb, g, &self.vmax[..k], c1, c2, chi, w, rng);
                return;
            }
        }
        for d in 0..k {
            let (lo, hi) = (self.bounds_lo[d], self.bounds_hi[d]);
            let vmax = self.vmax[d];
            let xd = x[row + d];
            let attraction = match self.params.influence {
                Influence::BestOfNeighborhood => {
                    let cognitive = c1 * rng.next_f64() * (pbest_x[row + d] - xd);
                    let social_term = match social {
                        Some(g) => c2 * rng.next_f64() * (g[d] - xd),
                        None => 0.0,
                    };
                    cognitive + social_term
                }
                Influence::FullyInformed => {
                    if informants.is_empty() {
                        0.0
                    } else {
                        let share = phi_total / informants.len() as f64;
                        informants
                            .iter()
                            .map(|&j| share * rng.next_f64() * (pbest_x[j * k + d] - xd))
                            .sum()
                    }
                }
            };
            let mut vel = chi * (w * v[row + d] + attraction);
            vel = vel.clamp(-vmax, vmax);
            v[row + d] = vel;
            x[row + d] += vel;
            match self.params.bounds {
                BoundPolicy::None => {}
                BoundPolicy::Clamp => {
                    if x[row + d] < lo {
                        x[row + d] = lo;
                        v[row + d] = 0.0;
                    } else if x[row + d] > hi {
                        x[row + d] = hi;
                        v[row + d] = 0.0;
                    }
                }
                BoundPolicy::Reflect => {
                    if x[row + d] < lo {
                        x[row + d] = lo + (lo - x[row + d]);
                        v[row + d] = -v[row + d];
                    } else if x[row + d] > hi {
                        x[row + d] = hi - (x[row + d] - hi);
                        v[row + d] = -v[row + d];
                    }
                    // A huge overshoot can still escape after one fold;
                    // clamp as a backstop.
                    x[row + d] = x[row + d].clamp(lo, hi);
                }
            }
        }
        if fips {
            informants.clear();
            self.informant_buf = informants;
        }
    }

    fn evaluate(&mut self, i: usize, f: &dyn Objective) {
        let k = self.dim;
        let row = i * k;
        let value = crate::eval_point(f, &self.x[row..row + k]);
        self.evals += 1;
        self.evaluated[i] = true;
        if value < self.pbest_f[i] {
            self.pbest_f[i] = value;
            self.pbest_x[row..row + k].copy_from_slice(&self.x[row..row + k]);
        }
        // Paper §3.3.2: select the best local optimum as the swarm optimum
        // after each evaluation. The update reuses the existing allocation
        // instead of building a candidate `BestPoint` per evaluation.
        let pf = self.pbest_f[i];
        match &mut self.swarm_best {
            Some(b) if pf < b.f => {
                if b.x.len() == k {
                    b.x.copy_from_slice(&self.pbest_x[row..row + k]);
                } else {
                    b.x = self.pbest_x[row..row + k].to_vec();
                }
                b.f = pf;
            }
            Some(_) => {}
            none => {
                *none = Some(BestPoint {
                    x: self.pbest_x[row..row + k].to_vec(),
                    f: pf,
                });
            }
        }
    }
}

impl Solver for Swarm {
    fn step(&mut self, f: &dyn Objective, rng: &mut Xoshiro256pp) {
        if !self.initialized {
            self.initialize(f, rng);
        }
        let i = self.cursor;
        // Equivalent to `(cursor + 1) % size` (cursor < size always) minus
        // the hardware divide in every step.
        self.cursor += 1;
        if self.cursor == self.size {
            self.cursor = 0;
        }
        if self.evaluated[i] {
            self.move_particle(i, rng);
        }
        // First visit evaluates the random initial position as-is.
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

    fn name(&self) -> &str {
        "pso"
    }

    /// Emigrate a uniformly random particle's personal best, preserving
    /// swarm diversity (the swarm optimum would make every island
    /// identical).
    fn emigrate(&mut self, rng: &mut Xoshiro256pp) -> Option<BestPoint> {
        let evaluated: Vec<usize> = (0..self.size)
            .filter(|&i| self.initialized && self.evaluated[i])
            .collect();
        if evaluated.is_empty() {
            return self.swarm_best.clone();
        }
        let i = evaluated[rng.index(evaluated.len())];
        let (px, pf) = self.pbest(i);
        Some(BestPoint {
            x: px.to_vec(),
            f: pf,
        })
    }

    /// The immigrant replaces the worst particle: it restarts there with
    /// zero velocity and the received personal best, actively joining the
    /// swarm rather than only moving the shared optimum `g`.
    fn immigrate(&mut self, point: BestPoint, _rng: &mut Xoshiro256pp) {
        if self.initialized && point.x.len() == self.dim {
            let worst = (0..self.size)
                .max_by(|&a, &b| self.pbest_f[a].total_cmp(&self.pbest_f[b]))
                .expect("non-empty swarm");
            if point.f < self.pbest_f[worst] {
                let k = self.dim;
                let row = worst * k;
                self.x[row..row + k].copy_from_slice(&point.x);
                self.v[row..row + k].fill(0.0);
                self.pbest_x[row..row + k].copy_from_slice(&point.x);
                self.pbest_f[worst] = point.f;
                self.evaluated[worst] = true;
            }
        }
        self.tell_best(point);
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

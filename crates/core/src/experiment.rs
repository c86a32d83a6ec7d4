//! Experiment specification, network construction and budgeted execution.
//!
//! This module is the reproduction's workhorse: it turns a declarative
//! [`DistributedPsoSpec`] into a network of [`OptNode`]s inside either
//! kernel, runs it under a [`Budget`], and reports the paper's figures of
//! merit (solution quality, total evaluations, time in local evaluations
//! per node). There is one run loop, [`drive`], over the small [`Engine`]
//! trait that both kernels implement; [`run_distributed`] (cycle kernel),
//! [`run_distributed_async`] (event kernel) and the scenario executor are
//! its callers. [`run_repeated`] executes independent repetitions
//! (rayon-parallel) and is the basis of every table row and figure series.

use crate::metrics::{MetricSample, MetricsRing, MetricsSpec};
use crate::node::{CoordComp, OptNode, Role, TopologyComp};
use crate::CoreError;
use gossipopt_functions::{by_name, Objective};
use gossipopt_gossip::{
    topology, AntiEntropy, ExchangeMode, Newscast, NewscastConfig, RumorConfig, StaticSampler,
};
use gossipopt_obs::snapshot::TraceEvent;
use gossipopt_sim::{
    Application, ChurnConfig, Control, CycleConfig, CycleEngine, EventConfig, EventEngine,
    FrameSavings, Latency, NodeId, Transport, WireCounts,
};
use gossipopt_solvers::{solver_by_name, PsoParams, Solver, Swarm, SwarmArena};
use gossipopt_util::{OnlineStats, Summary, Xoshiro256pp};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::sync::Arc;

/// Which topology service the nodes run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// NEWSCAST peer sampling (the paper's choice).
    Newscast,
    /// Static full mesh.
    FullMesh,
    /// Static star centered on the first node.
    Star,
    /// Static bidirectional ring.
    Ring,
    /// Static random digraph with the given out-degree.
    KOut(usize),
    /// Static 2-D torus grid (the paper's "mesh topology" sketch).
    Grid,
    /// Watts–Strogatz small world with lattice degree `k` and rewiring
    /// probability `beta` (the PSO-neighborhood literature's graphs).
    SmallWorld {
        /// Ring-lattice degree (rounded up to even).
        k: usize,
        /// Edge rewiring probability in `[0, 1]`.
        beta: f64,
    },
    /// Erdős–Rényi random graph with edge probability `p`.
    ErdosRenyi(f64),
    /// Directed ring lattice with `k` successor links per node — the
    /// low-degree, diameter-limited baseline of the 100k-node scale runs.
    RingLattice(usize),
    /// Random `k`-out-regular digraph built by rejection sampling. Unlike
    /// [`TopologyKind::KOut`] (per-node shuffle, O(n²) to build) this is
    /// O(n·k) and therefore the constant-degree expander used at 100k
    /// nodes.
    KOutRegular(usize),
    /// Two-level cluster hierarchy (Shin et al. 2020): ~√n clusters whose
    /// members run a `degree`-successor ring plus an uplink to the cluster
    /// head, heads forming their own ring lattice — see
    /// `gossipopt_gossip::topology::two_level_auto`.
    TwoLevelHierarchy {
        /// Ring window within each cluster (and minimum head-ring degree).
        degree: usize,
    },
}

impl TopologyKind {
    /// Does this topology run the NEWSCAST service (dynamic overlay)?
    /// Everything else is a precomputed static neighbor list, which needs
    /// no kernel bootstrap contacts — so 100k-node networks join in O(n).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, TopologyKind::Newscast)
    }
}

/// Which coordination service the nodes run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoordinationKind {
    /// Anti-entropy diffusion of the global optimum (the paper's choice).
    GossipBest(ExchangeMode),
    /// Demers rumor mongering of the global optimum (fan-out `k`, stop
    /// probability `p`) — the background section's alternative epidemic.
    RumorBest(RumorConfig),
    /// Island-model migration of whole individuals, `migrants` per
    /// coordination event (future-work solver diversification).
    Migrate {
        /// Individuals sent per coordination event.
        migrants: usize,
    },
    /// Centralized hub collection (master–slave baseline). Implies the
    /// first node is the master regardless of topology.
    MasterSlave,
    /// No coordination: independent searches (stochasticity-only baseline).
    None,
}

/// Which solver runs in the function optimization service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// A PSO swarm with explicit parameters (size = `particles_per_node`).
    Pso(PsoParams),
    /// A registered solver by name (`"pso"`, `"de"`, `"sa"`, `"es"`,
    /// `"random"`), default-parameterized.
    Named(String),
    /// Heterogeneous deployment: node `i` runs `specs[i % len]` — the
    /// paper's future-work "module diversification among peers".
    Mix(Vec<SolverSpec>),
}

impl SolverSpec {
    /// Build the solver for node `index`.
    pub fn build(&self, k: usize, index: usize) -> Result<Box<dyn Solver>, CoreError> {
        match self {
            SolverSpec::Pso(params) => Ok(Box::new(Swarm::new(k, *params))),
            SolverSpec::Named(name) => {
                solver_by_name(name, k).ok_or_else(|| CoreError::UnknownSolver(name.clone()))
            }
            SolverSpec::Mix(specs) => {
                if specs.is_empty() {
                    return Err(CoreError::InvalidSpec("empty solver mix".into()));
                }
                specs[index % specs.len()].build(k, index / specs.len())
            }
        }
    }
}

/// Evaluation budget of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Budget {
    /// Each node performs this many local evaluations (the paper's first
    /// and third experiment sets: "1000 evaluations per node").
    PerNode(u64),
    /// The network performs this many evaluations in total, evenly
    /// distributed (second and fourth sets: `e = 2^20` total).
    Total(u64),
}

impl Budget {
    /// Local evaluations per node for a network of `n` nodes (at least 1).
    pub fn per_node(&self, n: usize) -> u64 {
        match *self {
            Budget::PerNode(b) => b.max(1),
            Budget::Total(e) => (e / n as u64).max(1),
        }
    }
}

/// Declarative description of a distributed optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedPsoSpec {
    /// Network size `n`.
    pub nodes: usize,
    /// Swarm size per node `k` (population size for non-PSO solvers).
    pub particles_per_node: usize,
    /// Coordination period `r` in local evaluations.
    pub gossip_every: u64,
    /// Topology service choice.
    pub topology: TopologyKind,
    /// Coordination service choice.
    pub coordination: CoordinationKind,
    /// Function optimization service choice.
    pub solver: SolverSpec,
    /// NEWSCAST parameters (used when `topology == Newscast`).
    pub newscast: NewscastConfig,
    /// Churn process (crashes/joins per tick).
    pub churn: ChurnConfig,
    /// Message loss probability.
    pub loss_prob: f64,
    /// Dimensionality requested from the function registry.
    pub function_dim: usize,
    /// Stop early when global quality reaches this threshold (set 4).
    pub stop_at_quality: Option<f64>,
    /// Record `(tick, global quality)` every this many ticks.
    pub trace_every: Option<u64>,
    /// Search-space partitioning (future work): split the domain into this
    /// many zones and confine node `i`'s solver to zone `i mod zones`
    /// (`0` disables). The epidemic service still diffuses the global
    /// best, so the network keeps a global view.
    pub partition_zones: usize,
    /// Kernel worker threads. `0` (default): the sequential engines,
    /// exactly the historical semantics. `>= 1`: sharded execution — the
    /// event kernel stays bit-identical to sequential at any thread
    /// count, while the cycle kernel switches to the *phased* tick
    /// discipline (thread-count invariant, but a different schedule than
    /// the sequential tick; see `gossipopt_sim::cycle`).
    pub threads: usize,
    /// Optional allocation-free metrics tap (see [`crate::metrics`]):
    /// when set, the run records per-tick best-so-far / alive count /
    /// delivered messages / wire bytes into a preallocated ring and
    /// returns the series in [`RunReport::samples`]. Observer-only — it
    /// cannot shift a seeded trajectory.
    pub metrics: Option<MetricsSpec>,
}

impl Default for DistributedPsoSpec {
    fn default() -> Self {
        DistributedPsoSpec {
            nodes: 16,
            particles_per_node: 16,
            gossip_every: 16,
            topology: TopologyKind::Newscast,
            coordination: CoordinationKind::GossipBest(ExchangeMode::PushPull),
            solver: SolverSpec::Pso(PsoParams::default()),
            newscast: NewscastConfig {
                view_size: 20,
                exchange_every: 10,
            },
            churn: ChurnConfig::none(),
            loss_prob: 0.0,
            function_dim: 10,
            stop_at_quality: None,
            trace_every: None,
            partition_zones: 0,
            threads: 0,
            metrics: None,
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Global solution quality `min_p f(g_p) − f*` at the end.
    pub best_quality: f64,
    /// Raw best objective value.
    pub best_value: f64,
    /// Evaluations performed by all nodes together.
    pub total_evals: u64,
    /// Ticks run — the paper's "time" (local evaluations per node).
    pub ticks: u64,
    /// Tick at which `stop_at_quality` was first met, if it was.
    pub reached_threshold_at: Option<u64>,
    /// Coordination exchanges initiated network-wide (overhead metric).
    pub coordination_exchanges: u64,
    /// Wire bytes sent by the nodes (topology + coordination traffic,
    /// sized by `Msg::wire_bytes`) — the paper's communication cost in
    /// bytes rather than message counts. Sums over nodes alive at the end
    /// of the run **plus** the kernel's retired-node accumulator (byte
    /// ledgers harvested from nodes at death), so this is exact even
    /// under churn. (`total_evals` and `coordination_exchanges` still sum
    /// over surviving nodes only and remain lower bounds under churn.)
    pub payload_bytes: u64,
    /// Kernel message statistics.
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped: loss and dead letters, plus hop-budget overflow
    /// on the cycle kernel.
    pub messages_dropped: u64,
    /// Live nodes at the end (differs from `nodes` under churn).
    pub final_population: usize,
    /// Sampled `(tick, global quality)` trace (empty unless requested).
    pub trace: Vec<(u64, f64)>,
    /// Metric samples from the ring-buffer tap (empty unless
    /// [`DistributedPsoSpec::metrics`] was set); chronological, most
    /// recent `capacity` samples.
    pub samples: Vec<MetricSample>,
}

/// Cloneable recipe constructing framework nodes for a spec — shared by
/// the run loop's initial population and its joiner spawner.
///
/// Shared structures (objective, zones, static neighbor lists) live behind
/// `Arc`s, so cloning the recipe for the churn spawner is O(1) even when
/// the neighbor lists describe a 100k-node overlay.
#[derive(Clone)]
pub struct NodeRecipe {
    spec: DistributedPsoSpec,
    objective: Arc<dyn Objective>,
    zones: Option<Arc<Vec<crate::partition::Zone>>>,
    static_neighbors: Option<Arc<Vec<Vec<NodeId>>>>,
    hub: NodeId,
    per_node_budget: u64,
    /// The network-wide evaluation cap of a [`Budget::Total`] run, which
    /// the run loop enforces (under churn the per-node split alone cannot).
    total_cap: Option<u64>,
    /// Cross-node SoA store for the hot particle state when the solver
    /// spec is the gbest/classic PSO the arena implements bit-identically
    /// (see `gossipopt_solvers::arena`): one flat allocation for the whole
    /// network instead of `n` boxed swarms, so a tick streams memory
    /// instead of pointer-chasing. Sized for the initial population; churn
    /// joiners beyond it fall back to boxed swarms (same trajectories).
    solver_arena: Option<Arc<SwarmArena>>,
}

impl NodeRecipe {
    /// Validate `spec` and precompute shared structures (zones, static
    /// neighbor lists).
    pub fn new(
        spec: &DistributedPsoSpec,
        objective: Arc<dyn Objective>,
        budget: Budget,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if spec.nodes == 0 {
            return Err(CoreError::InvalidSpec("nodes must be positive".into()));
        }
        if !(0.0..=1.0).contains(&spec.loss_prob) {
            return Err(CoreError::InvalidSpec(format!(
                "loss_prob {} out of [0,1]",
                spec.loss_prob
            )));
        }
        // Probe the solver spec early so later builds cannot fail.
        spec.solver.build(spec.particles_per_node, 0)?;
        let n = spec.nodes;
        let zones = if spec.partition_zones > 0 {
            Some(Arc::new(crate::partition::grid_zones(
                objective.as_ref(),
                spec.partition_zones,
            )))
        } else {
            None
        };
        let ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let static_neighbors = match spec.topology {
            TopologyKind::Newscast => None,
            TopologyKind::FullMesh => Some(topology::relabel(&ids, &topology::full_mesh(n))),
            TopologyKind::Star => Some(topology::relabel(&ids, &topology::star(n))),
            TopologyKind::Ring => Some(topology::relabel(&ids, &topology::ring(n))),
            TopologyKind::KOut(k) => {
                let mut topo_rng = gossipopt_util::Xoshiro256pp::seeded(seed ^ 0x0070_9311);
                Some(topology::relabel(
                    &ids,
                    &topology::k_out_random(n, k, &mut topo_rng),
                ))
            }
            TopologyKind::Grid => Some(topology::relabel(&ids, &topology::torus_grid(n))),
            TopologyKind::SmallWorld { k, beta } => {
                if !(0.0..=1.0).contains(&beta) {
                    return Err(CoreError::InvalidSpec(format!(
                        "small-world beta {beta} out of [0,1]"
                    )));
                }
                let mut topo_rng = gossipopt_util::Xoshiro256pp::seeded(seed ^ 0x0077_5357);
                Some(topology::relabel(
                    &ids,
                    &topology::watts_strogatz(n, k, beta, &mut topo_rng),
                ))
            }
            TopologyKind::ErdosRenyi(p) => {
                if !(0.0..=1.0).contains(&p) {
                    return Err(CoreError::InvalidSpec(format!(
                        "Erdős–Rényi p {p} out of [0,1]"
                    )));
                }
                let mut topo_rng = gossipopt_util::Xoshiro256pp::seeded(seed ^ 0x00e7_d057);
                Some(topology::relabel(
                    &ids,
                    &topology::erdos_renyi(n, p, &mut topo_rng),
                ))
            }
            TopologyKind::RingLattice(k) => {
                if k == 0 || k >= n {
                    return Err(CoreError::InvalidSpec(format!(
                        "ring lattice needs 0 < k < n, got k = {k}, n = {n}"
                    )));
                }
                Some(topology::relabel(&ids, &topology::ring_lattice(n, k)))
            }
            TopologyKind::KOutRegular(k) => {
                if k == 0 || k >= n {
                    return Err(CoreError::InvalidSpec(format!(
                        "k-out-regular needs 0 < k < n, got k = {k}, n = {n}"
                    )));
                }
                let mut topo_rng = gossipopt_util::Xoshiro256pp::seeded(seed ^ 0x004b_0075);
                Some(topology::relabel(
                    &ids,
                    &topology::k_out_regular(n, k, &mut topo_rng),
                ))
            }
            TopologyKind::TwoLevelHierarchy { degree } => {
                if degree == 0 {
                    return Err(CoreError::InvalidSpec(
                        "two-level hierarchy needs degree >= 1".into(),
                    ));
                }
                Some(topology::relabel(
                    &ids,
                    &topology::two_level_auto(n, degree),
                ))
            }
        };
        // Arena eligibility: one shared objective (no per-node zone
        // wrappers, whose bounds differ) and the gbest/classic PSO. The
        // arena is a pure storage change — `ArenaPso` is bit-identical to
        // `Swarm` — so this engages for the default solver spec without
        // shifting any seeded result.
        let solver_arena = match (&spec.solver, &zones) {
            (SolverSpec::Pso(params), None) if SwarmArena::supports(params) => Some(Arc::new(
                SwarmArena::new(n, spec.particles_per_node, *params, objective.as_ref()),
            )),
            _ => None,
        };
        Ok(NodeRecipe {
            spec: spec.clone(),
            objective,
            zones,
            static_neighbors: static_neighbors.map(Arc::new),
            hub: NodeId(0),
            per_node_budget: budget.per_node(n),
            total_cap: match budget {
                Budget::Total(e) => Some(e),
                Budget::PerNode(_) => None,
            },
            solver_arena,
        })
    }

    /// Per-node evaluation budget this recipe applies.
    pub fn per_node_budget(&self) -> u64 {
        self.per_node_budget
    }

    /// The objective for node `index`: the shared `Arc` when unpartitioned
    /// (a refcount bump, no per-node wrapper allocation at 100k nodes); a
    /// zone-restricted wrapper only when partitioning is on.
    fn node_objective(&self, index: usize) -> Arc<dyn Objective> {
        match &self.zones {
            None => Arc::clone(&self.objective),
            Some(zs) => Arc::new(crate::partition::restrict_to_zone(
                Arc::clone(&self.objective),
                &zs[index % zs.len()],
            )),
        }
    }

    /// Build the node for slot `index`. Indices beyond the initial range
    /// (churn joiners) fall back to hub-only static neighbors.
    pub fn build(&self, index: usize) -> Result<OptNode, CoreError> {
        let spec = &self.spec;
        let solver: Box<dyn Solver> = match &self.solver_arena {
            Some(arena) => match arena.alloc() {
                Some(handle) => Box::new(handle),
                // Arena exhausted (churn joiner beyond the initial
                // population): a boxed swarm runs the identical search.
                None => spec.solver.build(spec.particles_per_node, index)?,
            },
            None => spec.solver.build(spec.particles_per_node, index)?,
        };
        let topology = match &self.static_neighbors {
            None => TopologyComp::Newscast(Newscast::new(spec.newscast)),
            Some(lists) => {
                let nbrs = lists.get(index).cloned().unwrap_or_else(|| vec![self.hub]);
                TopologyComp::Static(StaticSampler::new(nbrs))
            }
        };
        let (coord, role) = match spec.coordination {
            CoordinationKind::GossipBest(mode) => {
                (CoordComp::Gossip(AntiEntropy::new(mode)), Role::Peer)
            }
            CoordinationKind::RumorBest(cfg) => (
                CoordComp::Rumor(crate::rumor::BestRumor::new(cfg)),
                Role::Peer,
            ),
            CoordinationKind::Migrate { migrants } => (CoordComp::Migrate { migrants }, Role::Peer),
            CoordinationKind::MasterSlave => {
                if index == 0 {
                    (CoordComp::MasterSlave, Role::Master)
                } else {
                    (CoordComp::MasterSlave, Role::Slave(self.hub))
                }
            }
            CoordinationKind::None => (CoordComp::Isolated, Role::Peer),
        };
        Ok(OptNode::new(
            self.node_objective(index),
            solver,
            topology,
            coord,
            role,
            spec.gossip_every,
            Some(self.per_node_budget),
        ))
    }
}

/// Kernel bootstrap-contact count for a spec: NEWSCAST seeds its view from
/// the join-time sample, but static topologies ignore contacts entirely —
/// sampling them would make populating a 100k-node network O(n·c) for
/// nothing, so they get 0 and network construction stays O(n).
pub fn bootstrap_sample(spec: &DistributedPsoSpec, n: usize) -> usize {
    if spec.topology.is_dynamic() {
        spec.newscast.view_size.min(n.saturating_sub(1)).max(1)
    } else {
        0
    }
}

/// Kernel traffic and membership counters in one shape. The cycle kernel
/// keeps them in [`gossipopt_sim::cycle::KernelStats`], the event kernel
/// behind separate accessors; [`Engine::traffic`] hides the difference.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages dropped (loss, dead destination, hop-budget overflow).
    pub dropped: u64,
    /// Wire bytes saved by frame coalescing (`0` at `threads == 0`).
    pub frame_bytes_saved: u64,
    /// Nodes crashed by the churn process (the cycle kernel also counts
    /// scripted [`Engine::crash`] calls here; the event kernel does not).
    pub crashes: u64,
    /// Nodes joined by the churn process.
    pub joins: u64,
    /// Phased merge rounds (`0` on the event kernel, which drains a queue).
    pub merge_rounds: u64,
}

/// What [`drive`] needs from a simulation kernel: one observation period
/// at a time, and the counters in one shape. A period is one `tick()` on
/// the cycle kernel and `tick_period` units of simulated time on the event
/// kernel; the implementations forward to the engines' inherent methods.
pub trait Engine<A: Application> {
    /// Add a node, running its join callback.
    fn insert(&mut self, app: A);
    /// Install the factory for churn and [`Engine::populate`] joiners.
    fn set_spawner(&mut self, f: impl FnMut(NodeId, &mut Xoshiro256pp) -> A + 'static);
    /// Join `n` spawner-built nodes now.
    fn populate(&mut self, n: usize);
    /// Crash a node now; `false` if it was already dead.
    fn crash(&mut self, id: NodeId) -> bool;
    /// Observation periods a run with this per-node budget lasts.
    fn periods(&self, per_node_budget: u64) -> u64;
    /// Advance one observation period.
    fn step(&mut self);
    /// After the last period of an unstopped run: finish whatever part of
    /// the horizon is not a whole period.
    fn drain_tail(&mut self, per_node_budget: u64);
    /// The kernel's clock (ticks, or simulated time units).
    fn now(&self) -> u64;
    /// `(id, application)` over live nodes.
    fn nodes<'a>(&'a self) -> impl Iterator<Item = (NodeId, &'a A)>
    where
        A: 'a;
    /// Cumulative counters.
    fn traffic(&self) -> Traffic;
    /// Per-class split of [`Traffic::frame_bytes_saved`].
    fn frame_saved(&self) -> FrameSavings;
    /// Per-kind wire counts harvested from dead nodes.
    fn retired_wire_counts(&self) -> WireCounts;
}

impl<A: Application> Engine<A> for CycleEngine<A> {
    fn insert(&mut self, app: A) {
        CycleEngine::insert(self, app);
    }
    fn set_spawner(&mut self, f: impl FnMut(NodeId, &mut Xoshiro256pp) -> A + 'static) {
        CycleEngine::set_spawner(self, f);
    }
    fn populate(&mut self, n: usize) {
        CycleEngine::populate(self, n);
    }
    fn crash(&mut self, id: NodeId) -> bool {
        CycleEngine::crash(self, id)
    }
    /// Every node evaluates once per tick until its local budget is
    /// exhausted, so `per_node_budget` ticks exhaust the run.
    fn periods(&self, per_node_budget: u64) -> u64 {
        per_node_budget
    }
    fn step(&mut self) {
        self.tick();
    }
    fn drain_tail(&mut self, _per_node_budget: u64) {}
    fn now(&self) -> u64 {
        CycleEngine::now(self)
    }
    fn nodes<'a>(&'a self) -> impl Iterator<Item = (NodeId, &'a A)>
    where
        A: 'a,
    {
        CycleEngine::nodes(self)
    }
    fn traffic(&self) -> Traffic {
        let stats = self.stats();
        Traffic {
            sent: stats.sent,
            delivered: stats.delivered,
            dropped: stats.lost + stats.dead_letter + stats.hop_overflow,
            frame_bytes_saved: stats.frame_bytes_saved,
            crashes: stats.crashes,
            joins: stats.joins,
            merge_rounds: self.merge_rounds(),
        }
    }
    fn frame_saved(&self) -> FrameSavings {
        CycleEngine::frame_saved(self)
    }
    fn retired_wire_counts(&self) -> WireCounts {
        CycleEngine::retired_wire_counts(self)
    }
}

/// Simulated-time horizon of an event-kernel run: enough periods for every
/// node to burn its budget, plus slack for latency stragglers.
fn event_horizon(per_node_budget: u64, tick_period: u64) -> u64 {
    per_node_budget * tick_period + 10 * tick_period + 200
}

impl<A: Application> Engine<A> for EventEngine<A> {
    fn insert(&mut self, app: A) {
        EventEngine::insert(self, app);
    }
    fn set_spawner(&mut self, f: impl FnMut(NodeId, &mut Xoshiro256pp) -> A + 'static) {
        EventEngine::set_spawner(self, f);
    }
    fn populate(&mut self, n: usize) {
        EventEngine::populate(self, n);
    }
    fn crash(&mut self, id: NodeId) -> bool {
        EventEngine::crash(self, id)
    }
    fn periods(&self, per_node_budget: u64) -> u64 {
        event_horizon(per_node_budget, self.tick_period()) / self.tick_period()
    }
    /// Chunk boundaries are exactly the observation boundaries of a single
    /// `run_until` over the whole horizon, so chunking moves no trajectory.
    fn step(&mut self) {
        let period = self.tick_period();
        self.run_until(EventEngine::now(self) + period, period, |_, _| {
            Control::Continue
        });
    }
    fn drain_tail(&mut self, per_node_budget: u64) {
        let period = self.tick_period();
        self.run_until(event_horizon(per_node_budget, period), period, |_, _| {
            Control::Continue
        });
    }
    fn now(&self) -> u64 {
        EventEngine::now(self)
    }
    fn nodes<'a>(&'a self) -> impl Iterator<Item = (NodeId, &'a A)>
    where
        A: 'a,
    {
        EventEngine::nodes(self)
    }
    fn traffic(&self) -> Traffic {
        Traffic {
            sent: self.delivered() + self.dropped(),
            delivered: self.delivered(),
            dropped: self.dropped(),
            frame_bytes_saved: self.frame_bytes_saved(),
            crashes: self.churn_crashes(),
            joins: self.churn_joins(),
            merge_rounds: 0,
        }
    }
    fn frame_saved(&self) -> FrameSavings {
        EventEngine::frame_saved(self)
    }
    fn retired_wire_counts(&self) -> WireCounts {
        EventEngine::retired_wire_counts(self)
    }
}

/// The cycle kernel configured for `spec`.
pub fn cycle_engine<A: Application>(spec: &DistributedPsoSpec, seed: u64) -> CycleEngine<A> {
    let mut cfg = CycleConfig::seeded(seed);
    cfg.transport = Transport::lossy(spec.loss_prob);
    cfg.churn = spec.churn;
    cfg.bootstrap_sample = bootstrap_sample(spec, spec.nodes);
    cfg.threads = spec.threads;
    CycleEngine::new(cfg)
}

/// Asynchronous-deployment options for [`run_distributed_async`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncOpts {
    /// Period of each node's local clock, in simulated time units.
    pub tick_period: u64,
    /// Message latency model.
    pub latency: Latency,
    /// Randomize initial clock phases.
    pub jitter_phase: bool,
}

impl Default for AsyncOpts {
    fn default() -> Self {
        AsyncOpts {
            tick_period: 10,
            latency: Latency::Uniform(1, 20),
            jitter_phase: true,
        }
    }
}

/// The event kernel configured for `spec` under `opts`.
pub fn event_engine<A: Application>(
    spec: &DistributedPsoSpec,
    opts: AsyncOpts,
    seed: u64,
) -> EventEngine<A> {
    let mut cfg = EventConfig::seeded(seed);
    cfg.transport = Transport {
        loss_prob: spec.loss_prob,
        latency: opts.latency,
    };
    cfg.tick_period = opts.tick_period;
    cfg.jitter_phase = opts.jitter_phase;
    cfg.churn = spec.churn;
    cfg.bootstrap_sample = bootstrap_sample(spec, spec.nodes);
    cfg.threads = spec.threads;
    EventEngine::new(cfg)
}

/// What [`drive`] hands back besides the [`RunReport`].
#[derive(Debug, Clone)]
pub struct Driven {
    /// The run's figures of merit.
    pub report: RunReport,
    /// Per-kind wire totals: nodes alive at the end plus the kernel's
    /// retired accumulator (exact under churn), before frame savings.
    pub wire: WireCounts,
    /// Global best-improvement events at metric-sample granularity
    /// (empty unless [`DistributedPsoSpec::metrics`] is set).
    pub improvements: Vec<TraceEvent>,
}

/// The run loop, shared by every experiment driver on both kernels.
///
/// Populates `engine` with `recipe`'s initial network (each node passed
/// through `wrap`) and installs the joiner spawner — unconditionally: it
/// is only ever invoked on a join, so a static network never calls it.
/// Then, per 1-based tick `t`: `before_tick(engine, t)` (scripted faults)
/// → [`Engine::step`] → at most one observer pass → trace → stop check.
/// When the metrics ring wants `t`, one pass reads quality, the argmin
/// node, ledger bytes and the live count. On any other tick the pass runs
/// only if something consumes it: quality when `trace_every` hits `t` or
/// `stop_at_quality` is set, evaluations under [`Budget::Total`], whose
/// cap it enforces; otherwise the tick walks no node. A run that was not
/// stopped then drains the horizon's tail
/// ([`Engine::drain_tail`]: the `max_time % tick_period` of simulated time
/// that is not a whole period) for every caller, before the final totals.
pub fn drive<A, E>(
    engine: &mut E,
    recipe: &NodeRecipe,
    wrap: impl Fn(OptNode) -> A + 'static,
    mut before_tick: impl FnMut(&mut E, u64),
) -> Result<Driven, CoreError>
where
    A: Application + Borrow<OptNode>,
    E: Engine<A>,
{
    let spec = &recipe.spec;
    for i in 0..spec.nodes {
        engine.insert(wrap(recipe.build(i)?));
    }
    // Joiners: same recipe, indexed by their node id.
    let joiners = recipe.clone();
    engine.set_spawner(move |id, _rng| {
        wrap(
            joiners
                .build(id.raw() as usize)
                .expect("recipe was validated at construction"),
        )
    });

    let total_cap = recipe.total_cap;
    let mut ring = spec.metrics.map(MetricsRing::new);
    let mut trace: Vec<(u64, f64)> = Vec::new();
    let mut improvements: Vec<TraceEvent> = Vec::new();
    let mut best_seen = f64::INFINITY;
    let mut reached_at: Option<u64> = None;
    let mut stopped_at: Option<u64> = None;
    let periods = engine.periods(recipe.per_node_budget);

    for t in 1..=periods {
        before_tick(engine, t);
        engine.step();

        let traced = spec
            .trace_every
            .is_some_and(|every| t.is_multiple_of(every));
        let mut quality = f64::INFINITY;
        let mut evals = 0u64;
        match ring.as_mut().filter(|ring| ring.wants(t)) {
            Some(ring) => {
                let (mut best_node, mut bytes, mut alive) = (0u64, 0u64, 0usize);
                for (id, app) in engine.nodes() {
                    let node: &OptNode = app.borrow();
                    let q = node.quality();
                    if q < quality {
                        quality = q;
                        best_node = id.raw();
                    }
                    bytes += node.payload_bytes_sent();
                    alive += 1;
                    if total_cap.is_some() {
                        evals += node.evals();
                    }
                }
                if quality < best_seen {
                    best_seen = quality;
                    improvements.push(TraceEvent {
                        tick: t,
                        node: best_node,
                        quality,
                    });
                }
                let traffic = engine.traffic();
                ring.record(MetricSample {
                    tick: t,
                    best_quality: quality,
                    alive,
                    delivered: traffic.delivered,
                    // Node ledgers charge unbatched sizes at send time:
                    // add back what crashed senders had on their ledgers
                    // at death, then net off what the kernel's frame
                    // coalescing saved later.
                    wire_bytes: (bytes + engine.retired_wire_counts().total_bytes())
                        .saturating_sub(traffic.frame_bytes_saved),
                });
            }
            // Nothing reads this tick's quality or evaluations: skip the
            // scan.
            None if !traced && spec.stop_at_quality.is_none() && total_cap.is_none() => {}
            None => {
                for (_, app) in engine.nodes() {
                    let node: &OptNode = app.borrow();
                    quality = quality.min(node.quality());
                    if total_cap.is_some() {
                        evals += node.evals();
                    }
                }
            }
        }
        if traced {
            trace.push((engine.now(), quality));
        }
        if spec.stop_at_quality.is_some_and(|thr| quality <= thr) {
            reached_at = Some(t);
        }
        if reached_at.is_some() || total_cap.is_some_and(|cap| evals >= cap) {
            stopped_at = Some(t);
            break;
        }
    }
    if stopped_at.is_none() {
        engine.drain_tail(recipe.per_node_budget);
    }

    let mut quality = f64::INFINITY;
    let mut value = f64::INFINITY;
    let mut total_evals = 0u64;
    let mut exchanges = 0u64;
    let mut alive = 0usize;
    // Ledgers harvested from crashed senders at death, then the survivors'.
    let mut wire = engine.retired_wire_counts();
    for (_, app) in engine.nodes() {
        let node: &OptNode = app.borrow();
        quality = quality.min(node.quality());
        if let Some(b) = node.best() {
            value = value.min(b.f);
        }
        total_evals += node.evals();
        exchanges += node.exchanges_initiated();
        wire.add(&node.wire_counts());
        alive += 1;
    }
    let traffic = engine.traffic();
    let report = RunReport {
        best_quality: quality,
        best_value: value,
        total_evals,
        ticks: stopped_at.unwrap_or(periods),
        reached_threshold_at: reached_at,
        coordination_exchanges: exchanges,
        // Sender ledgers charge unbatched sizes; the kernel's frame
        // coalescing reports what it saved on the wire.
        payload_bytes: wire.total_bytes().saturating_sub(traffic.frame_bytes_saved),
        messages_sent: traffic.sent,
        messages_delivered: traffic.delivered,
        messages_dropped: traffic.dropped,
        final_population: alive,
        trace,
        samples: ring.map(|r| r.to_series()).unwrap_or_default(),
    };
    Ok(Driven {
        report,
        wire,
        improvements,
    })
}

/// Build and run one experiment on `objective` under `budget` with `seed`
/// on the **cycle-driven** kernel.
pub fn run_distributed(
    spec: &DistributedPsoSpec,
    objective: Arc<dyn Objective>,
    budget: Budget,
    seed: u64,
) -> Result<RunReport, CoreError> {
    let recipe = NodeRecipe::new(spec, objective, budget, seed)?;
    let mut engine = cycle_engine(spec, seed);
    Ok(drive(&mut engine, &recipe, |node| node, |_, _| {})?.report)
}

/// Run the spec on the **event-driven** kernel: unsynchronized per-node
/// clocks and real message latency, the regime a deployment over the
/// Internet would face. Exercises the same [`OptNode`] protocol as
/// [`run_distributed`]; used by the `EXT-async` experiment to check that
/// the paper's cycle-based results survive asynchrony. Ticks in the report
/// are tick periods; [`RunReport::trace`] stamps are simulated time.
pub fn run_distributed_async(
    spec: &DistributedPsoSpec,
    objective: Arc<dyn Objective>,
    budget: Budget,
    opts: AsyncOpts,
    seed: u64,
) -> Result<RunReport, CoreError> {
    let recipe = NodeRecipe::new(spec, objective, budget, seed)?;
    let mut engine = event_engine(spec, opts, seed);
    Ok(drive(&mut engine, &recipe, |node| node, |_, _| {})?.report)
}

/// Run the spec on a registry function (`function_dim` applies).
pub fn run_distributed_pso(
    spec: &DistributedPsoSpec,
    function: &str,
    budget: Budget,
    seed: u64,
) -> Result<RunReport, CoreError> {
    let objective: Arc<dyn Objective> = Arc::from(
        by_name(function, spec.function_dim)
            .ok_or_else(|| CoreError::UnknownFunction(function.to_string()))?,
    );
    run_distributed(spec, objective, budget, seed)
}

/// Aggregated outcome over repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepeatedReport {
    /// Quality aggregate over repetitions (the paper's `avg min max Var`).
    pub quality: Summary,
    /// Aggregate of ticks (time) over repetitions.
    pub time: Summary,
    /// Aggregate of total evaluations over repetitions.
    pub evals: Summary,
    /// How many repetitions hit `stop_at_quality` (when set).
    pub threshold_hits: u64,
    /// Every individual report, in repetition order.
    pub runs: Vec<RunReport>,
}

/// Run `reps` independent repetitions (seeds `base_seed..base_seed+reps`),
/// in parallel when multiple cores are available.
pub fn run_repeated(
    spec: &DistributedPsoSpec,
    function: &str,
    budget: Budget,
    reps: u64,
    base_seed: u64,
) -> Result<RepeatedReport, CoreError> {
    let runs: Result<Vec<RunReport>, CoreError> = (0..reps)
        .into_par_iter()
        .map(|rep| run_distributed_pso(spec, function, budget, base_seed + rep))
        .collect();
    let runs = runs?;
    let quality: OnlineStats = runs.iter().map(|r| r.best_quality).collect();
    let time: OnlineStats = runs.iter().map(|r| r.ticks as f64).collect();
    let evals: OnlineStats = runs.iter().map(|r| r.total_evals as f64).collect();
    let threshold_hits = runs
        .iter()
        .filter(|r| r.reached_threshold_at.is_some())
        .count() as u64;
    Ok(RepeatedReport {
        quality: quality.summary(),
        time: time.summary(),
        evals: evals.summary(),
        threshold_hits,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DistributedPsoSpec {
        DistributedPsoSpec {
            nodes: 8,
            particles_per_node: 4,
            gossip_every: 4,
            ..Default::default()
        }
    }

    #[test]
    fn per_node_budget_is_exact() {
        let r = run_distributed_pso(&small_spec(), "sphere", Budget::PerNode(50), 1).unwrap();
        assert_eq!(r.ticks, 50);
        assert_eq!(r.total_evals, 8 * 50);
        assert!(r.best_quality.is_finite());
        assert!(r.best_quality >= 0.0);
    }

    #[test]
    fn total_budget_splits_evenly() {
        let r = run_distributed_pso(&small_spec(), "sphere", Budget::Total(400), 2).unwrap();
        assert_eq!(r.ticks, 50);
        assert_eq!(r.total_evals, 400);
    }

    #[test]
    fn budget_per_node_floors_at_one() {
        assert_eq!(Budget::Total(4).per_node(100), 1);
        assert_eq!(Budget::PerNode(0).per_node(3), 1);
        assert_eq!(Budget::Total(1 << 20).per_node(1024), 1024);
    }

    #[test]
    fn unknown_function_is_error() {
        let e = run_distributed_pso(&small_spec(), "nope", Budget::PerNode(5), 3).unwrap_err();
        assert!(matches!(e, CoreError::UnknownFunction(_)));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = small_spec();
        s.nodes = 0;
        assert!(matches!(
            run_distributed_pso(&s, "sphere", Budget::PerNode(5), 0),
            Err(CoreError::InvalidSpec(_))
        ));
        let mut s2 = small_spec();
        s2.loss_prob = 2.0;
        assert!(matches!(
            run_distributed_pso(&s2, "sphere", Budget::PerNode(5), 0),
            Err(CoreError::InvalidSpec(_))
        ));
        let s3 = DistributedPsoSpec {
            solver: SolverSpec::Named("bogus".into()),
            ..small_spec()
        };
        assert!(matches!(
            run_distributed_pso(&s3, "sphere", Budget::PerNode(5), 0),
            Err(CoreError::UnknownSolver(_))
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_distributed_pso(&small_spec(), "griewank", Budget::PerNode(60), 9).unwrap();
        let b = run_distributed_pso(&small_spec(), "griewank", Budget::PerNode(60), 9).unwrap();
        assert_eq!(a.best_quality, b.best_quality);
        assert_eq!(a.messages_sent, b.messages_sent);
        let c = run_distributed_pso(&small_spec(), "griewank", Budget::PerNode(60), 10).unwrap();
        assert_ne!(a.best_quality, c.best_quality);
    }

    #[test]
    fn gossip_beats_isolation_on_average() {
        // The paper's core claim in miniature: with a fixed per-node
        // budget, coordinated nodes reach better global quality than
        // isolated ones on a multimodal function. Aggregate over seeds to
        // damp noise.
        let coord_spec = DistributedPsoSpec {
            nodes: 16,
            particles_per_node: 4,
            gossip_every: 4,
            ..Default::default()
        };
        let iso_spec = DistributedPsoSpec {
            coordination: CoordinationKind::None,
            ..coord_spec.clone()
        };
        let coord = run_repeated(&coord_spec, "rastrigin", Budget::PerNode(300), 6, 100).unwrap();
        let iso = run_repeated(&iso_spec, "rastrigin", Budget::PerNode(300), 6, 100).unwrap();
        assert!(
            coord.quality.avg <= iso.quality.avg,
            "gossip {} vs isolated {}",
            coord.quality.avg,
            iso.quality.avg
        );
    }

    #[test]
    fn threshold_stop_reports_time() {
        let spec = DistributedPsoSpec {
            nodes: 8,
            particles_per_node: 8,
            gossip_every: 8,
            stop_at_quality: Some(1e-2),
            ..Default::default()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(20_000), 4).unwrap();
        assert!(r.reached_threshold_at.is_some(), "sphere should hit 1e-2");
        let t = r.reached_threshold_at.unwrap();
        assert_eq!(r.ticks, t);
        assert!(t < 20_000);
    }

    #[test]
    fn trace_is_sampled_and_monotone() {
        let spec = DistributedPsoSpec {
            trace_every: Some(10),
            ..small_spec()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(100), 5).unwrap();
        assert_eq!(r.trace.len(), 10);
        for w in r.trace.windows(2) {
            assert!(w[1].1 <= w[0].1, "global quality must be monotone");
            assert_eq!(w[1].0 - w[0].0, 10);
        }
    }

    #[test]
    fn master_slave_and_static_topologies_run() {
        for topology in [
            TopologyKind::FullMesh,
            TopologyKind::Star,
            TopologyKind::Ring,
            TopologyKind::KOut(3),
            TopologyKind::Grid,
            TopologyKind::SmallWorld { k: 4, beta: 0.2 },
            TopologyKind::ErdosRenyi(0.4),
            TopologyKind::RingLattice(2),
            TopologyKind::KOutRegular(3),
            TopologyKind::TwoLevelHierarchy { degree: 2 },
        ] {
            let spec = DistributedPsoSpec {
                topology,
                ..small_spec()
            };
            let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(30), 6).unwrap();
            assert!(r.best_quality.is_finite(), "{topology:?}");
        }
        let ms = DistributedPsoSpec {
            topology: TopologyKind::Star,
            coordination: CoordinationKind::MasterSlave,
            ..small_spec()
        };
        let r = run_distributed_pso(&ms, "sphere", Budget::PerNode(50), 7).unwrap();
        assert!(r.coordination_exchanges > 0, "slaves must report");
    }

    #[test]
    fn scale_topologies_are_validated_and_deterministic() {
        // Degenerate degrees are spec errors, not panics.
        for topology in [
            TopologyKind::RingLattice(0),
            TopologyKind::RingLattice(8),
            TopologyKind::KOutRegular(0),
            TopologyKind::KOutRegular(99),
            TopologyKind::TwoLevelHierarchy { degree: 0 },
        ] {
            let spec = DistributedPsoSpec {
                topology,
                ..small_spec()
            };
            assert!(
                matches!(
                    run_distributed_pso(&spec, "sphere", Budget::PerNode(5), 1),
                    Err(CoreError::InvalidSpec(_))
                ),
                "{topology:?} must be rejected at n = 8"
            );
        }
        // Seeded determinism holds for the rejection-sampled expander.
        let spec = DistributedPsoSpec {
            topology: TopologyKind::KOutRegular(4),
            ..small_spec()
        };
        let a = run_distributed_pso(&spec, "rastrigin", Budget::PerNode(60), 17).unwrap();
        let b = run_distributed_pso(&spec, "rastrigin", Budget::PerNode(60), 17).unwrap();
        assert_eq!(a.best_quality.to_bits(), b.best_quality.to_bits());
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.payload_bytes, b.payload_bytes);
    }

    #[test]
    fn payload_bytes_track_coordination_volume() {
        let r = run_distributed_pso(&small_spec(), "sphere", Budget::PerNode(50), 3).unwrap();
        assert!(r.payload_bytes > 0, "gossip traffic must be accounted");
        // Every delivered coordination message carries at least the header,
        // so the byte ledger must dominate the message count.
        assert!(
            r.payload_bytes >= r.messages_sent * 2,
            "bytes {} vs sent {}",
            r.payload_bytes,
            r.messages_sent
        );
        // Isolated nodes on a static overlay send nothing at all.
        let quiet = DistributedPsoSpec {
            topology: TopologyKind::Ring,
            coordination: CoordinationKind::None,
            ..small_spec()
        };
        let rq = run_distributed_pso(&quiet, "sphere", Budget::PerNode(50), 3).unwrap();
        assert_eq!(rq.payload_bytes, 0);
        assert_eq!(rq.messages_sent, 0);
    }

    #[test]
    fn churn_does_not_break_the_run() {
        let spec = DistributedPsoSpec {
            churn: ChurnConfig {
                crash_prob_per_tick: 0.01,
                joins_per_tick: 0.08,
                min_nodes: 2,
                max_nodes: 32,
            },
            ..small_spec()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(200), 8).unwrap();
        assert!(r.best_quality.is_finite());
        assert!(r.final_population >= 2);
    }

    #[test]
    fn rumor_coordination_runs_and_spreads() {
        let spec = DistributedPsoSpec {
            coordination: CoordinationKind::RumorBest(RumorConfig {
                fanout: 2,
                stop_prob: 0.5,
            }),
            ..small_spec()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(100), 21).unwrap();
        assert!(r.best_quality.is_finite());
        assert!(r.coordination_exchanges > 0, "rumors must be pushed");
        // Deterministic per seed like every other mode.
        let r2 = run_distributed_pso(&spec, "sphere", Budget::PerNode(100), 21).unwrap();
        assert_eq!(r.best_quality.to_bits(), r2.best_quality.to_bits());
    }

    #[test]
    fn migration_coordination_runs() {
        let spec = DistributedPsoSpec {
            coordination: CoordinationKind::Migrate { migrants: 1 },
            ..small_spec()
        };
        let r = run_distributed_pso(&spec, "rastrigin", Budget::PerNode(150), 22).unwrap();
        assert!(r.best_quality.is_finite());
        assert!(r.coordination_exchanges > 0, "migrants must be sent");
    }

    #[test]
    fn all_coordination_modes_beat_or_match_isolation_on_rastrigin() {
        // The paper's claim generalized across our coordination services:
        // sharing information never hurts the expected global quality.
        let base = DistributedPsoSpec {
            nodes: 16,
            particles_per_node: 4,
            gossip_every: 4,
            ..Default::default()
        };
        let iso = run_repeated(
            &DistributedPsoSpec {
                coordination: CoordinationKind::None,
                ..base.clone()
            },
            "rastrigin",
            Budget::PerNode(300),
            6,
            500,
        )
        .unwrap();
        for coordination in [
            CoordinationKind::GossipBest(ExchangeMode::PushPull),
            CoordinationKind::RumorBest(RumorConfig {
                fanout: 2,
                stop_prob: 0.5,
            }),
            CoordinationKind::Migrate { migrants: 1 },
        ] {
            let spec = DistributedPsoSpec {
                coordination,
                ..base.clone()
            };
            let rep = run_repeated(&spec, "rastrigin", Budget::PerNode(300), 6, 500).unwrap();
            assert!(
                rep.quality.avg <= iso.quality.avg * 1.05,
                "{coordination:?}: {} vs isolated {}",
                rep.quality.avg,
                iso.quality.avg
            );
        }
    }

    #[test]
    fn heterogeneous_mix_assigns_round_robin() {
        let spec = DistributedPsoSpec {
            solver: SolverSpec::Mix(vec![
                SolverSpec::Named("pso".into()),
                SolverSpec::Named("de".into()),
            ]),
            ..small_spec()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(30), 9).unwrap();
        assert!(r.best_quality.is_finite());
    }

    #[test]
    fn repeated_aggregates_match_runs() {
        let rep = run_repeated(&small_spec(), "sphere", Budget::PerNode(40), 5, 1000).unwrap();
        assert_eq!(rep.runs.len(), 5);
        assert_eq!(rep.quality.count, 5);
        let min = rep
            .runs
            .iter()
            .map(|r| r.best_quality)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(rep.quality.min, min);
        assert_eq!(rep.time.avg, 40.0);
    }

    #[test]
    fn partitioned_search_runs_and_keeps_global_quality_semantics() {
        let spec = DistributedPsoSpec {
            nodes: 8,
            particles_per_node: 6,
            gossip_every: 6,
            partition_zones: 8,
            ..Default::default()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(300), 12).unwrap();
        assert!(r.best_quality.is_finite());
        assert!(r.best_quality >= 0.0);
        // One of the 8 zones contains the optimum at the domain centre;
        // its owner should have pushed the global best well below a
        // zone-less random init.
        assert!(r.best_quality < 1e3, "quality {}", r.best_quality);
    }

    #[test]
    fn async_runner_matches_protocol_semantics() {
        let spec = small_spec();
        let obj: Arc<dyn Objective> =
            Arc::from(gossipopt_functions::by_name("sphere", 10).unwrap());
        let r = run_distributed_async(
            &spec,
            Arc::clone(&obj),
            Budget::PerNode(200),
            AsyncOpts::default(),
            31,
        )
        .unwrap();
        assert!(r.best_quality.is_finite());
        assert!(r.best_quality >= 0.0);
        assert_eq!(r.total_evals, 8 * 200, "budgets respected under jitter");
        // Deterministic too.
        let r2 = run_distributed_async(&spec, obj, Budget::PerNode(200), AsyncOpts::default(), 31)
            .unwrap();
        assert_eq!(r.best_quality.to_bits(), r2.best_quality.to_bits());
    }

    #[test]
    fn async_and_cycle_agree_qualitatively() {
        let spec = DistributedPsoSpec {
            nodes: 16,
            particles_per_node: 8,
            gossip_every: 8,
            ..Default::default()
        };
        let obj: Arc<dyn Objective> =
            Arc::from(gossipopt_functions::by_name("sphere", 10).unwrap());
        let sync = run_distributed(&spec, Arc::clone(&obj), Budget::PerNode(500), 32).unwrap();
        let asyn =
            run_distributed_async(&spec, obj, Budget::PerNode(500), AsyncOpts::default(), 32)
                .unwrap();
        let ls = sync.best_quality.max(f64::MIN_POSITIVE).log10();
        let la = asyn.best_quality.max(f64::MIN_POSITIVE).log10();
        assert!(
            (ls - la).abs() < 8.0,
            "cycle 1e{ls:.1} vs async 1e{la:.1} diverge wildly"
        );
    }

    #[test]
    fn metrics_tap_records_ring_samples_without_shifting_the_run() {
        let spec = DistributedPsoSpec {
            metrics: Some(MetricsSpec {
                sample_every: 5,
                capacity: 4,
            }),
            ..small_spec()
        };
        let r = run_distributed_pso(&spec, "sphere", Budget::PerNode(50), 3).unwrap();
        // 10 sampled ticks (5, 10, …, 50); the ring keeps the last 4.
        assert_eq!(r.samples.len(), 4);
        assert_eq!(
            r.samples.iter().map(|s| s.tick).collect::<Vec<_>>(),
            [35, 40, 45, 50]
        );
        for w in r.samples.windows(2) {
            assert!(w[1].best_quality <= w[0].best_quality, "monotone quality");
            assert!(w[1].delivered >= w[0].delivered, "cumulative delivered");
            assert!(w[1].wire_bytes >= w[0].wire_bytes, "cumulative bytes");
        }
        assert_eq!(r.samples.last().unwrap().alive, 8);
        // Observer-only: the tapped run is bit-identical to the plain one.
        let plain = run_distributed_pso(&small_spec(), "sphere", Budget::PerNode(50), 3).unwrap();
        assert_eq!(plain.best_quality.to_bits(), r.best_quality.to_bits());
        assert_eq!(plain.messages_sent, r.messages_sent);
        assert_eq!(plain.payload_bytes, r.payload_bytes);
        assert!(plain.samples.is_empty(), "no tap, no samples");
    }

    #[test]
    fn async_metrics_tap_matches_untapped_run() {
        let obj: Arc<dyn Objective> =
            Arc::from(gossipopt_functions::by_name("sphere", 10).unwrap());
        let tapped_spec = DistributedPsoSpec {
            metrics: Some(MetricsSpec {
                sample_every: 10,
                capacity: 64,
            }),
            ..small_spec()
        };
        let tapped = run_distributed_async(
            &tapped_spec,
            Arc::clone(&obj),
            Budget::PerNode(100),
            AsyncOpts::default(),
            17,
        )
        .unwrap();
        let plain = run_distributed_async(
            &small_spec(),
            obj,
            Budget::PerNode(100),
            AsyncOpts::default(),
            17,
        )
        .unwrap();
        // Chunked execution must not change the trajectory.
        assert_eq!(tapped.best_quality.to_bits(), plain.best_quality.to_bits());
        assert_eq!(tapped.messages_delivered, plain.messages_delivered);
        assert_eq!(tapped.total_evals, plain.total_evals);
        assert_eq!(tapped.ticks, plain.ticks);
        assert!(!tapped.samples.is_empty());
        for w in tapped.samples.windows(2) {
            assert!(w[1].tick > w[0].tick);
            assert!(w[1].delivered >= w[0].delivered);
        }
    }

    #[test]
    fn message_loss_slows_but_does_not_crash() {
        let lossy = DistributedPsoSpec {
            loss_prob: 0.5,
            ..small_spec()
        };
        let r = run_distributed_pso(&lossy, "sphere", Budget::PerNode(100), 11).unwrap();
        assert!(r.messages_dropped > 0);
        assert!(r.best_quality.is_finite());
    }
}

//! Declarative scenario specifications and sweep-grid expansion.
//!
//! A campaign file is TOML with four top-level tables:
//!
//! ```toml
//! [campaign]                 # name, master seed, repetitions
//! name = "paper-grid"
//! seed = 42
//! reps = 1
//!
//! [cell]                     # the base experiment cell (all keys optional)
//! nodes = 1000
//! kernel = "cycle"           # cycle | event | event:exp:30
//! topology = "kregular:4"    # see `parse_topology` for the grammar
//! coordination = "gossip-pushpull"
//! function = "sphere"
//! budget = 500               # local evaluations per node
//! churn = 0.01               # balanced churn rate (0 = static)
//!
//! [cell.metrics]             # allocation-free ring-buffer tap
//! sample_every = 10
//! capacity = 256
//!
//! [[cell.fault]]             # timed fault schedule (see `Fault`)
//! kind = "partition"
//! at = 100
//! heal_at = 200
//! groups = [[0, 500], [500, 1000]]
//!
//! [sweep]                    # cross-product grid over any cell keys
//! topology = ["ring-lattice:4", "kregular:4", "hier:4"]
//! kernel = ["cycle", "event"]
//! churn = [0.0, 0.01]
//!
//! [sweep.zip]                # paired axes: ONE grid dimension whose
//! nodes = [250, 500, 1000]   # keys advance in lock-step (equal-length
//! budget = [800, 400, 200]   # arrays) — e.g. a fixed-total-budget scan
//!
//! [assert]                   # report assertions (CI gates)
//! max_quality = 1.0
//! min_final_population = 1
//! ```
//!
//! A cell may carry its own `[cell.assert]` table overriding individual
//! campaign-level bounds (set fields win, unset fields inherit) — useful
//! when one swept corner legitimately converges slower than the rest.
//!
//! [`parse_campaign`] expands the sweep axes (document order, first axis
//! slowest) into fully-validated [`CellSpec`]s, each with a label like
//! `topology=kregular:4 kernel=cycle churn=0` and a deterministic
//! per-cell seed derived from the campaign seed and cell index — cells
//! are therefore bit-reproducible regardless of execution order.

use crate::{Error, Result};
use gossipopt_core::experiment::{
    AsyncOpts, CoordinationKind, DistributedPsoSpec, SolverSpec, TopologyKind,
};
use gossipopt_core::metrics::MetricsSpec;
use gossipopt_gossip::{ExchangeMode, RumorConfig};
use gossipopt_sim::{ChurnConfig, Latency};
use gossipopt_solvers::PsoParams;
use gossipopt_util::StreamId;
use serde::{Deserialize, Serialize, Value};

/// One experiment cell: everything needed to run a single seeded
/// simulation. String-typed dimensions (`kernel`, `topology`,
/// `coordination`) use compact grammars so sweep axes read naturally in
/// TOML; [`CellSpec::validate`] resolves and checks them.
///
/// Defaults are a small, fast, valid configuration, so tests and
/// programmatic callers only override what they study:
///
/// ```
/// use gossipopt_scenarios::CellSpec;
///
/// let cell = CellSpec {
///     nodes: 32,
///     topology: "kregular:3".into(),
///     function: "rastrigin".into(),
///     ..CellSpec::default()
/// };
/// cell.validate().expect("grammars resolve");
/// assert_eq!(cell.kernel, "cycle");
/// assert!(cell.seed.is_none(), "seed derives from campaign seed + index");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Human label (auto-derived from the sweep axes; used in reports).
    pub name: String,
    /// Network size `n`.
    pub nodes: usize,
    /// Swarm/population size per node.
    pub particles: usize,
    /// Coordination period `r` in local evaluations.
    pub gossip_every: u64,
    /// Local evaluations per node (the run lasts this many ticks).
    pub budget: u64,
    /// `"cycle"` (synchronous rounds), `"event"` (async clocks, latency
    /// uniform in 1..=20) or `"event:exp:30"` (the event kernel with
    /// exponential latency of mean 30).
    pub kernel: String,
    /// Kernel shard workers (0 = sequential engines).
    pub threads: usize,
    /// Topology grammar: `newscast`, `newscast:C` (view size `C`; the
    /// default is 20), `fullmesh`, `star`, `ring`, `grid`,
    /// `ring-lattice:K`, `kregular:K`, `kout:K`, `hier:D`,
    /// `smallworld:K,BETA`, `erdos:P`.
    pub topology: String,
    /// Coordination grammar: `gossip-pushpull` / `gossip-push` /
    /// `gossip-pull`, `rumor:FANOUT,STOP_PROB`, `migrate:K`,
    /// `master-slave`, `none`.
    pub coordination: String,
    /// Solver registry name (`pso`, `de`, `sa`, `es`, `ga`, `cmaes`,
    /// `nelder-mead`, `random`), or `pso-1995` for PSO with the update
    /// rule as printed in the paper.
    pub solver: String,
    /// Objective registry name.
    pub function: String,
    /// Objective dimensionality.
    pub dim: usize,
    /// Balanced churn rate (crash probability per node-tick, matched by
    /// joins; `0` = static network).
    pub churn: f64,
    /// Message loss probability.
    pub loss: f64,
    /// Explicit seed; `None` (the default) derives one from the campaign
    /// seed and cell index during expansion.
    pub seed: Option<u64>,
    /// Stop the run early at this solution quality.
    pub stop_at_quality: Option<f64>,
    /// Metrics tap configuration (always on; size it to taste).
    pub metrics: MetricsSpec,
    /// Timed fault schedule (TOML `[[cell.fault]]`).
    pub fault: Vec<FaultSpec>,
    /// Per-cell assertion overrides (TOML `[cell.assert]`): set fields
    /// replace the campaign-level `[assert]` bound for this cell only;
    /// unset fields inherit. Not part of the simulation (excluded from
    /// the result-store key).
    pub assert: Option<AssertSpec>,
}

impl Default for CellSpec {
    fn default() -> Self {
        CellSpec {
            name: String::new(),
            nodes: 64,
            particles: 8,
            gossip_every: 8,
            budget: 200,
            kernel: "cycle".into(),
            threads: 0,
            topology: "newscast".into(),
            coordination: "gossip-pushpull".into(),
            solver: "pso".into(),
            function: "sphere".into(),
            dim: 10,
            churn: 0.0,
            loss: 0.0,
            seed: None,
            stop_at_quality: None,
            metrics: MetricsSpec::default(),
            fault: Vec::new(),
            assert: None,
        }
    }
}

/// One raw fault-schedule entry as written in TOML (`kind` selects which
/// of the optional fields apply); [`compile_faults`] validates and turns
/// these into typed [`Fault`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// `"partition"`, `"flash_crowd"`, `"massacre"` or `"corrupt_optimum"`.
    pub kind: String,
    /// Tick the fault fires at (applied before that tick runs).
    pub at: u64,
    /// Partition only: tick the partition heals at (`heal_at > at`).
    pub heal_at: Option<u64>,
    /// Partition only: disjoint node-id ranges `[start, end)`; traffic
    /// between different groups is cut while the partition holds.
    pub groups: Option<Vec<(u64, u64)>>,
    /// Flash crowd only: nodes joining at the fault tick.
    pub join: Option<usize>,
    /// Massacre only: fraction of live nodes crashed at once.
    pub kill_frac: Option<f64>,
    /// Corrupt-optimum only: fraction of nodes turned byzantine.
    pub node_frac: Option<f64>,
    /// Corrupt-optimum only: the fabricated objective value the byzantine
    /// nodes claim (typically below the true optimum, e.g. `-1e9`).
    pub lie: Option<f64>,
}

/// A validated, typed fault event.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Cut every message crossing group boundaries during `[at, heal_at)`.
    Partition {
        /// First partitioned tick.
        at: u64,
        /// First healed tick.
        heal_at: u64,
        /// Disjoint id ranges `[start, end)`; nodes outside every group
        /// (e.g. churn joiners) are unaffected.
        groups: Vec<(u64, u64)>,
    },
    /// `join` fresh nodes enter the network at tick `at`.
    FlashCrowd {
        /// Fault tick.
        at: u64,
        /// Number of joiners.
        join: usize,
    },
    /// A uniform random `kill_frac` of live nodes crashes at tick `at`.
    Massacre {
        /// Fault tick.
        at: u64,
        /// Fraction crashed (drawn from the cell's fault RNG stream).
        kill_frac: f64,
    },
    /// A deterministic `node_frac` of nodes starts lying about the
    /// optimum from tick `at` on (claiming objective value `lie`).
    CorruptOptimum {
        /// First byzantine tick.
        at: u64,
        /// Fraction of nodes turned byzantine (selected by id hash).
        node_frac: f64,
        /// The claimed objective value.
        lie: f64,
    },
}

/// Campaign-level report assertions (the `[assert]` table); every cell
/// must satisfy every set bound or the campaign run reports failures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AssertSpec {
    /// Final `best_quality` of every cell must be ≤ this.
    pub max_quality: Option<f64>,
    /// Final live population of every cell must be ≥ this.
    pub min_final_population: Option<usize>,
    /// Every cell must (true) / must not (false) end up poisoned
    /// (reported quality below the true optimum — the corrupt-optimum
    /// fault's signature).
    pub expect_poisoned: Option<bool>,
    /// Every cell must block at least this many messages (proves a
    /// partition fault actually cut traffic).
    pub min_blocked: Option<u64>,
    /// Every cell must finish within this many ticks (with
    /// `stop_at_quality`, a convergence-time gate).
    pub max_ticks: Option<u64>,
    /// Every cell's `payload_bytes` (wire bytes after frame coalescing)
    /// must be ≤ this — the regression gate on coordination wire volume.
    pub max_payload_bytes: Option<u64>,
}

/// The `[assert]` / `[cell.assert]` field names, shared by the typo guard.
pub(crate) const ASSERT_KEYS: [&str; 6] = [
    "max_quality",
    "min_final_population",
    "expect_poisoned",
    "min_blocked",
    "max_ticks",
    "max_payload_bytes",
];

impl AssertSpec {
    /// Campaign-level bounds overridden field-wise by a cell's own
    /// `[cell.assert]` table: a field the override sets wins, an unset
    /// field inherits the campaign bound. (Overrides replace bounds;
    /// they cannot *remove* one — commit a looser value instead.)
    pub fn overridden_by(&self, over: &AssertSpec) -> AssertSpec {
        AssertSpec {
            max_quality: over.max_quality.or(self.max_quality),
            min_final_population: over.min_final_population.or(self.min_final_population),
            expect_poisoned: over.expect_poisoned.or(self.expect_poisoned),
            min_blocked: over.min_blocked.or(self.min_blocked),
            max_ticks: over.max_ticks.or(self.max_ticks),
            max_payload_bytes: over.max_payload_bytes.or(self.max_payload_bytes),
        }
    }
}

/// A fully-expanded campaign: validated cells plus assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used for report file names).
    pub name: String,
    /// Master seed the per-cell seeds derive from.
    pub seed: u64,
    /// Expanded, validated cells in grid order.
    pub cells: Vec<CellSpec>,
    /// Report assertions applied to every cell.
    pub asserts: AssertSpec,
}

impl CellSpec {
    /// Resolve the topology grammar.
    pub fn topology_kind(&self) -> Result<TopologyKind> {
        parse_topology(&self.topology)
    }

    /// Resolve the coordination grammar.
    pub fn coordination_kind(&self) -> Result<CoordinationKind> {
        parse_coordination(&self.coordination)
    }

    /// Resolve the kernel grammar: `None` is the cycle kernel, `Some` the
    /// event kernel with its options.
    pub fn event_opts(&self) -> Result<Option<AsyncOpts>> {
        parse_kernel(&self.kernel)
    }

    /// Resolve the solver name. `pso` and `pso-1995` lower to explicit
    /// parameters (`pso` is bit-identical to the registry's
    /// default-parameterized swarm) so `NodeRecipe` can engage the
    /// kernel-hosted particle rows (`solvers::RowPso`).
    pub fn solver_spec(&self) -> Result<SolverSpec> {
        match self.solver.as_str() {
            "pso" => Ok(SolverSpec::Pso(PsoParams::default())),
            "pso-1995" => Ok(SolverSpec::Pso(PsoParams::paper_1995())),
            name if gossipopt_solvers::solver_by_name(name, self.particles).is_some() => {
                Ok(SolverSpec::Named(name.to_string()))
            }
            name => Err(Error::Invalid(format!("unknown solver `{name}`"))),
        }
    }

    /// The seed this cell runs with (set during expansion; defaults to 0
    /// for hand-built cells that never went through [`parse_campaign`]).
    pub fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// Compile and validate the fault schedule.
    pub fn compiled_faults(&self) -> Result<Vec<Fault>> {
        compile_faults(&self.fault, self.nodes)
    }

    /// Lower into the core experiment spec (shared by both kernels).
    pub fn to_dist_spec(&self) -> Result<DistributedPsoSpec> {
        self.validate()?;
        let mut spec = DistributedPsoSpec {
            nodes: self.nodes,
            particles_per_node: self.particles,
            gossip_every: self.gossip_every,
            topology: self.topology_kind()?,
            coordination: self.coordination_kind()?,
            solver: self.solver_spec()?,
            churn: if self.churn > 0.0 {
                ChurnConfig::balanced(self.churn, self.nodes)
            } else {
                ChurnConfig::none()
            },
            loss_prob: self.loss,
            function_dim: self.dim,
            stop_at_quality: self.stop_at_quality,
            trace_every: None,
            partition_zones: 0,
            threads: self.threads,
            metrics: Some(self.metrics),
            ..Default::default()
        };
        if let Some(view_size) = newscast_view(&self.topology)? {
            spec.newscast.view_size = view_size;
        }
        Ok(spec)
    }

    /// Check every field (grammars, registries, ranges, fault schedule).
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::Invalid("nodes must be positive".into()));
        }
        if self.particles == 0 {
            return Err(Error::Invalid("particles must be positive".into()));
        }
        if self.gossip_every == 0 {
            return Err(Error::Invalid("gossip_every must be positive".into()));
        }
        if self.budget == 0 {
            return Err(Error::Invalid("budget must be positive".into()));
        }
        if self.dim == 0 {
            return Err(Error::Invalid("dim must be positive".into()));
        }
        self.event_opts()?;
        if !(0.0..=1.0).contains(&self.churn) {
            return Err(Error::Invalid(format!(
                "churn rate {} out of [0, 1]",
                self.churn
            )));
        }
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(Error::Invalid(format!(
                "loss probability {} out of [0, 1]",
                self.loss
            )));
        }
        self.topology_kind()?;
        self.coordination_kind()?;
        if gossipopt_functions::by_name(&self.function, self.dim).is_none() {
            return Err(Error::Invalid(format!(
                "unknown objective function `{}`",
                self.function
            )));
        }
        self.solver_spec()?;
        self.metrics.validate().map_err(Error::Invalid)?;
        self.compiled_faults()?;
        Ok(())
    }
}

/// Parse the topology grammar (see [`CellSpec::topology`]).
pub fn parse_topology(text: &str) -> Result<TopologyKind> {
    let (head, arg) = split_grammar(text);
    let need_usize = |what: &str| -> Result<usize> {
        arg.ok_or_else(|| Error::Invalid(format!("topology `{text}` needs `{what}`")))?
            .parse::<usize>()
            .map_err(|_| Error::Invalid(format!("topology `{text}`: bad {what}")))
    };
    match head {
        "newscast" => newscast_view(text).map(|_| TopologyKind::Newscast),
        "fullmesh" => Ok(TopologyKind::FullMesh),
        "star" => Ok(TopologyKind::Star),
        "ring" => Ok(TopologyKind::Ring),
        "grid" => Ok(TopologyKind::Grid),
        "ring-lattice" => Ok(TopologyKind::RingLattice(need_usize(":K")?)),
        "kregular" => Ok(TopologyKind::KOutRegular(need_usize(":K")?)),
        "kout" => Ok(TopologyKind::KOut(need_usize(":K")?)),
        "hier" => Ok(TopologyKind::TwoLevelHierarchy {
            degree: need_usize(":D")?,
        }),
        "smallworld" => {
            let arg =
                arg.ok_or_else(|| Error::Invalid(format!("topology `{text}` needs `:K,BETA`")))?;
            let (k, beta) = arg
                .split_once(',')
                .ok_or_else(|| Error::Invalid(format!("topology `{text}` needs `:K,BETA`")))?;
            let k = k
                .parse::<usize>()
                .map_err(|_| Error::Invalid(format!("topology `{text}`: bad K")))?;
            let beta = beta
                .parse::<f64>()
                .map_err(|_| Error::Invalid(format!("topology `{text}`: bad BETA")))?;
            if !(0.0..=1.0).contains(&beta) {
                return Err(Error::Invalid(format!(
                    "topology `{text}`: BETA out of [0, 1]"
                )));
            }
            Ok(TopologyKind::SmallWorld { k, beta })
        }
        "erdos" => {
            let p = arg
                .ok_or_else(|| Error::Invalid(format!("topology `{text}` needs `:P`")))?
                .parse::<f64>()
                .map_err(|_| Error::Invalid(format!("topology `{text}`: bad P")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::Invalid(format!(
                    "topology `{text}`: P out of [0, 1]"
                )));
            }
            Ok(TopologyKind::ErdosRenyi(p))
        }
        _ => Err(Error::Invalid(format!("unknown topology `{text}`"))),
    }
}

/// The view size `C` of a `newscast:C` topology; `None` for every other
/// spelling (bare `newscast` keeps the default view size).
fn newscast_view(text: &str) -> Result<Option<usize>> {
    match split_grammar(text) {
        ("newscast", Some(c)) => match c.parse::<usize>() {
            Ok(c) if c > 0 => Ok(Some(c)),
            _ => Err(Error::Invalid(format!(
                "topology `{text}`: view size C must be a positive integer"
            ))),
        },
        _ => Ok(None),
    }
}

/// Parse the kernel grammar (see [`CellSpec::kernel`]): `None` is the
/// cycle kernel, `Some` the event kernel with its options.
fn parse_kernel(text: &str) -> Result<Option<AsyncOpts>> {
    match split_grammar(text) {
        ("cycle", None) => Ok(None),
        ("event", None) => Ok(Some(AsyncOpts::default())),
        ("event", Some("exp:30")) => Ok(Some(AsyncOpts {
            latency: Latency::Exponential(30.0),
            ..AsyncOpts::default()
        })),
        _ => Err(Error::Invalid(format!(
            "kernel `{text}` is not cycle|event|event:exp:30"
        ))),
    }
}

/// Parse the coordination grammar (see [`CellSpec::coordination`]).
pub fn parse_coordination(text: &str) -> Result<CoordinationKind> {
    let (head, arg) = split_grammar(text);
    match head {
        "gossip-pushpull" => Ok(CoordinationKind::GossipBest(ExchangeMode::PushPull)),
        "gossip-push" => Ok(CoordinationKind::GossipBest(ExchangeMode::Push)),
        "gossip-pull" => Ok(CoordinationKind::GossipBest(ExchangeMode::Pull)),
        "rumor" => {
            let arg =
                arg.ok_or_else(|| Error::Invalid(format!("`{text}` needs `:FANOUT,STOP_PROB`")))?;
            let (fanout, stop) = arg
                .split_once(',')
                .ok_or_else(|| Error::Invalid(format!("`{text}` needs `:FANOUT,STOP_PROB`")))?;
            let fanout = fanout
                .parse::<usize>()
                .map_err(|_| Error::Invalid(format!("`{text}`: bad FANOUT")))?;
            let stop_prob = stop
                .parse::<f64>()
                .map_err(|_| Error::Invalid(format!("`{text}`: bad STOP_PROB")))?;
            if !(0.0..=1.0).contains(&stop_prob) {
                return Err(Error::Invalid(format!("`{text}`: STOP_PROB out of [0, 1]")));
            }
            Ok(CoordinationKind::RumorBest(RumorConfig {
                fanout,
                stop_prob,
            }))
        }
        "migrate" => {
            let migrants = arg
                .ok_or_else(|| Error::Invalid(format!("`{text}` needs `:K`")))?
                .parse::<usize>()
                .map_err(|_| Error::Invalid(format!("`{text}`: bad K")))?;
            Ok(CoordinationKind::Migrate { migrants })
        }
        "master-slave" => Ok(CoordinationKind::MasterSlave),
        "none" => Ok(CoordinationKind::None),
        _ => Err(Error::Invalid(format!("unknown coordination `{text}`"))),
    }
}

fn split_grammar(text: &str) -> (&str, Option<&str>) {
    match text.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (text, None),
    }
}

/// Validate and compile a fault schedule against a network of `nodes`.
pub fn compile_faults(specs: &[FaultSpec], nodes: usize) -> Result<Vec<Fault>> {
    let mut out = Vec::with_capacity(specs.len());
    for (i, f) in specs.iter().enumerate() {
        let ctx = |msg: String| Error::Invalid(format!("fault #{i} ({}): {msg}", f.kind));
        let forbid = |field: Option<()>, name: &str| -> Result<()> {
            if field.is_some() {
                Err(ctx(format!("`{name}` is not valid for this fault kind")))
            } else {
                Ok(())
            }
        };
        let fault = match f.kind.as_str() {
            "partition" => {
                forbid(f.join.map(|_| ()), "join")?;
                forbid(f.kill_frac.map(|_| ()), "kill_frac")?;
                forbid(f.node_frac.map(|_| ()), "node_frac")?;
                forbid(f.lie.map(|_| ()), "lie")?;
                let heal_at = f
                    .heal_at
                    .ok_or_else(|| ctx("`heal_at` is required".into()))?;
                if heal_at <= f.at {
                    return Err(ctx(format!("heal_at {heal_at} must be after at {}", f.at)));
                }
                let groups = f
                    .groups
                    .clone()
                    .ok_or_else(|| ctx("`groups` is required".into()))?;
                if groups.len() < 2 {
                    return Err(ctx("at least two groups are required".into()));
                }
                for &(s, e) in &groups {
                    if s >= e {
                        return Err(ctx(format!("group [{s}, {e}) is empty or reversed")));
                    }
                    if e > nodes as u64 {
                        return Err(ctx(format!(
                            "group [{s}, {e}) exceeds the {nodes}-node id range"
                        )));
                    }
                }
                let mut sorted = groups.clone();
                sorted.sort_unstable();
                for w in sorted.windows(2) {
                    if w[1].0 < w[0].1 {
                        return Err(ctx(format!(
                            "groups [{}, {}) and [{}, {}) overlap",
                            w[0].0, w[0].1, w[1].0, w[1].1
                        )));
                    }
                }
                Fault::Partition {
                    at: f.at,
                    heal_at,
                    groups,
                }
            }
            "flash_crowd" => {
                forbid(f.heal_at.map(|_| ()), "heal_at")?;
                forbid(f.groups.as_ref().map(|_| ()), "groups")?;
                forbid(f.kill_frac.map(|_| ()), "kill_frac")?;
                forbid(f.node_frac.map(|_| ()), "node_frac")?;
                forbid(f.lie.map(|_| ()), "lie")?;
                if f.at == 0 {
                    // Membership events fire before tick `at`, and ticks
                    // start at 1 — `at = 0` would silently never apply.
                    return Err(ctx("`at` must be >= 1 for membership faults".into()));
                }
                let join = f.join.ok_or_else(|| ctx("`join` is required".into()))?;
                if join == 0 {
                    return Err(ctx("`join` must be positive".into()));
                }
                Fault::FlashCrowd { at: f.at, join }
            }
            "massacre" => {
                forbid(f.heal_at.map(|_| ()), "heal_at")?;
                forbid(f.groups.as_ref().map(|_| ()), "groups")?;
                forbid(f.join.map(|_| ()), "join")?;
                forbid(f.node_frac.map(|_| ()), "node_frac")?;
                forbid(f.lie.map(|_| ()), "lie")?;
                if f.at == 0 {
                    return Err(ctx("`at` must be >= 1 for membership faults".into()));
                }
                let kill_frac = f
                    .kill_frac
                    .ok_or_else(|| ctx("`kill_frac` is required".into()))?;
                if !(0.0..=1.0).contains(&kill_frac) || kill_frac == 0.0 {
                    return Err(ctx(format!("kill_frac {kill_frac} out of (0, 1]")));
                }
                Fault::Massacre {
                    at: f.at,
                    kill_frac,
                }
            }
            "corrupt_optimum" => {
                forbid(f.heal_at.map(|_| ()), "heal_at")?;
                forbid(f.groups.as_ref().map(|_| ()), "groups")?;
                forbid(f.join.map(|_| ()), "join")?;
                forbid(f.kill_frac.map(|_| ()), "kill_frac")?;
                let node_frac = f
                    .node_frac
                    .ok_or_else(|| ctx("`node_frac` is required".into()))?;
                if !(0.0..=1.0).contains(&node_frac) || node_frac == 0.0 {
                    return Err(ctx(format!("node_frac {node_frac} out of (0, 1]")));
                }
                let lie = f.lie.ok_or_else(|| ctx("`lie` is required".into()))?;
                if !lie.is_finite() {
                    return Err(ctx("`lie` must be finite".into()));
                }
                Fault::CorruptOptimum {
                    at: f.at,
                    node_frac,
                    lie,
                }
            }
            other => {
                return Err(Error::Invalid(format!(
                    "fault #{i}: unknown kind `{other}` \
                     (partition|flash_crowd|massacre|corrupt_optimum)"
                )))
            }
        };
        out.push(fault);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Campaign parsing and sweep expansion
// ---------------------------------------------------------------------------

/// Parse a campaign TOML document and expand its sweep grid into
/// validated cells (see the module docs for the file layout).
pub fn parse_campaign(text: &str) -> Result<CampaignSpec> {
    let root = crate::toml::parse(text).map_err(|e| Error::Parse(e.0))?;
    let Value::Object(top) = &root else {
        unreachable!("toml::parse returns an object")
    };
    for (key, _) in top {
        if !matches!(key.as_str(), "campaign" | "cell" | "sweep" | "assert") {
            return Err(Error::Parse(format!(
                "unknown top-level table `[{key}]` (campaign|cell|sweep|assert)"
            )));
        }
    }

    let empty = Value::Object(Vec::new());
    let campaign = root.get("campaign").unwrap_or(&empty);
    check_known_keys(campaign, &["name", "seed", "reps"], "campaign")?;
    let name = match campaign.get("name") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| Error::Parse("campaign.name must be a string".into()))?
            .to_string(),
        None => "campaign".to_string(),
    };
    let seed = match campaign.get("seed") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| Error::Parse("campaign.seed must be an unsigned integer".into()))?,
        None => 0,
    };
    let reps = match campaign.get("reps") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| Error::Parse("campaign.reps must be an unsigned integer".into()))?
            .max(1),
        None => 1,
    };

    let base = root.get("cell").unwrap_or(&empty).clone();
    let defaults = serde::Serialize::to_value(&CellSpec::default());
    check_unknown_cell_keys(&defaults, &base, "cell")?;

    // Sweep axes in document order; values are raw TOML values substituted
    // into the cell tree before typed parsing. The reserved `zip` key
    // introduces ONE axis whose member keys advance in lock-step.
    let mut axes: Vec<Axis> = Vec::new();
    if let Some(sweep) = root.get("sweep") {
        let Value::Object(pairs) = sweep else {
            return Err(Error::Parse("[sweep] must be a table".into()));
        };
        for (key, v) in pairs {
            if key == "zip" {
                axes.push(parse_zip_axis(v)?);
                continue;
            }
            let Value::Array(options) = v else {
                return Err(Error::Parse(format!(
                    "sweep.{key} must be an array of values"
                )));
            };
            if options.is_empty() {
                return Err(Error::Parse(format!("sweep.{key} must not be empty")));
            }
            axes.push(Axis::one(key.clone(), options.clone()));
        }
    }
    // No cell key may be driven by two axes (zip members included).
    let mut seen_keys: Vec<&str> = Vec::new();
    for axis in &axes {
        for key in axis.keys() {
            if seen_keys.contains(&key) {
                return Err(Error::Parse(format!(
                    "sweep key `{key}` appears in more than one axis"
                )));
            }
            seen_keys.push(key);
        }
    }

    let asserts: AssertSpec = match root.get("assert") {
        Some(v) => {
            check_known_keys(v, &ASSERT_KEYS, "assert")?;
            AssertSpec::from_value(v).map_err(|e| Error::Parse(e.0))?
        }
        None => AssertSpec::default(),
    };

    // Cross product, first axis slowest; a zip axis contributes a single
    // dimension whose options set all member keys at once.
    let mut combos: Vec<(String, Value)> = vec![(String::new(), base)];
    for axis in &axes {
        let mut next = Vec::with_capacity(combos.len() * axis.len());
        for (label, tree) in &combos {
            for j in 0..axis.len() {
                let mut tree = tree.clone();
                let mut label = label.clone();
                for (key, options) in axis.columns() {
                    set_path(&mut tree, key, options[j].clone())?;
                    if !label.is_empty() {
                        label.push(' ');
                    }
                    label.push_str(&format!("{key}={}", render_value(&options[j])));
                }
                next.push((label, tree));
            }
        }
        combos = next;
    }

    let mut cells = Vec::with_capacity(combos.len() * reps as usize);
    for (label, tree) in combos {
        for rep in 0..reps {
            let index = cells.len();
            let merged = overlay(&defaults, &tree);
            check_fault_entry_keys(&merged)?;
            check_assert_entry_keys(&merged)?;
            let mut cell = CellSpec::from_value(&merged).map_err(|e| Error::Parse(e.0))?;
            cell.name = if reps > 1 {
                if label.is_empty() {
                    format!("rep={rep}")
                } else {
                    format!("{label} rep={rep}")
                }
            } else {
                label.clone()
            };
            cell.seed = Some(match cell.seed {
                // Explicit seed: repetitions offset it like `run_repeated`.
                Some(s) => s + rep,
                // Derived: one independent stream per cell index, so the
                // grid is reproducible regardless of execution order.
                None => gossipopt_util::Xoshiro256pp::derive(seed, StreamId(0x5cee, index as u64))
                    .state()[0],
            });
            cell.validate()?;
            cells.push(cell);
        }
    }
    if cells.is_empty() {
        return Err(Error::Parse("campaign expanded to zero cells".into()));
    }
    Ok(CampaignSpec {
        name,
        seed,
        cells,
        asserts,
    })
}

/// One sweep dimension: one or more `(key, options)` columns advancing in
/// lock-step. A plain `key = [...]` axis is a single column; a
/// `[sweep.zip]` block contributes several equal-length columns.
struct Axis {
    cols: Vec<(String, Vec<Value>)>,
}

impl Axis {
    fn one(key: String, options: Vec<Value>) -> Axis {
        Axis {
            cols: vec![(key, options)],
        }
    }

    /// Grid positions this axis contributes.
    fn len(&self) -> usize {
        self.cols[0].1.len()
    }

    /// The `(key, options)` columns set at each position.
    fn columns(&self) -> &[(String, Vec<Value>)] {
        &self.cols
    }

    /// Every cell key this axis drives.
    fn keys(&self) -> impl Iterator<Item = &str> {
        self.cols.iter().map(|(k, _)| k.as_str())
    }
}

/// Parse the `[sweep.zip]` table: ≥ 2 equal-length arrays.
fn parse_zip_axis(v: &Value) -> Result<Axis> {
    let Value::Object(pairs) = v else {
        return Err(Error::Parse(
            "[sweep.zip] must be a table of equal-length arrays".into(),
        ));
    };
    let mut cols: Vec<(String, Vec<Value>)> = Vec::new();
    for (key, zv) in pairs {
        let Value::Array(options) = zv else {
            return Err(Error::Parse(format!(
                "sweep.zip.{key} must be an array of values"
            )));
        };
        if options.is_empty() {
            return Err(Error::Parse(format!("sweep.zip.{key} must not be empty")));
        }
        cols.push((key.clone(), options.clone()));
    }
    if cols.len() < 2 {
        return Err(Error::Parse(
            "[sweep.zip] needs at least two keys (one key is a plain sweep axis)".into(),
        ));
    }
    let len = cols[0].1.len();
    for (key, options) in &cols[1..] {
        if options.len() != len {
            return Err(Error::Parse(format!(
                "sweep.zip.{key} has {} values but `{}` has {len} — zipped axes must be \
                 the same length",
                options.len(),
                cols[0].0
            )));
        }
    }
    Ok(Axis { cols })
}

/// Typo guard for the `[cell.assert]` override table (the defaults tree
/// models `assert` as `null`, so [`check_unknown_cell_keys`] cannot see
/// inside it — and the derived deserializer would silently drop stray
/// keys). Checked on the merged tree so sweep-injected overrides are
/// covered too.
fn check_assert_entry_keys(tree: &Value) -> Result<()> {
    match tree.get("assert") {
        None | Some(Value::Null) => Ok(()),
        Some(v) => check_known_keys(v, &ASSERT_KEYS, "cell.assert"),
    }
}

/// Every key of `user` must exist in `known`.
fn check_known_keys(user: &Value, known: &[&str], table: &str) -> Result<()> {
    let Value::Object(pairs) = user else {
        return Err(Error::Parse(format!("[{table}] must be a table")));
    };
    for (k, _) in pairs {
        if !known.contains(&k.as_str()) {
            return Err(Error::Parse(format!("unknown key `{table}.{k}`")));
        }
    }
    Ok(())
}

/// Typo guard for `[[cell.fault]]` entries: the defaults tree models
/// `fault` as an (empty) array, so [`check_unknown_cell_keys`] cannot
/// recurse into its elements — and the derived deserializer would
/// silently drop stray keys. Checked on the merged tree so sweep-injected
/// fault tables are covered too.
fn check_fault_entry_keys(tree: &Value) -> Result<()> {
    const KNOWN: [&str; 8] = [
        "kind",
        "at",
        "heal_at",
        "groups",
        "join",
        "kill_frac",
        "node_frac",
        "lie",
    ];
    let Some(faults) = tree.get("fault") else {
        return Ok(());
    };
    let Value::Array(entries) = faults else {
        return Err(Error::Parse("cell.fault must be an array of tables".into()));
    };
    for (i, entry) in entries.iter().enumerate() {
        let Value::Object(pairs) = entry else {
            return Err(Error::Parse(format!("cell.fault[{i}] must be a table")));
        };
        for (k, _) in pairs {
            if !KNOWN.contains(&k.as_str()) {
                return Err(Error::Parse(format!(
                    "unknown key `cell.fault[{i}].{k}` (not a fault field)"
                )));
            }
        }
    }
    Ok(())
}

/// Reject cell keys that do not exist in the defaults tree (typo guard);
/// recurses into sub-tables that the defaults also model as tables.
fn check_unknown_cell_keys(defaults: &Value, user: &Value, path: &str) -> Result<()> {
    let (Value::Object(dk), Value::Object(uk)) = (defaults, user) else {
        return Ok(());
    };
    for (k, uv) in uk {
        match dk.iter().find(|(dkk, _)| dkk == k) {
            None => {
                return Err(Error::Parse(format!(
                    "unknown key `{path}.{k}` (not a cell field)"
                )))
            }
            Some((_, dv)) => {
                if matches!(dv, Value::Object(_)) {
                    check_unknown_cell_keys(dv, uv, &format!("{path}.{k}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Deep merge: objects merge key-wise (user wins on scalars), everything
/// else is replaced by the user value.
fn overlay(defaults: &Value, user: &Value) -> Value {
    match (defaults, user) {
        (Value::Object(d), Value::Object(u)) => {
            let mut out = d.clone();
            for (k, uv) in u {
                match out.iter_mut().find(|(ok, _)| ok == k) {
                    Some((_, ov)) => *ov = overlay(ov, uv),
                    None => out.push((k.clone(), uv.clone())),
                }
            }
            Value::Object(out)
        }
        _ => user.clone(),
    }
}

/// Set `dotted` (e.g. `metrics.sample_every`) in an object tree, creating
/// intermediate tables as needed.
fn set_path(tree: &mut Value, dotted: &str, value: Value) -> Result<()> {
    let mut node = tree;
    let parts: Vec<&str> = dotted.split('.').collect();
    let (last, parents) = parts.split_last().expect("non-empty key");
    for part in parents {
        let Value::Object(pairs) = node else {
            return Err(Error::Parse(format!(
                "sweep key `{dotted}`: `{part}` is not a table"
            )));
        };
        let idx = match pairs.iter().position(|(k, _)| k == part) {
            Some(i) => i,
            None => {
                pairs.push((part.to_string(), Value::Object(Vec::new())));
                pairs.len() - 1
            }
        };
        node = &mut pairs[idx].1;
    }
    let Value::Object(pairs) = node else {
        return Err(Error::Parse(format!(
            "sweep key `{dotted}`: parent is not a table"
        )));
    };
    match pairs.iter_mut().find(|(k, _)| k == last) {
        Some((_, v)) => *v = value,
        None => pairs.push((last.to_string(), value)),
    }
    Ok(())
}

/// Compact rendering of a swept value for cell labels.
fn render_value(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_is_valid() {
        CellSpec::default().validate().unwrap();
    }

    #[test]
    fn grammars_parse() {
        assert_eq!(parse_topology("newscast").unwrap(), TopologyKind::Newscast);
        assert_eq!(
            parse_topology("kregular:4").unwrap(),
            TopologyKind::KOutRegular(4)
        );
        assert_eq!(
            parse_topology("ring-lattice:2").unwrap(),
            TopologyKind::RingLattice(2)
        );
        assert_eq!(
            parse_topology("hier:3").unwrap(),
            TopologyKind::TwoLevelHierarchy { degree: 3 }
        );
        assert_eq!(
            parse_topology("smallworld:4,0.2").unwrap(),
            TopologyKind::SmallWorld { k: 4, beta: 0.2 }
        );
        assert!(parse_topology("mobius").is_err());
        assert!(parse_topology("kregular").is_err());
        assert!(parse_topology("erdos:1.5").is_err());
        assert_eq!(
            parse_topology("newscast:8").unwrap(),
            TopologyKind::Newscast
        );
        for bad in ["newscast:0", "newscast:x", "newscast:"] {
            assert!(parse_topology(bad).is_err(), "{bad}");
        }

        assert_eq!(parse_kernel("cycle").unwrap(), None);
        assert_eq!(parse_kernel("event").unwrap(), Some(AsyncOpts::default()));
        assert_eq!(
            parse_kernel("event:exp:30").unwrap().unwrap().latency,
            Latency::Exponential(30.0)
        );
        for bad in [
            "event:exp:0",
            "event:exp:nan",
            "event:exp:30.5",
            "event:bogus",
            "cycle:exp:30",
            "quantum",
        ] {
            assert!(parse_kernel(bad).is_err(), "{bad}");
        }

        assert_eq!(
            parse_coordination("gossip-pushpull").unwrap(),
            CoordinationKind::GossipBest(ExchangeMode::PushPull)
        );
        assert_eq!(
            parse_coordination("rumor:2,0.5").unwrap(),
            CoordinationKind::RumorBest(RumorConfig {
                fanout: 2,
                stop_prob: 0.5
            })
        );
        assert_eq!(
            parse_coordination("migrate:3").unwrap(),
            CoordinationKind::Migrate { migrants: 3 }
        );
        assert_eq!(parse_coordination("none").unwrap(), CoordinationKind::None);
        assert!(parse_coordination("telepathy").is_err());
    }

    #[test]
    fn sweep_expands_cross_product_in_document_order() {
        let spec = parse_campaign(
            r#"
[campaign]
name = "grid"
seed = 7

[cell]
nodes = 16
particles = 4
budget = 20

[sweep]
kernel = ["cycle", "event"]
churn = [0.0, 0.01]
"#,
        )
        .unwrap();
        assert_eq!(spec.cells.len(), 4);
        let labels: Vec<&str> = spec.cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            labels,
            [
                "kernel=cycle churn=0.0",
                "kernel=cycle churn=0.01",
                "kernel=event churn=0.0",
                "kernel=event churn=0.01",
            ]
        );
        // Distinct derived seeds per cell; stable across parses.
        let seeds: Vec<u64> = spec.cells.iter().map(|c| c.resolved_seed()).collect();
        assert_eq!(seeds.len(), 4);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "cell seeds must be distinct");
        let again = parse_campaign(
            r#"
[campaign]
name = "grid"
seed = 7

[cell]
nodes = 16
particles = 4
budget = 20

[sweep]
kernel = ["cycle", "event"]
churn = [0.0, 0.01]
"#,
        )
        .unwrap();
        assert_eq!(spec, again, "expansion is deterministic");
    }

    #[test]
    fn zip_axes_advance_in_lock_step() {
        let spec = parse_campaign(
            r#"
[campaign]
name = "zip"
seed = 1

[cell]
particles = 4

[sweep]
kernel = ["cycle", "event"]

[sweep.zip]
nodes = [8, 16, 32]
budget = [64, 32, 16]
"#,
        )
        .unwrap();
        // 2 kernels × 3 zipped positions (NOT 2 × 3 × 3).
        assert_eq!(spec.cells.len(), 6);
        for cell in &spec.cells {
            assert_eq!(
                cell.nodes as u64 * cell.budget,
                512,
                "zip pairs nodes with budget: {}",
                cell.name
            );
        }
        assert_eq!(spec.cells[0].name, "kernel=cycle nodes=8 budget=64");
        assert_eq!(spec.cells[5].name, "kernel=event nodes=32 budget=16");
    }

    #[test]
    fn zip_validation_rejects_bad_shapes() {
        // Length mismatch.
        let e =
            parse_campaign("[cell]\nnodes=8\n[sweep.zip]\nnodes=[8,16]\nbudget=[1]\n").unwrap_err();
        assert!(format!("{e}").contains("same length"), "{e}");
        // A single zipped key is just a sweep axis — reject the noise.
        assert!(parse_campaign("[cell]\nnodes=8\n[sweep.zip]\nnodes=[8,16]\n").is_err());
        // The same key driven by two axes.
        let e = parse_campaign(
            "[cell]\nparticles=4\n[sweep]\nnodes=[8,16]\n[sweep.zip]\nnodes=[8,16]\nbudget=[4,2]\n",
        )
        .unwrap_err();
        assert!(format!("{e}").contains("more than one axis"), "{e}");
        // Zip of a non-array.
        assert!(parse_campaign("[cell]\nnodes=8\n[sweep.zip]\nnodes=4\nbudget=[1,2]\n").is_err());
    }

    #[test]
    fn cell_assert_overrides_parse_and_merge() {
        let spec = parse_campaign(
            r#"
[cell]
nodes = 8

[cell.assert]
max_quality = 99.0

[assert]
max_quality = 1.0
min_final_population = 4
"#,
        )
        .unwrap();
        let over = spec.cells[0].assert.as_ref().unwrap();
        assert_eq!(over.max_quality, Some(99.0));
        let effective = spec.asserts.overridden_by(over);
        assert_eq!(effective.max_quality, Some(99.0), "override wins");
        assert_eq!(effective.min_final_population, Some(4), "unset inherits");
        // Typos inside the override table are rejected, not dropped.
        let e = parse_campaign("[cell]\nnodes = 8\n[cell.assert]\nmax_qualty = 1.0\n").unwrap_err();
        assert!(format!("{e}").contains("cell.assert.max_qualty"), "{e}");
        // ...including when a sweep axis injects the override.
        let e = parse_campaign("[cell]\nnodes = 8\n[sweep]\n\"assert.max_qualty\" = [1.0]\n")
            .unwrap_err();
        assert!(format!("{e}").contains("max_qualty"), "{e}");
    }

    #[test]
    fn reps_offset_explicit_seeds() {
        let spec =
            parse_campaign("[campaign]\nreps = 3\n[cell]\nnodes = 8\nbudget = 10\nseed = 100\n")
                .unwrap();
        let seeds: Vec<u64> = spec.cells.iter().map(|c| c.resolved_seed()).collect();
        assert_eq!(seeds, [100, 101, 102]);
        assert_eq!(spec.cells[1].name, "rep=1");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(parse_campaign("[cell]\nnoodles = 9\n").is_err());
        // ...including inside fault entries, which the defaults tree
        // models as an array (so the generic recursion cannot see them).
        let e = parse_campaign(
            "[cell]\nnodes = 8\n[[cell.fault]]\nkind = \"partition\"\nat = 1\n\
             heal_at = 2\ngroups = [[0,4],[4,8]]\nheal = 99\n",
        )
        .unwrap_err();
        assert!(format!("{e}").contains("fault[0].heal"), "{e}");
        assert!(parse_campaign("[cell.metrics]\ncadence = 9\n").is_err());
        assert!(parse_campaign("[banquet]\nx = 1\n").is_err());
        assert!(parse_campaign("[assert]\nmax_qualty = 1.0\n").is_err());
        assert!(parse_campaign("[campaign]\nnom = \"x\"\n").is_err());
    }

    #[test]
    fn overlapping_partition_groups_are_rejected() {
        let err = parse_campaign(
            r#"
[cell]
nodes = 100
[[cell.fault]]
kind = "partition"
at = 5
heal_at = 10
groups = [[0, 60], [50, 100]]
"#,
        )
        .unwrap_err();
        assert!(format!("{err}").contains("overlap"), "{err}");
    }

    #[test]
    fn fault_validation_rejects_bad_shapes() {
        let cases = [
            // heal before at
            ("partition", "at = 10\nheal_at = 5\ngroups = [[0,4],[4,8]]"),
            // single group
            ("partition", "at = 1\nheal_at = 2\ngroups = [[0,8]]"),
            // empty range
            ("partition", "at = 1\nheal_at = 2\ngroups = [[4,4],[4,8]]"),
            // out of id range
            ("partition", "at = 1\nheal_at = 2\ngroups = [[0,4],[4,99]]"),
            // fraction out of range
            ("massacre", "at = 1\nkill_frac = 1.5"),
            ("massacre", "at = 1\nkill_frac = 0.0"),
            ("corrupt_optimum", "at = 1\nnode_frac = -0.25\nlie = -1.0"),
            ("corrupt_optimum", "at = 1\nnode_frac = 2.0\nlie = -1.0"),
            // missing required field
            ("corrupt_optimum", "at = 1\nnode_frac = 0.5"),
            ("flash_crowd", "at = 1\njoin = 0"),
            // irrelevant field for the kind
            ("massacre", "at = 1\nkill_frac = 0.5\nlie = -1.0"),
            // membership faults cannot fire at tick 0
            ("massacre", "at = 0\nkill_frac = 0.5"),
            ("flash_crowd", "at = 0\njoin = 5"),
            // unknown kind
            ("meteor", "at = 1"),
        ];
        for (kind, body) in cases {
            let text = format!("[cell]\nnodes = 8\n[[cell.fault]]\nkind = \"{kind}\"\n{body}\n");
            assert!(
                parse_campaign(&text).is_err(),
                "{kind} / {body} should be rejected"
            );
        }
    }

    #[test]
    fn valid_fault_schedule_compiles() {
        let spec = parse_campaign(
            r#"
[cell]
nodes = 100
budget = 50

[[cell.fault]]
kind = "partition"
at = 10
heal_at = 20
groups = [[0, 50], [50, 100]]

[[cell.fault]]
kind = "massacre"
at = 30
kill_frac = 0.5

[[cell.fault]]
kind = "flash_crowd"
at = 35
join = 25

[[cell.fault]]
kind = "corrupt_optimum"
at = 40
node_frac = 0.1
lie = -1e9
"#,
        )
        .unwrap();
        let faults = spec.cells[0].compiled_faults().unwrap();
        assert_eq!(faults.len(), 4);
        assert_eq!(
            faults[0],
            Fault::Partition {
                at: 10,
                heal_at: 20,
                groups: vec![(0, 50), (50, 100)]
            }
        );
        assert_eq!(faults[2], Fault::FlashCrowd { at: 35, join: 25 });
    }

    #[test]
    fn cell_round_trips_through_json() {
        let mut cell = CellSpec {
            topology: "kregular:4".into(),
            churn: 0.01,
            seed: Some(9),
            stop_at_quality: Some(1e-3),
            ..CellSpec::default()
        };
        cell.fault.push(FaultSpec {
            kind: "massacre".into(),
            at: 10,
            heal_at: None,
            groups: None,
            join: None,
            kill_frac: Some(0.5),
            node_frac: None,
            lie: None,
        });
        let text = serde_json::to_string(&cell).unwrap();
        let back: CellSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cell);
    }

    #[test]
    fn grammar_values_lower_into_the_spec() {
        let spec = CellSpec {
            topology: "newscast:8".into(),
            solver: "pso-1995".into(),
            ..CellSpec::default()
        }
        .to_dist_spec()
        .unwrap();
        assert_eq!(spec.newscast.view_size, 8);
        assert_eq!(spec.newscast.exchange_every, 10, "only C is set");
        assert_eq!(spec.solver, SolverSpec::Pso(PsoParams::paper_1995()));
        // The bare spellings keep the defaults they always lowered to.
        let base = CellSpec::default().to_dist_spec().unwrap();
        assert_eq!(base.newscast, DistributedPsoSpec::default().newscast);
        assert_eq!(base.solver, SolverSpec::Pso(PsoParams::default()));
        assert!(CellSpec {
            solver: "pso-2000".into(),
            ..CellSpec::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn to_dist_spec_lowers_the_cell() {
        let cell = CellSpec {
            nodes: 32,
            topology: "ring-lattice:2".into(),
            coordination: "rumor:2,0.5".into(),
            churn: 0.01,
            threads: 2,
            ..CellSpec::default()
        };
        let spec = cell.to_dist_spec().unwrap();
        assert_eq!(spec.nodes, 32);
        assert_eq!(spec.topology, TopologyKind::RingLattice(2));
        assert!(!spec.churn.is_static());
        assert_eq!(spec.threads, 2);
        assert!(spec.metrics.is_some());
    }
}

#![warn(missing_docs)]

//! # gossipopt-core
//!
//! The decentralized optimization framework of Biazzini, Brunato &
//! Montresor (2008), assembled from the workspace substrates:
//!
//! * **topology service** — NEWSCAST peer sampling, or any static overlay
//!   from the unified builder module (`gossipopt_gossip::topology`): mesh,
//!   star, ring, random digraphs, torus grid, small world, Erdős–Rényi,
//!   plus the 100k-scale kinds `RingLattice`, `KOutRegular` (O(n·k)
//!   rejection construction) and `TwoLevelHierarchy` (~√n clusters with a
//!   head ring);
//! * **function optimization service** — any [`gossipopt_solvers::Solver`]
//!   (per-node PSO swarms in the paper's instantiation);
//! * **coordination service** — anti-entropy diffusion of the best-known
//!   optimum (plus the master–slave and no-coordination baselines, and the
//!   search-space-partitioning strategy from the paper's future work).
//!
//! [`node::OptNode`] composes the three services into one
//! [`gossipopt_sim::Application`]; [`experiment`] builds networks of them,
//! runs budgeted simulations and aggregates repetitions. The paper's four
//! experiment grids (Tables 1–4 / Figures 1–4) are declarative campaigns
//! run by `gossipopt_scenarios`, not code here.
//!
//! ## Scale architecture (100k nodes)
//!
//! The composed stack runs at 100k nodes on both kernels (CI's
//! `bench-smoke` proves it every push). Three design points make that
//! work:
//!
//! * **Pooled message payloads** — the gossiped optimum's position
//!   ([`rumor::Pos`]) is stored inline up to [`rumor::POS_INLINE_DIM`]
//!   dimensions (beyond that, behind a shared `Arc`), so the per-hop
//!   clones in `Msg::RumorPush` / `Coord` / `Migrant` / `Master*` never
//!   allocate; hosts additionally gate payload construction on
//!   [`rumor::GlobalBest::improves`], so steady-state coordination
//!   traffic is allocation-free at any dimension.
//! * **O(n) network construction** — static topologies skip kernel
//!   bootstrap sampling entirely (their samplers ignore join contacts),
//!   neighbor lists are built once in index space and shared via `Arc`
//!   through [`experiment::NodeRecipe`], and the unpartitioned objective
//!   is one `Arc` refcount per node.
//! * **Byte-level communication accounting** — every node tracks the
//!   wire size of what it sends ([`messages::Msg::wire_bytes`], kept in
//!   lock-step with the runtime codec by test), and
//!   [`experiment::RunReport::payload_bytes`] reports the paper's
//!   communication cost in bytes, not just message counts.
//!
//! ```
//! use gossipopt_core::prelude::*;
//!
//! let spec = DistributedPsoSpec {
//!     nodes: 16,
//!     particles_per_node: 8,
//!     gossip_every: 8,
//!     ..Default::default()
//! };
//! let report = run_distributed_pso(&spec, "sphere", Budget::PerNode(100), 7).unwrap();
//! assert_eq!(report.ticks, 100);
//! assert!(report.best_quality.is_finite());
//! ```

pub mod baselines;
pub mod experiment;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod partition;
pub mod rumor;

use std::fmt;

/// Errors surfaced by the framework's builders and runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The requested objective function name is not registered.
    UnknownFunction(String),
    /// The requested solver name is not registered.
    UnknownSolver(String),
    /// The specification is internally inconsistent.
    InvalidSpec(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownFunction(n) => write!(f, "unknown objective function: {n}"),
            CoreError::UnknownSolver(n) => write!(f, "unknown solver: {n}"),
            CoreError::InvalidSpec(m) => write!(f, "invalid experiment spec: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::baselines::{run_centralized_pso, run_independent, BaselineReport};
    pub use crate::experiment::{
        run_distributed, run_distributed_async, run_distributed_pso, run_repeated, AsyncOpts,
        Budget, CoordinationKind, DistributedPsoSpec, RunReport, SolverSpec, TopologyKind,
    };
    pub use crate::metrics::{MetricSample, MetricsRing, MetricsSpec};
    pub use crate::node::OptNode;
    pub use crate::CoreError;
    pub use gossipopt_functions::{by_name as function_by_name, Objective};
    pub use gossipopt_gossip::ExchangeMode;
    pub use gossipopt_sim::ChurnConfig;
    pub use gossipopt_solvers::{BestPoint, PsoParams, Solver};
}

#![warn(missing_docs)]

//! # gossipopt
//!
//! A decentralized, gossip-based architecture for distributed function
//! optimization — a full Rust reproduction of Biazzini, Brunato & Montresor,
//! *“Towards a Decentralized Architecture for Optimization”* (2008).
//!
//! This facade crate re-exports the workspace crates under one namespace:
//!
//! * [`util`] — deterministic PRNG streams and online statistics;
//! * [`obs`] — two-plane observability: deterministic run snapshots
//!   (per-kind wire accounting, frame savings, churn/fault counters,
//!   best-improvement traces — byte-identical across worker-thread
//!   counts), wall-clock phase histograms, and the `GOSSIPOPT_LOG`
//!   structured-logging facade;
//! * [`functions`] — the benchmark objective suite (Sphere, Rosenbrock, …);
//! * [`sim`] — a PeerSim-equivalent cycle- and event-driven P2P simulator;
//! * [`gossip`] — Newscast peer sampling, anti-entropy, rumor mongering,
//!   aggregation and overlay analysis;
//! * [`solvers`] — PSO (classic/inertia/constriction, gbest/lbest), DE, GA,
//!   sep-CMA-ES, Nelder–Mead, SA, (1+1)-ES and random search;
//! * [`core`] — the three-service framework (topology / optimization /
//!   coordination), the distributed PSO instantiation, baselines, and the
//!   seeded experiment runner;
//! * [`scenarios`] — declarative experiment campaigns: TOML scenario
//!   specs with sweep grids, fault-schedule injection (partitions, flash
//!   crowds, massacres, byzantine optimum corruption), an
//!   allocation-free metrics tap, a deterministic parallel campaign
//!   runner, and the renderers of the paper's tables and figures
//!   (committed campaigns, the paper's four experiment sets among them,
//!   live in the repo's `scenarios/` dir);
//! * [`runtime`] — a real threaded deployment of the same protocol (one OS
//!   thread per node, channel or UDP transport, binary wire format).
//!
//! ## Hot-path architecture
//!
//! The simulation/solver hot path is allocation-free and cache-friendly
//! (see `BENCH_kernel.json` for measured before/after evidence):
//!
//! * **Dense slot map** — `NodeId`s are allocated sequentially and kernel
//!   slots are never removed, so the id → slot lookup on the message
//!   routing path is a bounds compare plus arithmetic (no hash map, no
//!   dependent table load); a sorted live-slot list is maintained
//!   incrementally on insert/crash so per-tick scheduling is O(alive).
//! * **Scratch buffers** — every per-tick and per-message buffer
//!   (scheduling order, outboxes, delivery queue, bootstrap samples) is
//!   reused across calls; steady-state ticks perform no heap allocation.
//!   Intra-tick messages are delivered straight from the sender's outbox;
//!   only chained replies ever touch the queue.
//! * **SoA swarm** — PSO particle state lives in flat
//!   positions/velocities/pbests buffers with stride `dim`, so the
//!   velocity/position update is a tight loop over contiguous memory and
//!   one `Solver::step` performs no allocation.
//! * **Batch evaluation** — `functions::Objective::eval_batch` evaluates
//!   contiguous batches of points with one virtual dispatch per batch;
//!   the suite functions specialize it with the exact per-point
//!   arithmetic of `eval`, and all solver evaluation sites route through
//!   it.
//! * **Pooled coordination payloads** — the gossiped optimum's position
//!   (`core::rumor::Pos`) lives inline in the message up to 16 dimensions
//!   (`Arc`-shared beyond), so the per-hop clones of coordination traffic
//!   never allocate, and the composed `core::OptNode` stack runs at 100k
//!   nodes on both kernels (`examples/scale.rs --mode dpso`, measured by
//!   the `dpso/*` bench family).
//! * **Cross-node solver arena** — `solvers::SwarmArena` stores the hot
//!   particle state of *every node's* swarm in one flat allocation
//!   (stride-indexed rows); `core::NodeRecipe` hands each node an
//!   `ArenaPso` handle that is bit-identical to a boxed `Swarm`, so a
//!   network tick streams memory instead of chasing 100k boxed swarms
//!   (`dpso/cycle/10000` dropped ~5x when this landed; see
//!   `BENCH_kernel.json`).
//! * **Sharded multi-core kernels** — `threads >= 1` on either kernel
//!   config (or `DistributedPsoSpec::threads`, `--threads` on the
//!   examples) runs one simulated network across worker threads with a
//!   deterministic merge. The event kernel stays bit-identical to
//!   one-at-a-time event processing at any thread count (`threads = 0`
//!   runs the same sharded path as one shard); the cycle kernel's *phased*
//!   tick is a thread-count-invariant discipline of its own (merge order:
//!   destination slot, then source slot, then emission sequence). The 1M-
//!   node raw-gossip scenario (`examples/scale.rs --nodes 1000000`) and
//!   the `dpso-par/*` bench family run on this path.
//!
//! All of this preserves determinism bit for bit: RNG draw order, float
//! operation order and delivery order are unchanged, verified against the
//! pre-refactor implementation by `examples/fingerprint.rs` (which also
//! proves thread-count invariance under `--threads 1/2/3/8`) and the
//! `soa_equivalence`, `arena_equivalence` and `shard_equivalence` test
//! suites.
//!
//! Run the benches with `scripts/bench.sh` (refreshes `BENCH_kernel.json`)
//! or directly: `cargo bench -p gossipopt_bench --bench kernel`.
//!
//! ## Quickstart
//!
//! ```
//! use gossipopt::core::prelude::*;
//!
//! // 32 nodes, each with a swarm of 8 particles, gossiping every 8
//! // evaluations, optimizing 10-D Sphere for 200 evaluations per node.
//! let spec = DistributedPsoSpec {
//!     nodes: 32,
//!     particles_per_node: 8,
//!     gossip_every: 8,
//!     ..Default::default()
//! };
//! let report = run_distributed_pso(&spec, "sphere", Budget::PerNode(200), 42).unwrap();
//! assert!(report.best_quality < 1e3); // made progress from random init
//! ```

pub use gossipopt_core as core;
pub use gossipopt_functions as functions;
pub use gossipopt_gossip as gossip;
pub use gossipopt_obs as obs;
pub use gossipopt_runtime as runtime;
pub use gossipopt_scenarios as scenarios;
pub use gossipopt_sim as sim;
pub use gossipopt_solvers as solvers;
pub use gossipopt_util as util;

#![warn(missing_docs)]

//! # gossipopt-obs
//!
//! The observability substrate of the workspace, built around **two
//! explicitly separated planes**:
//!
//! * the **deterministic plane** ([`DetSnapshot`]) — monotonic counters,
//!   gauges and simulated-tick histograms derived purely from simulation
//!   state: messages sent/delivered per wire kind, frame-batching savings
//!   per batch class, fault-injection events, churn joins/crashes,
//!   per-phase merge-round counts, and best-improvement trace events
//!   `(tick, node, quality)`. Everything in this plane is a pure function
//!   of a cell's spec and seed, so serialized snapshots are **byte
//!   identical** across runs and worker-thread counts — CI diffs them
//!   exactly like fingerprints. Nothing wall-clock-derived may
//!   ever enter this plane.
//! * the **wall-clock plane** ([`wall`], [`WallSnapshot`]) — log2-bucketed
//!   latency histograms around the kernels' shard/merge/dispatch phases
//!   and the solver step/eval calls, plus the rayon shim's home-run/steal
//!   counters. Collected behind a cheap globally-disabled-by-default
//!   recorder (one relaxed atomic load per probe when off) and **excluded
//!   from every determinism diff**.
//!
//! Both planes flow into a [`RunSnapshot`], exported as canonical JSON
//! (per plane, so the deterministic file can be byte-diffed) and as a
//! Prometheus-style text exposition. The campaign runner writes one
//! snapshot per cell under `--obs-out` and alongside `entry.json` in the
//! content-addressed store; `campaign trace` renders the convergence
//! timeline and phase-timing table of any stored cell.
//!
//! The [`log`] module is the single stderr narration facade
//! (`GOSSIPOPT_LOG={error,warn,info,debug}`), so a future daemon can
//! redirect every diagnostic line with one switch.

pub mod log;
pub mod snapshot;
pub mod wall;

pub use snapshot::{DetSnapshot, FrameClassRow, RunSnapshot, TickHistogram, TraceEvent, WireRow};
pub use wall::{Phase, PhaseRow, WallSnapshot};

/// Schema identifier stamped into every exported snapshot; bump when the
/// snapshot shape changes so downstream consumers fail loudly.
pub const OBS_SCHEMA: &str = "gossipopt-obs/v1";

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gossipopt-scenarios
//!
//! Declarative experiment campaigns for the gossipopt reproduction: the
//! "as many scenarios as you can imagine" layer. Instead of writing a
//! bespoke Rust binary per experiment, a TOML file describes a **cell**
//! (network size, topology, kernel, solver, objective, coordination,
//! churn/loss), an optional **fault schedule** (network partitions, flash
//! crowds, mass crashes, byzantine optimum corruption), an
//! allocation-free **metrics tap**, and a **sweep grid** whose cross
//! product expands into a campaign of seeded cells. The runner executes
//! cells in parallel (vendored rayon work stealing, one deterministic RNG
//! stream per cell) and emits byte-reproducible JSON/CSV reports plus a
//! text summary, with report assertions CI can gate on.
//!
//! ```
//! use gossipopt_scenarios::{parse_campaign, run_campaign};
//!
//! let spec = parse_campaign(r#"
//! [campaign]
//! name = "demo"
//! seed = 7
//!
//! [cell]
//! nodes = 16
//! particles = 4
//! budget = 30
//!
//! [sweep]
//! topology = ["ring-lattice:2", "kregular:3"]
//! "#).unwrap();
//! let report = run_campaign(&spec, 2).unwrap();
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.failures().is_empty());
//! ```
//!
//! Layers:
//!
//! * [`toml`] — a minimal offline TOML parser producing a shim
//!   `serde::Value` tree, which specs read through the tree cursor
//!   (`Deserialize::from_value`); JSON documents (store entries,
//!   reports, snapshots) are read straight from their text;
//! * [`spec`] — [`CellSpec`] / [`CampaignSpec`] / [`FaultSpec`]
//!   validation and sweep expansion;
//! * [`faults`] — the [`FaultApp`] protocol wrapper executing partition
//!   windows and byzantine corruption, plus the compiled schedule;
//! * [`exec`] — the per-cell executor driving either kernel with timed
//!   membership faults and the ring-buffer metrics tap; `run_cell_obs`
//!   additionally assembles a deterministic observability snapshot
//!   (per-kind wire accounting, frame savings, churn/fault counters, a
//!   best-improvement trace) plus an optional wall-clock plane;
//! * [`campaign`] — the parallel runner, assertions and report
//!   rendering (JSON / CSV / table); `run_campaign_observed` exports
//!   per-cell `obs_det.json` / `obs.prom` snapshots under an output
//!   directory;
//! * [`store`] — the content-addressed result store: cells are keyed by
//!   (resolved exec spec, seed, code fingerprint), so re-running a
//!   campaign loads finished cells instead of recomputing them —
//!   incremental sweeps and crash resume;
//! * [`report`] — the query layer over stored/combined results: the
//!   paper's Tables 1–4 and convergence-curve CSVs, byte-identical
//!   across runs and thread counts;
//! * [`figures`] — the paper's Figures 1–4 as ASCII plots over the same
//!   report groups, plus the per-function best rows of Tables 1–3.
//!
//! Committed campaign files live in the repository's `scenarios/`
//! directory (see its README for the cookbook); run one with
//! `cargo run --release -p gossipopt_bench --bin campaign -- <file>`.

pub mod campaign;
pub mod exec;
pub mod faults;
pub mod figures;
pub mod report;
pub mod spec;
pub mod store;
pub mod toml;

pub use campaign::{
    run_campaign, run_campaign_observed, run_campaign_stored, CampaignOutcome, CampaignReport,
    SCHEMA,
};
pub use exec::{run_cell, run_cell_obs, CellReport};
pub use faults::{FaultApp, FaultSchedule, FaultTarget};
pub use figures::render_paper_figures;
pub use report::{curves_csv, paper_title, render_paper_tables, render_table};
pub use spec::{parse_campaign, AssertSpec, CampaignSpec, CellSpec, Fault, FaultSpec};
pub use store::{
    cell_key, Store, StoreEntry, StoreError, StoreKey, CODE_FINGERPRINT, STORE_SCHEMA,
};

use std::fmt;

/// Errors surfaced by parsing, validation and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The TOML/JSON text could not be parsed into a campaign.
    Parse(String),
    /// The spec parsed but is semantically invalid.
    Invalid(String),
    /// A cell failed to run.
    Run(String),
}

impl Error {
    /// Wrap a core experiment error.
    pub fn from_core(e: gossipopt_core::CoreError) -> Self {
        Error::Run(e.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Invalid(m) => write!(f, "invalid scenario: {m}"),
            Error::Run(m) => write!(f, "run error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

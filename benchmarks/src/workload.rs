//! What every workload hands back to the runner.

use crate::trace::Trace;
use std::collections::BTreeMap;

/// Named per-layer values (exact counts and probe results). Timings
/// measured by spans are derived from the trace, not stored here.
pub type Layers = BTreeMap<&'static str, f64>;

/// The unit `work_per_s` counts for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Simulated node-ticks (one local evaluation each on dpso cells).
    NodeTicks,
    /// Campaign cells completed (simulated or loaded).
    Cells,
    /// Codec frames encoded and decoded.
    Frames,
}

impl WorkUnit {
    pub fn name(self) -> &'static str {
        match self {
            WorkUnit::NodeTicks => "node-ticks",
            WorkUnit::Cells => "cells",
            WorkUnit::Frames => "frames",
        }
    }
}

/// Outcome of one repetition. Everything but `wall` and `rayon` is a
/// simulated statistic or a count, and must repeat exactly from
/// repetition to repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Fingerprint of the simulated statistics and rendered reports.
    pub digest: u64,
    /// Operations attempted: one per cell, kernel leg or codec frame.
    pub attempted: u64,
    /// Descriptions of the operations that failed (`Err`, a tripped
    /// `[assert]` bound, a mismatch, a non-converged leg, ...).
    pub failures: Vec<String>,
    pub node_ticks: u64,
    pub cells: u64,
    /// Delivered simulator messages, or codec frames.
    pub msgs: u64,
    /// Post-coalescing wire bytes of the simulated network.
    pub payload_bytes: u64,
    /// Exact per-layer counts of this repetition.
    pub counts: Layers,
    /// Traced repetitions: raw `(seconds, intervals)` totals of the
    /// library's `obs::wall` recorder, by phase name. Solver step and
    /// evaluation are summed over worker threads.
    pub wall: BTreeMap<&'static str, (f64, u64)>,
    /// Traced repetitions: the rayon shim's `(home runs, steals)`.
    pub rayon: (u64, u64),
    /// Traced repetitions: `(seconds, node-ticks)` per kernel execution
    /// path (`sim.cycle.legacy`, `sim.cycle.phased`, `sim.event.seq`,
    /// `sim.event.sharded`).
    pub legs: BTreeMap<&'static str, (f64, u64)>,
}

impl Rep {
    pub fn work(&self, unit: WorkUnit) -> u64 {
        match unit {
            WorkUnit::NodeTicks => self.node_ticks,
            WorkUnit::Cells => self.cells,
            WorkUnit::Frames => self.msgs,
        }
    }
}

/// One of the seven workloads, prepared from a seed.
pub trait Workload {
    fn unit(&self) -> WorkUnit;

    /// One repetition of the timed section: parse → construct →
    /// simulate/load → persist → render. With `tr` enabled the same
    /// inputs run through the decomposed, span-wrapped path.
    fn rep(&mut self, tr: &mut Trace) -> Rep;

    /// Untimed housekeeping between repetitions (e.g. removing the
    /// store a cold pass just wrote); may record what it finds.
    fn between_reps(&mut self, _counts: &mut Layers) {}

    /// Standalone probes of single layers on this workload's inputs
    /// (traced run only).
    fn probes(&self, layers: &mut Layers);
}

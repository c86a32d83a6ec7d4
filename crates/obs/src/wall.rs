//! Wall-clock plane: log2-bucketed latency histograms around hot phases.
//!
//! This plane measures *where real time goes* — kernel shard/merge/
//! dispatch phases, solver steps, objective `eval_batch` calls — and is
//! **excluded from every determinism diff**: its numbers depend on the
//! machine, the scheduler, and the thread count.
//!
//! The recorder is a set of process-global relaxed atomics, disabled by
//! default. A disabled probe costs one relaxed `AtomicBool` load and a
//! branch (no `Instant::now` call), which keeps the instrumented hot
//! paths within the benched <2% overhead budget (`obs/overhead` row).
//! Enable it with [`set_enabled`] — the campaign runner does so when
//! `--obs-out` is given.
//!
//! Because the recorder is global, per-cell attribution is exact only
//! when cells run one at a time (campaign `--threads 1`); with parallel
//! cells the before/after delta attributes concurrent work to whichever
//! cell snapshots it. The deterministic plane is unaffected either way.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of instrumented phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 6;

/// Number of log2 latency buckets per phase; bucket `i` holds samples
/// with `floor(log2(ns)) + 1 == i` (bucket 0 is exactly 0 ns).
pub const BUCKET_COUNT: usize = 64;

/// A hot-path phase the wall-clock recorder can attribute time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Cycle kernel: per-shard application callbacks (`on_tick`/`on_message`).
    CycleCallback,
    /// Cycle kernel, phased delivery round: shard cuts, the per-shard
    /// counting sort of the binned sends into canonical order, and the
    /// sequential loss draw on a lossy transport.
    CycleMerge,
    /// Cycle kernel, phased delivery round: per shard, the liveness check,
    /// frame coalescing and `on_message` dispatch, replies binned for the
    /// next round.
    CycleDispatch,
    /// Event kernel: same-timestamp batch dispatch.
    EventDispatch,
    /// Solver `step` calls made from `OptNode::on_tick`.
    SolverStep,
    /// Objective `eval_batch` calls via `solvers::eval_point`.
    EvalBatch,
}

impl Phase {
    /// Every phase, in stable display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::CycleCallback,
        Phase::CycleMerge,
        Phase::CycleDispatch,
        Phase::EventDispatch,
        Phase::SolverStep,
        Phase::EvalBatch,
    ];

    /// Stable snake_case name used in exports and the trace renderer.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CycleCallback => "cycle_callback",
            Phase::CycleMerge => "cycle_merge",
            Phase::CycleDispatch => "cycle_dispatch",
            Phase::EventDispatch => "event_dispatch",
            Phase::SolverStep => "solver_step",
            Phase::EvalBatch => "eval_batch",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::CycleCallback => 0,
            Phase::CycleMerge => 1,
            Phase::CycleDispatch => 2,
            Phase::EventDispatch => 3,
            Phase::SolverStep => 4,
            Phase::EvalBatch => 5,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNT: [AtomicU64; PHASE_COUNT] = [ZERO; PHASE_COUNT];
static TOTAL_NS: [AtomicU64; PHASE_COUNT] = [ZERO; PHASE_COUNT];
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; BUCKET_COUNT] = [ZERO; BUCKET_COUNT];
static HIST: [[AtomicU64; BUCKET_COUNT]; PHASE_COUNT] = [ZERO_ROW; PHASE_COUNT];

/// Turn the global recorder on or off. Off is the default; probes are a
/// single relaxed load + branch while off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recorder is currently collecting.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one sample of `ns` nanoseconds against `phase`.
pub fn record(phase: Phase, ns: u64) {
    let i = phase.index();
    COUNT[i].fetch_add(1, Ordering::Relaxed);
    TOTAL_NS[i].fetch_add(ns, Ordering::Relaxed);
    HIST[i][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
}

/// Log2 bucket index for a nanosecond sample (0 stays in bucket 0).
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(BUCKET_COUNT - 1)
    }
}

/// Run `f`, timing it against `phase` when the recorder is enabled.
///
/// When disabled this is just the call to `f` behind one relaxed load —
/// no clock read, no allocation.
#[inline]
pub fn time<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    record(phase, start.elapsed().as_nanos() as u64);
    out
}

/// Begin a manual timing span: `Some(now)` when the recorder is enabled,
/// `None` (no clock read) when disabled. Pair with [`finish`]. Use this
/// instead of [`time`] where a closure would fight the borrow checker.
#[inline]
pub fn start() -> Option<std::time::Instant> {
    if ENABLED.load(Ordering::Relaxed) {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Close a span opened by [`start`], recording it against `phase`.
#[inline]
pub fn finish(phase: Phase, span: Option<std::time::Instant>) {
    if let Some(t0) = span {
        record(phase, t0.elapsed().as_nanos() as u64);
    }
}

/// Reset every counter and histogram to zero (recorder state only; the
/// enabled flag is untouched). Meant for benches and tests.
pub fn reset() {
    for i in 0..PHASE_COUNT {
        COUNT[i].store(0, Ordering::Relaxed);
        TOTAL_NS[i].store(0, Ordering::Relaxed);
        for bucket in &HIST[i] {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// One phase's accumulated wall-clock totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRow {
    /// Stable phase name (see [`Phase::name`]).
    pub phase: String,
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all sample durations in nanoseconds.
    pub total_ns: u64,
    /// Log2 latency buckets (see [`bucket_of`]).
    pub buckets: Vec<u64>,
}

/// A point-in-time capture of the wall-clock plane.
///
/// The rayon scheduler counters live here (not in the phase rows)
/// because they are event counts, not latencies; they are filled in by
/// the scenarios layer, which is the only consumer that links both this
/// crate and the vendored rayon shim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallSnapshot {
    /// Per-phase totals, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseRow>,
    /// Tasks the rayon shim ran inside their home block.
    pub rayon_home_runs: u64,
    /// Tasks the rayon shim ran via a steal sweep.
    pub rayon_steals: u64,
}

impl WallSnapshot {
    /// Capture the recorder's current totals (rayon counters zeroed —
    /// the caller layers them in).
    pub fn capture() -> WallSnapshot {
        let mut phases = Vec::with_capacity(PHASE_COUNT);
        for p in Phase::ALL {
            let i = p.index();
            phases.push(PhaseRow {
                phase: p.name().to_string(),
                count: COUNT[i].load(Ordering::Relaxed),
                total_ns: TOTAL_NS[i].load(Ordering::Relaxed),
                buckets: HIST[i].iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            });
        }
        WallSnapshot {
            phases,
            rayon_home_runs: 0,
            rayon_steals: 0,
        }
    }

    /// Element-wise `self - earlier` (saturating), used to attribute the
    /// global recorder's growth to one cell via before/after captures.
    pub fn minus(&self, earlier: &WallSnapshot) -> WallSnapshot {
        let phases = self
            .phases
            .iter()
            .map(|row| {
                let before = earlier.phases.iter().find(|e| e.phase == row.phase);
                match before {
                    Some(b) => PhaseRow {
                        phase: row.phase.clone(),
                        count: row.count.saturating_sub(b.count),
                        total_ns: row.total_ns.saturating_sub(b.total_ns),
                        buckets: row
                            .buckets
                            .iter()
                            .zip(b.buckets.iter().chain(std::iter::repeat(&0)))
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect(),
                    },
                    None => row.clone(),
                }
            })
            .collect();
        WallSnapshot {
            phases,
            rayon_home_runs: self.rayon_home_runs.saturating_sub(earlier.rayon_home_runs),
            rayon_steals: self.rayon_steals.saturating_sub(earlier.rayon_steals),
        }
    }

    /// Serialize as pretty JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("wall snapshot serializes");
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_floor_log2_plus_one() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn disabled_time_still_returns_the_value() {
        set_enabled(false);
        assert_eq!(time(Phase::SolverStep, || 41 + 1), 42);
    }

    #[test]
    fn minus_subtracts_counts_and_buckets() {
        let mut a = WallSnapshot::capture();
        let mut b = a.clone();
        a.phases[0].count = 10;
        a.phases[0].total_ns = 1000;
        a.phases[0].buckets[3] = 7;
        b.phases[0].count = 4;
        b.phases[0].total_ns = 250;
        b.phases[0].buckets[3] = 2;
        let d = a.minus(&b);
        assert_eq!(d.phases[0].count, 6);
        assert_eq!(d.phases[0].total_ns, 750);
        assert_eq!(d.phases[0].buckets[3], 5);
    }

    #[test]
    fn wall_snapshot_round_trips_through_json() {
        let snap = WallSnapshot::capture();
        let text = snap.to_json();
        let back: WallSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}

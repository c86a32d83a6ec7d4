//! Cell executor: run one validated [`CellSpec`] on the requested kernel
//! with fault injection and the allocation-free metrics tap.
//!
//! The executor owns no run loop. It builds the requested engine, hands
//! it to `core::experiment::drive` — the loop `run_distributed` and
//! `run_distributed_async` also use — with two additions: every node is
//! wrapped in a [`FaultApp`] (message-plane faults), and the per-tick hook
//! fires the scripted membership faults (mass crashes, flash-crowd joins)
//! through the engine before the tick runs. For a fault-free cell both
//! additions are transparent, which
//! `exec::tests::fault_free_cell_matches_run_distributed` locks bit for
//! bit.

use crate::faults::{FaultApp, FaultSchedule};
use crate::spec::{CellSpec, Fault};
use crate::{Error, Result};
use gossipopt_core::experiment::{
    cycle_engine, drive, event_engine, Budget, Engine, NodeRecipe, RunReport,
};
use gossipopt_core::messages::KIND_NAMES;
use gossipopt_core::node::OptNode;
use gossipopt_functions::Objective;
use gossipopt_obs::snapshot::{
    DetSnapshot, FrameClassRow, RunSnapshot, TickHistogram, TraceEvent, WireRow,
};
use gossipopt_obs::wall::{self, WallSnapshot};
use gossipopt_obs::OBS_SCHEMA;
use gossipopt_sim::{frame_class, FrameSavings, NodeId, WireCounts};
use gossipopt_util::{Rng64, StreamId, Xoshiro256pp};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Reported quality below this counts as "poisoned": honest runs can
/// never report better-than-optimal (the benchmark optima are exact), so
/// a clearly negative quality is the corrupt-optimum fault's signature.
pub const POISON_EPSILON: f64 = -1e-6;

/// Outcome of one cell run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellReport {
    /// Position in the expanded grid.
    pub index: usize,
    /// Sweep label (e.g. `topology=kregular:4 kernel=cycle`).
    pub label: String,
    /// Echo of the cell that ran (with its resolved seed).
    pub cell: CellSpec,
    /// The run's figures of merit (including the metric samples).
    pub report: RunReport,
    /// Messages eaten by partition windows (send + receive side).
    pub blocked_messages: u64,
    /// Did the run end poisoned (reported quality below the true
    /// optimum — see [`POISON_EPSILON`])?
    pub poisoned: bool,
    /// Assertion failures (filled by the campaign runner; empty = pass).
    pub failures: Vec<String>,
}

/// Deterministic-plane raw material harvested from a finished run: pure
/// functions of the cell spec and seed, assembled into a
/// [`DetSnapshot`] by [`run_cell_obs`].
struct RawObs {
    /// Per-kind wire totals: live nodes at the end plus the kernel's
    /// retired accumulator (exact under churn).
    wire: WireCounts,
    /// Per-class frame-batching savings.
    frame_saved: FrameSavings,
    /// Cycle-kernel phased merge rounds (`0` on the event kernel).
    merge_rounds: u64,
    /// Fault-schedule firings: each scripted crash/join plus each
    /// partition, heal, and corrupt-optimum activation.
    fault_events: u64,
    /// Nodes joined by churn or flash-crowd events.
    churn_joins: u64,
    /// Nodes crashed by churn or scripted fault events.
    churn_crashes: u64,
    /// Global best-improvement events at metric-sample granularity.
    trace: Vec<TraceEvent>,
}

/// Membership faults the executor applies through the engine.
struct EngineFaults {
    faults: Vec<Fault>,
    rng: Xoshiro256pp,
}

impl EngineFaults {
    fn new(faults: &[Fault], seed: u64) -> Self {
        EngineFaults {
            faults: faults.to_vec(),
            rng: Xoshiro256pp::derive(seed, StreamId(0xfa17, 0)),
        }
    }

    /// Ids to crash and nodes to join at tick `t` (computed against the
    /// currently live id list, which the caller supplies).
    fn at_tick(&mut self, t: u64, live: impl Fn() -> Vec<NodeId>) -> (Vec<NodeId>, usize) {
        let mut crash = Vec::new();
        let mut join = 0usize;
        for f in &self.faults {
            match *f {
                Fault::Massacre { at, kill_frac } if at == t => {
                    let ids = live();
                    let m = ((ids.len() as f64 * kill_frac).round() as usize).min(ids.len());
                    let mut picks = Vec::new();
                    self.rng.sample_indices_into(ids.len(), m, &mut picks);
                    crash.extend(picks.into_iter().map(|i| ids[i]));
                }
                Fault::FlashCrowd { at, join: n } if at == t => join += n,
                _ => {}
            }
        }
        (crash, join)
    }

    /// Message-plane fault transitions at tick `t`: partition starts,
    /// partition heals, and corrupt-optimum activations. These are
    /// applied inside [`FaultSchedule`], not through the engine, so the
    /// executor only counts them (for `DetSnapshot::fault_events`).
    fn window_events_at(&self, t: u64) -> u64 {
        let mut events = 0u64;
        for f in &self.faults {
            match *f {
                Fault::Partition { at, heal_at, .. } => {
                    events += u64::from(at == t) + u64::from(heal_at == t);
                }
                Fault::CorruptOptimum { at, .. } => events += u64::from(at == t),
                _ => {}
            }
        }
        events
    }
}

/// Run one cell (validates first). Deterministic per cell: all randomness
/// derives from the cell's resolved seed.
pub fn run_cell(cell: &CellSpec) -> Result<CellReport> {
    Ok(run_cell_inner(cell)?.0)
}

/// Run one cell and capture both observability planes.
///
/// The deterministic plane ([`DetSnapshot`]) is derived purely from
/// simulation state and is byte-identical across runs and worker-thread
/// counts; `campaign`/`cell` are left blank for the campaign runner to
/// fill. The wall-clock plane is attached only when
/// the global recorder is on ([`wall::set_enabled`]) and holds the
/// *delta* over this run — phase latencies plus rayon-shim
/// steal/home-run counts.
pub fn run_cell_obs(cell: &CellSpec) -> Result<(CellReport, RunSnapshot)> {
    let wall_before =
        wall::is_enabled().then(|| (WallSnapshot::capture(), rayon::scheduler_counters()));
    let (out, raw) = run_cell_inner(cell)?;
    let wall = wall_before.map(|(before, (home0, steals0))| {
        let mut delta = WallSnapshot::capture().minus(&before);
        let (home1, steals1) = rayon::scheduler_counters();
        delta.rayon_home_runs = home1.saturating_sub(home0);
        delta.rayon_steals = steals1.saturating_sub(steals0);
        delta
    });
    let det = assemble_det(cell, &out, raw);
    Ok((out, RunSnapshot { det, wall }))
}

fn run_cell_inner(cell: &CellSpec) -> Result<(CellReport, RawObs)> {
    cell.validate()?;
    let spec = cell.to_dist_spec()?;
    let seed = cell.resolved_seed();
    let objective: Arc<dyn Objective> =
        Arc::from(gossipopt_functions::by_name(&cell.function, cell.dim).expect("validated"));
    let recipe = NodeRecipe::new(&spec, objective, Budget::PerNode(cell.budget), seed)
        .map_err(Error::from_core)?;
    let faults = cell.compiled_faults()?;

    // `FaultSchedule` times are in the kernel's clock units: ticks on the
    // cycle kernel, `tick_period` per tick on the event kernel. Scripted
    // crashes land in the cycle kernel's crash counter but not in the
    // event kernel's, which counts the churn process only.
    let (report, blocked_messages, raw) = match cell.event_opts()? {
        None => run_on(cycle_engine(&spec, seed), cell, &recipe, &faults, 1, true),
        Some(opts) => {
            let engine = event_engine(&spec, opts, seed);
            run_on(engine, cell, &recipe, &faults, opts.tick_period, false)
        }
    };
    let poisoned = report.best_quality < POISON_EPSILON;
    Ok((
        CellReport {
            index: 0,
            label: cell.name.clone(),
            cell: cell.clone(),
            report,
            blocked_messages,
            poisoned,
            failures: Vec::new(),
        },
        raw,
    ))
}

/// Fill a [`DetSnapshot`] from a finished cell: every wire kind and
/// frame class in declaration order (zeros included) so equal runs
/// serialize to equal bytes.
fn assemble_det(cell: &CellSpec, out: &CellReport, raw: RawObs) -> DetSnapshot {
    let wire = KIND_NAMES
        .iter()
        .enumerate()
        .map(|(k, name)| WireRow {
            kind: (*name).to_string(),
            sent: raw.wire.sent[k],
            delivered: raw.wire.delivered[k],
            bytes: raw.wire.bytes[k],
        })
        .collect();
    let frame_saved = frame_class::NAMES
        .iter()
        .enumerate()
        .map(|(c, name)| FrameClassRow {
            class: (*name).to_string(),
            bytes_saved: raw.frame_saved.by_class[c],
        })
        .collect();
    let mut delivered_hist = TickHistogram::new();
    let mut prev = 0u64;
    for s in &out.report.samples {
        delivered_hist.observe(s.delivered.saturating_sub(prev));
        prev = s.delivered;
    }
    DetSnapshot {
        schema: OBS_SCHEMA.to_string(),
        campaign: String::new(),
        cell: 0,
        label: out.label.clone(),
        seed: cell.resolved_seed(),
        ticks: out.report.ticks,
        wire,
        frame_saved,
        payload_bytes: out.report.payload_bytes,
        merge_rounds: raw.merge_rounds,
        fault_events: raw.fault_events,
        churn_joins: raw.churn_joins,
        churn_crashes: raw.churn_crashes,
        delivered_hist,
        trace: raw.trace,
        best_quality: out.report.best_quality,
    }
}

/// Run the cell on `engine` through core's run loop: nodes wrapped in
/// [`FaultApp`], scripted membership faults fired before each tick.
fn run_on<E: Engine<FaultApp<OptNode>>>(
    mut engine: E,
    cell: &CellSpec,
    recipe: &NodeRecipe,
    faults: &[Fault],
    tick_scale: u64,
    crash_counts_itself: bool,
) -> (RunReport, u64, RawObs) {
    let seed = cell.resolved_seed();
    let sched = Arc::new(FaultSchedule::new(faults, cell.dim, seed, tick_scale));
    let mut engine_faults = EngineFaults::new(faults, seed);
    let mut fault_events = 0u64;
    let mut scripted_crashes = 0u64;
    let mut scripted_joins = 0u64;

    let driven = drive(
        &mut engine,
        recipe,
        move |node| FaultApp::new(node, Arc::clone(&sched)),
        |engine: &mut E, t| {
            let (crash, join) =
                engine_faults.at_tick(t, || engine.nodes().map(|(id, _)| id).collect());
            scripted_crashes += crash.len() as u64;
            scripted_joins += join as u64;
            fault_events += crash.len() as u64 + join as u64 + engine_faults.window_events_at(t);
            for id in crash {
                engine.crash(id);
            }
            if join > 0 {
                engine.populate(join);
            }
        },
    )
    .expect("recipe validated");

    let blocked = engine.nodes().map(|(_, app)| app.blocked()).sum();
    let traffic = engine.traffic();
    // Normalize both kernels to churn + scripted (joins are churn-only in
    // either kernel's counter).
    let uncounted_crashes = if crash_counts_itself {
        0
    } else {
        scripted_crashes
    };
    let raw = RawObs {
        wire: driven.wire,
        frame_saved: engine.frame_saved(),
        merge_rounds: traffic.merge_rounds,
        fault_events,
        churn_joins: traffic.joins + scripted_joins,
        churn_crashes: traffic.crashes + uncounted_crashes,
        trace: driven.improvements,
    };
    (driven.report, blocked, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;
    use gossipopt_core::experiment::{run_distributed, run_distributed_async};

    fn small_cell() -> CellSpec {
        CellSpec {
            nodes: 16,
            particles: 4,
            gossip_every: 4,
            budget: 60,
            seed: Some(11),
            ..CellSpec::default()
        }
    }

    #[test]
    fn fault_free_cell_matches_run_distributed() {
        // The transparent FaultApp wrapper + no-fault hook must be
        // bit-identical to core's drivers on the same spec/seed, on both
        // kernels (and the event kernel's latency grammar) and both
        // scheduling disciplines. A star with gossip every tick makes frame
        // coalescing engage at threads = 1, so the savings netted off
        // `payload_bytes` are part of the comparison.
        for kernel in ["cycle", "event", "event:exp:30"] {
            for threads in [0usize, 1] {
                let cell = CellSpec {
                    nodes: 64,
                    topology: "star".into(),
                    gossip_every: 1,
                    kernel: kernel.into(),
                    threads,
                    ..small_cell()
                };
                let out = run_cell(&cell).unwrap();
                let spec = cell.to_dist_spec().unwrap();
                let budget = Budget::PerNode(cell.budget);
                let objective: Arc<dyn Objective> = Arc::from(
                    gossipopt_functions::by_name(&cell.function, cell.dim).expect("registered"),
                );
                let reference = match cell.event_opts().unwrap() {
                    None => run_distributed(&spec, objective, budget, 11),
                    Some(opts) => run_distributed_async(&spec, objective, budget, opts, 11),
                }
                .unwrap();
                let ctx = format!("{kernel} threads={threads}");
                assert_eq!(
                    out.report.best_quality.to_bits(),
                    reference.best_quality.to_bits(),
                    "{ctx}"
                );
                assert_eq!(out.report.messages_sent, reference.messages_sent, "{ctx}");
                assert_eq!(
                    out.report.messages_delivered, reference.messages_delivered,
                    "{ctx}"
                );
                assert_eq!(out.report.payload_bytes, reference.payload_bytes, "{ctx}");
                assert_eq!(out.report.total_evals, reference.total_evals, "{ctx}");
                assert_eq!(out.report.ticks, reference.ticks, "{ctx}");
                assert_eq!(
                    out.report.reached_threshold_at, reference.reached_threshold_at,
                    "{ctx}"
                );
                assert_eq!(
                    out.report.messages_dropped, reference.messages_dropped,
                    "{ctx}"
                );
                assert_eq!(
                    out.report.final_population, reference.final_population,
                    "{ctx}"
                );
                assert_eq!(
                    out.report.coordination_exchanges, reference.coordination_exchanges,
                    "{ctx}"
                );
                assert_eq!(out.blocked_messages, 0, "{ctx}");
                assert!(!out.poisoned, "{ctx}");
                assert!(!out.report.samples.is_empty(), "the tap is always on");
                assert_eq!(out.report.samples, reference.samples, "{ctx}");
            }
        }
    }

    #[test]
    fn cells_are_deterministic_on_both_kernels() {
        for kernel in ["cycle", "event"] {
            let cell = CellSpec {
                kernel: kernel.into(),
                churn: 0.01,
                loss: 0.1,
                ..small_cell()
            };
            let a = run_cell(&cell).unwrap();
            let b = run_cell(&cell).unwrap();
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap(),
                "{kernel} must be reproducible"
            );
        }
    }

    #[test]
    fn massacre_cuts_the_population() {
        for kernel in ["cycle", "event"] {
            let mut cell = CellSpec {
                kernel: kernel.into(),
                ..small_cell()
            };
            cell.fault.push(FaultSpec {
                kind: "massacre".into(),
                at: 20,
                heal_at: None,
                groups: None,
                join: None,
                kill_frac: Some(0.5),
                node_frac: None,
                lie: None,
            });
            let out = run_cell(&cell).unwrap();
            assert_eq!(
                out.report.final_population, 8,
                "{kernel}: half of 16 nodes must be gone"
            );
            // The tap saw the drop.
            let early = out.report.samples.iter().find(|s| s.tick < 20).unwrap();
            let late = out.report.samples.iter().next_back().unwrap();
            assert_eq!(early.alive, 16);
            assert_eq!(late.alive, 8);
        }
    }

    #[test]
    fn flash_crowd_grows_the_population() {
        for kernel in ["cycle", "event"] {
            let mut cell = CellSpec {
                kernel: kernel.into(),
                ..small_cell()
            };
            cell.fault.push(FaultSpec {
                kind: "flash_crowd".into(),
                at: 30,
                heal_at: None,
                groups: None,
                join: Some(10),
                kill_frac: None,
                node_frac: None,
                lie: None,
            });
            // No churn process: the joiners exist only because the run
            // loop installs the spawner unconditionally.
            assert!(cell.to_dist_spec().unwrap().churn.is_static());
            let out = run_cell(&cell).unwrap();
            assert_eq!(out.report.final_population, 26, "{kernel}: 16 + 10 joiners");
            assert!(
                out.report.total_evals > 16 * cell.budget,
                "{kernel}: joiners must evaluate"
            );
        }
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        for kernel in ["cycle", "event"] {
            let mut cell = CellSpec {
                kernel: kernel.into(),
                topology: "fullmesh".into(),
                ..small_cell()
            };
            cell.fault.push(FaultSpec {
                kind: "partition".into(),
                at: 10,
                heal_at: Some(40),
                groups: Some(vec![(0, 8), (8, 16)]),
                join: None,
                kill_frac: None,
                node_frac: None,
                lie: None,
            });
            let out = run_cell(&cell).unwrap();
            assert!(
                out.blocked_messages > 0,
                "{kernel}: the partition must cut messages (blocked = {})",
                out.blocked_messages
            );
            // The healed network still finished the run.
            assert!(out.report.best_quality.is_finite());
            assert_eq!(out.report.final_population, 16);
        }
    }

    #[test]
    fn corrupt_optimum_poisons_the_network() {
        for kernel in ["cycle", "event"] {
            let mut cell = CellSpec {
                kernel: kernel.into(),
                ..small_cell()
            };
            cell.fault.push(FaultSpec {
                kind: "corrupt_optimum".into(),
                at: 20,
                heal_at: None,
                groups: None,
                join: None,
                kill_frac: None,
                node_frac: Some(0.25),
                lie: Some(-1e9),
            });
            let out = run_cell(&cell).unwrap();
            assert!(out.poisoned, "{kernel}: the lie must surface");
            assert!(out.report.best_quality <= -1e8, "{kernel}: lie dominates");
            // Before the fault the network was honest.
            let early = out.report.samples.iter().find(|s| s.tick < 20).unwrap();
            assert!(early.best_quality >= 0.0, "{kernel}: honest before `at`");
        }
    }

    #[test]
    fn obs_per_kind_wire_sums_match_payload_bytes() {
        // Acceptance identity, churn included: summing the per-kind
        // sent-side bytes and netting off frame savings must reproduce
        // RunReport::payload_bytes exactly on both kernels.
        for kernel in ["cycle", "event"] {
            let cell = CellSpec {
                kernel: kernel.into(),
                churn: 0.02,
                loss: 0.05,
                ..small_cell()
            };
            let (out, snap) = run_cell_obs(&cell).unwrap();
            assert_eq!(
                snap.det.wire_bytes_total() - snap.det.frame_saved_total(),
                out.report.payload_bytes,
                "{kernel}: per-kind rows must sum to the report total"
            );
            assert_eq!(snap.det.wire.len(), KIND_NAMES.len());
            assert_eq!(snap.det.frame_saved.len(), frame_class::COUNT);
            assert!(
                snap.det
                    .trace
                    .windows(2)
                    .all(|w| w[1].quality < w[0].quality),
                "{kernel}: trace qualities must be strictly improving"
            );
            assert_eq!(snap.det.best_quality, out.report.best_quality);
        }
    }

    #[test]
    fn obs_det_snapshot_is_byte_identical_across_runs() {
        let cell = CellSpec {
            churn: 0.01,
            loss: 0.1,
            ..small_cell()
        };
        let (_, a) = run_cell_obs(&cell).unwrap();
        let (_, b) = run_cell_obs(&cell).unwrap();
        assert_eq!(a.det.to_canonical_json(), b.det.to_canonical_json());
        assert!(a.wall.is_none(), "wall plane stays off unless enabled");
    }

    #[test]
    fn obs_counts_scripted_faults_symmetrically() {
        // A massacre plus flash crowd must land in fault_events and the
        // churn counters identically on both kernels.
        let mut dets = Vec::new();
        for kernel in ["cycle", "event"] {
            let mut cell = CellSpec {
                kernel: kernel.into(),
                ..small_cell()
            };
            cell.fault.push(FaultSpec {
                kind: "massacre".into(),
                at: 20,
                heal_at: None,
                groups: None,
                join: None,
                kill_frac: Some(0.5),
                node_frac: None,
                lie: None,
            });
            cell.fault.push(FaultSpec {
                kind: "flash_crowd".into(),
                at: 30,
                heal_at: None,
                groups: None,
                join: Some(10),
                kill_frac: None,
                node_frac: None,
                lie: None,
            });
            let (_, snap) = run_cell_obs(&cell).unwrap();
            dets.push(snap.det);
        }
        for det in &dets {
            assert_eq!(det.fault_events, 8 + 10, "8 crashed + 10 joiners");
            assert_eq!(det.churn_crashes, 8);
            assert_eq!(det.churn_joins, 10);
        }
    }

    #[test]
    fn invalid_cells_are_rejected() {
        let bad = CellSpec {
            kernel: "quantum".into(),
            ..small_cell()
        };
        assert!(run_cell(&bad).is_err());
    }
}

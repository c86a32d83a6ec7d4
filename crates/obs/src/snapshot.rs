//! Deterministic-plane snapshots and the combined [`RunSnapshot`] export.
//!
//! Everything in [`DetSnapshot`] is derived purely from simulation state
//! — counters of simulated events, simulated-tick histograms, and
//! best-improvement trace events. Admission rule: a value may enter this
//! plane only if it is a pure function of the cell spec and seed.
//! Wall-clock readings, thread ids, iteration order of hash maps, and
//! host facts are all banned; they belong in
//! [`crate::wall::WallSnapshot`].
//!
//! To keep serialized snapshots byte-comparable, collection sites emit
//! *every* wire kind and frame class in declaration order even when the
//! count is zero — two runs that differ only in which kinds were
//! exercised still produce structurally identical JSON.

use serde::{Deserialize, Serialize};

use crate::wall::WallSnapshot;

/// Number of log2 buckets in a [`TickHistogram`].
pub const TICK_HIST_BUCKETS: usize = 32;

/// Per-wire-kind message accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRow {
    /// Stable wire-kind name (enum declaration order).
    pub kind: String,
    /// Messages of this kind handed to the kernel for delivery.
    pub sent: u64,
    /// Messages of this kind delivered to a live destination.
    pub delivered: u64,
    /// Sum of `Msg::wire_bytes` over sent messages of this kind.
    pub bytes: u64,
}

/// Wire bytes saved by frame batching, attributed to one batch class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameClassRow {
    /// Batch class name (`coord`, `rumor`, `migrant`, `other`).
    pub class: String,
    /// Bytes the coalesced frame saved versus sending items singly.
    pub bytes_saved: u64,
}

/// One global best-improvement event on the simulated clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated tick at which the improvement was observed.
    pub tick: u64,
    /// Raw id of the node holding the new best.
    pub node: u64,
    /// The improved best quality (lower is better).
    pub quality: f64,
}

/// Log2 histogram over simulated-tick-derived values (e.g. per-sample
/// delivered-message deltas). Deterministic because its inputs are.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickHistogram {
    /// Bucket `i` counts values with `floor(log2(v)) + 1 == i`
    /// (bucket 0 is exactly 0), saturating in the last bucket.
    pub buckets: Vec<u64>,
}

impl TickHistogram {
    /// A fresh histogram with [`TICK_HIST_BUCKETS`] zeroed buckets.
    pub fn new() -> TickHistogram {
        TickHistogram {
            buckets: vec![0; TICK_HIST_BUCKETS],
        }
    }

    /// Count one value.
    pub fn observe(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Total number of observed values.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

impl Default for TickHistogram {
    fn default() -> TickHistogram {
        TickHistogram::new()
    }
}

/// The deterministic plane of one cell run.
///
/// Byte-identical across runs and worker-thread counts for a fixed cell
/// spec + seed; CI diffs serialized copies exactly like
/// fingerprints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetSnapshot {
    /// Snapshot schema tag ([`crate::OBS_SCHEMA`]).
    pub schema: String,
    /// Campaign name the cell belongs to.
    pub campaign: String,
    /// Cell index within the expanded sweep grid.
    pub cell: u64,
    /// Human-readable cell label.
    pub label: String,
    /// Derived per-cell seed.
    pub seed: u64,
    /// Simulated ticks executed.
    pub ticks: u64,
    /// Per-kind wire accounting; all kinds, enum declaration order.
    pub wire: Vec<WireRow>,
    /// Frame-batching savings; all classes, declaration order.
    pub frame_saved: Vec<FrameClassRow>,
    /// Net coordination payload bytes — equals
    /// `Σ wire[k].bytes − Σ frame_saved[c].bytes_saved` and matches
    /// `RunReport::payload_bytes` exactly (churn included).
    pub payload_bytes: u64,
    /// Cycle-kernel phased-merge rounds executed across the run.
    pub merge_rounds: u64,
    /// Fault-schedule events that fired (partitions, heals, massacres…).
    pub fault_events: u64,
    /// Nodes joined by churn or flash-crowd events.
    pub churn_joins: u64,
    /// Nodes crashed by churn or fault events.
    pub churn_crashes: u64,
    /// Log2 histogram of delivered-message deltas between metric samples.
    pub delivered_hist: TickHistogram,
    /// Global best-improvement timeline at metric-sample granularity.
    pub trace: Vec<TraceEvent>,
    /// Final best quality of the run.
    pub best_quality: f64,
}

impl DetSnapshot {
    /// Serialize as canonical pretty JSON with a trailing newline.
    ///
    /// Field order is declaration order and all collections are emitted
    /// in full, so equal snapshots serialize to equal bytes.
    pub fn to_canonical_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("det snapshot serializes");
        text.push('\n');
        text
    }

    /// Sum of sent-side wire bytes across kinds (before frame savings).
    pub fn wire_bytes_total(&self) -> u64 {
        self.wire.iter().map(|row| row.bytes).sum()
    }

    /// Sum of frame-batching savings across classes.
    pub fn frame_saved_total(&self) -> u64 {
        self.frame_saved.iter().map(|row| row.bytes_saved).sum()
    }
}

/// Campaign-level deterministic counters (store interactions are a
/// property of the store state, not of any one cell, so they live here
/// rather than in [`DetSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignObs {
    /// Snapshot schema tag ([`crate::OBS_SCHEMA`]).
    pub schema: String,
    /// Campaign name.
    pub campaign: String,
    /// Number of cells in the expanded grid.
    pub cells: u64,
    /// Cells served from the result store.
    pub store_loaded: u64,
    /// Cells executed this run.
    pub store_executed: u64,
    /// Corrupt store entries recomputed in place.
    pub store_recovered: u64,
}

impl CampaignObs {
    /// Serialize as canonical pretty JSON with a trailing newline.
    pub fn to_canonical_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("campaign obs serializes");
        text.push('\n');
        text
    }
}

/// Both observability planes of one cell run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// Deterministic plane (always present).
    pub det: DetSnapshot,
    /// Wall-clock plane (present only when the recorder was enabled).
    pub wall: Option<WallSnapshot>,
}

impl RunSnapshot {
    /// Render both planes as a Prometheus-style text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let det = &self.det;
        push_meta(&mut out, "gossipopt_wire_sent_total", "counter");
        for row in &det.wire {
            push_kv(
                &mut out,
                "gossipopt_wire_sent_total",
                "kind",
                &row.kind,
                row.sent,
            );
        }
        push_meta(&mut out, "gossipopt_wire_delivered_total", "counter");
        for row in &det.wire {
            push_kv(
                &mut out,
                "gossipopt_wire_delivered_total",
                "kind",
                &row.kind,
                row.delivered,
            );
        }
        push_meta(&mut out, "gossipopt_wire_bytes_total", "counter");
        for row in &det.wire {
            push_kv(
                &mut out,
                "gossipopt_wire_bytes_total",
                "kind",
                &row.kind,
                row.bytes,
            );
        }
        push_meta(&mut out, "gossipopt_frame_bytes_saved_total", "counter");
        for row in &det.frame_saved {
            push_kv(
                &mut out,
                "gossipopt_frame_bytes_saved_total",
                "class",
                &row.class,
                row.bytes_saved,
            );
        }
        push_meta(&mut out, "gossipopt_payload_bytes", "gauge");
        out.push_str(&format!("gossipopt_payload_bytes {}\n", det.payload_bytes));
        push_meta(&mut out, "gossipopt_merge_rounds_total", "counter");
        out.push_str(&format!(
            "gossipopt_merge_rounds_total {}\n",
            det.merge_rounds
        ));
        push_meta(&mut out, "gossipopt_fault_events_total", "counter");
        out.push_str(&format!(
            "gossipopt_fault_events_total {}\n",
            det.fault_events
        ));
        push_meta(&mut out, "gossipopt_churn_joins_total", "counter");
        out.push_str(&format!(
            "gossipopt_churn_joins_total {}\n",
            det.churn_joins
        ));
        push_meta(&mut out, "gossipopt_churn_crashes_total", "counter");
        out.push_str(&format!(
            "gossipopt_churn_crashes_total {}\n",
            det.churn_crashes
        ));
        push_meta(&mut out, "gossipopt_best_quality", "gauge");
        out.push_str(&format!("gossipopt_best_quality {}\n", det.best_quality));
        push_meta(&mut out, "gossipopt_trace_events_total", "counter");
        out.push_str(&format!(
            "gossipopt_trace_events_total {}\n",
            det.trace.len()
        ));
        if let Some(wall) = &self.wall {
            push_meta(&mut out, "gossipopt_phase_samples_total", "counter");
            for row in &wall.phases {
                push_kv(
                    &mut out,
                    "gossipopt_phase_samples_total",
                    "phase",
                    &row.phase,
                    row.count,
                );
            }
            push_meta(&mut out, "gossipopt_phase_ns_total", "counter");
            for row in &wall.phases {
                push_kv(
                    &mut out,
                    "gossipopt_phase_ns_total",
                    "phase",
                    &row.phase,
                    row.total_ns,
                );
            }
            push_meta(&mut out, "gossipopt_rayon_home_runs_total", "counter");
            out.push_str(&format!(
                "gossipopt_rayon_home_runs_total {}\n",
                wall.rayon_home_runs
            ));
            push_meta(&mut out, "gossipopt_rayon_steals_total", "counter");
            out.push_str(&format!(
                "gossipopt_rayon_steals_total {}\n",
                wall.rayon_steals
            ));
        }
        out
    }
}

fn push_meta(out: &mut String, name: &str, kind: &str) {
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

fn push_kv(out: &mut String, name: &str, label: &str, value: &str, count: u64) {
    out.push_str(&format!("{name}{{{label}=\"{value}\"}} {count}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_det() -> DetSnapshot {
        DetSnapshot {
            schema: crate::OBS_SCHEMA.to_string(),
            campaign: "unit".to_string(),
            cell: 3,
            label: "ring/churn=0".to_string(),
            seed: 42,
            ticks: 200,
            wire: vec![
                WireRow {
                    kind: "newscast".to_string(),
                    sent: 10,
                    delivered: 9,
                    bytes: 420,
                },
                WireRow {
                    kind: "coord".to_string(),
                    sent: 5,
                    delivered: 5,
                    bytes: 100,
                },
            ],
            frame_saved: vec![FrameClassRow {
                class: "coord".to_string(),
                bytes_saved: 20,
            }],
            payload_bytes: 500,
            merge_rounds: 12,
            fault_events: 1,
            churn_joins: 2,
            churn_crashes: 3,
            delivered_hist: TickHistogram::new(),
            trace: vec![TraceEvent {
                tick: 10,
                node: 7,
                quality: 1.5,
            }],
            best_quality: 1.5,
        }
    }

    #[test]
    fn tick_histogram_buckets_by_log2() {
        let mut h = TickHistogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(u64::MAX);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[TICK_HIST_BUCKETS - 1], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn det_snapshot_round_trips_and_serializes_stably() {
        let det = sample_det();
        let a = det.to_canonical_json();
        let back: DetSnapshot = serde_json::from_str(&a).unwrap();
        assert_eq!(back, det);
        assert_eq!(back.to_canonical_json(), a);
        assert_eq!(det.wire_bytes_total(), 520);
        assert_eq!(det.frame_saved_total(), 20);
    }

    #[test]
    fn prometheus_export_lists_every_kind_and_phase() {
        let snap = RunSnapshot {
            det: sample_det(),
            wall: Some(crate::wall::WallSnapshot::capture()),
        };
        let text = snap.to_prometheus();
        assert!(text.contains("gossipopt_wire_sent_total{kind=\"newscast\"} 10"));
        assert!(text.contains("gossipopt_wire_bytes_total{kind=\"coord\"} 100"));
        assert!(text.contains("gossipopt_frame_bytes_saved_total{class=\"coord\"} 20"));
        assert!(text.contains("gossipopt_payload_bytes 500"));
        assert!(text.contains("gossipopt_phase_ns_total{phase=\"cycle_merge\"}"));
        assert!(text.contains("gossipopt_rayon_steals_total 0"));
    }

    #[test]
    fn campaign_obs_round_trips() {
        let obs = CampaignObs {
            schema: crate::OBS_SCHEMA.to_string(),
            campaign: "paper_grid".to_string(),
            cells: 12,
            store_loaded: 12,
            store_executed: 0,
            store_recovered: 0,
        };
        let back: CampaignObs = serde_json::from_str(&obs.to_canonical_json()).unwrap();
        assert_eq!(back, obs);
    }
}

//! Campaign runner: execute an expanded grid of cells in parallel and
//! render machine-readable reports.
//!
//! Cells run via the vendored rayon work-stealing executor; each cell is
//! fully self-seeded (see `spec::parse_campaign`), results are assembled
//! in grid order, and no wall-clock data enters the report — so the JSON
//! and CSV outputs are **byte-identical across runs and worker counts**,
//! which the determinism CI job diffs across fresh processes.

use crate::exec::{run_cell, run_cell_obs, CellReport};
use crate::spec::{AssertSpec, CampaignSpec};
use crate::store::{cell_key, Store};
use crate::{Error, Result};
use gossipopt_obs::snapshot::{CampaignObs, RunSnapshot};
use gossipopt_obs::OBS_SCHEMA;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// Report schema identifier; bump when the report shape changes so CI
/// consumers fail loudly instead of misreading fields.
pub const SCHEMA: &str = "gossipopt-campaign/v1";

/// The machine-readable outcome of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Campaign name.
    pub name: String,
    /// Master seed the cells derived theirs from.
    pub seed: u64,
    /// Cell outcomes in grid order.
    pub cells: Vec<CellReport>,
}

/// A store-backed campaign run: the report plus what the store did.
/// `report` is byte-identical whether cells were executed or loaded —
/// only the counters differ between a cold and a warm run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign report (identical to a storeless run's).
    pub report: CampaignReport,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the store.
    pub loaded: usize,
    /// Diagnostics for store entries that were present but unusable
    /// (corrupt / key mismatch) and therefore recomputed and overwritten;
    /// grid order. Each names the offending path and the key components.
    pub recovered: Vec<String>,
}

/// Run every cell of `spec` on up to `threads` workers (1 = sequential).
/// The report is independent of `threads` and of scheduling order.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> Result<CampaignReport> {
    Ok(run_campaign_stored(spec, threads, None)?.report)
}

/// [`run_campaign`] with an optional content-addressed result [`Store`]:
/// cells whose key is already present are loaded instead of simulated
/// (incremental sweeps, crash resume), fresh results are persisted, and
/// unusable entries are recomputed in place (never a campaign abort).
pub fn run_campaign_stored(
    spec: &CampaignSpec,
    threads: usize,
    store: Option<&Store>,
) -> Result<CampaignOutcome> {
    run_campaign_observed(spec, threads, store, None)
}

/// [`run_campaign_stored`] with optional per-cell observability export.
///
/// With `obs_dir = Some(dir)`, every cell writes
/// `dir/cell_<i>/{obs_det.json, obs.prom}` (plus `obs_wall.json` when the
/// wall-clock recorder is enabled), and the campaign writes
/// `dir/campaign_obs_det.json` after the grid completes. Deterministic
/// snapshots of store-loaded cells are copied from the store's sidecars;
/// a stored entry without one is re-executed (and its sidecar persisted)
/// so the export is always complete. The campaign report itself is
/// byte-identical with or without an `obs_dir`.
pub fn run_campaign_observed(
    spec: &CampaignSpec,
    threads: usize,
    store: Option<&Store>,
    obs_dir: Option<&Path>,
) -> Result<CampaignOutcome> {
    let jobs: Vec<usize> = (0..spec.cells.len()).collect();
    // Per cell: (outcome, executed?, recovery diagnostic).
    let outs = rayon::execute_indexed(jobs, threads.max(1), &|i: usize| {
        run_one(spec, i, store, obs_dir)
    });
    let mut cells = Vec::with_capacity(outs.len());
    let (mut executed, mut loaded) = (0usize, 0usize);
    let mut recovered = Vec::new();
    for (i, (out, ran, diag)) in outs.into_iter().enumerate() {
        let mut cell =
            out.map_err(|e| Error::Run(format!("cell {i} ({}): {e}", spec.cells[i].name)))?;
        cell.index = i;
        let asserts = match &cell.cell.assert {
            Some(over) => spec.asserts.overridden_by(over),
            None => spec.asserts.clone(),
        };
        cell.failures = check_asserts(&asserts, &cell);
        cells.push(cell);
        if ran {
            executed += 1;
        } else {
            loaded += 1;
        }
        recovered.extend(diag);
    }
    if let Some(dir) = obs_dir {
        let obs = CampaignObs {
            schema: OBS_SCHEMA.into(),
            campaign: spec.name.clone(),
            cells: spec.cells.len() as u64,
            store_loaded: loaded as u64,
            store_executed: executed as u64,
            store_recovered: recovered.len() as u64,
        };
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(dir.join("campaign_obs_det.json"), obs.to_canonical_json())
            })
            .map_err(|e| Error::Run(format!("obs write {}: {e}", dir.display())))?;
    }
    Ok(CampaignOutcome {
        report: CampaignReport {
            schema: SCHEMA.into(),
            name: spec.name.clone(),
            seed: spec.seed,
            cells,
        },
        executed,
        loaded,
        recovered,
    })
}

/// One campaign cell: load it from the store when its entry is there
/// (and, when exporting to `obs_dir`, its deterministic-snapshot sidecar
/// too), otherwise execute, persist, and export under
/// `obs_dir/cell_<i>/`. Returns the outcome, whether the cell executed,
/// and the diagnostic of an unusable store entry.
fn run_one(
    spec: &CampaignSpec,
    i: usize,
    store: Option<&Store>,
    obs_dir: Option<&Path>,
) -> (Result<CellReport>, bool, Option<String>) {
    let cell = &spec.cells[i];
    let keyed = store.map(|s| (s, cell_key(cell)));
    let mut recovered = None;
    if let Some((store, key)) = &keyed {
        match store.load(key) {
            Ok(Some(entry)) => {
                let Some(obs_dir) = obs_dir else {
                    return (Ok(entry.into_cell_report(cell)), false, None);
                };
                if let Some(mut det) = store.load_obs(key) {
                    det.campaign = spec.name.clone();
                    det.cell = i as u64;
                    let snap = RunSnapshot { det, wall: None };
                    let out =
                        write_cell_obs(obs_dir, i, &snap).map(|()| entry.into_cell_report(cell));
                    return (out, false, None);
                }
                // Entry present but no obs sidecar (written before the
                // observability layer): re-execute to produce one.
            }
            Ok(None) => {}
            Err(e) => recovered = Some(e.to_string()),
        }
    }
    let run = || -> Result<CellReport> {
        let (report, snap) = match obs_dir {
            None => (run_cell(cell)?, None),
            Some(_) => {
                let (report, mut snap) = run_cell_obs(cell)?;
                snap.det.campaign = spec.name.clone();
                snap.det.cell = i as u64;
                (report, Some(snap))
            }
        };
        if let Some((store, key)) = &keyed {
            store
                .save(key, &report)
                .and_then(|()| match &snap {
                    Some(snap) => store.save_obs(key, &snap.det),
                    None => Ok(()),
                })
                .map_err(|e| Error::Run(format!("store save {}: {e}", store.dir(key).display())))?;
        }
        if let (Some(obs_dir), Some(snap)) = (obs_dir, &snap) {
            write_cell_obs(obs_dir, i, snap)?;
        }
        Ok(report)
    };
    (run(), true, recovered)
}

/// Write one cell's observability exports under `dir/cell_<index>/`.
/// `obs_wall.json` appears only when the wall plane was captured, so the
/// deterministic files can be diffed with a bare recursive compare.
fn write_cell_obs(dir: &Path, index: usize, snap: &RunSnapshot) -> Result<()> {
    let cell_dir = dir.join(format!("cell_{index}"));
    std::fs::create_dir_all(&cell_dir)
        .map_err(|e| Error::Run(format!("obs dir {}: {e}", cell_dir.display())))?;
    let write = |name: &str, text: String| {
        std::fs::write(cell_dir.join(name), text)
            .map_err(|e| Error::Run(format!("obs write {}/{name}: {e}", cell_dir.display())))
    };
    write("obs_det.json", snap.det.to_canonical_json())?;
    if let Some(wall) = &snap.wall {
        write("obs_wall.json", wall.to_json())?;
    }
    write("obs.prom", snap.to_prometheus())
}

/// Evaluate the campaign assertions against one cell.
fn check_asserts(asserts: &AssertSpec, cell: &CellReport) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(maxq) = asserts.max_quality {
        // NaN (never produced, but defensive) must count as a failure.
        if cell.report.best_quality > maxq || cell.report.best_quality.is_nan() {
            failures.push(format!(
                "best_quality {:.6e} exceeds max_quality {maxq:.6e}",
                cell.report.best_quality
            ));
        }
    }
    if let Some(minp) = asserts.min_final_population {
        if cell.report.final_population < minp {
            failures.push(format!(
                "final_population {} below min_final_population {minp}",
                cell.report.final_population
            ));
        }
    }
    if let Some(expect) = asserts.expect_poisoned {
        if cell.poisoned != expect {
            failures.push(format!(
                "poisoned = {} but expect_poisoned = {expect}",
                cell.poisoned
            ));
        }
    }
    if let Some(minb) = asserts.min_blocked {
        if cell.blocked_messages < minb {
            failures.push(format!(
                "blocked_messages {} below min_blocked {minb}",
                cell.blocked_messages
            ));
        }
    }
    if let Some(maxt) = asserts.max_ticks {
        if cell.report.ticks > maxt {
            failures.push(format!(
                "ticks {} exceeds max_ticks {maxt}",
                cell.report.ticks
            ));
        }
    }
    if let Some(maxb) = asserts.max_payload_bytes {
        if cell.report.payload_bytes > maxb {
            failures.push(format!(
                "payload_bytes {} exceeds max_payload_bytes {maxb}",
                cell.report.payload_bytes
            ));
        }
    }
    failures
}

impl CampaignReport {
    /// Flattened `label: failure` list over every cell (empty = all pass).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for cell in &self.cells {
            for f in &cell.failures {
                out.push(format!("cell {} [{}]: {f}", cell.index, cell.label));
            }
        }
        out
    }

    /// Pretty JSON (newline-terminated; byte-stable across runs/threads).
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("report serializes");
        text.push('\n');
        text
    }

    /// Parse a report back (schema-checked).
    pub fn from_json(text: &str) -> Result<Self> {
        let report: CampaignReport = serde_json::from_str(text).map_err(|e| Error::Parse(e.0))?;
        if report.schema != SCHEMA {
            return Err(Error::Parse(format!(
                "report schema `{}` != supported `{SCHEMA}`",
                report.schema
            )));
        }
        Ok(report)
    }

    /// One CSV row per cell (byte-stable across runs/threads).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,label,kernel,topology,coordination,function,nodes,churn,loss,seed,\
             quality,value,evals,ticks,reached_at,sent,delivered,dropped,payload_bytes,\
             exchanges,final_population,blocked,poisoned,failures\n",
        );
        for c in &self.cells {
            let r = &c.report;
            // Rows format straight into `out` (writing to a `String`
            // cannot fail).
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{:e},{:e},{},{},{},{},{},{},{},{},{},{},{},{}",
                c.index,
                csv_escape(&c.label),
                c.cell.kernel,
                c.cell.topology,
                c.cell.coordination,
                c.cell.function,
                c.cell.nodes,
                c.cell.churn,
                c.cell.loss,
                c.cell.seed.unwrap_or(0),
                r.best_quality,
                r.best_value,
                r.total_evals,
                r.ticks,
                r.reached_threshold_at
                    .map(|t| t.to_string())
                    .unwrap_or_default(),
                r.messages_sent,
                r.messages_delivered,
                r.messages_dropped,
                r.payload_bytes,
                r.coordination_exchanges,
                r.final_population,
                c.blocked_messages,
                c.poisoned,
                c.failures.len(),
            );
        }
        out
    }

    /// Human summary table (stdout-oriented).
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "campaign {} (seed {}, {} cells)\n{:<4} {:<44} {:>12} {:>7} {:>10} {:>7} {:>8} {:>6}\n",
            self.name,
            self.seed,
            self.cells.len(),
            "#",
            "cell",
            "quality",
            "ticks",
            "delivered",
            "pop",
            "blocked",
            "state"
        );
        for c in &self.cells {
            let label = if c.label.is_empty() {
                c.cell.name.clone()
            } else {
                c.label.clone()
            };
            let label = if label.is_empty() {
                format!("cell-{}", c.index)
            } else {
                label
            };
            let state = if !c.failures.is_empty() {
                "FAIL"
            } else if c.poisoned {
                "poisd"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<4} {:<44} {:>12.4e} {:>7} {:>10} {:>7} {:>8} {:>6}",
                c.index,
                truncate(&label, 44),
                c.report.best_quality,
                c.report.ticks,
                c.report.messages_delivered,
                c.report.final_population,
                c.blocked_messages,
                state
            );
        }
        for f in self.failures() {
            out.push_str(&format!("ASSERT FAIL: {f}\n"));
        }
        out
    }
}

pub(crate) fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(n - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

#![forbid(unsafe_code)]
//! Campaign entrypoint: run a declarative scenario file end to end,
//! render the paper's tables and figures from the result store, or deploy
//! a scenario's cells on the threaded runtime.
//!
//! ```text
//! cargo run --release -p gossipopt_bench --bin campaign -- scenarios/paper_grid.toml
//! cargo run --release -p gossipopt_bench --bin campaign -- report
//! cargo run --release -p gossipopt_bench --bin campaign -- figures
//! cargo run --release -p gossipopt_bench --bin campaign -- deploy cell.toml
//! ```
//!
//! Run mode — `campaign <spec.toml>` plus options:
//!
//! * `--out DIR` — write `<name>.json` and `<name>.csv` reports there
//!   (default `campaign-out`); the JSON/CSV bytes are identical across
//!   runs and `--threads` values, which CI diffs across fresh processes;
//! * `--threads N` — campaign worker threads (default 1; cells are
//!   independently seeded, so N does not affect the report);
//! * `--store DIR` — content-addressed result store (default
//!   `<out>/store`): finished cells are loaded instead of re-simulated,
//!   fresh results are persisted, corrupt entries are recomputed in
//!   place (with a warning naming the offending path and key);
//! * `--no-store` — always simulate, never persist;
//! * `--obs-out DIR` — export observability snapshots: per cell
//!   `DIR/cell_<i>/{obs_det.json, obs.prom}` plus `obs_wall.json`
//!   (the flag switches the wall-clock recorder on), and a campaign-level
//!   `DIR/campaign_obs_det.json`. The deterministic files are
//!   byte-identical across runs and `--threads` — CI diffs them like
//!   fingerprints (report mode nests per campaign: `DIR/<name>/...`);
//! * `--quiet` — suppress the summary table.
//!
//! `campaign trace <dir> [cell]` renders a stored snapshot as a
//! convergence timeline, a per-kind wire table, and (when the wall plane
//! was captured) a phase-timing table. `<dir>` may be a cell directory,
//! an `--obs-out` directory (pick a cell with `[cell]`, default 0), or a
//! store hash directory.
//!
//! `campaign deploy <spec.toml>` (no options) runs every cell of the
//! campaign on the real threaded runtime instead of a simulation kernel:
//! one OS thread per node over the in-process channel transport, `budget`
//! evaluations per node, the cell's resolved seed. It prints one JSON
//! object per cell (`cell`, `label`, `best_quality`, `total_evals`,
//! `messages_sent`, `messages_received`, `decode_errors`, `survivors`,
//! `wall_time_ms`); thread scheduling makes the numbers vary run to run.
//! The `kernel` and `threads` axes do not apply, and `[assert]` bounds are
//! not checked. A cell setting `churn`, `fault` or `stop_at_quality`,
//! which the runtime cannot honour, is refused before anything runs.
//!
//! All stderr narration routes through `gossipopt_obs::log`; set
//! `GOSSIPOPT_LOG=error|warn|info|debug` to filter (default `info`).
//!
//! Report mode — `campaign report [spec.toml ...]` (default: the four
//! committed `scenarios/paper_table{1..4}.toml` campaigns) runs or loads
//! every listed campaign through the store, then renders the paper-style
//! aggregate tables to `<out>/paper_tables.txt` (and stdout) plus one
//! `curves_<name>.csv` of raw convergence samples per campaign — all
//! byte-identical across runs and `--threads`.
//!
//! Figures mode — `campaign figures [spec.toml ...]` (same default
//! campaigns, same store/run path) renders the paper's Figures 1–4 as
//! ASCII plots, followed by the per-function best rows of Tables 1–3, to
//! `<out>/paper_figures.txt` (and stdout) — byte-identical across runs,
//! stores and `--threads`.
//!
//! Exit status: `0` when every cell ran and every `[assert]` bound held;
//! `1` on assertion failures (and failed deployments); `2` on usage/spec
//! errors, refused deploy cells included.

use gossipopt_obs::snapshot::DetSnapshot;
use gossipopt_obs::wall::WallSnapshot;
use gossipopt_obs::{log, wall};
use gossipopt_runtime::{run_cluster, ClusterConfig};
use gossipopt_scenarios::{
    curves_csv, parse_campaign, render_paper_figures, render_paper_tables, run_campaign_observed,
    CampaignOutcome, CampaignSpec, CellSpec, Store,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: campaign <spec.toml> [--out DIR] [--threads N] \
                     [--store DIR | --no-store] [--obs-out DIR] [--quiet]\n       \
                     campaign report [spec.toml ...] [same options]\n       \
                     campaign figures [spec.toml ...] [same options]\n       \
                     campaign trace <dir> [cell]\n       \
                     campaign deploy <spec.toml>";

/// The campaigns `campaign report` and `campaign figures` render when
/// none are listed.
const PAPER_TABLES: [&str; 4] = [
    "scenarios/paper_table1.toml",
    "scenarios/paper_table2.toml",
    "scenarios/paper_table3.toml",
    "scenarios/paper_table4.toml",
];

/// What a run publishes besides the per-campaign JSON/CSV reports.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// One campaign, its summary table on stdout.
    Run,
    /// `campaign report`: the paper-style tables and convergence curves.
    Report,
    /// `campaign figures`: the paper's figures and best rows.
    Figures,
}

struct Args {
    mode: Mode,
    specs: Vec<PathBuf>,
    out: PathBuf,
    store: Option<PathBuf>, // None = --no-store
    obs_out: Option<PathBuf>,
    threads: usize,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut mode = Mode::Run;
    let mut out = PathBuf::from("campaign-out");
    let mut store: Option<PathBuf> = None;
    let mut no_store = false;
    let mut store_explicit = false;
    let mut obs_out: Option<PathBuf> = None;
    let mut threads = 1usize;
    let mut quiet = false;
    let mut first_positional = true;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out requires a directory")?);
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads requires a number")?
                    .parse()
                    .map_err(|_| "--threads requires a number".to_string())?;
            }
            "--store" => {
                store = Some(PathBuf::from(
                    it.next().ok_or("--store requires a directory")?,
                ));
                store_explicit = true;
            }
            "--no-store" => no_store = true,
            "--obs-out" => {
                obs_out = Some(PathBuf::from(
                    it.next().ok_or("--obs-out requires a directory")?,
                ));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            "report" if first_positional => {
                mode = Mode::Report;
                first_positional = false;
            }
            "figures" if first_positional => {
                mode = Mode::Figures;
                first_positional = false;
            }
            other if !other.starts_with('-') => {
                specs.push(PathBuf::from(other));
                first_positional = false;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if no_store && store_explicit {
        return Err("--store and --no-store are mutually exclusive".to_string());
    }
    if mode != Mode::Run && specs.is_empty() {
        specs = PAPER_TABLES.iter().map(PathBuf::from).collect();
    }
    if specs.is_empty() {
        return Err(USAGE.to_string());
    }
    if mode == Mode::Run && specs.len() > 1 {
        return Err("run mode takes exactly one spec (use `report` for several)".to_string());
    }
    let store = if no_store {
        None
    } else {
        Some(store.unwrap_or_else(|| out.join("store")))
    };
    Ok(Args {
        mode,
        specs,
        out,
        store,
        obs_out,
        threads,
        quiet,
    })
}

fn load_spec(path: &Path) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_campaign(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run (or load) one campaign through the optional store, narrating the
/// store's work on stderr. Wall time and store paths never reach the
/// written reports, which stay byte-identical across runs.
fn run_one(
    spec: &CampaignSpec,
    threads: usize,
    store: Option<&Store>,
    obs_dir: Option<&Path>,
) -> Result<CampaignOutcome, String> {
    log::info(&format!(
        "campaign `{}`: {} cells on {} worker thread(s)",
        spec.name,
        spec.cells.len(),
        threads.max(1)
    ));
    let started = std::time::Instant::now();
    let outcome =
        run_campaign_observed(spec, threads, store, obs_dir).map_err(|e| e.to_string())?;
    for warning in &outcome.recovered {
        log::warn(&format!("store: recovered {warning}"));
    }
    if store.is_some() {
        log::info(&format!(
            "store: {} loaded, {} executed",
            outcome.loaded, outcome.executed
        ));
    }
    log::info(&format!("ran in {:.2}s", started.elapsed().as_secs_f64()));
    Ok(outcome)
}

fn write(path: &PathBuf, bytes: &str) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<u8, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let store = match &args.store {
        Some(dir) => Some(
            Store::open(dir.clone())
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?,
        ),
        None => None,
    };

    let mut specs = Vec::new();
    for path in &args.specs {
        specs.push(load_spec(path)?);
    }

    // The wall-clock recorder rides along with the export flag; the
    // deterministic plane is captured (cheaply) either way.
    if args.obs_out.is_some() {
        wall::set_enabled(true);
    }

    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for spec in &specs {
        // Report mode runs several campaigns: nest their exports so
        // `cell_<i>` directories cannot collide.
        let obs_dir = args.obs_out.as_ref().map(|dir| {
            if specs.len() > 1 {
                dir.join(&spec.name)
            } else {
                dir.clone()
            }
        });
        let outcome = run_one(spec, args.threads, store.as_ref(), obs_dir.as_deref())?;
        failures.extend(outcome.report.failures());
        let json_path = args.out.join(format!("{}.json", spec.name));
        let csv_path = args.out.join(format!("{}.csv", spec.name));
        write(&json_path, &outcome.report.to_json())?;
        write(&csv_path, &outcome.report.to_csv())?;
        if !args.quiet && args.mode == Mode::Run {
            print!("{}", outcome.report.to_table());
            println!("report: {} / {}", json_path.display(), csv_path.display());
        }
        reports.push(outcome.report);
    }

    let published = match args.mode {
        Mode::Run => None,
        Mode::Report => {
            for report in &reports {
                let curves_path = args.out.join(format!("curves_{}.csv", report.name));
                write(&curves_path, &curves_csv(report))?;
            }
            Some(("paper_tables.txt", render_paper_tables(&reports)))
        }
        Mode::Figures => Some(("paper_figures.txt", render_paper_figures(&reports))),
    };
    if let Some((file, text)) = published {
        let path = args.out.join(file);
        write(&path, &text)?;
        if !args.quiet {
            print!("{text}");
            println!("report: {}", path.display());
        }
    }

    if failures.is_empty() {
        Ok(0)
    } else {
        log::error(&format!("{} assertion failure(s)", failures.len()));
        Ok(1)
    }
}

/// The first cell field the threaded runtime cannot honour, if any.
fn undeployable(cell: &CellSpec) -> Option<&'static str> {
    if cell.churn > 0.0 {
        Some("churn")
    } else if !cell.fault.is_empty() {
        Some("fault")
    } else if cell.stop_at_quality.is_some() {
        Some("stop_at_quality")
    } else {
        None
    }
}

/// `campaign deploy <spec.toml>`: run every cell on the threaded runtime
/// and print one JSON object per cell. Returns the exit code: `1` when a
/// deployment fails; a refused cell is an `Err` (exit 2) before any runs.
fn run_deploy(args: &[String]) -> Result<u8, String> {
    let [path] = args else {
        return Err("usage: campaign deploy <spec.toml>".to_string());
    };
    let spec = load_spec(Path::new(path))?;
    let mut configs = Vec::with_capacity(spec.cells.len());
    for (index, cell) in spec.cells.iter().enumerate() {
        if let Some(field) = undeployable(cell) {
            return Err(format!(
                "{path}: cell {index} sets `{field}`, which the threaded runtime cannot honour"
            ));
        }
        let dist = cell
            .to_dist_spec()
            .map_err(|e| format!("{path}: cell {index}: {e}"))?;
        let mut cfg = ClusterConfig::new(dist, &cell.function);
        cfg.budget_per_node = cell.budget;
        cfg.seed = cell.resolved_seed();
        configs.push(cfg);
    }
    for (index, (cell, cfg)) in spec.cells.iter().zip(&configs).enumerate() {
        let report = match run_cluster(cfg) {
            Ok(report) => report,
            Err(e) => {
                log::error(&format!("cell {index}: {e}"));
                return Ok(1);
            }
        };
        let out = serde_json::json!({
            "cell": index,
            "label": cell.name,
            "best_quality": report.best_quality,
            "total_evals": report.total_evals,
            "messages_sent": report.messages_sent,
            "messages_received": report.messages_received,
            "decode_errors": report.decode_errors,
            "survivors": report.survivors,
            "wall_time_ms": report.wall_time.as_millis() as u64,
        });
        println!("{}", serde_json::to_string(&out).expect("serializes"));
    }
    Ok(0)
}

/// Resolve the directory holding `obs_det.json` for `campaign trace`:
/// a cell/store-hash directory directly, or an `--obs-out` directory
/// with `cell_<index>` children.
fn resolve_trace_dir(dir: &Path, index: usize) -> Result<PathBuf, String> {
    if dir.join("obs_det.json").is_file() {
        return Ok(dir.to_path_buf());
    }
    let nested = dir.join(format!("cell_{index}"));
    if nested.join("obs_det.json").is_file() {
        return Ok(nested);
    }
    Err(format!(
        "no obs_det.json under {} (or its cell_{index}/) — export one with --obs-out",
        dir.display()
    ))
}

/// `campaign trace <dir> [cell]`: render a stored snapshot for humans.
fn run_trace(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .map(PathBuf::from)
        .ok_or("usage: campaign trace <dir> [cell]")?;
    let index: usize = match args.get(1) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("cell index must be a number, got `{text}`"))?,
        None => 0,
    };
    if args.len() > 2 {
        return Err("usage: campaign trace <dir> [cell]".to_string());
    }
    let cell_dir = resolve_trace_dir(&dir, index)?;
    let det_path = cell_dir.join("obs_det.json");
    let text = std::fs::read_to_string(&det_path)
        .map_err(|e| format!("cannot read {}: {e}", det_path.display()))?;
    let det: DetSnapshot = serde_json::from_str(&text)
        .map_err(|e| format!("corrupt {}: {}", det_path.display(), e.0))?;
    let wall = std::fs::read_to_string(cell_dir.join("obs_wall.json"))
        .ok()
        .and_then(|text| serde_json::from_str::<WallSnapshot>(&text).ok());
    print!("{}", render_trace(&det, wall.as_ref()));
    Ok(())
}

/// The `campaign trace` rendering: convergence timeline, per-kind wire
/// table, and the phase-timing table when the wall plane was captured.
fn render_trace(det: &DetSnapshot, wall: Option<&WallSnapshot>) -> String {
    let campaign = if det.campaign.is_empty() {
        "<none>".to_string()
    } else {
        format!("`{}`", det.campaign)
    };
    let mut out = format!(
        "cell {} `{}` (campaign {campaign}, seed {}, {} ticks)\n\n",
        det.cell, det.label, det.seed, det.ticks
    );

    out.push_str("convergence timeline:\n");
    out.push_str(&format!(
        "  {:>8} {:>8} {:>14}\n",
        "tick", "node", "quality"
    ));
    if det.trace.is_empty() {
        out.push_str("  (no improvement events recorded)\n");
    }
    for ev in &det.trace {
        out.push_str(&format!(
            "  {:>8} {:>8} {:>14.6e}\n",
            ev.tick, ev.node, ev.quality
        ));
    }
    out.push_str(&format!("  final best quality: {:e}\n\n", det.best_quality));

    out.push_str("wire accounting:\n");
    out.push_str(&format!(
        "  {:<16} {:>10} {:>10} {:>12}\n",
        "kind", "sent", "delivered", "bytes"
    ));
    for row in &det.wire {
        if row.sent == 0 && row.delivered == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<16} {:>10} {:>10} {:>12}\n",
            row.kind, row.sent, row.delivered, row.bytes
        ));
    }
    for row in &det.frame_saved {
        if row.bytes_saved > 0 {
            out.push_str(&format!(
                "  frame savings [{}]: {} bytes\n",
                row.class, row.bytes_saved
            ));
        }
    }
    out.push_str(&format!(
        "  payload bytes: {} (wire {} − saved {})\n",
        det.payload_bytes,
        det.wire_bytes_total(),
        det.frame_saved_total()
    ));
    out.push_str(&format!(
        "  merge rounds: {}, fault events: {}, churn: +{} −{}\n\n",
        det.merge_rounds, det.fault_events, det.churn_joins, det.churn_crashes
    ));

    out.push_str("phase timing:\n");
    match wall {
        None => out.push_str("  wall plane: disabled (export with --obs-out to capture)\n"),
        Some(wall) => {
            out.push_str(&format!(
                "  {:<16} {:>10} {:>12} {:>12}\n",
                "phase", "count", "total_ms", "mean_us"
            ));
            for row in &wall.phases {
                let total_ms = row.total_ns as f64 / 1e6;
                let mean_us = if row.count == 0 {
                    0.0
                } else {
                    row.total_ns as f64 / row.count as f64 / 1e3
                };
                out.push_str(&format!(
                    "  {:<16} {:>10} {:>12.3} {:>12.3}\n",
                    row.phase, row.count, total_ms, mean_us
                ));
            }
            out.push_str(&format!(
                "  rayon: {} home runs, {} steals\n",
                wall.rayon_home_runs, wall.rayon_steals
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    // `campaign trace <dir> [cell]` and `campaign deploy <spec.toml>`
    // take their own arguments.
    let rest = || std::env::args().skip(2).collect::<Vec<String>>();
    let sub = match std::env::args().nth(1).as_deref() {
        Some("trace") => Some(run_trace(&rest()).map(|()| 0)),
        Some("deploy") => Some(run_deploy(&rest())),
        _ => None,
    };
    if let Some(result) = sub {
        return match result {
            Ok(code) => ExitCode::from(code),
            Err(msg) => {
                log::error(&msg);
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            log::error(&msg);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            log::error(&msg);
            ExitCode::from(2)
        }
    }
}

//! The five campaign-shaped workloads. All of them are "a researcher
//! runs campaign files and waits for the report"; they differ in which
//! files, whether a result store sits underneath, and whether it is
//! cold or warm.

use crate::gen::{self, Scale};
use crate::stats::{available_cores, Digest};
use crate::trace::{Kind, Trace};
use crate::workload::{Layers, Rep, WorkUnit, Workload};
use gossipopt::core::experiment::{Budget, NodeRecipe, TopologyKind};
use gossipopt::gossip::topology;
use gossipopt::gossip::view::{Descriptor, PartialView};
use gossipopt::obs::snapshot::RunSnapshot;
use gossipopt::obs::wall::{self, WallSnapshot};
use gossipopt::scenarios::{
    cell_key, curves_csv, parse_campaign, render_paper_tables, render_table, run_campaign,
    run_campaign_stored, run_cell_obs, CampaignReport, CampaignSpec, CellReport, CellSpec, Store,
};
use gossipopt::sim::NodeId;
use gossipopt::solvers::solver_by_name;
use gossipopt::util::{Rng64, Xoshiro256pp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    PaperTables,
    WireHubs,
    ScaleDpso,
    StoreCold,
    StoreWarm,
}

/// Warm passes over the populated store per repetition: one pass is
/// too short to time.
const WARM_PASSES: usize = 16;

pub struct Campaign {
    kind: CampaignKind,
    /// The generated campaign files (TOML text).
    inputs: Vec<String>,
    /// Directory this workload's stores live under.
    store_root: PathBuf,
    reps_done: usize,
    /// `StoreWarm`: the report of the pass that populated the store;
    /// every warm pass must render the same bytes.
    cold_json: Option<String>,
}

impl Campaign {
    /// Generate the inputs and prepare what the timed section takes as
    /// given (for `StoreWarm`, a populated store).
    pub fn prepare(kind: CampaignKind, seed: u64, scale: Scale, out_dir: &Path) -> Campaign {
        let (inputs, dir) = match kind {
            CampaignKind::PaperTables => (gen::paper_tables(seed, scale), "paper_tables"),
            CampaignKind::WireHubs => (gen::wire_hubs(seed, scale), "wire_hubs"),
            CampaignKind::ScaleDpso => (gen::scale_dpso(seed, scale), "scale_dpso"),
            CampaignKind::StoreCold => (gen::store_grid(seed, scale), "store_cold"),
            CampaignKind::StoreWarm => (gen::store_grid(seed, scale), "store_warm"),
        };
        // Stores are written under a name no earlier run used and are
        // never removed by the benchmark: on the sandbox's journal-less
        // ext4, inodes freed in the last minutes are skipped one by one
        // by every later allocation, so deleting a store slows the next
        // cold pass threefold (README, "Result stores are left behind").
        let unique = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let store_root = out_dir
            .join("store")
            .join(format!("{dir}-{}-{unique}", std::process::id()));
        let mut this = Campaign {
            kind,
            inputs,
            store_root,
            reps_done: 0,
            cold_json: None,
        };
        if kind == CampaignKind::StoreWarm {
            let spec = parse_campaign(&this.inputs[0]).expect("generated campaign parses");
            let store = Store::open(this.warm_store()).expect("store directory is writable");
            let outcome = run_campaign_stored(&spec, 1, Some(&store)).expect("cold pass runs");
            assert_eq!(outcome.executed, spec.cells.len(), "store started empty");
            this.cold_json = Some(outcome.report.to_json());
        }
        this
    }

    fn warm_store(&self) -> PathBuf {
        self.store_root.join("warm")
    }

    fn cold_store(&self) -> PathBuf {
        self.store_root.join(format!("pass{}", self.reps_done))
    }

    /// Run one campaign file's cells, through the library's own runner
    /// (untraced) or the decomposed loop (traced).
    fn run_cells(
        &self,
        spec: &CampaignSpec,
        tr: &mut Trace,
        rep: &mut Rep,
        dets: &mut DetTotals,
    ) -> Option<CampaignReport> {
        let cells = spec.cells.len();
        let store = match self.kind {
            CampaignKind::StoreCold => Some(self.cold_store()),
            CampaignKind::StoreWarm => Some(self.warm_store()),
            _ => None,
        }
        .map(|dir| Store::open(dir).expect("store directory is writable"));
        let passes = if self.kind == CampaignKind::StoreWarm {
            WARM_PASSES
        } else {
            1
        };
        let mut report = None;
        for _ in 0..passes {
            rep.attempted += cells as u64;
            rep.cells += cells as u64;
            let outcome = if tr.enabled() {
                run_cells_traced(spec, store.as_ref(), tr, dets)
            } else if let Some(store) = &store {
                run_campaign_stored(spec, 1, Some(store))
                    .map(|o| (o.report, o.executed))
                    .map_err(|e| e.to_string())
            } else {
                run_campaign(spec, 1)
                    .map(|r| (r, cells))
                    .map_err(|e| e.to_string())
            };
            let (r, executed) = match outcome {
                Ok(done) => done,
                Err(e) => {
                    // The runner aborts the campaign on the first cell
                    // error; every cell of it counts as failed.
                    rep.failures
                        .extend((0..cells).map(|_| format!("{}: {e}", spec.name)));
                    return None;
                }
            };
            let expect_executed = if self.kind == CampaignKind::StoreWarm {
                0
            } else {
                cells
            };
            if executed != expect_executed {
                rep.failures.push(format!(
                    "{}: {executed} cells executed, expected {expect_executed}",
                    spec.name
                ));
            }
            report = Some(r);
        }
        report
    }
}

/// Sums over the deterministic snapshots of the cells a traced
/// repetition executed.
#[derive(Default)]
struct DetTotals {
    wire_bytes: u64,
    frame_saved: u64,
    merge_rounds: u64,
    churn_joins: u64,
    churn_crashes: u64,
    lookups: u64,
    hits: u64,
    recovered: u64,
    saves: u64,
    /// Raw `obs::wall` totals `(ns, count)`, in `Phase::ALL` order, plus
    /// the rayon shim's `(home runs, steals)`.
    wall_ns: [(u64, u64); wall::PHASE_COUNT],
    rayon: (u64, u64),
    /// `(seconds inside run_cell, node-ticks)` per kernel execution path.
    legs: BTreeMap<&'static str, (f64, u64)>,
}

/// The kernel execution path a cell runs on.
fn leg_name(cell: &CellSpec) -> &'static str {
    match (cell.kernel.as_str(), cell.threads) {
        ("cycle", 0) => "sim.cycle.legacy",
        ("cycle", _) => "sim.cycle.phased",
        (_, 0) => "sim.event.seq",
        _ => "sim.event.sharded",
    }
}

/// Trace and metric names of the `obs::wall` phases, in `Phase::ALL`
/// order.
pub const WALL_PHASES: [&str; wall::PHASE_COUNT] = [
    "sim.cycle.callback",
    "sim.cycle.merge",
    "sim.cycle.dispatch",
    "sim.event.dispatch",
    "solvers.step",
    "functions.eval",
];

/// Hang the wall recorder's totals for one cell under its `run_cell`
/// span. Kernel phases are intervals on the engine thread and nest
/// directly; solver step (and the evaluation inside it) is recorded on
/// the worker threads, so its thread-summed total is divided by the
/// worker count before it is nested under the phase that called it.
fn attach_wall(
    tr: &mut Trace,
    cell_span: u32,
    wall: &WallSnapshot,
    workers: u64,
    dets: &mut DetTotals,
) {
    let row = |i: usize| (wall.phases[i].total_ns, wall.phases[i].count);
    for (i, total) in dets.wall_ns.iter_mut().enumerate() {
        total.0 += row(i).0;
        total.1 += row(i).1;
    }
    dets.rayon.0 += wall.rayon_home_runs;
    dets.rayon.1 += wall.rayon_steals;
    let mut kernel = [None; 4];
    for (i, slot) in kernel.iter_mut().enumerate() {
        let (ns, count) = row(i);
        if count > 0 {
            *slot = Some(tr.aggregate(cell_span, WALL_PHASES[i], ns, count));
        }
    }
    // on_tick runs in the cycle callback phase or in event dispatch; on
    // the legacy sequential paths neither is recorded.
    let caller = kernel[0].or(kernel[3]).unwrap_or(cell_span);
    let (step_ns, step_count) = row(4);
    let (eval_ns, eval_count) = row(5);
    let step = if step_count > 0 {
        tr.aggregate(caller, WALL_PHASES[4], step_ns / workers, step_count)
    } else {
        caller
    };
    if eval_count > 0 {
        tr.aggregate(step, WALL_PHASES[5], eval_ns / workers, eval_count);
    }
}

/// The campaign loop spelled out in the public calls it is made of —
/// `cell_key` → `Store::load` → `run_cell_obs` → `Store::save` — with a
/// span around each. Returns the report and how many cells executed.
fn run_cells_traced(
    spec: &CampaignSpec,
    store: Option<&Store>,
    tr: &mut Trace,
    dets: &mut DetTotals,
) -> Result<(CampaignReport, usize), String> {
    let mut cells: Vec<CellReport> = Vec::with_capacity(spec.cells.len());
    let mut executed = 0;
    for (i, cell) in spec.cells.iter().enumerate() {
        let key = store.map(|_| tr.span(Kind::Layer, "scenarios.store.key", |_| cell_key(cell)));
        let mut loaded = None;
        if let (Some(store), Some(key)) = (store, &key) {
            dets.lookups += 1;
            match tr.span(Kind::Layer, "scenarios.store.load", |_| store.load(key)) {
                Ok(Some(entry)) => {
                    dets.hits += 1;
                    loaded = Some(entry.into_cell_report(cell));
                }
                Ok(None) => {}
                Err(_) => dets.recovered += 1,
            }
        }
        let mut report = match loaded {
            Some(report) => report,
            None => {
                let (report, snap) = tr
                    .span(Kind::Container, "scenarios.exec.run_cell", |_| {
                        run_cell_obs(cell)
                    })
                    .map_err(|e| format!("cell {i} ({}): {e}", cell.name))?;
                executed += 1;
                if let (Some(span), Some(wall)) = (tr.last_closed(), &snap.wall) {
                    let workers = (cell.threads as u64).clamp(1, available_cores());
                    attach_wall(tr, span, wall, workers, dets);
                    let leg = dets.legs.entry(leg_name(cell)).or_default();
                    leg.0 += tr.spans()[span as usize].dur_ns() as f64 * 1e-9;
                    leg.1 += report.report.total_evals;
                }
                if let (Some(store), Some(key)) = (store, &key) {
                    tr.span(Kind::Layer, "scenarios.store.save", |_| {
                        store.save(key, &report)
                    })
                    .map_err(|e| format!("store save {}: {e}", store.dir(key).display()))?;
                    dets.saves += 1;
                }
                export_det(tr, &snap);
                dets.wire_bytes += snap.det.wire_bytes_total();
                dets.frame_saved += snap.det.frame_saved_total();
                dets.merge_rounds += snap.det.merge_rounds;
                dets.churn_joins += snap.det.churn_joins;
                dets.churn_crashes += snap.det.churn_crashes;
                report
            }
        };
        report.index = i;
        cells.push(report);
    }
    Ok((
        CampaignReport {
            schema: gossipopt::scenarios::SCHEMA.into(),
            name: spec.name.clone(),
            seed: spec.seed,
            cells,
        },
        executed,
    ))
}

/// What `campaign --obs-out` renders per cell.
fn export_det(tr: &mut Trace, snap: &RunSnapshot) {
    tr.span(Kind::Layer, "obs.det_export", |_| {
        black_box(snap.det.to_canonical_json());
        black_box(snap.to_prometheus());
    });
}

fn digest_cells(d: &mut Digest, report: &CampaignReport) {
    for c in &report.cells {
        let r = &c.report;
        d.f64(r.best_quality);
        d.f64(r.best_value);
        for word in [
            r.total_evals,
            r.ticks,
            r.reached_threshold_at.map_or(u64::MAX, |t| t),
            r.coordination_exchanges,
            r.payload_bytes,
            r.messages_sent,
            r.messages_delivered,
            r.messages_dropped,
            r.final_population as u64,
        ] {
            d.u64(word);
        }
    }
}

impl Workload for Campaign {
    fn unit(&self) -> WorkUnit {
        match self.kind {
            CampaignKind::StoreCold | CampaignKind::StoreWarm => WorkUnit::Cells,
            _ => WorkUnit::NodeTicks,
        }
    }

    fn rep(&mut self, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let mut dets = DetTotals::default();
        let mut digest = Digest::default();
        let mut reports = Vec::with_capacity(self.inputs.len());
        let mut spec_cells = 0;
        // The library's recorder is process-global and this harness is
        // its only user: on for traced repetitions, off for the others.
        wall::set_enabled(tr.enabled());
        tr.span(Kind::Container, "rep", |tr| {
            for input in &self.inputs {
                let spec = match tr.span(Kind::Layer, "scenarios.spec.parse", |_| {
                    parse_campaign(input)
                }) {
                    Ok(spec) => spec,
                    Err(e) => {
                        rep.attempted += 1;
                        rep.failures.push(format!("parse: {e}"));
                        continue;
                    }
                };
                spec_cells += spec.cells.len();
                if let Some(report) = self.run_cells(&spec, tr, &mut rep, &mut dets) {
                    reports.push(report);
                }
            }
            let rendered = tr.span(Kind::Layer, "scenarios.report.render", |_| {
                let mut out = Vec::new();
                if self.kind == CampaignKind::PaperTables {
                    out.push(render_paper_tables(&reports));
                    out.extend(reports.iter().map(curves_csv));
                } else {
                    for r in &reports {
                        out.extend([r.to_json(), r.to_csv(), r.to_table()]);
                        if self.kind == CampaignKind::StoreWarm {
                            out.push(render_table(r));
                        }
                    }
                }
                out
            });
            if let (Some(cold), Some(warm)) = (&self.cold_json, rendered.first()) {
                if cold != warm {
                    rep.failures
                        .push("warm report differs from the cold pass's".into());
                }
            }
            let bytes: usize = rendered.iter().map(String::len).sum();
            rep.counts.insert("scenarios.report.bytes", bytes as f64);
            for text in &rendered {
                digest.bytes(text.as_bytes());
            }
        });

        // A warm pass loads finished cells: no node ticked, nothing was
        // sent, so the simulation counts stay zero there.
        let simulated = self.kind != CampaignKind::StoreWarm;
        let mut hits = (0u64, 0u64);
        for report in &reports {
            digest_cells(&mut digest, report);
            rep.failures.extend(report.failures());
            for c in report.cells.iter().filter(|_| simulated) {
                let r = &c.report;
                rep.node_ticks += r.total_evals;
                rep.msgs += r.messages_delivered;
                rep.payload_bytes += r.payload_bytes;
                *rep.counts.entry("core.exchanges").or_default() += r.coordination_exchanges as f64;
                *rep.counts.entry("core.msgs.sent").or_default() += r.messages_sent as f64;
                if c.cell.stop_at_quality.is_some() && r.reached_threshold_at.is_some() {
                    hits = (hits.0 + r.total_evals, hits.1 + 1);
                }
            }
        }
        rep.digest = digest.value();
        let c = &mut rep.counts;
        c.insert("scenarios.spec.cells", spec_cells as f64);
        if simulated {
            c.insert("core.evals", rep.node_ticks as f64);
            c.insert("core.msgs.delivered", rep.msgs as f64);
        }
        if hits.1 > 0 {
            c.insert(
                "core.evals_to_threshold.table4",
                hits.0 as f64 / hits.1 as f64,
            );
        }
        if tr.enabled() {
            if dets.lookups > 0 {
                c.insert("scenarios.store.save_count", dets.saves as f64);
                c.insert("scenarios.store.load_count", dets.lookups as f64);
                c.insert(
                    "scenarios.store.hit_share",
                    dets.hits as f64 / dets.lookups as f64,
                );
                c.insert("scenarios.store.recovered", dets.recovered as f64);
            }
            if simulated {
                c.insert("core.wire.bytes", dets.wire_bytes as f64);
                c.insert("core.wire.frame_saved_bytes", dets.frame_saved as f64);
                c.insert(
                    "core.wire.coalesce_ratio",
                    rep.payload_bytes as f64 / dets.wire_bytes.max(1) as f64,
                );
                c.insert("sim.cycle.merge_rounds", dets.merge_rounds as f64);
                c.insert("sim.churn.joins", dets.churn_joins as f64);
                c.insert("sim.churn.crashes", dets.churn_crashes as f64);
            }
            for (name, (ns, count)) in WALL_PHASES.iter().zip(dets.wall_ns) {
                rep.wall.insert(name, (ns as f64 * 1e-9, count));
            }
            rep.rayon = dets.rayon;
            rep.legs = dets.legs;
        }
        rep
    }

    fn between_reps(&mut self, counts: &mut Layers) {
        if self.kind == CampaignKind::StoreCold {
            counts
                .entry("scenarios.store.bytes_written")
                .or_insert_with(|| dir_bytes(&self.cold_store()) as f64);
        }
        self.reps_done += 1;
    }

    fn probes(&self, layers: &mut Layers) {
        let specs: Vec<CampaignSpec> = self
            .inputs
            .iter()
            .filter_map(|toml| parse_campaign(toml).ok())
            .collect();
        let cells: Vec<&CellSpec> = specs.iter().flat_map(|s| &s.cells).collect();
        if self.kind != CampaignKind::StoreWarm {
            probe_recipe(&cells, layers);
            probe_topology(&cells, layers);
            probe_solver(cells[0], layers);
        }
        if cells.iter().any(|c| c.topology == "newscast") {
            layers.insert("gossip.newscast.exchange_ns", newscast_exchange_ns());
        }
    }
}

/// Bytes under `dir` (entry + samples files of every stored cell).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `NodeRecipe::new` and `build(i)` replayed standalone for every cell:
/// the construction cost `run_cell` pays inside its (dark) span.
fn probe_recipe(cells: &[&CellSpec], layers: &mut Layers) {
    let (mut new_s, mut build_s, mut nodes) = (0.0, 0.0, 0u64);
    for cell in cells {
        let spec = cell.to_dist_spec().expect("validated cell");
        let objective: Arc<dyn gossipopt::functions::Objective> = Arc::from(
            gossipopt::functions::by_name(&cell.function, cell.dim).expect("validated function"),
        );
        let t0 = Instant::now();
        let recipe = NodeRecipe::new(
            &spec,
            objective,
            Budget::PerNode(cell.budget),
            cell.resolved_seed(),
        )
        .expect("validated spec");
        new_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let built: Vec<_> = (0..cell.nodes)
            .map(|i| recipe.build(i).expect("recipe builds"))
            .collect();
        build_s += t0.elapsed().as_secs_f64();
        nodes += black_box(built).len() as u64;
    }
    layers.insert("core.recipe.new_s", new_s);
    layers.insert("core.recipe.build_s", build_s);
    layers.insert("core.recipe.nodes", nodes as f64);
}

/// The static overlay builders behind the cells' topologies, called
/// directly (`NodeRecipe::new` runs them inside its own time).
fn probe_topology(cells: &[&CellSpec], layers: &mut Layers) {
    let mut total = 0.0;
    for cell in cells {
        let n = cell.nodes;
        let mut rng = Xoshiro256pp::seeded(cell.resolved_seed());
        let t0 = Instant::now();
        match cell.topology_kind().expect("validated topology") {
            TopologyKind::Star => drop(black_box(topology::star(n))),
            TopologyKind::Ring => drop(black_box(topology::ring(n))),
            TopologyKind::KOutRegular(k) => {
                drop(black_box(topology::k_out_regular(n, k, &mut rng)))
            }
            TopologyKind::TwoLevelHierarchy { degree } => {
                drop(black_box(topology::two_level_auto(n, degree)))
            }
            // NEWSCAST builds no static overlay; the remaining kinds are
            // not used by any workload.
            _ => continue,
        }
        total += t0.elapsed().as_secs_f64();
    }
    layers.insert("gossip.topology.build_s", total);
}

/// One objective evaluation and one PSO step on the workload's own
/// function, dimensionality and swarm size.
fn probe_solver(cell: &CellSpec, layers: &mut Layers) {
    const POINTS: usize = 4096;
    const ROUNDS: usize = 50;
    let f = gossipopt::functions::by_name(&cell.function, cell.dim).expect("validated function");
    let mut rng = Xoshiro256pp::seeded(cell.resolved_seed());
    let (lo, hi) = f.bounds(0);
    let xs: Vec<f64> = (0..POINTS * cell.dim)
        .map(|_| rng.range_f64(lo, hi))
        .collect();
    let mut out = vec![0.0; POINTS];
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        f.eval_batch(black_box(&xs), cell.dim, &mut out);
        black_box(&mut out);
    }
    let eval_ns = t0.elapsed().as_nanos() as f64 / (POINTS * ROUNDS) as f64;
    layers.insert("functions.eval_ns_per_point", eval_ns);

    const STEPS: usize = 200_000;
    let mut solver = solver_by_name(&cell.solver, cell.particles).expect("validated solver");
    let t0 = Instant::now();
    for _ in 0..STEPS {
        solver.step(f.as_ref(), &mut rng);
    }
    black_box(solver.best());
    layers.insert(
        "solvers.pso_step_ns",
        t0.elapsed().as_nanos() as f64 / STEPS as f64,
    );
}

/// One NEWSCAST exchange: merging a peer's 20-descriptor view into a
/// full 20-descriptor view.
fn newscast_exchange_ns() -> f64 {
    const VIEW: usize = 20;
    const ROUNDS: usize = 20_000;
    let mut rng = Xoshiro256pp::seeded(0x4e57);
    let descriptors = |rng: &mut Xoshiro256pp| -> Vec<Descriptor> {
        (0..VIEW)
            .map(|_| Descriptor {
                id: NodeId(rng.below(4 * VIEW as u64)),
                stamp: rng.below(64),
            })
            .collect()
    };
    let mut view = PartialView::new(VIEW);
    view.merge_from(descriptors(&mut rng), None, &mut rng);
    let incoming: Vec<Vec<Descriptor>> = (0..64).map(|_| descriptors(&mut rng)).collect();
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        view.merge_from(
            incoming[round % incoming.len()].iter().copied(),
            None,
            &mut rng,
        );
    }
    black_box(view.len());
    t0.elapsed().as_nanos() as f64 / ROUNDS as f64
}

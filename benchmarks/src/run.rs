//! One workload, one process: set-up, the timed repetitions, the
//! correctness gate, and the metrics derived from them.

use crate::campaign::{Campaign, CampaignKind, WALL_PHASES};
use crate::codec::Codec;
use crate::gen::Scale;
use crate::gossip::{Gossip, LEGS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{self, available_cores, median, percentile, summarize, Summary};
use crate::trace::{self, Span, Trace};
use crate::workload::{Layers, Rep, Workload};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. Five, because
/// with three a single run's `setup_s` on `scale_dpso` (first touch of
/// ~180 MB per set-up) moved by 35 % between two runs of one build.
const SETUPS: usize = 5;
/// Fewest timed repetitions (or untraced/traced pairs) in a run, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;

pub struct RunConfig<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: &'a Path,
}

/// Everything one run measured.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub scale: Scale,
    pub unit: &'static str,
    pub sim_digest: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub wall: Summary,
    /// Wall time of every untraced timed repetition, in run order.
    pub rep_s: Vec<f64>,
    pub setup: Summary,
    /// `name -> value`; a name absent here is not defined on this
    /// workload (printed as n/a, emitted as 0).
    pub metrics: BTreeMap<&'static str, f64>,
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn prepare(cfg: &RunConfig<'_>) -> Option<Box<dyn Workload>> {
    let campaign = |kind| -> Option<Box<dyn Workload>> {
        Some(Box::new(Campaign::prepare(
            kind,
            cfg.seed,
            cfg.scale,
            cfg.out_dir,
        )))
    };
    match cfg.workload {
        "paper_tables" => campaign(CampaignKind::PaperTables),
        "wire_hubs" => campaign(CampaignKind::WireHubs),
        "scale_dpso" => campaign(CampaignKind::ScaleDpso),
        "store_cold" => campaign(CampaignKind::StoreCold),
        "store_warm" => campaign(CampaignKind::StoreWarm),
        "gossip_kernel" => Some(Box::new(Gossip::prepare(cfg.seed, cfg.scale))),
        "wire_codec" => Some(Box::new(Codec::prepare(cfg.seed, cfg.scale))),
        _ => None,
    }
}

/// Fold one repetition into the run's totals; the first one sets the
/// reference every later one must reproduce.
struct Gate {
    reference: Option<Rep>,
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    fn admit(&mut self, rep: &Rep, what: &str) {
        self.attempted += rep.attempted;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{what}: {f}")));
        match &self.reference {
            None => self.reference = Some(rep.clone()),
            Some(first) => {
                if first.digest != rep.digest {
                    self.attempted += 1;
                    self.failures.push(format!(
                        "{what}: sim_digest {:016x} differs from the first repetition's {:016x}",
                        rep.digest, first.digest
                    ));
                }
            }
        }
    }
}

/// Run `cfg.workload`; `None` if there is no such workload.
pub fn run(cfg: &RunConfig<'_>) -> Option<Outcome> {
    let off = &mut Trace::new(false);
    let mut gate = Gate {
        reference: None,
        attempted: 0,
        failures: Vec::new(),
    };
    let mut layers = Layers::new();

    // Set-up: generate, prepare, and one untimed warm-up repetition (it
    // fills caches and spawns the worker pool, and is the reference for
    // the digest). Repeated so that one slow set-up does not decide
    // `setup_s`; the traced run reports no set-up time and does it once.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        drop(workload.take()); // one working set at a time, for VmHWM
        let t0 = Instant::now();
        let mut w = prepare(cfg)?;
        let warm = w.rep(off);
        setup_s.push(t0.elapsed().as_secs_f64());
        w.between_reps(&mut layers);
        gate.admit(&warm, "warm-up");
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up ran");

    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut plain_s = Vec::new();
    let mut rss_mb = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut tr = Trace::new(cfg.trace);
    while plain_s.len() < MIN_REPS || started.elapsed() < budget {
        let n = plain_s.len();
        stats::reset_peak_rss();
        let t0 = Instant::now();
        let rep = w.rep(off);
        plain_s.push(t0.elapsed().as_secs_f64());
        rss_mb.push(stats::peak_rss_mb());
        w.between_reps(&mut layers);
        gate.admit(&rep, &format!("rep {n}"));
        if cfg.trace {
            // Same inputs again through the span-wrapped path, in the
            // same process and interleaved, so that the overhead is a
            // like-for-like difference.
            tr.set_rep(n as u32);
            let t0 = Instant::now();
            let rep = w.rep(&mut tr);
            traced_s.push(t0.elapsed().as_secs_f64());
            w.between_reps(&mut layers);
            gate.admit(&rep, &format!("traced rep {n}"));
            traced_reps.push(rep);
        }
    }

    let reference = gate.reference.clone().expect("warm-up ran");
    let wall = summarize(&plain_s);
    let mut metrics = BTreeMap::new();
    if cfg.trace {
        w.probes(&mut layers);
        layer_metrics(
            &mut metrics,
            &layers,
            &reference,
            &traced_reps,
            tr.spans(),
            wall.median,
            median(&traced_s),
        );
        metrics.insert("unattributed_pct", {
            let shares: Vec<f64> = (0..traced_reps.len() as u32)
                .map(|rep| trace::unattributed_share(tr.spans(), rep))
                .collect();
            100.0 * median(&shares)
        });
    } else {
        metrics.insert("wall_s", wall.median);
        metrics.insert("work_per_s", reference.work(w.unit()) as f64 / wall.median);
        metrics.insert("peak_rss_mb", median(&rss_mb));
        metrics.insert("setup_s", median(&setup_s));
    }
    Some(Outcome {
        workload: cfg.workload.to_string(),
        seed: cfg.seed,
        trace: cfg.trace,
        scale: cfg.scale,
        unit: w.unit().name(),
        sim_digest: reference.digest,
        attempted: gate.attempted,
        failures: gate.failures,
        wall,
        rep_s: plain_s,
        setup: summarize(&setup_s),
        metrics,
        trace_json: cfg.trace.then(|| tr.to_json(cfg.workload)),
    })
}

/// Derive the per-layer metrics of a traced run. A metric is inserted
/// only where it is defined (non-zero work in that layer).
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    layers: &Layers,
    reference: &Rep,
    traced: &[Rep],
    spans: &[Span],
    plain_wall: f64,
    traced_wall: f64,
) {
    let reps: Vec<u32> = (0..traced.len() as u32).collect();
    // Span- and recorder-derived values: absent (n/a) where nothing was
    // recorded under that name.
    fn put(m: &mut BTreeMap<&'static str, f64>, name: &'static str, value: f64) {
        if value != 0.0 {
            m.insert(name, value);
        }
    }

    // The issue's throughputs, from the untraced repetitions.
    put(
        m,
        "node_ticks_per_s",
        reference.node_ticks as f64 / plain_wall,
    );
    put(m, "cells_per_s", reference.cells as f64 / plain_wall);
    put(m, "msgs_per_s", reference.msgs as f64 / plain_wall);
    if reference.node_ticks > 0 {
        put(
            m,
            "payload_bytes_per_node_tick",
            reference.payload_bytes as f64 / reference.node_ticks as f64,
        );
    }

    // Harness spans: median over repetitions of the per-repetition sum
    // of durations, operation counts, or self times.
    let selfs = trace::self_times_ns(spans);
    let span_s = |name: &str| {
        median(&trace::sum_by_rep(spans, name, &reps, |_, s| {
            s.dur_ns() as f64 * 1e-9
        }))
    };
    let span_count = |name: &str| {
        median(&trace::sum_by_rep(spans, name, &reps, |_, s| {
            s.count as f64
        }))
    };
    let self_s = |name: &str| {
        median(&trace::sum_by_rep(spans, name, &reps, |i, _| {
            selfs[i] as f64 * 1e-9
        }))
    };
    for (metric, span) in [
        ("scenarios.spec.parse_s", "scenarios.spec.parse"),
        ("scenarios.exec.run_cell_s", "scenarios.exec.run_cell"),
        ("scenarios.store.key_s", "scenarios.store.key"),
        ("scenarios.store.save_s", "scenarios.store.save"),
        ("scenarios.store.load_s", "scenarios.store.load"),
        ("scenarios.report.render_s", "scenarios.report.render"),
        ("obs.det_export_s", "obs.det_export"),
        ("sim.populate_s", "sim.populate"),
        ("harness.check_s", "harness.check"),
    ] {
        put(m, metric, span_s(span));
    }
    put(
        m,
        "scenarios.exec.cells",
        span_count("scenarios.exec.run_cell"),
    );
    put(
        m,
        "scenarios.exec.run_cell_self_s",
        self_s("scenarios.exec.run_cell"),
    );
    let cell_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "scenarios.exec.run_cell")
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect();
    put(
        m,
        "scenarios.exec.run_cell_p50_ms",
        percentile(&cell_ms, 0.50),
    );
    put(
        m,
        "scenarios.exec.run_cell_p95_ms",
        percentile(&cell_ms, 0.95),
    );
    for (metric, span) in [
        ("runtime.wire.encode_ns_per_msg", "runtime.wire.encode"),
        ("runtime.wire.decode_ns_per_msg", "runtime.wire.decode"),
    ] {
        let (ns, ops) = spans
            .iter()
            .filter(|s| s.name == span)
            .fold((0u64, 0u64), |(ns, ops), s| {
                (ns + s.dur_ns(), ops + s.count)
            });
        if ops > 0 {
            put(m, metric, ns as f64 / ops as f64);
        }
    }

    // The library's wall recorder: raw totals per phase.
    let wall_s = |phase: &str| {
        median(
            &traced
                .iter()
                .map(|r| r.wall.get(phase).map_or(0.0, |w| w.0))
                .collect::<Vec<_>>(),
        )
    };
    let last = traced.last().expect("a traced run has traced repetitions");
    const WALL_METRICS: [(&str, &str); 6] = [
        ("sim.cycle.callback_s", "sim.cycle.callback.count"),
        ("sim.cycle.merge_s", "sim.cycle.merge.count"),
        ("sim.cycle.dispatch_s", "sim.cycle.dispatch.count"),
        ("sim.event.dispatch_s", "sim.event.dispatch.count"),
        ("solvers.step_s", "solvers.step.count"),
        ("functions.eval_s", "functions.eval.count"),
    ];
    for (phase, (seconds, count)) in WALL_PHASES.iter().zip(WALL_METRICS) {
        put(m, seconds, wall_s(phase));
        put(m, count, last.wall.get(phase).map_or(0.0, |w| w.1 as f64));
    }
    put(m, "sim.cycle.callback_self_s", self_s("sim.cycle.callback"));
    put(
        m,
        "solvers.step_self_s",
        (wall_s("solvers.step") - wall_s("functions.eval")).max(0.0),
    );
    put(m, "rayon.home_runs", last.rayon.0 as f64);
    put(m, "rayon.steals", last.rayon.1 as f64);

    // Kernel execution paths.
    const LEG_METRICS: [(&str, &str); 4] = [
        ("sim.cycle.legacy_s", "sim.cycle.legacy_node_ticks_per_s"),
        ("sim.cycle.phased_s", "sim.cycle.phased_node_ticks_per_s"),
        ("sim.event.seq_s", "sim.event.seq_node_ticks_per_s"),
        ("sim.event.sharded_s", "sim.event.sharded_node_ticks_per_s"),
    ];
    for ((leg, _, _), (seconds, rate)) in LEGS.iter().zip(LEG_METRICS) {
        let secs = median(
            &traced
                .iter()
                .map(|r| r.legs.get(leg).map_or(0.0, |l| l.0))
                .collect::<Vec<_>>(),
        );
        if secs > 0.0 {
            put(m, seconds, secs);
            put(m, rate, last.legs[leg].1 as f64 / secs);
        }
    }

    // Exact counts (identical on every repetition — the digest gate
    // checks the statistics they are made of) and probe results.
    // These are defined wherever the workload reports them, zero included
    // (`runtime.wire.roundtrip_mismatch` must read 0, not n/a).
    for (name, _, _) in PER_LAYER {
        if let Some(&v) = last.counts.get(name).or_else(|| layers.get(name)) {
            m.insert(name, v);
        }
    }

    // Compute vs communication, as shares of the traced repetition.
    // Compute = solver steps (evaluation included), already divided by
    // the worker count where they ran in parallel; communication = what
    // the kernel phases spend outside them.
    let root_s = span_s("rep");
    if root_s > 0.0 {
        let compute = span_s("solvers.step");
        let comm: f64 = [
            "sim.cycle.callback",
            "sim.cycle.merge",
            "sim.cycle.dispatch",
            "sim.event.dispatch",
        ]
        .iter()
        .map(|phase| self_s(phase))
        .sum();
        put(m, "split.compute_pct", 100.0 * compute / root_s);
        put(m, "split.comm_pct", 100.0 * comm / root_s);
    }
    let (user, sys) = stats::cpu_seconds();
    put(m, "process.cpu_user_s", user);
    put(m, "process.cpu_sys_s", sys);
    put(m, "trace.wall_s", traced_wall);
    put(
        m,
        "trace.overhead_pct",
        100.0 * (traced_wall - plain_wall) / plain_wall,
    );
}

/// `{"value": v, "unit": u}`; JSON has no NaN or infinity, and a ratio
/// over an empty sample is reported as 0.
fn metric_json(value: f64, unit: &str) -> Value {
    json!({ "value": if value.is_finite() { value } else { 0.0 }, "unit": unit })
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end metric of an
/// untraced run or every per-layer metric of a traced one (0 where the
/// workload does not define it).
pub fn result_line(o: &Outcome) -> String {
    let names: Vec<(&str, &str)> = if o.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = o.metrics.get(name).copied().unwrap_or(0.0);
            (name.to_string(), metric_json(value, unit))
        })
        .collect();
    let line = json!({
        "correct": o.correct(),
        "attempted": o.attempted.max(1),
        "failed": o.failures.len(),
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).expect("a JSON value serializes")
}

/// Human-readable table of a run, with `n/a` where a metric is not
/// defined on the workload.
pub fn render_human(o: &Outcome) -> String {
    let mut out = format!(
        "== {} (seed {}, {}{}) — unit of work: {} ==\n",
        o.workload,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        if o.scale == Scale::Smoke {
            ", smoke"
        } else {
            ""
        },
        o.unit
    );
    out.push_str(&format!(
        "  reps {}  wall median {:.4} s (min {:.4}, max {:.4})  sim_digest {:016x}\n",
        o.wall.n, o.wall.median, o.wall.min, o.wall.max, o.sim_digest
    ));
    let times: Vec<String> = o.rep_s.iter().map(|t| format!("{t:.3}")).collect();
    out.push_str(&format!("  rep times (s): {}\n", times.join(" ")));
    let mut row = |name: &str, unit: &str| match o.metrics.get(name) {
        Some(v) => out.push_str(&format!("  {name:<36} {:>16} {unit}\n", format_value(*v))),
        None => out.push_str(&format!("  {name:<36} {:>16}\n", "n/a")),
    };
    if o.trace {
        PER_LAYER.iter().for_each(|m| row(m.0, m.1));
    } else {
        END_TO_END.iter().for_each(|m| row(m.0, m.1));
    }
    out.push_str(&format!(
        "  {:<36} {:>16} ({} failed of {} attempted)\n",
        "fail_share",
        format_value(o.failures.len() as f64 / o.attempted.max(1) as f64),
        o.failures.len(),
        o.attempted
    ));
    for f in o.failures.iter().take(10) {
        out.push_str(&format!("  FAIL {f}\n"));
    }
    if o.failures.len() > 10 {
        out.push_str(&format!("  ... and {} more\n", o.failures.len() - 10));
    }
    out
}

pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The run as a JSON document for `--selfcheck` and the baseline file:
/// the result line's content plus what it has no room for.
pub fn detail_json(o: &Outcome) -> String {
    let summary = |s: &Summary| json!({ "median": s.median, "min": s.min, "max": s.max, "n": s.n });
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .collect();
    let metrics = o
        .metrics
        .iter()
        .map(|(name, v)| (name.to_string(), metric_json(*v, units[name])))
        .collect();
    let doc = json!({
        "workload": o.workload,
        "seed": o.seed,
        "trace": o.trace,
        "smoke": o.scale == Scale::Smoke,
        "work_unit": o.unit,
        "cores": available_cores(),
        "sim_digest": format!("{:016x}", o.sim_digest),
        "attempted": o.attempted,
        "failed": o.failures.len(),
        "failures": o.failures.iter().take(20).collect::<Vec<_>>(),
        "wall_s": summary(&o.wall),
        "setup_s": summary(&o.setup),
        "metrics": Value::Object(metrics),
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("a JSON value serializes");
    text.push('\n');
    text
}

//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists exactly
//! these (a unit test compares the two), so a metric cannot be added or
//! renamed in one place only.

/// `(name, unit, better, bound)`: what a user of the system sees,
/// measured with tracing off. `bound` is the share of the parent's
/// median by which the metric may worsen before a change is refused.
/// All four sit at the contract's 25 % ceiling: over ten seeds on the
/// 2-core sandbox the interquartile spread of the times was 2–7 % in a
/// quiet period and up to 10 % in a noisy one, that of peak RSS up to
/// 12 % (README, "Bounds").
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    // Median wall time of one repetition of the whole timed section:
    // parse -> construct -> simulate/load -> persist -> render.
    ("wall_s", "s", "lower", 0.25),
    // The workload's unit of work per host second: node-ticks
    // (paper_tables, wire_hubs, scale_dpso, gossip_kernel), cells
    // (store_cold, store_warm) or frames (wire_codec).
    ("work_per_s", "1/s", "higher", 0.25),
    // VmHWM of the workload's process, restarted before every timed
    // repetition; median over the repetitions.
    ("peak_rss_mb", "MB", "lower", 0.25),
    // Input generation + stores/topologies prepared + one warm-up
    // repetition; median of five set-ups per run.
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single layers, from the traced run. Layer =
/// module name. Zero on a workload that does not enter the layer.
pub const PER_LAYER: [(&str, &str, &str); 78] = [
    // The issue's workload-specific throughputs and wire volume, from
    // the untraced repetitions of the traced run's process.
    ("node_ticks_per_s", "1/s", "higher"),
    ("cells_per_s", "1/s", "higher"),
    ("msgs_per_s", "1/s", "higher"),
    ("payload_bytes_per_node_tick", "B", "lower"),
    // scenarios
    ("scenarios.spec.parse_s", "s", "lower"),
    ("scenarios.spec.cells", "count", "lower"),
    ("scenarios.exec.run_cell_s", "s", "lower"),
    ("scenarios.exec.run_cell_p50_ms", "ms", "lower"),
    ("scenarios.exec.run_cell_p95_ms", "ms", "lower"),
    ("scenarios.exec.cells", "count", "lower"),
    ("scenarios.store.key_s", "s", "lower"),
    ("scenarios.store.save_s", "s", "lower"),
    ("scenarios.store.save_count", "count", "lower"),
    ("scenarios.store.bytes_written", "B", "lower"),
    ("scenarios.store.load_s", "s", "lower"),
    ("scenarios.store.load_count", "count", "lower"),
    ("scenarios.store.hit_share", "ratio", "higher"),
    ("scenarios.store.recovered", "count", "lower"),
    ("scenarios.report.render_s", "s", "lower"),
    ("scenarios.report.bytes", "B", "lower"),
    // core / gossip construction probes
    ("core.recipe.new_s", "s", "lower"),
    ("core.recipe.build_s", "s", "lower"),
    ("core.recipe.nodes", "count", "lower"),
    ("gossip.topology.build_s", "s", "lower"),
    ("gossip.newscast.exchange_ns", "ns", "lower"),
    // the library's own obs::wall recorder
    ("sim.cycle.callback_s", "s", "lower"),
    ("sim.cycle.callback.count", "count", "lower"),
    ("sim.cycle.callback_self_s", "s", "lower"),
    ("sim.cycle.merge_s", "s", "lower"),
    ("sim.cycle.merge.count", "count", "lower"),
    ("sim.cycle.dispatch_s", "s", "lower"),
    ("sim.cycle.dispatch.count", "count", "lower"),
    ("sim.event.dispatch_s", "s", "lower"),
    ("sim.event.dispatch.count", "count", "lower"),
    ("solvers.step_s", "s", "lower"),
    ("solvers.step.count", "count", "lower"),
    ("solvers.step_self_s", "s", "lower"),
    ("functions.eval_s", "s", "lower"),
    ("functions.eval.count", "count", "lower"),
    ("rayon.home_runs", "count", "higher"),
    ("rayon.steals", "count", "lower"),
    // kernel execution paths, from harness spans
    ("sim.cycle.legacy_s", "s", "lower"),
    ("sim.cycle.legacy_node_ticks_per_s", "1/s", "higher"),
    ("sim.cycle.phased_s", "s", "lower"),
    ("sim.cycle.phased_node_ticks_per_s", "1/s", "higher"),
    ("sim.event.seq_s", "s", "lower"),
    ("sim.event.seq_node_ticks_per_s", "1/s", "higher"),
    ("sim.event.sharded_s", "s", "lower"),
    ("sim.event.sharded_node_ticks_per_s", "1/s", "higher"),
    ("sim.populate_s", "s", "lower"),
    // exact counts from DetSnapshot / CellReport
    ("core.evals", "count", "lower"),
    ("core.exchanges", "count", "lower"),
    ("core.msgs.sent", "count", "lower"),
    ("core.msgs.delivered", "count", "lower"),
    ("core.wire.bytes", "B", "lower"),
    ("core.wire.frame_saved_bytes", "B", "higher"),
    ("core.wire.coalesce_ratio", "ratio", "lower"),
    ("core.evals_to_threshold.table4", "count", "lower"),
    ("sim.cycle.merge_rounds", "count", "lower"),
    ("sim.churn.joins", "count", "lower"),
    ("sim.churn.crashes", "count", "lower"),
    // probes on the workload's own function / dim / particles
    ("functions.eval_ns_per_point", "ns", "lower"),
    ("solvers.pso_step_ns", "ns", "lower"),
    // runtime::wire
    ("runtime.wire.encode_ns_per_msg", "ns", "lower"),
    ("runtime.wire.decode_ns_per_msg", "ns", "lower"),
    ("runtime.wire.bytes_per_msg", "B", "lower"),
    ("runtime.wire.reject_share", "ratio", "higher"),
    ("runtime.wire.roundtrip_mismatch", "count", "lower"),
    // obs
    ("obs.det_export_s", "s", "lower"),
    // the harness's own checks inside the timed section
    ("harness.check_s", "s", "lower"),
    // the compute-vs-communication axis
    ("split.compute_pct", "%", "lower"),
    ("split.comm_pct", "%", "lower"),
    ("process.cpu_user_s", "s", "lower"),
    ("process.cpu_sys_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("unattributed_pct", "%", "lower"),
    // run_cell time no recorder phase covers: construction, the legacy
    // sequential kernel paths, observers.
    ("scenarios.exec.run_cell_self_s", "s", "lower"),
];

pub const WORKLOADS: [&str; 7] = [
    "paper_tables",
    "wire_hubs",
    "scale_dpso",
    "gossip_kernel",
    "store_cold",
    "store_warm",
    "wire_codec",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
        v.get(key).and_then(|f| f.as_str()).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = json();
        let listed = |key: &str| doc.get(key).and_then(|v| v.as_array()).unwrap().clone();
        let e2e: Vec<_> = listed("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                    m.get("bound").and_then(|b| b.as_f64()).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = listed("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                )
            })
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<_> = listed("workloads")
            .iter()
            .map(|w| field(w, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS);
        for name in &names {
            assert!(ok(name, "_.-", 64), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}

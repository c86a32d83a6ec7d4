//! Campaign-level determinism: the rendered JSON/CSV reports must be
//! **byte-identical** across repeated runs and across worker-thread
//! counts (cells are independently seeded; no wall-clock data enters the
//! report). Also parse-validates every committed campaign under
//! `scenarios/` (subdirectories included) so a spec typo fails tier-1
//! tests, not just CI, and pins the paper-scale grids of
//! `scenarios/paper_full/` to the paper's axes.

use gossipopt_scenarios::{parse_campaign, run_campaign};

/// A small but representative campaign: both kernels, a sweep axis,
/// churn, and every fault kind across the grid.
const CAMPAIGN: &str = r#"
[campaign]
name = "determinism"
seed = 2024

[cell]
nodes = 24
particles = 4
gossip_every = 4
budget = 60
churn = 0.005
topology = "kregular:3"

[cell.metrics]
sample_every = 5
capacity = 8

[[cell.fault]]
kind = "partition"
at = 10
heal_at = 25
groups = [[0, 12], [12, 24]]

[[cell.fault]]
kind = "massacre"
at = 30
kill_frac = 0.25

[[cell.fault]]
kind = "flash_crowd"
at = 35
join = 6

[[cell.fault]]
kind = "corrupt_optimum"
at = 45
node_frac = 0.2
lie = -1e6

[sweep]
kernel = ["cycle", "event"]
loss = [0.0, 0.1]
"#;

#[test]
fn reports_are_byte_identical_across_runs_and_thread_counts() {
    let spec = parse_campaign(CAMPAIGN).unwrap();
    assert_eq!(spec.cells.len(), 4);
    let reference = run_campaign(&spec, 1).unwrap();
    let ref_json = reference.to_json();
    let ref_csv = reference.to_csv();
    // Reports must carry the fault evidence (so the equality below is
    // not vacuous): partitions blocked traffic, the lie took hold, and
    // the massacre/flash-crowd membership arithmetic happened.
    assert!(reference.cells.iter().all(|c| c.blocked_messages > 0));
    assert!(reference.cells.iter().all(|c| c.poisoned));
    for cell in &reference.cells {
        // 24 initial − 25% massacre of ~24 + 6 joiners (churn wiggles it).
        assert!(
            (15..=32).contains(&cell.report.final_population),
            "population {} out of the plausible band",
            cell.report.final_population
        );
        assert!(!cell.report.samples.is_empty());
    }

    for run in 0..2 {
        for threads in [1, 2, 4] {
            let again = run_campaign(&spec, threads).unwrap();
            assert_eq!(
                again.to_json(),
                ref_json,
                "JSON diverged (run {run}, {threads} threads)"
            );
            assert_eq!(
                again.to_csv(),
                ref_csv,
                "CSV diverged (run {run}, {threads} threads)"
            );
        }
    }
    // Round trip through the schema-checked loader.
    let parsed = gossipopt_scenarios::CampaignReport::from_json(&ref_json).unwrap();
    assert_eq!(parsed.to_json(), ref_json);
}

/// Every `*.toml` under the repository's `scenarios/` directory,
/// subdirectories included, as `(path relative to scenarios/, text)` in
/// sorted order.
fn committed_campaigns() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut dirs = vec![root.clone()];
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "toml") {
                let rel = path
                    .strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                files.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// The campaign name a committed file must declare, derived from its path
/// relative to `scenarios/`: the stem, except that the paper tables
/// (`paper_tableN.toml`, `paper_full/tableN.toml`) are `paper-tableN` —
/// the names `paper_title` captions — and `ext/x_y.toml` is `ext-x-y`.
fn expected_name(rel: &str) -> String {
    let stem = rel.strip_suffix(".toml").unwrap();
    match stem.split_once('/') {
        Some(("ext", s)) => format!("ext-{}", s.replace('_', "-")),
        Some(("paper_full", s)) => format!("paper-{s}"),
        Some(_) => panic!("unexpected subdirectory in scenarios/{rel}"),
        None if stem.starts_with("paper_table") => stem.replace('_', "-"),
        None => stem.to_string(),
    }
}

#[test]
fn committed_campaign_files_parse_and_validate() {
    let files = committed_campaigns();
    for dir in ["ext/", "paper_full/"] {
        assert!(
            files.iter().any(|(rel, _)| rel.starts_with(dir)),
            "the walk must reach scenarios/{dir}"
        );
    }
    assert!(files.iter().any(|(rel, _)| rel == "wire_event.toml"));
    for (rel, text) in &files {
        let spec = parse_campaign(text)
            .unwrap_or_else(|e| panic!("committed campaign {rel} is invalid: {e}"));
        assert_eq!(spec.name, expected_name(rel), "{rel}");
        assert!(!spec.cells.is_empty(), "{rel}");
        // The two fault-schedule acceptance campaigns must actually carry
        // their faults.
        if rel == "partition_heal.toml" {
            assert!(spec.cells.iter().all(|c| !c.fault.is_empty()));
            assert_eq!(spec.asserts.min_blocked, Some(100));
        }
        if rel == "byzantine_optimum.toml" {
            assert_eq!(spec.asserts.expect_poisoned, Some(true));
        }
        // The paper-table campaigns feed `campaign report` and `campaign
        // figures`: they must carry their captions and the shapes the
        // report layer renders.
        if spec.name.starts_with("paper-table") {
            assert!(
                gossipopt_scenarios::paper_title(&spec.name).is_some(),
                "{rel} needs a paper_title mapping"
            );
        }
        if rel == "paper_table2.toml" {
            // The zip pairing is the point: total budget is constant.
            assert!(spec.cells.iter().all(|c| c.nodes as u64 * c.budget == 4096));
        }
        if rel == "paper_table4.toml" {
            assert!(spec.cells.iter().all(|c| c.stop_at_quality == Some(1e-10)));
        }
    }
}

/// One paper-scale grid point: (function, nodes, particles, gossip_every,
/// per-node budget, stop_at_quality).
type Axes = (String, usize, usize, u64, u64, Option<f64>);

/// The paper's four grids at full scale, as the former hard-coded
/// `run_set1..4` loops enumerated them: function, then network size, then
/// swarm size or period. Sets 2 and 4 spread a 2^20 total over the nodes.
fn paper_scale_axes(set: u8) -> Vec<Axes> {
    let pow2 = |max: u32| (0..=max).map(|i| 1usize << i).collect::<Vec<_>>();
    let r_is_k = |ks: &[usize]| ks.iter().map(|&k| (k, k as u64)).collect::<Vec<_>>();
    let (sizes, swarms, total, stop) = match set {
        1 => (
            vec![1, 10, 100, 1000],
            r_is_k(&[1, 4, 8, 16, 32]),
            false,
            None,
        ),
        2 => (pow2(16), r_is_k(&[1, 4, 8, 16, 32]), true, None),
        3 => (
            vec![10, 100, 1000],
            (1..=16).map(|m| (16, 4 * m)).collect(),
            false,
            None,
        ),
        _ => (pow2(10), r_is_k(&[1, 4, 8, 16]), true, Some(1e-10)),
    };
    let mut out = Vec::new();
    for f in [
        "f2",
        "zakharov",
        "rosenbrock",
        "sphere",
        "schaffer",
        "griewank",
    ] {
        for &n in &sizes {
            let budget = if total { (1 << 20) / n as u64 } else { 1000 };
            for &(k, r) in &swarms {
                out.push((f.to_string(), n, k, r, budget, stop));
            }
        }
    }
    out
}

#[test]
fn paper_full_campaigns_encode_the_paper_scale_grids() {
    let files = committed_campaigns();
    for (set, cells) in [(1u8, 6000usize), (2, 25500), (3, 14400), (4, 13200)] {
        let rel = format!("paper_full/table{set}.toml");
        let (_, text) = files.iter().find(|(r, _)| *r == rel).expect("committed");
        let spec = parse_campaign(text).unwrap();
        assert_eq!(spec.cells.len(), cells, "{rel}");
        assert_eq!(spec.name, format!("paper-table{set}"), "{rel}");
        let mut grid: Vec<Axes> = Vec::new();
        for c in &spec.cells {
            // Every unswept key at the paper's configuration.
            let fixed = (c.dim, c.kernel.as_str(), c.topology.as_str());
            assert_eq!(fixed, (10, "cycle", "newscast"), "{rel}");
            assert_eq!(
                (c.coordination.as_str(), c.solver.as_str()),
                ("gossip-pushpull", "pso")
            );
            let axes = (
                c.function.clone(),
                c.nodes,
                c.particles,
                c.gossip_every,
                c.budget,
                c.stop_at_quality,
            );
            if grid.last() != Some(&axes) {
                grid.push(axes);
            }
        }
        // 50 consecutive repetitions per grid point, in the loops' order.
        assert_eq!(grid.len() * 50, cells, "{rel}");
        assert_eq!(grid, paper_scale_axes(set), "{rel}");
    }
}

#[test]
fn paper_grid_covers_the_full_matrix() {
    // The acceptance grid: 3 topologies × churn on/off × both kernels.
    let spec = parse_campaign(include_str!("../../../scenarios/paper_grid.toml")).unwrap();
    assert_eq!(spec.cells.len(), 12);
    let mut seen = std::collections::BTreeSet::new();
    for cell in &spec.cells {
        seen.insert((cell.topology.clone(), cell.kernel.clone(), cell.churn > 0.0));
    }
    assert_eq!(
        seen.len(),
        12,
        "every (topology, kernel, churn) combination"
    );
    let topologies: std::collections::BTreeSet<_> =
        seen.iter().map(|(t, _, _)| t.clone()).collect();
    assert_eq!(topologies.len(), 3);
    let kernels: std::collections::BTreeSet<_> = seen.iter().map(|(_, k, _)| k.clone()).collect();
    assert_eq!(kernels.len(), 2);
}

/// Kernel-thread invariance at a realistic size: `scenarios/wire_dpso.toml`'s
/// two hub-heavy cells (256 nodes, star and hier:4, frame coalescing
/// engaged) must give the same `CellReport` and deterministic-plane bytes
/// at cell `threads` 1, 2, 3 and 8 — the phased tick's shard cuts, lanes
/// and per-shard merge all change with the worker count. The report echoes
/// the cell it ran, so the echoed `threads` is the one field set back.
#[test]
fn wire_dpso_cells_are_kernel_thread_invariant() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/wire_dpso.toml"),
    )
    .unwrap();
    let spec = parse_campaign(&text).unwrap();
    assert_eq!(spec.cells.len(), 2);
    for cell in &spec.cells {
        let run = |threads: usize| {
            let mut cell = cell.clone();
            cell.threads = threads;
            let (mut report, snap) = gossipopt_scenarios::exec::run_cell_obs(&cell).unwrap();
            report.cell.threads = 1;
            (
                serde_json::to_string(&report).unwrap(),
                snap.det.to_canonical_json(),
            )
        };
        let (json, det) = run(1);
        assert!(
            det.contains("coord_batch"),
            "{}: coalescing must engage",
            cell.topology
        );
        for threads in [2, 3, 8] {
            let (json_t, det_t) = run(threads);
            assert_eq!(json_t, json, "{} threads={threads}: report", cell.topology);
            assert_eq!(det_t, det, "{} threads={threads}: obs_det", cell.topology);
        }
    }
}

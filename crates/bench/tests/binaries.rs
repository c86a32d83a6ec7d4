//! Integration tests driving the user-facing binaries end to end.

use std::process::Command;

fn campaign() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

#[test]
fn campaign_deploys_on_real_threads() {
    let dir = std::env::temp_dir().join("gossipopt-bin-test-deploy");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("cell.toml");
    std::fs::write(
        &spec_path,
        "[campaign]\nseed = 5\n[cell]\nnodes = 16\nparticles = 4\nbudget = 50\n",
    )
    .unwrap();
    let out = campaign().arg("deploy").arg(&spec_path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("one JSON object");
    assert_eq!(v["total_evals"], 16 * 50);
    assert_eq!(v["decode_errors"], 0);
    assert_eq!(v["survivors"], 16);
    assert!(v["best_quality"].as_f64().unwrap().is_finite());

    // Fields the runtime cannot honour are refused, never degraded.
    for (field, line) in [
        ("churn", "churn = 0.01"),
        (
            "fault",
            "[[cell.fault]]\nkind = \"massacre\"\nat = 5\nkill_frac = 0.5",
        ),
        ("stop_at_quality", "stop_at_quality = 1.0"),
    ] {
        let bad = dir.join(format!("{field}.toml"));
        std::fs::write(&bad, format!("[cell]\nnodes = 8\nbudget = 20\n{line}\n")).unwrap();
        let res = campaign().arg("deploy").arg(&bad).output().unwrap();
        assert_eq!(res.status.code(), Some(2), "{field}");
        assert!(res.stdout.is_empty(), "{field}: refused before running");
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert!(stderr.contains(&format!("`{field}`")), "{stderr}");
    }

    // Bad specs are refused the same way as in run mode.
    let bad = dir.join("function.toml");
    std::fs::write(&bad, "[cell]\nfunction = \"not-a-function\"\n").unwrap();
    let res = campaign().arg("deploy").arg(&bad).output().unwrap();
    assert_eq!(res.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert!(stderr.contains("unknown objective"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_runs_a_spec_deterministically_and_gates_on_asserts() {
    let dir = std::env::temp_dir().join("gossipopt-bin-test-campaign");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("tiny.toml");
    std::fs::write(
        &spec_path,
        r#"
[campaign]
name = "tiny"
seed = 3

[cell]
nodes = 12
particles = 4
budget = 40

[sweep]
kernel = ["cycle", "event"]

[assert]
min_final_population = 12
"#,
    )
    .unwrap();

    let run = |out: &str, threads: &str| {
        let outdir = dir.join(out);
        let res = campaign()
            .arg(&spec_path)
            .args([
                "--out",
                outdir.to_str().unwrap(),
                "--threads",
                threads,
                "--quiet",
            ])
            .output()
            .expect("campaign runs");
        assert!(
            res.status.success(),
            "{}",
            String::from_utf8_lossy(&res.stderr)
        );
        std::fs::read_to_string(outdir.join("tiny.json")).unwrap()
    };
    let a = run("a", "1");
    let b = run("b", "1");
    let c = run("c", "2");
    assert_eq!(a, b, "two runs must be byte-identical");
    assert_eq!(a, c, "--threads 1 and 2 must be byte-identical");
    let report: serde_json::Value = serde_json::from_str(&a).unwrap();
    assert_eq!(report["schema"], "gossipopt-campaign/v1");
    assert_eq!(report["cells"].as_array().unwrap().len(), 2);
    assert!(dir.join("a").join("tiny.csv").exists());

    // A failing assertion must exit nonzero.
    let failing = dir.join("failing.toml");
    std::fs::write(
        &failing,
        "[cell]\nnodes = 8\nbudget = 20\n[assert]\nmax_quality = -1.0\n",
    )
    .unwrap();
    let res = campaign()
        .arg(&failing)
        .args(["--out", dir.join("f").to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert_eq!(res.status.code(), Some(1), "assert failures exit 1");

    // A bad spec must exit 2.
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[cell]\nnoodles = 1\n").unwrap();
    let res = campaign().arg(&bad).output().unwrap();
    assert_eq!(res.status.code(), Some(2), "spec errors exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

const STORE_SPEC: &str = r#"
[campaign]
name = "stored"
seed = 7
reps = 2

[cell]
nodes = 8
particles = 4
budget = 30

[sweep]
kernel = ["cycle", "event"]
"#;

#[test]
fn campaign_store_skips_finished_cells_and_recovers_corruption() {
    let dir = std::env::temp_dir().join("gossipopt-bin-test-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("stored.toml");
    std::fs::write(&spec_path, STORE_SPEC).unwrap();
    let store_dir = dir.join("store");

    let run = |out: &str| {
        let res = campaign()
            .arg(&spec_path)
            .args(["--out", dir.join(out).to_str().unwrap(), "--store"])
            .arg(&store_dir)
            .arg("--quiet")
            .output()
            .expect("campaign runs");
        assert!(
            res.status.success(),
            "{}",
            String::from_utf8_lossy(&res.stderr)
        );
        String::from_utf8_lossy(&res.stderr).into_owned()
    };

    // Cold run simulates everything; the warm run loads everything, and
    // both render the same report bytes.
    let cold = run("a");
    assert!(cold.contains("store: 0 loaded, 4 executed"), "{cold}");
    let warm = run("b");
    assert!(warm.contains("store: 4 loaded, 0 executed"), "{warm}");
    assert_eq!(
        std::fs::read_to_string(dir.join("a/stored.json")).unwrap(),
        std::fs::read_to_string(dir.join("b/stored.json")).unwrap(),
        "loaded and executed cells must render identically"
    );

    // Truncate one stored entry: the bin must warn with the offending
    // path, recompute that cell, and keep going.
    let victim = std::fs::read_dir(&store_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .expect("store holds cell dirs");
    std::fs::write(victim.join("entry.json"), b"{ truncated").unwrap();
    let healed = run("c");
    assert!(healed.contains("store: recovered"), "{healed}");
    assert!(healed.contains("entry.json"), "{healed}");
    assert!(healed.contains("store: 3 loaded, 1 executed"), "{healed}");

    // --no-store stays silent about the store; pairing it with --store
    // is a usage error.
    let res = campaign()
        .arg(&spec_path)
        .args([
            "--out",
            dir.join("d").to_str().unwrap(),
            "--no-store",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(res.status.success());
    assert!(!String::from_utf8_lossy(&res.stderr).contains("store:"));
    let res = campaign()
        .arg(&spec_path)
        .args(["--store", store_dir.to_str().unwrap(), "--no-store"])
        .output()
        .unwrap();
    assert_eq!(res.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A miniature stand-in for the committed paper tables: same shape (zip
/// axis, reps, report-recognised name), tiny budget.
const PAPER_TABLE1: &str = r#"
[campaign]
name = "paper-table1"
seed = 41
reps = 2

[cell]
particles = 4
budget = 30

[cell.metrics]
sample_every = 10
capacity = 8

[sweep.zip]
nodes = [4, 8]
gossip_every = [4, 8]
"#;

#[test]
fn campaign_report_renders_byte_identical_tables() {
    let dir = std::env::temp_dir().join("gossipopt-bin-test-report");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("paper_table1.toml");
    std::fs::write(&spec_path, PAPER_TABLE1).unwrap();

    let render = |out: &str, threads: &str| {
        let outdir = dir.join(out);
        let res = campaign()
            .arg("report")
            .arg(&spec_path)
            .args(["--out", outdir.to_str().unwrap()])
            .args(["--store", outdir.join("store").to_str().unwrap()])
            .args(["--threads", threads, "--quiet"])
            .output()
            .expect("campaign report runs");
        assert!(
            res.status.success(),
            "{}",
            String::from_utf8_lossy(&res.stderr)
        );
        (
            std::fs::read_to_string(outdir.join("paper_tables.txt")).unwrap(),
            std::fs::read_to_string(outdir.join("curves_paper-table1.csv")).unwrap(),
        )
    };
    let (tables_a, curves_a) = render("a", "1");
    let (tables_b, curves_b) = render("b", "2");
    assert_eq!(tables_a, tables_b, "tables must not depend on --threads");
    assert_eq!(curves_a, curves_b, "curves must not depend on --threads");
    assert!(tables_a.contains("== paper-table1"), "{tables_a}");
    assert!(tables_a.contains("Table 1"), "caption is rendered");
    assert!(
        curves_a.starts_with("cell,seed,tick,best_quality,alive,delivered,wire_bytes\n"),
        "{curves_a}"
    );
    assert!(curves_a.lines().count() > 2, "samples were captured");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_figures_render_byte_identical_plots() {
    let dir = std::env::temp_dir().join("gossipopt-bin-test-figures");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("paper_table1.toml");
    std::fs::write(&spec_path, PAPER_TABLE1).unwrap();

    let render = |out: &str, store: &str, threads: &str| {
        let outdir = dir.join(out);
        let res = campaign()
            .arg("figures")
            .arg(&spec_path)
            .args(["--out", outdir.to_str().unwrap()])
            .args(["--store", dir.join(store).to_str().unwrap()])
            .args(["--threads", threads, "--quiet"])
            .output()
            .expect("campaign figures runs");
        assert!(
            res.status.success(),
            "{}",
            String::from_utf8_lossy(&res.stderr)
        );
        std::fs::read_to_string(outdir.join("paper_figures.txt")).unwrap()
    };
    let cold = render("a", "store_a", "1");
    let threads = render("b", "store_b", "2");
    let warm = render("c", "store_a", "1");
    assert_eq!(cold, threads, "figures must not depend on --threads");
    assert_eq!(cold, warm, "a warm store must render the cold bytes");
    assert!(cold.contains("Figure 1 [sphere]"), "{cold}");
    assert!(cold.contains("Best configuration per function"), "{cold}");
    let _ = std::fs::remove_dir_all(&dir);
}

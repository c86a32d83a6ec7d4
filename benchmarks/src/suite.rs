//! The whole set: every workload in a child process of its own, the
//! summary tables, `--selfcheck` (two sets on one build, compared
//! against the benchmark's own bounds) and the baseline file.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// The detail documents of one set, by `(workload, traced)`.
type Set = BTreeMap<(&'static str, bool), Value>;

/// Run one workload in a child process and return its detail document.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its tables stream to our stderr.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = serde_json::parse(line).map_err(|e| {
        format!(
            "{workload}: no result line (exit {:?}): {}",
            out.status.code(),
            e.0
        )
    })?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        if result.get(key).is_none() {
            return Err(format!("{workload}: result line lacks `{key}`"));
        }
    }
    let mode = if traced { "traced" } else { "untraced" };
    let path = args.out_dir.join(format!("{workload}.{mode}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.0))
}

fn metric(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or("?")
}

fn count(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn cell(v: Option<f64>) -> String {
    v.map_or("n/a".into(), crate::run::format_value)
}

/// Metric × workload table of one set.
fn summary_table(set: &Set, traced: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut out = format!(
        "{:<36} {:>6}",
        if traced { "per-layer" } else { "end-to-end" },
        "unit"
    );
    for w in WORKLOADS {
        out.push_str(&format!(" {w:>13}"));
    }
    out.push('\n');
    for (name, unit) in names {
        out.push_str(&format!("{name:<36} {unit:>6}"));
        for w in WORKLOADS {
            let v = set.get(&(w, traced)).and_then(|doc| metric(doc, name));
            out.push_str(&format!(" {:>13}", cell(v)));
        }
        out.push('\n');
    }
    if !traced {
        for (label, key) in [("attempted", "attempted"), ("failed", "failed")] {
            out.push_str(&format!("{label:<36} {:>6}", "count"));
            for w in WORKLOADS {
                let v = set.get(&(w, false)).map(|doc| count(doc, key) as f64);
                out.push_str(&format!(" {:>13}", cell(v)));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<36} {:>6}", "sim_digest (low 32 bits)", "hex"));
        for w in WORKLOADS {
            let digest = set
                .get(&(w, false))
                .map_or("?", |doc| text(doc, "sim_digest"));
            out.push_str(&format!(
                " {:>13}",
                &digest[digest.len().saturating_sub(8)..]
            ));
        }
        out.push('\n');
    }
    out
}

/// A per-layer metric that must repeat exactly between two runs of the
/// same code on the same seed: counts, byte totals and ratios of them.
/// The rayon shim's scheduling counters depend on thread timing.
fn repeats_exactly(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "B" | "ratio") && !name.starts_with("rayon.")
}

/// Compare two sets of the same build and seed. Timings must agree
/// within each metric's bound; digests and counts exactly.
fn selfcheck(a: &Set, b: &Set) -> (String, usize) {
    let mut out = String::from("selfcheck: two sets, same build, same seed\n");
    let mut misses = 0;
    let mut verdict = |ok: bool| {
        if !ok {
            misses += 1;
        }
        if ok {
            "ok"
        } else {
            "MISS"
        }
    };
    out.push_str(&format!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7}\n",
        "workload", "metric", "set 1", "set 2", "gap", "bound"
    ));
    for w in WORKLOADS {
        let (Some(x), Some(y)) = (a.get(&(w, false)), b.get(&(w, false))) else {
            out.push_str(&format!("{w:<14} missing from a set  {}\n", verdict(false)));
            continue;
        };
        for (name, _, _, bound) in END_TO_END {
            let (p, q) = (
                metric(x, name).unwrap_or(0.0),
                metric(y, name).unwrap_or(0.0),
            );
            let gap = if p == 0.0 {
                f64::INFINITY
            } else {
                (q - p).abs() / p
            };
            out.push_str(&format!(
                "{w:<14} {name:<12} {:>14} {:>14} {:>7.2}% {:>6.0}%  {}\n",
                cell(Some(p)),
                cell(Some(q)),
                100.0 * gap,
                100.0 * bound,
                verdict(gap <= bound)
            ));
        }
        for traced in [false, true] {
            let (Some(x), Some(y)) = (a.get(&(w, traced)), b.get(&(w, traced))) else {
                continue;
            };
            let same = text(x, "sim_digest") == text(y, "sim_digest")
                && text(x, "sim_digest") == text(&a[&(w, false)], "sim_digest")
                && count(x, "attempted") > 0
                && count(x, "failed") == 0
                && count(y, "failed") == 0;
            out.push_str(&format!(
                "{w:<14} sim_digest {} ({}), no failures  {}\n",
                text(x, "sim_digest"),
                if traced { "traced" } else { "untraced" },
                verdict(same)
            ));
        }
        if let (Some(x), Some(y)) = (a.get(&(w, true)), b.get(&(w, true))) {
            let differing: Vec<&str> = PER_LAYER
                .iter()
                .filter(|m| repeats_exactly(m.0, m.1) && metric(x, m.0) != metric(y, m.0))
                .map(|m| m.0)
                .collect();
            out.push_str(&format!(
                "{w:<14} exact counts equal  {}{}\n",
                verdict(differing.is_empty()),
                if differing.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", differing.join(", "))
                }
            ));
        }
    }
    out.push_str(&format!("selfcheck: {misses} miss(es)\n"));
    (out, misses)
}

fn host_json() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"simd\": \"{}\", \"code_fingerprint\": \"{}\"}}",
        crate::stats::available_cores(),
        model.replace('"', "'"),
        gossipopt::util::simd::active().name(),
        gossipopt::scenarios::CODE_FINGERPRINT
    )
}

/// The measured baseline: what `BENCHMARK.json` has no key for.
fn baseline_json(args: &Args, set: &Set) -> String {
    let mut out = format!(
        "{{\n\"claim\": null,\n\"generated_by\": \"benchmarks/run.sh --trace --write-baseline\",\n\
         \"host\": {},\n\"seed\": {},\n\"seconds\": {},\n\"workloads\": {{\n",
        host_json(),
        args.seed,
        args.seconds()
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!("\"{w}\": {{"));
        let mut parts = Vec::new();
        for (traced, key) in [(false, "untraced"), (true, "traced")] {
            if let Some(doc) = set.get(&(w, traced)) {
                let text = serde_json::to_string_pretty(doc).expect("a parsed document serializes");
                parts.push(format!("\"{key}\": {text}"));
            }
        }
        out.push_str(&parts.join(",\n"));
        out.push_str(if i + 1 == WORKLOADS.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("}\n}\n");
    out
}

pub fn run_suite(args: &Args) -> ExitCode {
    let traced = args.trace || args.selfcheck;
    let mut sets: Vec<Set> = Vec::new();
    let mut broken = 0;
    for _ in 0..if args.selfcheck { 2 } else { 1 } {
        let mut set = Set::new();
        for w in WORKLOADS {
            for mode in [false, true] {
                if mode && !traced {
                    continue;
                }
                match run_child(args, w, mode) {
                    Ok(doc) => {
                        set.insert((w, mode), doc);
                    }
                    Err(e) => {
                        eprintln!("ERROR {e}");
                        broken += 1;
                    }
                }
            }
        }
        sets.push(set);
    }
    let first = &sets[0];
    println!("{}", summary_table(first, false));
    if traced {
        println!("{}", summary_table(first, true));
    }
    let failed: u64 = sets
        .iter()
        .flat_map(|s| s.values())
        .map(|doc| count(doc, "failed"))
        .sum();
    let mut misses = 0;
    if args.selfcheck {
        let (report, n) = selfcheck(&sets[0], &sets[1]);
        println!("{report}");
        misses = n;
    }
    if let Some(path) = &args.baseline {
        if let Err(e) = std::fs::write(path, baseline_json(args, first)) {
            eprintln!("cannot write {}: {e}", path.display());
            broken += 1;
        }
    }
    println!("failed operations: {failed}; runs without a result: {broken}");
    if failed == 0 && broken == 0 && misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

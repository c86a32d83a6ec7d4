//! End-to-end benchmark of the gossipopt reproduction, with per-layer
//! attribution. Drives only the public functions of the library.
//!
//! Two ways in (see `benchmarks/README.md`):
//!
//! * `--workload W --seed S --seconds T --trace 0|1` runs one workload
//!   in this process and prints, as the last line of standard output,
//!   the JSON result object the benchmark contract asks for;
//! * without `--workload` it runs every workload, **one child process
//!   each** (so that peak RSS is per workload), prints the tables, and
//!   with `--selfcheck` does it twice and compares the two sets.

mod campaign;
mod codec;
mod gen;
mod gossip;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use gen::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// How long one run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub selfcheck: bool,
    pub out_dir: PathBuf,
    pub baseline: Option<PathBuf>,
}

impl Args {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// Smoke runs do the minimum number of repetitions and no more.
    pub fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.0 } else { DEFAULT_SECONDS })
    }
}

const USAGE: &str = "usage: run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]] \
                     [--smoke] [--selfcheck] [--out DIR] [--write-baseline FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        selfcheck: false,
        out_dir: PathBuf::from("benchmarks/out"),
        baseline: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                args.seconds = Some(s);
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--write-baseline" => args.baseline = Some(PathBuf::from(value("--write-baseline")?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let cfg = run::RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        scale: args.scale(),
        out_dir: &args.out_dir,
    };
    let Some(outcome) = run::run(&cfg) else {
        eprintln!(
            "unknown workload `{workload}` (one of: {})",
            metrics::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    eprint!("{}", run::render_human(&outcome));
    let mode = if args.trace { "traced" } else { "untraced" };
    let mut files = vec![(
        format!("{workload}.{mode}.json"),
        run::detail_json(&outcome),
    )];
    if let Some(spans) = &outcome.trace_json {
        files.push((format!("{workload}.trace.json"), spans.clone()));
    }
    for (name, text) in files {
        if let Err(e) = std::fs::write(args.out_dir.join(&name), text) {
            eprintln!("cannot write {name}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", run::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_one(&args, workload),
        None => suite::run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_and_human_forms_of_trace_both_parse() {
        let a = parse("--workload wire_codec --seed 9 --seconds 8 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.trace),
            (Some("wire_codec"), 9, false)
        );
        assert_eq!(a.seconds(), 8.0);
        assert!(parse("--trace 1 --smoke").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().trace);
        assert!(parse("--trace").unwrap().trace);
        let smoke = parse("--smoke").unwrap();
        assert_eq!((smoke.seconds(), smoke.scale()), (0.0, Scale::Smoke));
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}

//! Large-scale (100k to 10M node) scenarios over explicit topologies,
//! driven by both kernels, in two modes:
//!
//! * `--mode gossip` (default) — max-aggregation push-pull gossip: every
//!   node starts with a private value and pushes the largest value it has
//!   seen to one neighbor per tick, until every live node knows the global
//!   maximum. The classic epidemic-spreading workload, measuring the
//!   kernels themselves: node-events/s, messages/s, and the
//!   convergence-vs-communication tradeoff (Nedić et al. 2018) across
//!   topologies.
//! * `--mode dpso` — the paper's composed distributed-PSO stack
//!   (`core::OptNode`: topology + optimization + coordination services)
//!   at the same scale, executed through the scenario harness
//!   (`gossipopt::scenarios::run_cell` — the same run loop as
//!   `run_distributed_pso`, with the metrics tap on). Proves the end-to-end
//!   framework — pooled message payloads, O(n) network construction,
//!   allocation-free steady-state coordination — at 100k nodes on both
//!   kernels.
//!
//! ```text
//! cargo run --release --example scale -- \
//!     --nodes 100000 --topology hier --kernel both --ticks 60
//! cargo run --release --example scale -- \
//!     --mode dpso --nodes 100000 --topology kregular --kernel both --ticks 24
//! # the 1M-node raw-gossip scenario (CI bench-smoke runs this):
//! cargo run --release --example scale -- \
//!     --nodes 1000000 --topology kregular --kernel both --ticks 30 --threads 4
//! # the 10M-node scenario (CI runs the cycle kernel, time-boxed; the
//! # event kernel clears it too in ~5x the wall time):
//! cargo run --release --example scale -- \
//!     --nodes 10000000 --topology kregular --kernel cycle --ticks 20 --threads 4
//! ```
//!
//! Options: `--mode gossip|dpso`, `--nodes N` (default 2000), `--degree K`
//! (default 4), `--topology ring|kregular|hier|all`,
//! `--kernel cycle|event|both`, `--ticks T` (default 60; in dpso mode the
//! per-node evaluation budget), `--seed S`, `--threads N` (default 0 =
//! sequential kernels; `>= 1` shards ticks/batches over that many worker
//! threads — event-kernel results are bit-identical to sequential, cycle
//! results follow the thread-count-invariant phased discipline), and
//! `--curve` (gossip mode only: print the per-tick convergence curve).

use gossipopt::gossip::topology::{k_out_regular, ring_lattice, two_level_auto};
use gossipopt::scenarios::{run_cell, CellSpec};
use gossipopt::sim::{
    Application, Control, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, NodeId,
};
use gossipopt::util::{Rng64, Xoshiro256pp};
use std::sync::Arc;
use std::time::Instant;

/// Max-propagation gossip over a fixed neighbor list.
struct MaxGossip {
    neighbors: Arc<Vec<Vec<usize>>>,
    me: usize,
    best: u64,
}

impl Application for MaxGossip {
    type Message = u64;

    fn on_join(&mut self, _contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {}

    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        let nbrs = &self.neighbors[self.me];
        if nbrs.is_empty() {
            return;
        }
        let pick = nbrs[ctx.rng().index(nbrs.len())];
        ctx.send(NodeId(pick as u64), self.best);
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        // Push-pull: adopt a newer value, answer a stale one — without the
        // pull half, nodes with in-degree 0 in a directed overlay (≈ e^-k
        // of a random k-out graph) could never learn the maximum.
        if msg > self.best {
            self.best = msg;
        } else if msg < self.best {
            ctx.send(from, self.best);
        }
    }
}

struct RunOutcome {
    converged_at: Option<u64>,
    delivered: u64,
    events: u64,
    wall_secs: f64,
}

struct Args {
    mode: String,
    nodes: usize,
    degree: usize,
    topology: String,
    kernel: String,
    ticks: u64,
    seed: u64,
    threads: usize,
    curve: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: "gossip".into(),
        nodes: 2000,
        degree: 4,
        topology: "all".into(),
        kernel: "both".into(),
        ticks: 60,
        seed: 1,
        threads: 0,
        curve: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--mode" => args.mode = value("--mode"),
            "--nodes" => args.nodes = value("--nodes").parse().expect("--nodes"),
            "--degree" => args.degree = value("--degree").parse().expect("--degree"),
            "--topology" => args.topology = value("--topology"),
            "--kernel" => args.kernel = value("--kernel"),
            "--ticks" => args.ticks = value("--ticks").parse().expect("--ticks"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed"),
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--curve" => args.curve = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn build_topology(name: &str, n: usize, degree: usize, seed: u64) -> Vec<Vec<usize>> {
    match name {
        "ring" => ring_lattice(n, degree),
        "kregular" => {
            let mut rng = Xoshiro256pp::seeded(seed ^ 0x7019);
            k_out_regular(n, degree, &mut rng)
        }
        // Exactly n nodes; clusters ~ sqrt(n) with their heads forming a
        // lattice — the two-level shape of Shin et al. (2020), shared with
        // core's TopologyKind::TwoLevelHierarchy.
        "hier" => two_level_auto(n, degree),
        other => panic!("unknown topology {other} (ring|kregular|hier)"),
    }
}

/// Private per-node starting values; the global max lives at one node.
fn initial_value(seed: u64, i: usize) -> u64 {
    // Cheap splitmix-style hash: deterministic, value-diverse.
    let mut z = seed
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z.wrapping_mul(0x94D049BB133111EB)
}

fn spawn(
    neighbors: &Arc<Vec<Vec<usize>>>,
    seed: u64,
) -> impl FnMut(NodeId, &mut Xoshiro256pp) -> MaxGossip + 'static {
    let neighbors = Arc::clone(neighbors);
    move |id: NodeId, _rng: &mut Xoshiro256pp| {
        let me = id.raw() as usize;
        MaxGossip {
            neighbors: Arc::clone(&neighbors),
            me,
            best: initial_value(seed, me),
        }
    }
}

fn run_cycle(
    adj: &Arc<Vec<Vec<usize>>>,
    args: &Args,
    curve: &mut Vec<(u64, f64, u64)>,
) -> RunOutcome {
    let n = adj.len();
    let mut cfg = CycleConfig::seeded(args.seed);
    cfg.bootstrap_sample = 0; // topology is explicit; skip bootstrap work
    cfg.threads = args.threads;
    let mut e: CycleEngine<MaxGossip> = CycleEngine::new(cfg);
    e.set_spawner(spawn(adj, args.seed));
    e.populate(n);
    let target = (0..n).map(|i| initial_value(args.seed, i)).max().unwrap();
    let start = Instant::now();
    let mut converged_at = None;
    e.run_until(args.ticks, |t, view| {
        let know = view.iter().filter(|(_, a)| a.best == target).count();
        curve.push((t, know as f64 / n as f64, 0));
        if know == n {
            converged_at = Some(t);
            Control::Stop
        } else {
            Control::Continue
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let s = e.stats();
    RunOutcome {
        converged_at,
        delivered: s.delivered,
        events: e.now() * n as u64,
        wall_secs: wall,
    }
}

fn run_event(
    adj: &Arc<Vec<Vec<usize>>>,
    args: &Args,
    curve: &mut Vec<(u64, f64, u64)>,
) -> RunOutcome {
    let n = adj.len();
    let mut cfg = EventConfig::seeded(args.seed);
    cfg.bootstrap_sample = 0;
    cfg.tick_period = 10;
    cfg.threads = args.threads;
    let period = cfg.tick_period;
    let mut e: EventEngine<MaxGossip> = EventEngine::new(cfg);
    e.set_spawner(spawn(adj, args.seed));
    e.populate(n);
    let target = (0..n).map(|i| initial_value(args.seed, i)).max().unwrap();
    let start = Instant::now();
    let mut converged_at = None;
    e.run_until(args.ticks * period, period, |t, view| {
        let know = view.iter().filter(|(_, a)| a.best == target).count();
        curve.push((t / period, know as f64 / n as f64, 0));
        if know == n {
            converged_at = Some(t / period);
            Control::Stop
        } else {
            Control::Continue
        }
    });
    let wall = start.elapsed().as_secs_f64();
    RunOutcome {
        converged_at,
        delivered: e.delivered(),
        events: e.now() / period * n as u64,
        wall_secs: wall,
    }
}

fn report(
    kernel: &str,
    topology: &str,
    n: usize,
    out: &RunOutcome,
    curve: &[(u64, f64, u64)],
    show_curve: bool,
) {
    let conv = out
        .converged_at
        .map(|t| t.to_string())
        .unwrap_or_else(|| "none".into());
    println!(
        "scale kernel={kernel} topology={topology} nodes={n} converged_tick={conv} \
         delivered={} node_events_per_sec={:.3e} msgs_per_sec={:.3e} wall_s={:.3}",
        out.delivered,
        out.events as f64 / out.wall_secs,
        out.delivered as f64 / out.wall_secs,
        out.wall_secs
    );
    if show_curve {
        for (t, frac, _) in curve {
            println!("curve kernel={kernel} topology={topology} tick={t} converged_frac={frac:.4}");
        }
    }
}

/// The scenario cell for a scale topology: the composed OptNode stack
/// (anti-entropy coordination of the global best, static overlay,
/// per-node PSO swarms) with `--ticks` as the per-node evaluation
/// budget, executed through `gossipopt::scenarios::run_cell` — the same
/// trajectory `run_distributed_pso` produces, plus the metrics tap.
fn dpso_cell(topology: &str, kernel: &str, args: &Args) -> CellSpec {
    let topology = match topology {
        "ring" => format!("ring-lattice:{}", args.degree),
        "kregular" => format!("kregular:{}", args.degree),
        "hier" => format!("hier:{}", args.degree),
        other => panic!("unknown topology {other} (ring|kregular|hier)"),
    };
    CellSpec {
        name: format!("scale-dpso {topology} {kernel}"),
        nodes: args.nodes,
        particles: 4,
        gossip_every: 4,
        budget: args.ticks,
        kernel: kernel.into(),
        threads: args.threads,
        topology,
        function: "sphere".into(),
        dim: 8,
        seed: Some(args.seed),
        ..CellSpec::default()
    }
}

fn run_dpso(topology: &str, kernel: &str, args: &Args) {
    let cell = dpso_cell(topology, kernel, args);
    // End-to-end clock: unlike gossip mode (which times only the run
    // loop), the executor builds the network internally, so
    // evals_per_sec includes the O(n) construction — ~0.4 s of a ~20 s
    // run at 100k nodes. Don't compare it 1:1 against gossip-mode
    // node_events_per_sec.
    let start = Instant::now();
    let out = run_cell(&cell).expect("dpso cell runs");
    let wall = start.elapsed().as_secs_f64();
    let report = &out.report;
    println!(
        "scale-dpso kernel={kernel} topology={topology} nodes={} quality={:.3e} \
         evals={} exchanges={} delivered={} payload_bytes={} \
         evals_per_sec={:.3e} wall_s={:.3}",
        cell.nodes,
        report.best_quality,
        report.total_evals,
        report.coordination_exchanges,
        report.messages_delivered,
        report.payload_bytes,
        report.total_evals as f64 / wall,
        wall
    );
}

fn main() {
    let args = parse_args();
    let topologies: Vec<&str> = match args.topology.as_str() {
        "all" => vec!["ring", "kregular", "hier"],
        one => vec![one],
    };
    let kernels: Vec<&str> = match args.kernel.as_str() {
        "both" => vec!["cycle", "event"],
        one => vec![one],
    };
    match args.mode.as_str() {
        "gossip" => {
            for topology in &topologies {
                let adj = Arc::new(build_topology(topology, args.nodes, args.degree, args.seed));
                for kernel in &kernels {
                    let mut curve = Vec::new();
                    let out = match *kernel {
                        "cycle" => run_cycle(&adj, &args, &mut curve),
                        "event" => run_event(&adj, &args, &mut curve),
                        other => panic!("unknown kernel {other} (cycle|event)"),
                    };
                    report(kernel, topology, args.nodes, &out, &curve, args.curve);
                }
            }
        }
        "dpso" => {
            for topology in &topologies {
                for kernel in &kernels {
                    run_dpso(topology, kernel, &args);
                }
            }
        }
        other => panic!("unknown mode {other} (gossip|dpso)"),
    }
}

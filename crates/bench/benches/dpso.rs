//! Distributed-PSO stack benchmarks: the composed `core::OptNode`
//! (topology + optimization + coordination services) ticking inside each
//! kernel.
//!
//! The `kernel/*` families measure the simulators under toy protocols;
//! this family measures the paper's actual node — per-node PSO swarms,
//! a static scale topology (random 4-out-regular) and anti-entropy
//! push-pull coordination of the global best — so the regression gate
//! covers the full stack, pooled message payloads included. One iteration
//! advances the network by one tick (cycle) or one tick-period (event),
//! i.e. one local evaluation per node plus its share of coordination
//! traffic.
//!
//! The `dpso-par/*` family runs the same network under sharded execution
//! (`threads = 2`, pinned for reproducible baselines): the cycle kernel's
//! phased tick and the event kernel's sharded same-timestamp batches,
//! with per-node particle state in the kernel's row table. The 10k row
//! is directly comparable against `dpso/*/10000`; the 100k row covers the
//! memory-bound regime the table exists for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossipopt_core::experiment::{Budget, DistributedPsoSpec, NodeRecipe, TopologyKind};
use gossipopt_core::node::OptNode;
use gossipopt_functions::{by_name, Objective};
use gossipopt_sim::{CycleConfig, CycleEngine, EventConfig, EventEngine};
use std::hint::black_box;
use std::sync::Arc;

const SIZES: &[usize] = &[1000, 10_000];

/// Sharded-execution family sizes: the 10k row is directly comparable to
/// `dpso/*/10000`, the 100k row is the ROADMAP's memory-bound regime.
const PAR_SIZES: &[usize] = &[10_000, 100_000];
/// Worker threads for the `dpso-par` family — pinned (not
/// `available_parallelism`) so the committed baseline means the same
/// thing on every runner. Results are thread-count invariant; only the
/// wall clock varies with the machine.
const PAR_THREADS: usize = 2;

/// `GOSSIPOPT_BENCH_THREADS` overrides [`PAR_THREADS`] for the scaling
/// sweep (`scripts/bench.sh --threads-sweep N`); the committed baseline
/// rows always run at the pinned default.
fn par_threads() -> usize {
    match std::env::var("GOSSIPOPT_BENCH_THREADS") {
        Ok(v) => v
            .parse()
            .expect("GOSSIPOPT_BENCH_THREADS must be a thread count"),
        Err(_) => PAR_THREADS,
    }
}

/// The benchmark network: sphere(10), 4 particles per node, coordination
/// every 4 evaluations over a degree-4 expander. The budget is effectively
/// unbounded so every measured tick evaluates, and one tick in four
/// coordinates; the others send nothing.
fn recipe(n: usize) -> NodeRecipe {
    let spec = DistributedPsoSpec {
        nodes: n,
        particles_per_node: 4,
        gossip_every: 4,
        topology: TopologyKind::KOutRegular(4),
        ..Default::default()
    };
    let objective: Arc<dyn Objective> = Arc::from(by_name("sphere", spec.function_dim).unwrap());
    NodeRecipe::new(&spec, objective, Budget::PerNode(u64::MAX), 7).expect("valid bench spec")
}

fn bench_dpso_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpso/cycle");
    for &n in SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let recipe = recipe(n);
            let mut cfg = CycleConfig::seeded(11);
            cfg.bootstrap_sample = 0; // static topology: no contacts needed
            let mut e: CycleEngine<OptNode> = CycleEngine::new(cfg);
            for i in 0..n {
                e.insert(recipe.build(i).expect("validated"));
            }
            b.iter(|| black_box(e.tick()))
        });
    }
    group.finish();
}

fn bench_dpso_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpso/event");
    for &n in SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let recipe = recipe(n);
            let mut cfg = EventConfig::seeded(12);
            cfg.bootstrap_sample = 0;
            cfg.tick_period = 10;
            let mut e: EventEngine<OptNode> = EventEngine::new(cfg);
            for i in 0..n {
                e.insert(recipe.build(i).expect("validated"));
            }
            let mut t = e.now();
            b.iter(|| {
                t += 10;
                e.run(t);
                black_box(e.delivered())
            })
        });
    }
    group.finish();
}

fn bench_dpso_par_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpso-par/cycle");
    for &n in PAR_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let recipe = recipe(n);
            let mut cfg = CycleConfig::seeded(11);
            cfg.bootstrap_sample = 0;
            cfg.threads = par_threads(); // phased sharded tick
            let mut e: CycleEngine<OptNode> = CycleEngine::new(cfg);
            for i in 0..n {
                e.insert(recipe.build(i).expect("validated"));
            }
            b.iter(|| black_box(e.tick()))
        });
    }
    group.finish();
}

fn bench_dpso_par_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpso-par/event");
    for &n in PAR_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let recipe = recipe(n);
            let mut cfg = EventConfig::seeded(12);
            cfg.bootstrap_sample = 0;
            cfg.tick_period = 10;
            cfg.threads = par_threads(); // sharded same-timestamp batches
            let mut e: EventEngine<OptNode> = EventEngine::new(cfg);
            for i in 0..n {
                e.insert(recipe.build(i).expect("validated"));
            }
            let mut t = e.now();
            b.iter(|| {
                t += 10;
                e.run(t);
                black_box(e.delivered())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dpso_cycle,
    bench_dpso_event,
    bench_dpso_par_cycle,
    bench_dpso_par_event
);
criterion_main!(benches);

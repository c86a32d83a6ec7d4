//! Microbenchmarks: cycle- and event-kernel tick throughput.
//!
//! Measures each simulator's overhead per tick at several network sizes for
//! a no-op protocol and a chatty protocol (one message per node per tick),
//! separating kernel cost from protocol cost in the paper-scale runs. The
//! event-kernel families advance the engine one tick-period per iteration,
//! so one iteration dispatches ~n timer events (+ ~n deliveries when
//! chatty) — directly comparable to one cycle-kernel tick. The `-phased`
//! and `-sharded` families run the same chatty networks on the
//! thread-invariant paths (`threads = 1`), so the regression gate sees
//! them side by side with the legacy paths they are meant to replace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossipopt_sim::{Application, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, NodeId};
use std::hint::black_box;

#[derive(Debug, Clone)]
struct Quiet;
impl Application for Quiet {
    type Message = ();
    fn on_join(&mut self, _c: &[NodeId], _ctx: &mut Ctx<'_, ()>) {}
    fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {}
    fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut Ctx<'_, ()>) {}
}

#[derive(Debug, Clone)]
struct Chatty {
    peer: Option<NodeId>,
    seen: u64,
}
impl Application for Chatty {
    type Message = u64;
    fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {
        self.peer = contacts.first().copied();
    }
    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(p) = self.peer {
            ctx.send(p, self.seen + 1);
        }
    }
    fn on_message(&mut self, _f: NodeId, m: u64, _ctx: &mut Ctx<'_, u64>) {
        self.seen = self.seen.max(m);
    }
}

fn bench_quiet_ticks(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/tick-quiet");
    for &n in &[64usize, 512, 4096, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut e: CycleEngine<Quiet> = CycleEngine::new(CycleConfig::seeded(1));
            for _ in 0..n {
                e.insert(Quiet);
            }
            b.iter(|| black_box(e.tick()))
        });
    }
    group.finish();
}

/// One chatty cycle-kernel family: `threads = 0` is the legacy sequential
/// tick, `threads = 1` the phased one.
fn chatty_ticks(c: &mut Criterion, family: &str, threads: usize, sizes: &[usize]) {
    let mut group = c.benchmark_group(family);
    for &n in sizes {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut cfg = CycleConfig::seeded(2);
            cfg.threads = threads;
            let mut e: CycleEngine<Chatty> = CycleEngine::new(cfg);
            for _ in 0..n {
                e.insert(Chatty {
                    peer: None,
                    seen: 0,
                });
            }
            b.iter(|| black_box(e.tick()))
        });
    }
    group.finish();
}

fn bench_chatty_ticks(c: &mut Criterion) {
    chatty_ticks(c, "kernel/tick-chatty", 0, &[64, 512, 4096, 10_000]);
    chatty_ticks(c, "kernel/tick-chatty-phased", 1, &[4096, 10_000]);
}

fn bench_event_quiet(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/event-quiet");
    for &n in &[64usize, 512, 4096, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut cfg = EventConfig::seeded(3);
            cfg.tick_period = 10;
            let mut e: EventEngine<Quiet> = EventEngine::new(cfg);
            for _ in 0..n {
                e.insert(Quiet);
            }
            let mut t = e.now();
            b.iter(|| {
                t += 10;
                e.run(t);
                black_box(e.now())
            })
        });
    }
    group.finish();
}

/// One chatty event-kernel family: `threads = 0` runs each batch as one
/// shard on the calling thread, `threads = 1` the same with frame
/// coalescing on.
fn chatty_events(c: &mut Criterion, family: &str, threads: usize, sizes: &[usize]) {
    let mut group = c.benchmark_group(family);
    for &n in sizes {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut cfg = EventConfig::seeded(4);
            cfg.tick_period = 10;
            cfg.threads = threads;
            let mut e: EventEngine<Chatty> = EventEngine::new(cfg);
            for _ in 0..n {
                e.insert(Chatty {
                    peer: None,
                    seen: 0,
                });
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

fn bench_event_chatty(c: &mut Criterion) {
    chatty_events(c, "kernel/event-chatty", 0, &[64, 512, 4096, 10_000]);
    chatty_events(c, "kernel/event-chatty-sharded", 1, &[4096, 10_000]);
}

fn bench_obs_overhead(c: &mut Criterion) {
    // The wall-clock recorder must be effectively free when disabled: the
    // solver/eval hot loops run a `wall::start()`/`wall::finish()` pair
    // per step, which must reduce to one relaxed atomic load. This row
    // times that gate at dpso/cycle/10000 call volume (10k spans per
    // iteration); it sits under the same regression gate as every other
    // row, so a disabled-path cost creeping in fails `--check`.
    let mut group = c.benchmark_group("obs/overhead");
    gossipopt_obs::wall::set_enabled(false);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("disabled-span/10000", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                let span = gossipopt_obs::wall::start();
                acc = acc.wrapping_add(black_box(i));
                gossipopt_obs::wall::finish(gossipopt_obs::wall::Phase::SolverStep, span);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_quiet_ticks,
    bench_chatty_ticks,
    bench_event_quiet,
    bench_event_chatty,
    bench_obs_overhead
);
criterion_main!(benches);

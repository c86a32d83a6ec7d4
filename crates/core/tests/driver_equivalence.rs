//! The run loop (`core::experiment::drive`) against an independent
//! reference: one `run_until` call per run with the stop logic inline in
//! the observer — the shape the per-kernel drivers had before they were
//! folded into `drive`, kept here as the oracle.
//!
//! `drive` advances the event kernel period by period and then drains the
//! horizon's tail (`max_time % tick_period`); the reference never chunks.
//! Odd tick periods make the tail non-zero, so a `drive` that forgets it
//! ends with fewer delivered messages than the reference.

use gossipopt_core::experiment::{
    bootstrap_sample, run_distributed, run_distributed_async, AsyncOpts, Budget,
    DistributedPsoSpec, NodeRecipe, RunReport,
};
use gossipopt_core::metrics::MetricsSpec;
use gossipopt_core::node::OptNode;
use gossipopt_functions::{by_name, Objective};
use gossipopt_sim::{
    Application, ChurnConfig, Control, CycleConfig, CycleEngine, EventConfig, EventEngine, NodeId,
    NodesView, Transport,
};
use std::sync::Arc;

const SAMPLE_EVERY: u64 = 5;

/// What the reference can state about a run. The observer closure cannot
/// read kernel counters (the engine is mutably borrowed while it runs), so
/// samples are compared on `(tick, quality bits, alive)`.
#[derive(Debug, PartialEq)]
struct Outcome {
    ticks: u64,
    reached_threshold_at: Option<u64>,
    messages: (u64, u64, u64),
    total_evals: u64,
    payload_bytes: u64,
    final_population: usize,
    quality_bits: u64,
    samples: Vec<(u64, u64, usize)>,
}

fn outcome_of(r: &RunReport) -> Outcome {
    Outcome {
        ticks: r.ticks,
        reached_threshold_at: r.reached_threshold_at,
        messages: (r.messages_sent, r.messages_delivered, r.messages_dropped),
        total_evals: r.total_evals,
        payload_bytes: r.payload_bytes,
        final_population: r.final_population,
        quality_bits: r.best_quality.to_bits(),
        samples: r
            .samples
            .iter()
            .map(|s| (s.tick, s.best_quality.to_bits(), s.alive))
            .collect(),
    }
}

/// The observer both references share: sample, then threshold, then cap.
struct Observer {
    stop_at_quality: Option<f64>,
    total_cap: Option<u64>,
    reached_at: Option<u64>,
    samples: Vec<(u64, u64, usize)>,
}

impl Observer {
    fn new(spec: &DistributedPsoSpec, budget: Budget) -> Self {
        Observer {
            stop_at_quality: spec.stop_at_quality,
            total_cap: match budget {
                Budget::Total(e) => Some(e),
                Budget::PerNode(_) => None,
            },
            reached_at: None,
            samples: Vec::new(),
        }
    }

    fn observe(&mut self, tick: u64, view: &NodesView<'_, OptNode>) -> Control {
        let mut quality = f64::INFINITY;
        let mut evals = 0u64;
        for (_, node) in view.iter() {
            quality = quality.min(node.quality());
            evals += node.evals();
        }
        if tick.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push((tick, quality.to_bits(), view.len()));
        }
        if self.stop_at_quality.is_some_and(|thr| quality <= thr) {
            self.reached_at = Some(tick);
            return Control::Stop;
        }
        if self.total_cap.is_some_and(|cap| evals >= cap) {
            return Control::Stop;
        }
        Control::Continue
    }

    /// End-of-run totals over the survivors plus the retired ledgers.
    fn finish<'a>(
        self,
        ticks: u64,
        messages: (u64, u64, u64),
        nodes: impl Iterator<Item = (NodeId, &'a OptNode)>,
        retired_bytes: u64,
        frame_bytes_saved: u64,
    ) -> Outcome {
        let (mut quality, mut evals, mut bytes, mut alive) = (f64::INFINITY, 0, retired_bytes, 0);
        for (_, node) in nodes {
            quality = quality.min(node.quality());
            evals += node.evals();
            bytes += node.wire_counts().total_bytes();
            alive += 1;
        }
        Outcome {
            ticks,
            reached_threshold_at: self.reached_at,
            messages,
            total_evals: evals,
            payload_bytes: bytes - frame_bytes_saved,
            final_population: alive,
            quality_bits: quality.to_bits(),
            samples: self.samples,
        }
    }
}

fn spawner(
    recipe: &NodeRecipe,
) -> impl FnMut(NodeId, &mut gossipopt_util::Xoshiro256pp) -> OptNode {
    let recipe = recipe.clone();
    move |id, _| recipe.build(id.raw() as usize).expect("validated")
}

fn reference_cycle(
    spec: &DistributedPsoSpec,
    objective: Arc<dyn Objective>,
    budget: Budget,
    seed: u64,
) -> Outcome {
    let recipe = NodeRecipe::new(spec, objective, budget, seed).unwrap();
    let mut cfg = CycleConfig::seeded(seed);
    cfg.transport = Transport::lossy(spec.loss_prob);
    cfg.churn = spec.churn;
    cfg.bootstrap_sample = bootstrap_sample(spec, spec.nodes);
    cfg.threads = spec.threads;
    let mut engine: CycleEngine<OptNode> = CycleEngine::new(cfg);
    for i in 0..spec.nodes {
        engine.insert(recipe.build(i).unwrap());
    }
    engine.set_spawner(spawner(&recipe));
    let mut obs = Observer::new(spec, budget);
    let ticks = engine.run_until(recipe.per_node_budget(), |now, view| obs.observe(now, view));
    let s = engine.stats();
    obs.finish(
        ticks,
        (s.sent, s.delivered, s.lost + s.dead_letter + s.hop_overflow),
        engine.nodes(),
        engine.retired_wire_counts().total_bytes(),
        s.frame_bytes_saved,
    )
}

fn reference_event(
    spec: &DistributedPsoSpec,
    objective: Arc<dyn Objective>,
    budget: Budget,
    opts: AsyncOpts,
    seed: u64,
) -> Outcome {
    let recipe = NodeRecipe::new(spec, objective, budget, seed).unwrap();
    let period = opts.tick_period;
    let mut cfg = EventConfig::seeded(seed);
    cfg.transport = Transport {
        loss_prob: spec.loss_prob,
        latency: opts.latency,
    };
    cfg.tick_period = period;
    cfg.jitter_phase = opts.jitter_phase;
    cfg.churn = spec.churn;
    cfg.bootstrap_sample = bootstrap_sample(spec, spec.nodes);
    cfg.threads = spec.threads;
    let mut engine: EventEngine<OptNode> = EventEngine::new(cfg);
    for i in 0..spec.nodes {
        engine.insert(recipe.build(i).unwrap());
    }
    engine.set_spawner(spawner(&recipe));
    let max_time = recipe.per_node_budget() * period + 10 * period + 200;
    let mut obs = Observer::new(spec, budget);
    let end = engine.run_until(max_time, period, |now, view| {
        obs.observe(now / period, view)
    });
    let (delivered, dropped) = (engine.delivered(), engine.dropped());
    obs.finish(
        end / period,
        (delivered + dropped, delivered, dropped),
        engine.nodes(),
        engine.retired_wire_counts().total_bytes(),
        engine.frame_bytes_saved(),
    )
}

fn objective() -> Arc<dyn Objective> {
    Arc::from(by_name("sphere", 10).unwrap())
}

/// Churn + loss, with the tap sized to keep every sample.
fn churny(threads: usize) -> DistributedPsoSpec {
    DistributedPsoSpec {
        nodes: 24,
        particles_per_node: 4,
        gossip_every: 4,
        churn: ChurnConfig::balanced(0.01, 24),
        loss_prob: 0.1,
        threads,
        metrics: Some(MetricsSpec {
            sample_every: SAMPLE_EVERY,
            capacity: 4096,
        }),
        ..Default::default()
    }
}

/// The three run endings: budget exhausted, `Budget::Total` cap hit (a
/// growing population reaches it before the per-node budgets run out),
/// quality threshold reached.
fn endings(threads: usize) -> [(&'static str, DistributedPsoSpec, Budget); 3] {
    let growing = DistributedPsoSpec {
        churn: ChurnConfig {
            crash_prob_per_tick: 0.0,
            joins_per_tick: 0.5,
            min_nodes: 1,
            max_nodes: 72,
        },
        ..churny(threads)
    };
    let threshold = DistributedPsoSpec {
        particles_per_node: 8,
        gossip_every: 8,
        stop_at_quality: Some(1.0),
        ..churny(threads)
    };
    [
        ("exhausted", churny(threads), Budget::PerNode(60)),
        ("total cap", growing, Budget::Total(24 * 100)),
        ("threshold", threshold, Budget::PerNode(4_000)),
    ]
}

/// The ending each case is named after must be the one that happened.
fn assert_ending(name: &str, out: &Outcome, horizon: u64, ctx: &str) {
    match name {
        "exhausted" => assert_eq!(out.ticks, horizon, "{ctx}"),
        "total cap" => {
            assert!(
                out.ticks < horizon && out.reached_threshold_at.is_none(),
                "{ctx}"
            )
        }
        _ => assert_eq!(out.reached_threshold_at, Some(out.ticks), "{ctx}"),
    }
}

#[test]
fn cycle_driver_matches_single_call_reference() {
    for threads in [0usize, 1] {
        for (name, spec, budget) in endings(threads) {
            let ctx = format!("cycle {name} threads={threads}");
            let expect = reference_cycle(&spec, objective(), budget, 41);
            assert_ending(name, &expect, budget.per_node(spec.nodes), &ctx);
            let got = run_distributed(&spec, objective(), budget, 41).unwrap();
            assert_eq!(outcome_of(&got), expect, "{ctx}");
        }
    }
}

#[test]
fn event_driver_matches_single_call_reference_at_odd_periods() {
    for tick_period in [3u64, 7, 13] {
        let opts = AsyncOpts {
            tick_period,
            ..AsyncOpts::default()
        };
        assert_ne!((10 * tick_period + 200) % tick_period, 0, "a real tail");
        for threads in [0usize, 1] {
            for (name, spec, budget) in endings(threads) {
                let ctx = format!("event {name} period={tick_period} threads={threads}");
                let expect = reference_event(&spec, objective(), budget, opts, 43);
                let horizon = budget.per_node(spec.nodes) + 10 + 200 / tick_period;
                assert_ending(name, &expect, horizon, &ctx);
                let got = run_distributed_async(&spec, objective(), budget, opts, 43).unwrap();
                assert_eq!(outcome_of(&got), expect, "{ctx}");
            }
        }
    }
}

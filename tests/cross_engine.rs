//! Cross-engine integration: the same `OptNode` protocol runs unmodified
//! on the event-driven kernel (asynchronous clocks, real message latency),
//! and the paper's mechanisms survive asynchrony.

use gossipopt::core::node::{paper_coordination, OptNode, Role};
use gossipopt::functions::{Objective, Sphere};
use gossipopt::gossip::NewscastConfig;
use gossipopt::sim::{EventConfig, EventEngine, Latency, Transport};
use gossipopt::solvers::{PsoParams, Swarm};
use std::sync::Arc;

fn build_node(objective: &Arc<dyn Objective>, budget: u64) -> OptNode {
    OptNode::new(
        Arc::clone(objective),
        Box::new(Swarm::new(8, PsoParams::default())),
        OptNode::newscast_topology(NewscastConfig {
            view_size: 10,
            exchange_every: 5,
        }),
        paper_coordination(),
        Role::Peer,
        8,
        Some(budget),
    )
}

fn run_event_network(
    n: usize,
    budget: u64,
    latency: Latency,
    loss: f64,
    seed: u64,
) -> EventEngine<OptNode> {
    let objective: Arc<dyn Objective> = Arc::new(Sphere::new(10));
    let mut cfg = EventConfig::seeded(seed);
    cfg.tick_period = 10;
    cfg.transport = Transport {
        loss_prob: loss,
        latency,
    };
    let mut engine = EventEngine::new(cfg);
    for _ in 0..n {
        engine.insert(build_node(&objective, budget));
    }
    // Enough time for every node to burn its budget: budget ticks at
    // period 10, plus slack for latency.
    engine.run(budget * 10 + 200);
    engine
}

#[test]
fn distributed_pso_works_on_event_engine() {
    let engine = run_event_network(16, 300, Latency::Uniform(1, 30), 0.0, 1);
    let qualities: Vec<f64> = engine.nodes().map(|(_, n)| n.quality()).collect();
    assert_eq!(qualities.len(), 16);
    let global = qualities.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(global.is_finite());
    assert!(
        global < 100.0,
        "async network should converge, got {global}"
    );
    // Everyone finished their budget despite jittered clocks.
    for (_, node) in engine.nodes() {
        assert_eq!(node.evals(), 300);
    }
}

#[test]
fn diffusion_spreads_under_latency() {
    let engine = run_event_network(24, 400, Latency::Uniform(1, 50), 0.0, 2);
    let global = engine
        .nodes()
        .map(|(_, n)| n.quality())
        .fold(f64::INFINITY, f64::min);
    // The best optimum must have propagated: a clear majority of nodes
    // should sit within a few orders of magnitude of the global best.
    let near = engine
        .nodes()
        .filter(|(_, n)| {
            n.quality().max(f64::MIN_POSITIVE).log10() < global.max(f64::MIN_POSITIVE).log10() + 6.0
        })
        .count();
    assert!(
        near >= 16,
        "only {near}/24 nodes near the global best — diffusion failed"
    );
}

#[test]
fn event_engine_is_deterministic_for_the_full_stack() {
    let a = run_event_network(12, 200, Latency::Exponential(8.0), 0.1, 3);
    let b = run_event_network(12, 200, Latency::Exponential(8.0), 0.1, 3);
    let qa: Vec<u64> = a.nodes().map(|(_, n)| n.quality().to_bits()).collect();
    let qb: Vec<u64> = b.nodes().map(|(_, n)| n.quality().to_bits()).collect();
    assert_eq!(qa, qb);
    assert_eq!(a.delivered(), b.delivered());
}

#[test]
fn loss_slows_but_does_not_break_convergence() {
    let lossless = run_event_network(16, 300, Latency::Constant(5), 0.0, 4);
    let lossy = run_event_network(16, 300, Latency::Constant(5), 0.5, 4);
    let g0 = lossless
        .nodes()
        .map(|(_, n)| n.quality())
        .fold(f64::INFINITY, f64::min);
    let g5 = lossy
        .nodes()
        .map(|(_, n)| n.quality())
        .fold(f64::INFINITY, f64::min);
    assert!(g5.is_finite());
    assert!(lossy.stats().dropped() > 0, "loss must actually be applied");
    // Both converge; loss only slows information spreading.
    assert!(g0 < 100.0 && g5 < 1e4, "g0={g0} g5={g5}");
}

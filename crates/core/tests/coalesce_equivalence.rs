//! A/B equivalence of frame coalescing, on both kernels and for every
//! fusible message family.
//!
//! `OptNode::coalesce_round` fuses same-destination runs of
//! `Msg::Coord` / `Msg::RumorPush` / `Msg::Migrant` into delta-encoded
//! batch frames on the phased delivery path, and does the same for
//! seq-adjacent same-destination delivery runs of the event kernel's
//! sharded batch dispatch. The fusion must be invisible to everything
//! except byte accounting: per-node solver state, quality, evaluation
//! counts, reply traffic and every kernel statistic other than
//! `KernelStats::frame_saved` have to be bit-identical with the optimization on
//! (`OptNode`) or off ([`Unfused`]), at any thread count.

use gossipopt_core::experiment::{
    Budget, CoordinationKind, DistributedPsoSpec, NodeRecipe, TopologyKind,
};
use gossipopt_core::messages::Msg;
use gossipopt_core::node::OptNode;
use gossipopt_functions::{by_name, Objective};
use gossipopt_gossip::RumorConfig;
use gossipopt_sim::KernelStats;
use gossipopt_sim::{
    Application, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, Latency, NodeId,
    Transport, WireCounts,
};
use std::sync::Arc;

/// `OptNode` with [`Application::coalesce_round`] left at the trait's
/// no-op default: the "off" side of every A/B below.
struct Unfused(OptNode);

impl Application for Unfused {
    type Message = Msg;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, Msg>) {
        self.0.on_join(contacts, ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.0.on_tick(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.0.on_message(from, msg, ctx);
    }

    fn quiet_tick(&self) -> bool {
        self.0.quiet_tick()
    }

    fn prefetch(&self) {
        self.0.prefetch();
    }

    fn wire_counts(&self) -> WireCounts {
        self.0.wire_counts()
    }
}

/// Both sides of the A/B: wrap a built node, and reach it again for the
/// digest.
trait Side: Application<Message = Msg> {
    fn wrap(node: OptNode) -> Self;
    fn node(&self) -> &OptNode;
}

impl Side for OptNode {
    fn wrap(node: OptNode) -> Self {
        node
    }
    fn node(&self) -> &OptNode {
        self
    }
}

impl Side for Unfused {
    fn wrap(node: OptNode) -> Self {
        Unfused(node)
    }
    fn node(&self) -> &OptNode {
        &self.0
    }
}

fn digest<'a, A: Side + 'a>(nodes: impl Iterator<Item = (NodeId, &'a A)>) -> NodeDigest {
    let mut nodes: NodeDigest = nodes
        .map(|(id, a)| {
            let n = a.node();
            (
                id.raw(),
                n.quality().to_bits(),
                n.evals(),
                n.payload_bytes_sent(),
            )
        })
        .collect();
    nodes.sort_unstable();
    nodes
}

/// The three fusible coordination families.
fn fusible_modes() -> [(&'static str, CoordinationKind); 3] {
    [
        (
            "coord",
            CoordinationKind::GossipBest(gossipopt_gossip::ExchangeMode::PushPull),
        ),
        (
            "rumor",
            CoordinationKind::RumorBest(RumorConfig {
                fanout: 2,
                stop_prob: 0.5,
            }),
        ),
        ("migrant", CoordinationKind::Migrate { migrants: 1 }),
    ]
}

/// Star topology concentrates every spoke's gossip on the hub, producing
/// long same-destination runs — the best case for coalescing and the
/// sharpest test that it stays trajectory-invisible.
fn spec(threads: usize, coordination: CoordinationKind) -> DistributedPsoSpec {
    DistributedPsoSpec {
        nodes: 48,
        particles_per_node: 4,
        gossip_every: 2,
        topology: TopologyKind::Star,
        coordination,
        threads,
        ..Default::default()
    }
}

type NodeDigest = Vec<(u64, u64, u64, u64)>;

fn run_mode(
    threads: usize,
    coalesce: bool,
    ticks: u64,
    coordination: CoordinationKind,
) -> (NodeDigest, KernelStats) {
    if coalesce {
        run_cycle::<OptNode>(threads, ticks, coordination)
    } else {
        run_cycle::<Unfused>(threads, ticks, coordination)
    }
}

fn run_cycle<A: Side>(
    threads: usize,
    ticks: u64,
    coordination: CoordinationKind,
) -> (NodeDigest, KernelStats) {
    let spec = spec(threads, coordination);
    let objective: Arc<dyn Objective> = Arc::from(by_name("sphere", 8).expect("registry name"));
    let recipe = NodeRecipe::new(&spec, objective, Budget::PerNode(ticks), 9).expect("valid spec");
    let mut cfg = CycleConfig::seeded(9);
    cfg.threads = threads;
    let mut engine: CycleEngine<A> = CycleEngine::new(cfg);
    for i in 0..spec.nodes {
        engine.insert(A::wrap(recipe.build(i).expect("valid recipe")));
    }
    for _ in 0..ticks {
        engine.tick();
    }
    (digest(engine.nodes()), engine.stats())
}

fn run(threads: usize, coalesce: bool, ticks: u64) -> (NodeDigest, KernelStats) {
    run_mode(
        threads,
        coalesce,
        ticks,
        CoordinationKind::GossipBest(gossipopt_gossip::ExchangeMode::PushPull),
    )
}

#[test]
fn coalescing_is_trajectory_invisible_at_any_thread_count() {
    for (mode, coordination) in fusible_modes() {
        for threads in [1usize, 2, 8] {
            let (nodes_on, stats_on) = run_mode(threads, true, 60, coordination);
            let (nodes_off, stats_off) = run_mode(threads, false, 60, coordination);
            assert_eq!(nodes_on, nodes_off, "{mode} threads={threads}");
            assert_eq!(stats_on.sent, stats_off.sent, "{mode} threads={threads}");
            assert_eq!(
                stats_on.delivered, stats_off.delivered,
                "{mode} threads={threads}"
            );
            assert_eq!(stats_on.lost, stats_off.lost, "{mode} threads={threads}");
            assert_eq!(
                stats_on.dead_letter, stats_off.dead_letter,
                "{mode} threads={threads}"
            );
            assert_eq!(
                stats_on.hop_overflow, stats_off.hop_overflow,
                "{mode} threads={threads}"
            );
            assert_eq!(stats_off.frame_saved.total(), 0, "{mode} threads={threads}");
            assert!(
                stats_on.frame_saved.total() > 0,
                "{mode} threads={threads}: a star topology must produce fusible runs"
            );
        }
    }
}

#[test]
fn coalescing_savings_are_thread_count_invariant() {
    // The round is coalesced in canonical order before sharding, so the
    // byte savings must not depend on the worker count.
    let (_, s1) = run(1, true, 60);
    let (_, s2) = run(2, true, 60);
    let (_, s8) = run(8, true, 60);
    assert!(s1.frame_saved.total() > 0);
    assert_eq!(s1.frame_saved.total(), s2.frame_saved.total());
    assert_eq!(s1.frame_saved.total(), s8.frame_saved.total());
}

#[test]
fn star_batching_reduces_wire_volume() {
    // The headline payload target: on a hub-heavy dpso cell the
    // delta-encoded CoordBatch frames must cut coordination wire volume
    // by at least 1.5x versus the unbatched ledger charge.
    let (nodes, stats) = run(2, true, 300);
    let ledger: u64 = nodes.iter().map(|n| n.3).sum();
    let net = ledger - stats.frame_saved.total();
    let reduction = ledger as f64 / net as f64;
    eprintln!("wire volume: {ledger} -> {net} bytes ({reduction:.2}x)");
    assert!(
        reduction >= 1.5,
        "batching reduced {ledger} -> {net} bytes ({reduction:.2}x), need >= 1.5x"
    );
}

#[test]
fn sequential_path_never_coalesces() {
    let (_, stats) = run(0, true, 40);
    assert_eq!(
        stats.frame_saved.total(),
        0,
        "threads=0 delivers immediately and must not batch"
    );
}

/// Event-kernel run digest: node states plus the kernel's delivery
/// counters and byte savings. Synchronized phases and a constant latency
/// make every tick's sends arrive in one same-timestamp batch, so the
/// star's hub sees long seq-adjacent delivery runs.
fn run_event(
    threads: usize,
    coalesce: bool,
    coordination: CoordinationKind,
) -> (NodeDigest, u64, u64, u64) {
    if coalesce {
        run_event_as::<OptNode>(threads, coordination)
    } else {
        run_event_as::<Unfused>(threads, coordination)
    }
}

fn run_event_as<A: Side>(
    threads: usize,
    coordination: CoordinationKind,
) -> (NodeDigest, u64, u64, u64) {
    let spec = spec(threads, coordination);
    let objective: Arc<dyn Objective> = Arc::from(by_name("sphere", 8).expect("registry name"));
    let recipe = NodeRecipe::new(&spec, objective, Budget::PerNode(60), 9).expect("valid spec");
    let mut cfg = EventConfig::seeded(9);
    cfg.threads = threads;
    cfg.tick_period = 10;
    cfg.jitter_phase = false;
    cfg.transport = Transport {
        loss_prob: 0.0,
        latency: Latency::Constant(3),
    };
    let mut engine: EventEngine<A> = EventEngine::new(cfg);
    for i in 0..spec.nodes {
        engine.insert(A::wrap(recipe.build(i).expect("valid recipe")));
    }
    engine.run(600);
    (
        digest(engine.nodes()),
        engine.delivered(),
        engine.stats().dropped(),
        engine.stats().frame_saved.total(),
    )
}

#[test]
fn event_kernel_coalescing_is_bit_identical_to_sequential() {
    // The event kernel's contract is stronger than the cycle kernel's:
    // dispatch is bit-identical at every thread count, and the coalesce
    // hook must preserve that — fused runs change nothing the uncoalesced
    // threads = 0 run can observe except the frame_saved ledger.
    for (mode, coordination) in fusible_modes() {
        let (nodes_seq, delivered_seq, dropped_seq, saved_seq) = run_event(0, true, coordination);
        assert_eq!(saved_seq, 0, "{mode}: sequential dispatch never coalesces");
        for threads in [1usize, 2, 8] {
            let (nodes, delivered, dropped, saved) = run_event(threads, true, coordination);
            assert_eq!(nodes, nodes_seq, "{mode} threads={threads}");
            assert_eq!(delivered, delivered_seq, "{mode} threads={threads}");
            assert_eq!(dropped, dropped_seq, "{mode} threads={threads}");
            assert!(
                saved > 0,
                "{mode} threads={threads}: the hub's delivery runs must fuse"
            );
            // And switching the hook off must not change anything either.
            let (nodes_off, delivered_off, dropped_off, saved_off) =
                run_event(threads, false, coordination);
            assert_eq!(nodes_off, nodes_seq, "{mode} threads={threads} (off)");
            assert_eq!(
                delivered_off, delivered_seq,
                "{mode} threads={threads} (off)"
            );
            assert_eq!(dropped_off, dropped_seq, "{mode} threads={threads} (off)");
            assert_eq!(saved_off, 0, "{mode} threads={threads} (off)");
        }
    }
}

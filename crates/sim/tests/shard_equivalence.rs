//! Sharded-vs-sequential equivalence: byte-identical delivery traces.
//!
//! Two contracts, proven over randomized configurations (churn, loss,
//! latency, hop budgets):
//!
//! * **Event kernel** — `threads >= 1` deals each same-timestamp batch
//!   to parallel shards but must reproduce one shard on the calling
//!   thread (`threads = 0`) bit-for-bit: every node's full receive
//!   trace, tick count, the kernel counters, and the engine clock. Besides the randomized sweep, a star
//!   overlay pins the shapes the partition/merge machinery must get right:
//!   one target owning a whole batch, events that send 0, 1 and 2
//!   messages, and a churn event in the middle of a batch. The
//!   one-event-at-a-time oracle is `event_equivalence.rs`'s reference
//!   engine.
//! * **Cycle kernel** — the phased tick (`threads >= 1`) is its own
//!   scheduling discipline, so the reference is the same discipline run
//!   on one thread: `threads ∈ {2, 3, 8}` must reproduce `threads = 1`
//!   byte-for-byte. On top of the trace comparison, a hand-rolled
//!   sequential model of the phased discipline (independent code: visit
//!   in slot order, merge by destination/source/sequence with a comparison
//!   sort, draw loss and check liveness message by message, breadth-first
//!   rounds, churn replayed from the same streams)
//!   pins the canonical merge order itself, at every thread count.

use gossipopt_sim::{
    Application, ChurnConfig, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, Latency,
    NodeId, Transport,
};
use proptest::prelude::*;

/// Records every event the node observes, in order — the "delivery trace".
#[derive(Debug, Clone, Default)]
struct Tracer {
    contacts: Vec<NodeId>,
    ticks: u64,
    /// `(tick/time, from, payload)` for every delivered message.
    trace: Vec<(u64, u64, u64)>,
    draws: u64,
}

impl Application for Tracer {
    type Message = u64;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, u64>) {
        self.contacts = contacts.to_vec();
        for &c in contacts {
            ctx.send(c, c.raw() ^ 0xABCD);
        }
    }
    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        use gossipopt_util::Rng64;
        self.ticks += 1;
        self.draws = self.draws.wrapping_add(ctx.rng().next_u64());
        // Send to a pseudo-random earlier node: cross-shard traffic.
        if let Some(&c) = self.contacts.first() {
            ctx.send(c, self.draws);
        }
        let spread = NodeId(self.draws % (ctx.self_id.raw() + 1));
        ctx.send(spread, self.ticks);
    }
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.trace.push((ctx.now, from.raw(), msg));
        // Occasional replies exercise multi-round (reply) delivery.
        if msg.is_multiple_of(3) {
            ctx.send(from, msg / 3 + 1);
        }
    }
}

type Digest = (Vec<(u64, u64, Vec<(u64, u64, u64)>)>, u64, u64);
type NodeStates = Vec<(u64, Vec<(u64, u64, u64)>)>;

/// Cycle-run parameters a proptest case draws (one struct keeps the
/// drivers' signatures honest).
#[derive(Debug, Clone, Copy)]
struct CycleCase {
    seed: u64,
    n: usize,
    loss: f64,
    churny: bool,
    max_hops: u32,
    ticks: u64,
}

fn digest_cycle(e: &CycleEngine<Tracer>) -> Digest {
    let nodes = e
        .nodes()
        .map(|(id, a)| (id.raw(), a.ticks, a.trace.clone()))
        .collect();
    let s = e.stats();
    (nodes, s.sent, s.delivered + s.lost + s.dead_letter)
}

fn run_cycle(threads: usize, case: CycleCase) -> Digest {
    let mut cfg = CycleConfig::seeded(case.seed);
    cfg.threads = threads;
    cfg.transport = Transport::lossy(case.loss);
    cfg.max_hops_per_tick = case.max_hops;
    if case.churny {
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.03,
            joins_per_tick: 0.4,
            min_nodes: 2,
            max_nodes: 2 * case.n + 8,
        };
    }
    let mut e: CycleEngine<Tracer> = CycleEngine::new(cfg);
    e.set_spawner(|_, _| Tracer::default());
    e.populate(case.n);
    e.run(case.ticks);
    digest_cycle(&e)
}

fn run_event(
    threads: usize,
    seed: u64,
    n: usize,
    loss: f64,
    churny: bool,
    latency: Latency,
    until: u64,
) -> Digest {
    let mut cfg = EventConfig::seeded(seed);
    cfg.threads = threads;
    cfg.transport = Transport {
        loss_prob: loss,
        latency,
    };
    if churny {
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.02,
            joins_per_tick: 0.4,
            min_nodes: 2,
            max_nodes: 2 * n + 8,
        };
    }
    let mut e: EventEngine<Tracer> = EventEngine::new(cfg);
    e.set_spawner(|_, _| Tracer::default());
    e.populate(n);
    e.run(until);
    let nodes = e
        .nodes()
        .map(|(id, a)| (id.raw(), a.ticks, a.trace.clone()))
        .collect();
    (nodes, e.delivered(), e.stats().dropped())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Event kernel: parallel shards reproduce one shard (`threads = 0`)
    /// byte-for-byte under churn, loss and latency, at every thread count.
    #[test]
    fn event_sharded_equals_sequential(
        seed in any::<u64>(),
        n in 2usize..24,
        loss in 0.0f64..0.5,
        churny in any::<bool>(),
        exp_latency in any::<bool>(),
        until in 50u64..400,
    ) {
        let latency = if exp_latency {
            Latency::Exponential(6.0)
        } else {
            Latency::Uniform(1, 25)
        };
        let sequential = run_event(0, seed, n, loss, churny, latency, until);
        for threads in [1usize, 2, 3, 8] {
            let sharded = run_event(threads, seed, n, loss, churny, latency, until);
            prop_assert_eq!(
                &sharded, &sequential,
                "event threads={} diverged", threads
            );
        }
    }

    /// Cycle kernel: the phased tick is thread-count invariant — any
    /// worker count reproduces the 1-thread phased run byte-for-byte,
    /// under churn, loss and tight hop budgets.
    #[test]
    fn cycle_phased_is_thread_count_invariant(
        seed in any::<u64>(),
        n in 2usize..24,
        loss in 0.0f64..0.5,
        churny in any::<bool>(),
        max_hops in 2u32..64,
        ticks in 1u64..40,
    ) {
        let case = CycleCase { seed, n, loss, churny, max_hops, ticks };
        let reference = run_cycle(1, case);
        for threads in [2usize, 3, 8] {
            let sharded = run_cycle(threads, case);
            prop_assert_eq!(
                &sharded, &reference,
                "cycle threads={} diverged", threads
            );
        }
    }
}

/// Star traffic: every leaf's tick sends one message to the hub (node 0);
/// a receiver answers with 0, 1 or 2 messages depending on the payload, so
/// the flat per-shard outbox sees every `sent` count, silent receivers
/// included. Reply payloads shrink, so cascades die out.
#[derive(Debug, Clone, Default)]
struct StarNode {
    ticks: u64,
    trace: Vec<(u64, u64, u64)>,
}

impl Application for StarNode {
    type Message = u64;

    fn on_join(&mut self, _contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {}

    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        use gossipopt_util::Rng64;
        self.ticks += 1;
        let payload = ctx.rng().next_u64() % 1000;
        if ctx.self_id != NodeId(0) {
            ctx.send(NodeId(0), payload);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.trace.push((ctx.now, from.raw(), msg));
        match msg % 3 {
            0 => {}
            1 => ctx.send(from, msg / 3),
            _ => {
                ctx.send(from, msg / 3);
                ctx.send(NodeId(msg % 7 + 1), msg / 2);
            }
        }
    }
}

fn run_star(threads: usize, latency: Latency, churny: bool) -> Digest {
    const N: usize = 96;
    let mut cfg = EventConfig::seeded(31);
    cfg.threads = threads;
    cfg.tick_period = 10;
    cfg.jitter_phase = false; // synchronized ticks: big same-timestamp batches
    cfg.bootstrap_sample = 0;
    cfg.transport = Transport {
        loss_prob: 0.1,
        latency,
    };
    if churny {
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.02,
            joins_per_tick: 0.8,
            min_nodes: 8,
            max_nodes: 2 * N,
        };
    }
    let mut e: EventEngine<StarNode> = EventEngine::new(cfg);
    e.set_spawner(|_, _| StarNode::default());
    e.populate(N);
    e.run(300);
    let nodes = e
        .nodes()
        .map(|(id, a)| (id.raw(), a.ticks, a.trace.clone()))
        .collect();
    (nodes, e.delivered(), e.stats().dropped())
}

#[test]
fn event_sharded_equals_sequential_on_a_star() {
    let cases = [
        // Every leaf -> hub delivery of a tick lands on one timestamp: the
        // hub is the target of the entire batch.
        (Latency::Constant(3), false),
        // Deliveries coincide with the next ticks: the hub owns just under
        // half of a mixed tick + delivery batch, the leaves the rest.
        (Latency::Constant(10), false),
        // Ticks fire at t = 1, 11, 21, ... and the churn event at t = 10,
        // 20, ...: at t = 20 the batch holds deliveries sent at t = 1
        // (latency 19, scheduled before the churn event was), the churn
        // event, and deliveries sent at t = 11 (latency 9, scheduled
        // after) — a liveness barrier in mid-batch.
        (Latency::Uniform(9, 19), true),
    ];
    for (latency, churny) in cases {
        let sequential = run_star(0, latency, churny);
        assert!(sequential.1 > 0, "{latency:?}: nothing was delivered");
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                run_star(threads, latency, churny),
                sequential,
                "{latency:?} churny={churny}: threads={threads} diverged"
            );
        }
    }
}

/// Merge-shaped traffic for the reference model: two sends of every tick
/// go to a hub (node 0), one to a node just above the sender — sometimes
/// a slot not yet allocated — and every fifth tick one to an id that is never
/// allocated. Receivers answer payloads divisible by three with a third
/// of them, so cascades run several rounds and die out.
#[derive(Debug, Clone, Default)]
struct Merger {
    ticks: u64,
    trace: Vec<(u64, u64, u64)>,
}

/// Far above any id a test run allocates.
const NEVER_ALLOCATED: u64 = 1 << 40;

impl Application for Merger {
    type Message = u64;

    fn on_join(&mut self, _contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {}

    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        use gossipopt_util::Rng64;
        self.ticks += 1;
        let r = ctx.rng().next_u64();
        let me = ctx.self_id.raw();
        ctx.send(NodeId(0), r % 1000);
        ctx.send(NodeId(0), r % 999);
        ctx.send(NodeId(me + 1 + r % 16), r % 997);
        if self.ticks.is_multiple_of(5) {
            ctx.send(NodeId(NEVER_ALLOCATED + r % 3), r % 7);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.trace.push((ctx.now, from.raw(), msg));
        if msg > 0 && msg.is_multiple_of(3) {
            ctx.send(from, msg / 3);
        }
    }
}

/// One configuration of the reference-model comparison.
#[derive(Debug, Clone, Copy)]
struct ModelCase {
    loss: f64,
    churn: ChurnConfig,
}

/// Independent sequential model of the phased discipline, written from
/// its specification rather than from the kernel: churn (crash draws over
/// the live slots in ascending order, then joins), then every live
/// node's `on_tick` in slot order; each
/// delivery round is sorted stably by destination id (ties keep the
/// round's arrival order, i.e. source slot then emission sequence), and
/// every message, in that order, draws loss from the kernel stream and
/// then checks its destination's liveness. Replies form the next round.
struct Model {
    seed: u64,
    case: ModelCase,
    apps: Vec<Merger>,
    rngs: Vec<gossipopt_util::Xoshiro256pp>,
    alive: Vec<bool>,
    krng: gossipopt_util::Xoshiro256pp,
    stats: gossipopt_sim::KernelStats,
    rounds: u64,
}

impl Model {
    fn new(seed: u64, case: ModelCase, n: usize) -> Model {
        let mut model = Model {
            seed,
            case,
            apps: Vec::new(),
            rngs: Vec::new(),
            alive: Vec::new(),
            krng: gossipopt_util::Xoshiro256pp::derive(seed, gossipopt_util::StreamId::KERNEL),
            stats: Default::default(),
            rounds: 0,
        };
        (0..n).for_each(|_| model.insert());
        model
    }

    /// A join: the next id, its own node stream, no bootstrap contacts.
    fn insert(&mut self) {
        let id = self.apps.len() as u64;
        self.apps.push(Merger::default());
        self.rngs.push(gossipopt_util::Xoshiro256pp::derive(
            self.seed,
            gossipopt_util::StreamId::node(0, id),
        ));
        self.alive.push(true);
    }

    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    fn tick(&mut self, now: u64) {
        use gossipopt_util::Rng64;
        let churn = self.case.churn;
        if churn.crash_prob_per_tick > 0.0 {
            let live: Vec<usize> = (0..self.alive.len()).filter(|&i| self.alive[i]).collect();
            for i in live {
                if self.alive_count() <= churn.min_nodes {
                    break;
                }
                if self.krng.chance(churn.crash_prob_per_tick) {
                    self.alive[i] = false;
                    self.stats.crashes += 1;
                }
            }
        }
        if !churn.is_static() {
            for _ in 0..churn.sample_joins(&mut self.krng) {
                if self.alive_count() >= churn.max_nodes {
                    break;
                }
                self.insert();
                self.stats.joins += 1;
            }
        }
        let mut round = Vec::new();
        for i in (0..self.apps.len()).filter(|&i| self.alive[i]) {
            let mut outbox = Vec::new();
            let id = NodeId(i as u64);
            self.apps[i].on_tick(&mut Ctx::new(id, now, &mut self.rngs[i], &mut outbox));
            round.extend(outbox.into_iter().map(|(to, m)| (id, to, m)));
        }
        self.deliver(round, now);
    }

    fn deliver(&mut self, mut round: Vec<(NodeId, NodeId, u64)>, now: u64) {
        let transport = Transport::lossy(self.case.loss);
        let mut hops = 0u32;
        while !round.is_empty() {
            self.stats.sent += round.len() as u64;
            if hops >= CycleConfig::default().max_hops_per_tick {
                self.stats.hop_overflow += round.len() as u64;
                return;
            }
            hops += 1;
            self.rounds += 1;
            round.sort_by_key(|&(_, to, _)| to.raw());
            let mut next = Vec::new();
            for (from, to, msg) in round {
                if transport.drops(&mut self.krng) {
                    self.stats.lost += 1;
                    continue;
                }
                let t = to.raw() as usize;
                if !self.alive.get(t).copied().unwrap_or(false) {
                    self.stats.dead_letter += 1;
                    continue;
                }
                self.stats.delivered += 1;
                let mut outbox = Vec::new();
                self.apps[t].on_message(
                    from,
                    msg,
                    &mut Ctx::new(to, now, &mut self.rngs[t], &mut outbox),
                );
                next.extend(outbox.into_iter().map(|(nto, m)| (to, nto, m)));
            }
            round = next;
        }
    }
}

/// The phased tick against [`Model`]: a hub taking most sends, sends to
/// never-allocated ids, a lossy transport under churn,
/// N = 240 (several slots per bin, shard cuts inside the range), at 1, 2,
/// 3 and 8 threads. Every live node's receive trace, the kernel
/// statistics and the round count must equal the model's.
#[test]
fn phased_merge_order_matches_reference_model() {
    const N: usize = 240;
    const TICKS: u64 = 8;
    const SEED: u64 = 4242;
    let churn = ChurnConfig {
        crash_prob_per_tick: 0.02,
        joins_per_tick: 4.5,
        min_nodes: 100,
        max_nodes: 400,
    };
    let cases = [
        ModelCase {
            loss: 0.0,
            churn: ChurnConfig::none(),
        },
        ModelCase {
            loss: 0.2,
            churn: ChurnConfig::none(),
        },
        ModelCase { loss: 0.15, churn },
        ModelCase { loss: 0.0, churn },
    ];
    for case in cases {
        let mut model = Model::new(SEED, case, N);
        (1..=TICKS).for_each(|now| model.tick(now));
        let s = model.stats;
        assert!(s.delivered > 0 && s.dead_letter > 0, "{case:?}: {s:?}");
        assert_eq!(s.lost > 0, case.loss > 0.0, "{case:?}");
        let expected: NodeStates = (0..model.apps.len())
            .filter(|&i| model.alive[i])
            .map(|i| (model.apps[i].ticks, model.apps[i].trace.clone()))
            .collect();

        for threads in [1usize, 2, 3, 8] {
            let mut cfg = CycleConfig::seeded(SEED);
            cfg.threads = threads;
            cfg.transport = Transport::lossy(case.loss);
            cfg.churn = case.churn;
            cfg.bootstrap_sample = 0; // joins draw nothing from the kernel stream
            let mut e: CycleEngine<Merger> = CycleEngine::new(cfg);
            e.set_spawner(|_, _| Merger::default());
            e.populate(N);
            e.run(TICKS);
            let got: NodeStates = e.nodes().map(|(_, a)| (a.ticks, a.trace.clone())).collect();
            assert_eq!(
                got, expected,
                "{case:?} threads={threads}: traces depart the model"
            );
            assert_eq!(e.stats(), model.stats, "{case:?} threads={threads}");
            assert_eq!(e.merge_rounds(), model.rounds, "{case:?} threads={threads}");
        }
    }
}

//! Property-based tests for the simulation kernels.

use gossipopt_sim::{
    Application, ChurnConfig, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, Latency,
    Membership, NodeId, Transport, WireCounts,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Probe protocol that records everything it observes.
#[derive(Debug, Clone, Default)]
struct Probe {
    ticks: u64,
    received: Vec<(u64, u64)>, // (from, payload)
    contacts: Vec<NodeId>,
}

impl Application for Probe {
    type Message = u64;

    fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {
        self.contacts = contacts.to_vec();
    }
    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.ticks += 1;
        if let Some(&c) = self.contacts.first() {
            ctx.send(c, self.ticks);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut Ctx<'_, u64>) {
        self.received.push((from.raw(), msg));
    }
}

fn fingerprint_cycle(e: &CycleEngine<Probe>) -> Vec<(u64, u64, usize)> {
    e.nodes()
        .map(|(id, a)| (id.raw(), a.ticks, a.received.len()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cycle kernel is bit-deterministic for arbitrary seeds, sizes,
    /// loss rates and churn settings.
    #[test]
    fn cycle_engine_deterministic(
        seed in any::<u64>(),
        n in 1usize..24,
        loss in 0.0f64..1.0,
        ticks in 1u64..40,
        churny in any::<bool>(),
    ) {
        let build = || {
            let mut cfg = CycleConfig::seeded(seed);
            cfg.transport = Transport::lossy(loss);
            if churny {
                cfg.churn = ChurnConfig {
                    crash_prob_per_tick: 0.02,
                    joins_per_tick: 0.3,
                    min_nodes: 1,
                    max_nodes: 64,
                };
            }
            let mut e: CycleEngine<Probe> = CycleEngine::new(cfg);
            e.set_spawner(|_, _| Probe::default());
            e.populate(n);
            e.run(ticks);
            (fingerprint_cycle(&e), e.stats())
        };
        let (fa, sa) = build();
        let (fb, sb) = build();
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(sa, sb);
    }

    /// Message conservation in both kernels: sent = delivered + lost +
    /// dead-letter + hop-overflow, and every delivery reaches a node.
    #[test]
    fn cycle_engine_message_conservation(
        seed in any::<u64>(),
        n in 2usize..24,
        loss in 0.0f64..0.9,
        ticks in 1u64..40,
    ) {
        let mut cfg = CycleConfig::seeded(seed);
        cfg.transport = Transport::lossy(loss);
        let mut e: CycleEngine<Probe> = CycleEngine::new(cfg);
        let mut cfg = EventConfig::seeded(seed);
        cfg.tick_period = 5;
        cfg.transport = Transport {
            loss_prob: loss,
            latency: Latency::Uniform(1, 8),
        };
        let mut ev: EventEngine<Probe> = EventEngine::new(cfg);
        for i in 0..n {
            e.insert(Probe::default());
            ev.insert(Probe::default());
            if i == n / 2 {
                // Later joiners may pick it as their contact: dead letters.
                e.crash(NodeId(0));
                ev.crash(NodeId(0));
            }
        }
        e.run(ticks);
        ev.run(ticks * 5);
        for net in [&*e, &*ev] {
            let s = net.stats();
            prop_assert_eq!(s.sent, s.delivered + s.lost + s.dead_letter + s.hop_overflow);
            let received_total: usize = net.nodes().map(|(_, a)| a.received.len()).sum();
            prop_assert_eq!(received_total as u64, s.delivered);
        }
    }

    /// The event kernel conserves population under pure crash churn and
    /// never revives nodes.
    #[test]
    fn event_engine_population_monotone_under_crashes(
        seed in any::<u64>(),
        n in 2usize..24,
        crash in 0.0f64..0.3,
    ) {
        let mut cfg = EventConfig::seeded(seed);
        cfg.tick_period = 5;
        cfg.transport = Transport {
            loss_prob: 0.0,
            latency: Latency::Constant(2),
        };
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: crash,
            joins_per_tick: 0.0,
            min_nodes: 0,
            max_nodes: usize::MAX,
        };
        let mut e: EventEngine<Probe> = EventEngine::new(cfg);
        for _ in 0..n {
            e.insert(Probe::default());
        }
        let mut last = e.alive_count();
        for t in 1..=20u64 {
            e.run(t * 5);
            let now = e.alive_count();
            prop_assert!(now <= last, "population grew without joins");
            last = now;
        }
    }

    /// Ticks in the event engine respect the period exactly when no churn
    /// interferes: after time T every node has ticked floor((T - phase)/p)+1
    /// times, which is within 1 of T/p.
    #[test]
    fn event_engine_tick_counts(seed in any::<u64>(), n in 1usize..16) {
        let period = 10u64;
        let horizon = 200u64;
        let mut cfg = EventConfig::seeded(seed);
        cfg.tick_period = period;
        let mut e: EventEngine<Probe> = EventEngine::new(cfg);
        for _ in 0..n {
            e.insert(Probe::default());
        }
        e.run(horizon);
        for (_, a) in e.nodes() {
            let expected = horizon / period;
            prop_assert!(
                a.ticks >= expected - 1 && a.ticks <= expected + 1,
                "ticks {} vs expected ~{}",
                a.ticks,
                expected
            );
        }
    }
}

/// A node that keeps `(id, visits)` in its lent row: every callback checks
/// the row holds what its previous callback wrote, then writes the next
/// pair. Any row lent to the wrong node, moved without its contents, or
/// shared between two nodes breaks the check.
struct RowKeeper {
    visits: u64,
    contacts: Vec<NodeId>,
}

impl RowKeeper {
    fn new() -> Self {
        RowKeeper {
            visits: 0,
            contacts: Vec::new(),
        }
    }

    fn visit(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.self_id;
        let id = me.raw() as f64;
        let row = ctx.row();
        assert_eq!(row, [id, self.visits as f64], "row of {me:?}");
        self.visits += 1;
        row.copy_from_slice(&[id, self.visits as f64]);
    }
}

impl Application for RowKeeper {
    type Message = u64;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, u64>) {
        // A fresh row is zeroed: the "previous write" is (0, 0).
        let me = ctx.self_id;
        assert_eq!(ctx.row(), [0.0, 0.0], "fresh row of {me:?}");
        ctx.row()[0] = me.raw() as f64;
        self.contacts = contacts.to_vec();
        self.visit(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.visit(ctx);
        for &c in self.contacts.iter().take(2) {
            ctx.send(c, self.visits);
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.visit(ctx);
    }

    fn row_len(&self) -> usize {
        2
    }
}

/// Joins past the initial population: the row table grows mid-run.
fn growing_churn() -> ChurnConfig {
    ChurnConfig {
        crash_prob_per_tick: 0.0,
        joins_per_tick: 2.0,
        min_nodes: 1,
        max_nodes: usize::MAX,
    }
}

#[test]
fn lent_rows_follow_their_node_on_both_kernels() {
    const N: usize = 40;
    for threads in [0usize, 1, 2] {
        let mut cfg = CycleConfig::seeded(11);
        cfg.threads = threads;
        cfg.churn = growing_churn();
        let mut e: CycleEngine<RowKeeper> = CycleEngine::new(cfg);
        e.set_spawner(|_, _| RowKeeper::new());
        e.populate(N);
        e.run(10);
        assert!(e.crash(NodeId(3)), "threads {threads}: scripted crash");
        e.run(10);
        let s = e.stats();
        assert!(s.joins > 0 && s.delivered > 0, "threads {threads}: {s:?}");
        assert!(e.nodes().all(|(_, a)| a.visits > 0));

        let mut cfg = EventConfig::seeded(11);
        cfg.threads = threads;
        cfg.tick_period = 5;
        cfg.churn = growing_churn();
        cfg.transport = Transport {
            loss_prob: 0.0,
            latency: Latency::Uniform(1, 8),
        };
        let mut ev: EventEngine<RowKeeper> = EventEngine::new(cfg);
        ev.set_spawner(|_, _| RowKeeper::new());
        ev.populate(N);
        ev.run(50);
        assert!(ev.crash(NodeId(3)), "threads {threads}: scripted crash");
        ev.run(100);
        let s = ev.stats();
        assert!(s.joins > 0 && s.delivered > 0, "threads {threads}: {s:?}");
        assert!(ev.nodes().all(|(_, a)| a.visits > 0));
    }
}

/// A node asking for `0` floats of row, or `1`.
struct Ragged(usize);

impl Application for Ragged {
    type Message = ();
    fn on_join(&mut self, _contacts: &[NodeId], _ctx: &mut Ctx<'_, ()>) {}
    fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {}
    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
    fn row_len(&self) -> usize {
        self.0
    }
}

#[test]
#[should_panic(expected = "every node of a network must ask for the same row length")]
fn a_node_with_another_row_length_is_refused() {
    let mut e: CycleEngine<Ragged> = CycleEngine::new(CycleConfig::seeded(1));
    e.insert(Ragged(1));
    e.insert(Ragged(1));
    e.insert(Ragged(0));
}

/// Wire kinds of the ledger test: a message's kind is its value modulo
/// this, its size in bytes `1 + value % 5`.
const KINDS: u64 = 3;

/// A node that counts every message it sends and every one delivered to
/// it twice: into the ledger its callback is lent, and into its network's
/// shared tally, which outlives crashed nodes.
struct Counting {
    tally: Arc<Mutex<WireCounts>>,
    contacts: Vec<NodeId>,
    ticks: u64,
}

impl Counting {
    fn send(&mut self, ctx: &mut Ctx<'_, u64>, to: NodeId, msg: u64) {
        let (kind, bytes) = ((msg % KINDS) as usize, 1 + msg % 5);
        ctx.record_send(kind, bytes);
        self.tally.lock().unwrap().record_send(kind, bytes);
        ctx.send(to, msg);
    }
}

impl Application for Counting {
    type Message = u64;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, u64>) {
        self.contacts = contacts.to_vec();
        if let Some(&c) = contacts.first() {
            self.send(ctx, c, ctx.self_id.raw());
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.ticks += 1;
        let salt = self.ticks + ctx.self_id.raw();
        for (k, c) in self.contacts.clone().into_iter().take(2).enumerate() {
            self.send(ctx, c, salt + k as u64);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let kind = (msg % KINDS) as usize;
        ctx.record_delivery(kind);
        self.tally.lock().unwrap().record_delivery(kind);
        // Every fourth message is answered, and no answer is.
        if msg.is_multiple_of(4) {
            self.send(ctx, from, msg + 1);
        }
    }
}

/// Crashes and joins every period, joins past the populated tables.
fn counting_churn() -> ChurnConfig {
    ChurnConfig {
        crash_prob_per_tick: 0.03,
        joins_per_tick: 1.5,
        min_nodes: 4,
        max_nodes: usize::MAX,
    }
}

/// Populate 48 counting nodes through `populate`, run `first`, crash a
/// quarter of the network and its lowest live id, run `second`; return the
/// kernel's summed ledger and the nodes' own tally.
fn count_traffic<K>(
    kernel: &mut K,
    populate: impl FnOnce(&mut K),
    mut run: impl FnMut(&mut K, u64),
    (first, second): (u64, u64),
    tally: &Mutex<WireCounts>,
) -> (WireCounts, WireCounts)
where
    K: std::ops::DerefMut<Target = Membership<Counting>>,
{
    populate(kernel);
    run(kernel, first);
    assert!(kernel.crash_fraction(0.25) > 0);
    let lowest = kernel.nodes().next().map(|(id, _)| id).unwrap();
    assert!(kernel.crash(lowest));
    run(kernel, second);
    let s = kernel.stats();
    assert!(s.joins > 0 && s.lost > 0 && s.dead_letter > 0, "{s:?}");
    let ledger = kernel.wire_ledger();
    assert_eq!(
        ledger.delivered.iter().sum::<u64>(),
        s.delivered,
        "every delivery counted"
    );
    (ledger, *tally.lock().unwrap())
}

/// The kernels lend each shard its own ledger and sum them only when read:
/// whatever the shard count, the sum holds every send and delivery the
/// nodes counted — join-time sends, replies and crashed nodes' traffic
/// included — no more and no less.
#[test]
fn wire_ledgers_sum_the_same_at_every_shard_count() {
    let spawner = |tally: &Arc<Mutex<WireCounts>>| {
        let tally = Arc::clone(tally);
        move |_: NodeId, _: &mut gossipopt_util::Xoshiro256pp| Counting {
            tally: Arc::clone(&tally),
            contacts: Vec::new(),
            ticks: 0,
        }
    };
    let (mut cycle, mut event) = (Vec::new(), Vec::new());
    for threads in [0usize, 1, 2, 3] {
        let tally = Arc::new(Mutex::new(WireCounts::default()));
        let mut cfg = CycleConfig::seeded(21);
        cfg.threads = threads;
        cfg.churn = counting_churn();
        cfg.transport = Transport::lossy(0.1);
        let mut e: CycleEngine<Counting> = CycleEngine::new(cfg);
        e.set_spawner(spawner(&tally));
        let got = count_traffic(&mut e, |e| e.populate(48), |e, t| e.run(t), (8, 8), &tally);
        assert_eq!(
            got.0, got.1,
            "cycle kernel, threads {threads}: ledger vs tally"
        );
        cycle.push(got.0);

        let tally = Arc::new(Mutex::new(WireCounts::default()));
        let mut cfg = EventConfig::seeded(21);
        cfg.threads = threads;
        cfg.tick_period = 5;
        cfg.churn = counting_churn();
        cfg.transport = Transport {
            loss_prob: 0.1,
            latency: Latency::Uniform(1, 8),
        };
        let mut ev: EventEngine<Counting> = EventEngine::new(cfg);
        ev.set_spawner(spawner(&tally));
        let got = count_traffic(
            &mut ev,
            |ev| ev.populate(48),
            |ev, t| ev.run(ev.now() + t),
            (40, 40),
            &tally,
        );
        assert_eq!(
            got.0, got.1,
            "event kernel, threads {threads}: ledger vs tally"
        );
        event.push(got.0);
    }
    // The event kernel is bit-identical at every thread count; the cycle
    // kernel's `threads = 0` is another discipline, so its phased counts
    // are compared among themselves.
    assert!(
        event.iter().all(|w| *w == event[0]),
        "event kernel: {event:?}"
    );
    assert!(
        cycle[1..].iter().all(|w| *w == cycle[1]),
        "cycle kernel: {cycle:?}"
    );
}

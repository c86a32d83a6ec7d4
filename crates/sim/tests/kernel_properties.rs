//! Property-based tests for the simulation kernels.

use gossipopt_sim::{
    Application, ChurnConfig, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, Latency,
    NodeId, Transport,
};
use proptest::prelude::*;

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

//! Integration tests: the epidemic substrate protocols (rumor mongering,
//! gossip averaging) hosted inside the simulation kernel over NEWSCAST —
//! the full background-section stack, end to end — and the health of the
//! NEWSCAST overlay itself.

use gossipopt::gossip::rumor::{RumorAck, RumorConfig, RumorMonger};
use gossipopt::gossip::{graph, Newscast, NewscastConfig, NewscastMsg, PeerSampler};
use gossipopt::sim::{Application, Control, Ctx, CycleConfig, CycleEngine, NodeId};
use gossipopt::util::{OnlineStats, Rng64, Xoshiro256pp};
use proptest::prelude::*;

/// Gossip-based averaging (Jelasity, Montresor & Babaoglu, TOCS 2005),
/// the background's example epidemic service and these tests'
/// convergence yardstick.
///
/// Each node holds an estimate; a push-pull exchange replaces both nodes'
/// estimates with their mean. The population mean is invariant and the
/// empirical variance decays exponentially (by ~`1/(2√e)` per round), so
/// after `O(log n + log 1/ε)` rounds every node knows the global average.
/// Pushing `1` at one node and `0` elsewhere estimates `1/n`.
#[derive(Debug, Clone, Copy)]
struct GossipAverage {
    estimate: f64,
}

/// Wire messages of an averaging session.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AvgMsg {
    /// Initiator's current estimate.
    Offer(f64),
    /// Responder's pre-update estimate.
    Counter(f64),
}

impl GossipAverage {
    fn new(initial: f64) -> Self {
        GossipAverage { estimate: initial }
    }

    fn estimate(&self) -> f64 {
        self.estimate
    }

    /// Begin an exchange: message for a random peer.
    fn initiate(&self) -> AvgMsg {
        AvgMsg::Offer(self.estimate)
    }

    /// Handle an incoming message, returning a reply when one is due.
    fn handle(&mut self, msg: AvgMsg) -> Option<AvgMsg> {
        match msg {
            AvgMsg::Offer(theirs) => {
                let mine = self.estimate;
                self.estimate = 0.5 * (mine + theirs);
                Some(AvgMsg::Counter(mine))
            }
            AvgMsg::Counter(theirs) => {
                self.estimate = 0.5 * (self.estimate + theirs);
                None
            }
        }
    }
}

/// One averaging round over `nodes`: every node initiates with a uniform
/// random other node.
fn average_round(nodes: &mut [GossipAverage], rng: &mut Xoshiro256pp) {
    let n = nodes.len();
    for i in 0..n {
        let mut j = rng.index(n - 1);
        if j >= i {
            j += 1;
        }
        let offer = nodes[i].initiate();
        let counter = nodes[j].handle(offer).unwrap();
        nodes[i].handle(counter);
    }
}

#[test]
fn single_exchange_averages_pairwise() {
    let mut a = GossipAverage::new(10.0);
    let mut b = GossipAverage::new(2.0);
    let offer = a.initiate();
    let counter = b.handle(offer).unwrap();
    assert!(a.handle(counter).is_none());
    assert_eq!(a.estimate(), 6.0);
    assert_eq!(b.estimate(), 6.0);

    let mut a = GossipAverage::new(10.0);
    let mut b = GossipAverage::new(4.0);
    let counter = b.handle(a.initiate()).unwrap();
    a.handle(counter);
    assert_eq!((a.estimate(), b.estimate()), (7.0, 7.0));
}

#[test]
fn exchange_preserves_sum() {
    let mut a = GossipAverage::new(3.0);
    let mut b = GossipAverage::new(8.5);
    let before = a.estimate() + b.estimate();
    let offer = a.initiate();
    let counter = b.handle(offer).unwrap();
    a.handle(counter);
    let after = a.estimate() + b.estimate();
    assert!((before - after).abs() < 1e-12);
}

#[test]
fn variance_decays_to_global_mean() {
    let n = 128;
    let mut rng = Xoshiro256pp::seeded(7);
    let mut nodes: Vec<GossipAverage> = (0..n)
        .map(|_| GossipAverage::new(rng.range_f64(-100.0, 100.0)))
        .collect();
    let true_mean = nodes.iter().map(|x| x.estimate()).sum::<f64>() / n as f64;
    for _round in 0..40 {
        average_round(&mut nodes, &mut rng);
    }
    let stats: OnlineStats = nodes.iter().map(|x| x.estimate()).collect();
    assert!((stats.mean() - true_mean).abs() < 1e-9, "mean invariant");
    assert!(
        stats.std_dev() < 1e-6,
        "estimates should have converged, std={}",
        stats.std_dev()
    );
}

#[test]
fn size_estimation_trick() {
    // One node starts at 1, the rest at 0; converged mean is 1/n.
    let n = 64;
    let mut nodes: Vec<GossipAverage> = (0..n).map(|_| GossipAverage::new(0.0)).collect();
    nodes[0] = GossipAverage::new(1.0);
    let mut rng = Xoshiro256pp::seeded(8);
    for _ in 0..40 {
        average_round(&mut nodes, &mut rng);
    }
    let est_n = 1.0 / nodes[13].estimate();
    assert!((est_n - n as f64).abs() < 1.0, "estimated n = {est_n}");
}

proptest! {
    /// Gossip averaging conserves the pairwise sum exactly for arbitrary
    /// values (the invariant behind its correctness).
    #[test]
    fn averaging_conserves_mass(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        let mut x = GossipAverage::new(a);
        let mut y = GossipAverage::new(b);
        let before = x.estimate() + y.estimate();
        let offer = x.initiate();
        let counter = y.handle(offer).expect("offer gets counter");
        prop_assert!(x.handle(counter).is_none());
        let after = x.estimate() + y.estimate();
        prop_assert!((before - after).abs() <= 1e-6 * before.abs().max(1.0));
        prop_assert!((x.estimate() - y.estimate()).abs() < 1e-6 * before.abs().max(1.0));
    }
}

/// Composite protocol: NEWSCAST for peer sampling + rumor mongering +
/// averaging, multiplexed over one message enum — the same composition
/// pattern as the optimization framework.
#[derive(Debug, Clone)]
enum M {
    News(NewscastMsg),
    Rumor { gen: u64, payload: u64 },
    RumorAck { dup: bool },
    Avg(AvgMsg),
}

struct P2pApp {
    nc: Newscast,
    rumor: RumorMonger<u64>,
    avg: GossipAverage,
    avg_every: u64,
}

impl P2pApp {
    fn new(initial_avg: f64) -> Self {
        P2pApp {
            nc: Newscast::new(NewscastConfig {
                view_size: 12,
                exchange_every: 1,
            }),
            rumor: RumorMonger::new(RumorConfig {
                fanout: 2,
                stop_prob: 0.4,
            }),
            avg: GossipAverage::new(initial_avg),
            avg_every: 2,
        }
    }
}

impl Application for P2pApp {
    type Message = M;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, M>) {
        let now = ctx.now;
        self.nc.on_join(contacts, now, ctx.rng());
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, M>) {
        let (self_id, now) = (ctx.self_id, ctx.now);
        if let Some((peer, msg)) = self.nc.on_tick(self_id, now, ctx.rng()) {
            ctx.send(peer, M::News(msg));
        }
        if let Some((gen, payload, fanout)) = self.rumor.on_tick() {
            for _ in 0..fanout {
                if let Some(peer) = self.nc.sample_peer(ctx.rng()) {
                    ctx.send(peer, M::Rumor { gen, payload });
                }
            }
        }
        if now % self.avg_every == 0 {
            if let Some(peer) = self.nc.sample_peer(ctx.rng()) {
                ctx.send(peer, M::Avg(self.avg.initiate()));
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        match msg {
            M::News(m) => {
                let (self_id, now) = (ctx.self_id, ctx.now);
                if let Some(reply) = self.nc.handle(self_id, from, m, now, ctx.rng()) {
                    ctx.send(from, M::News(reply));
                }
            }
            M::Rumor { gen, payload } => {
                let ack = self.rumor.receive(gen, payload);
                let _ = gen;
                ctx.send(
                    from,
                    M::RumorAck {
                        dup: ack == RumorAck::Duplicate,
                    },
                );
            }
            M::RumorAck { dup } => {
                let ack = if dup {
                    RumorAck::Duplicate
                } else {
                    RumorAck::New
                };
                self.rumor.feedback(ack, ctx.rng());
            }
            M::Avg(m) => {
                if let Some(reply) = self.avg.handle(m) {
                    ctx.send(from, M::Avg(reply));
                }
            }
        }
    }
}

fn network(n: usize, seed: u64) -> CycleEngine<P2pApp> {
    let mut e = CycleEngine::new(CycleConfig::seeded(seed));
    for i in 0..n {
        e.insert(P2pApp::new(i as f64));
    }
    e
}

#[test]
fn rumor_broadcast_reaches_nearly_everyone_over_newscast() {
    let mut e = network(150, 1);
    e.run(10); // warm the overlay
               // Originate at an arbitrary node by mutating through a fresh insert:
               // instead, pick the node with the smallest id via a scripted message.
               // Simplest: originate inside one app before further ticks.
               // (Direct state access is fine in tests.)
    let origin = e.nodes().next().map(|(id, _)| id).unwrap();
    // No direct &mut access API — drive origination through a dedicated
    // engine: rebuild with the rumor pre-planted at node 0.
    let mut e2 = CycleEngine::new(CycleConfig::seeded(2));
    for i in 0..150 {
        let mut app = P2pApp::new(i as f64);
        if i == 0 {
            app.rumor.originate(7, 424242);
        }
        e2.insert(app);
    }
    let _ = origin;
    // Demers' analysis: with a stop probability the epidemic dies out
    // leaving a small residue of uninformed nodes, so saturation means
    // "nearly all", never "all".
    let ran = e2.run_until(200, |_, view| {
        let known = view.iter().filter(|(_, a)| a.rumor.knows(7)).count();
        if known * 100 >= view.len() * 95 {
            Control::Stop
        } else {
            Control::Continue
        }
    });
    let known = e2.nodes().filter(|(_, a)| a.rumor.knows(7)).count();
    assert!(
        known as f64 >= 0.95 * 150.0,
        "rumor reached only {known}/150 after {ran} ticks"
    );
    assert!(ran < 100, "95% saturation should be fast, took {ran} ticks");
}

#[test]
fn rumor_overhead_is_bounded_by_stop_probability() {
    let mut e = CycleEngine::new(CycleConfig::seeded(3));
    for i in 0..100 {
        let mut app = P2pApp::new(i as f64);
        if i == 0 {
            app.rumor.originate(1, 9);
        }
        e.insert(app);
    }
    e.run(150);
    let total_pushes: u64 = e.nodes().map(|(_, a)| a.rumor.sent).sum();
    // With stop_prob 0.4 and fanout 2, the expected total traffic is a
    // small multiple of n, not quadratic.
    assert!(
        total_pushes < 100 * 40,
        "pushes {total_pushes} look unbounded"
    );
    // And everyone (or nearly) still learned it.
    let known = e.nodes().filter(|(_, a)| a.rumor.knows(1)).count();
    assert!(known >= 90, "{known}/100");
}

#[test]
fn gossip_average_converges_to_population_mean_in_kernel() {
    let n = 100;
    let mut e = network(n, 4);
    // True mean of 0..n-1.
    let true_mean = (n as f64 - 1.0) / 2.0;
    e.run(120);
    let estimates: Vec<f64> = e.nodes().map(|(_, a)| a.avg.estimate()).collect();
    let max_err = estimates
        .iter()
        .map(|v| (v - true_mean).abs())
        .fold(0.0, f64::max);
    assert!(
        max_err < 0.5,
        "estimates should agree with mean {true_mean}, max err {max_err}"
    );
}

#[test]
fn composite_protocol_is_deterministic() {
    let run = |seed| {
        let mut e = network(40, seed);
        e.run(60);
        let ests: Vec<u64> = e.nodes().map(|(_, a)| a.avg.estimate().to_bits()).collect();
        (e.stats().delivered, ests)
    };
    assert_eq!(run(9), run(9));
}

/// Pure-NEWSCAST host application for overlay analysis.
struct NcApp {
    nc: Newscast,
}

impl Application for NcApp {
    type Message = NewscastMsg;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, NewscastMsg>) {
        let now = ctx.now;
        self.nc.on_join(contacts, now, ctx.rng());
    }
    fn on_tick(&mut self, ctx: &mut Ctx<'_, NewscastMsg>) {
        let (self_id, now) = (ctx.self_id, ctx.now);
        if let Some((peer, msg)) = self.nc.on_tick(self_id, now, ctx.rng()) {
            ctx.send(peer, msg);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: NewscastMsg, ctx: &mut Ctx<'_, NewscastMsg>) {
        let (self_id, now) = (ctx.self_id, ctx.now);
        if let Some(reply) = self.nc.handle(self_id, from, msg, now, ctx.rng()) {
            ctx.send(from, reply);
        }
    }
}

/// One snapshot of overlay health.
struct OverlayRow {
    label: &'static str,
    view_size: usize,
    weakly_connected: bool,
    /// Fraction of view entries referencing dead nodes.
    stale_fraction: f64,
}

fn snapshot(engine: &CycleEngine<NcApp>, label: &'static str, view_size: usize) -> OverlayRow {
    let live: Vec<NodeId> = engine.nodes().map(|(id, _)| id).collect();
    let index: std::collections::HashMap<NodeId, usize> =
        live.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut stale = 0usize;
    let mut total = 0usize;
    let adj: Vec<Vec<usize>> = engine
        .nodes()
        .map(|(_, app)| {
            app.nc
                .view()
                .ids()
                .filter_map(|id| {
                    total += 1;
                    let slot = index.get(&id).copied();
                    stale += usize::from(slot.is_none());
                    slot
                })
                .collect()
        })
        .collect();
    OverlayRow {
        label,
        view_size,
        weakly_connected: graph::is_weakly_connected(&adj),
        stale_fraction: if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        },
    }
}

/// NEWSCAST overlay health across view sizes, before and after a 50 %
/// simultaneous crash.
fn overlay_analysis(nodes: usize, seed: u64) -> Vec<OverlayRow> {
    let mut rows = Vec::new();
    for &view_size in &[4usize, 8, 20] {
        let cfg = CycleConfig::seeded(seed ^ view_size as u64);
        let mut engine: CycleEngine<NcApp> = CycleEngine::new(cfg);
        for _ in 0..nodes {
            engine.insert(NcApp {
                nc: Newscast::new(NewscastConfig {
                    view_size,
                    exchange_every: 1,
                }),
            });
        }
        engine.run(30);
        rows.push(snapshot(&engine, "steady", view_size));
        engine.crash_fraction(0.5);
        rows.push(snapshot(&engine, "after-50%-crash", view_size));
        engine.run(30);
        rows.push(snapshot(&engine, "after-repair", view_size));
    }
    rows
}

#[test]
fn overlay_analysis_shapes_and_repair() {
    // The paper's c = 20 robustness claims: the steady-state overlay is
    // connected with no stale entries, and it repairs itself after half
    // the network crashes at once.
    let rows = overlay_analysis(64, 1);
    assert_eq!(rows.len(), 9); // 3 view sizes x 3 phases
    let c20_steady = rows
        .iter()
        .find(|r| r.view_size == 20 && r.label == "steady")
        .unwrap();
    assert!(c20_steady.weakly_connected);
    assert!(c20_steady.stale_fraction < 0.01);
    let c20_repaired = rows
        .iter()
        .find(|r| r.view_size == 20 && r.label == "after-repair")
        .unwrap();
    assert!(
        c20_repaired.stale_fraction < 0.10,
        "stale {} after repair",
        c20_repaired.stale_fraction
    );
}

//! `gossip_kernel`: a harness-defined max-aggregation push-pull
//! protocol over a random 4-out-regular overlay, on both kernels and
//! both of each kernel's execution paths. Nothing of `core`, `solvers`
//! or `functions` runs — only `sim` — so this is the workload a solver
//! or evaluation optimisation must leave unchanged, and the one that
//! stresses the slot arena, the timer wheel, merge and dispatch.

use crate::gen::{self, GossipInput, Scale};
use crate::stats::Digest;
use crate::trace::{Kind, Trace};
use crate::workload::{Layers, Rep, WorkUnit, Workload};
use gossipopt::gossip::topology::k_out_regular;
use gossipopt::obs::wall::{self, WallSnapshot};
use gossipopt::sim::{
    Application, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, NodeId,
};
use gossipopt::util::{Rng64, Xoshiro256pp};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every node pushes the largest value it has seen to one random
/// neighbour per tick; a receiver holding a larger value answers with
/// it (the pull half — without it, nodes nobody points at in a directed
/// overlay could never learn the maximum).
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
        let pick = nbrs[ctx.rng().index(nbrs.len())];
        ctx.send(NodeId(pick as u64), self.best);
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        if msg > self.best {
            self.best = msg;
        } else if msg < self.best {
            ctx.send(from, self.best);
        }
    }
}

fn spawner(
    adj: &Arc<Vec<Vec<usize>>>,
    seed: u64,
) -> impl FnMut(NodeId, &mut Xoshiro256pp) -> MaxGossip + 'static {
    let neighbors = Arc::clone(adj);
    move |id, _rng| {
        let me = id.raw() as usize;
        MaxGossip {
            neighbors: Arc::clone(&neighbors),
            me,
            best: gen::gossip_initial_value(seed, me),
        }
    }
}

/// Simulated time units per tick on the event kernel.
const EVENT_TICK_PERIOD: u64 = 10;

/// The four legs, in run order: `(span and metric name, event kernel?,
/// threads)`.
pub const LEGS: [(&str, bool, usize); 4] = [
    ("sim.cycle.legacy", false, 0),
    ("sim.cycle.phased", false, 1),
    ("sim.event.seq", true, 0),
    ("sim.event.sharded", true, 1),
];

struct LegOutcome {
    delivered: u64,
    /// Nodes that hold the global maximum when the leg ends.
    informed: usize,
    /// The leg's container span (traced repetitions).
    span: Option<u32>,
}

pub struct Gossip {
    input: GossipInput,
}

impl Gossip {
    pub fn prepare(seed: u64, scale: Scale) -> Gossip {
        Gossip {
            input: gen::gossip(seed, scale),
        }
    }

    fn run_leg(
        &self,
        tr: &mut Trace,
        name: &'static str,
        event: bool,
        threads: usize,
    ) -> LegOutcome {
        let seed = self.input.seed;
        let ticks = self.input.ticks;
        let adj = if event {
            &self.input.event_adj
        } else {
            &self.input.cycle_adj
        };
        let n = adj.len();
        let target = (0..n)
            .map(|i| gen::gossip_initial_value(seed, i))
            .max()
            .expect("overlay is not empty");
        let informed = |tr: &mut Trace, best: &mut dyn Iterator<Item = u64>| {
            tr.span(Kind::Layer, "harness.check", |_| {
                best.filter(|&b| b == target).count()
            })
        };
        if event {
            let mut cfg = EventConfig::seeded(seed);
            cfg.bootstrap_sample = 0; // the overlay is explicit
            cfg.tick_period = EVENT_TICK_PERIOD;
            cfg.threads = threads;
            let mut engine = tr.span(Kind::Layer, "sim.populate", |_| {
                let mut e: EventEngine<MaxGossip> = EventEngine::new(cfg);
                e.set_spawner(spawner(adj, seed));
                e.populate(n);
                e
            });
            tr.span(Kind::Container, name, |_| {
                engine.run(ticks * EVENT_TICK_PERIOD)
            });
            let span = tr.last_closed();
            let informed = informed(tr, &mut engine.nodes().map(|(_, a)| a.best));
            LegOutcome {
                span,
                delivered: engine.delivered(),
                informed,
            }
        } else {
            let mut cfg = CycleConfig::seeded(seed);
            cfg.bootstrap_sample = 0;
            cfg.threads = threads;
            let mut engine = tr.span(Kind::Layer, "sim.populate", |_| {
                let mut e: CycleEngine<MaxGossip> = CycleEngine::new(cfg);
                e.set_spawner(spawner(adj, seed));
                e.populate(n);
                e
            });
            tr.span(Kind::Container, name, |_| engine.run(ticks));
            let span = tr.last_closed();
            let informed = informed(tr, &mut engine.nodes().map(|(_, a)| a.best));
            LegOutcome {
                span,
                delivered: engine.stats().delivered,
                informed,
            }
        }
    }
}

impl Workload for Gossip {
    fn unit(&self) -> WorkUnit {
        WorkUnit::NodeTicks
    }

    fn rep(&mut self, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Digest::default();
        wall::set_enabled(tr.enabled());
        tr.span(Kind::Container, "rep", |tr| {
            let mut event_delivered = Vec::new();
            for (name, event, threads) in LEGS {
                let before = tr.enabled().then(WallSnapshot::capture);
                let out = self.run_leg(tr, name, event, threads);
                let nodes = if event {
                    self.input.event_adj.len()
                } else {
                    self.input.cycle_adj.len()
                };
                if let (Some(before), Some(span)) = (before, out.span) {
                    // Kernel phases only: no solver runs here. They are
                    // intervals on the engine thread, so they nest as is.
                    let delta = WallSnapshot::capture().minus(&before);
                    for (phase, row) in crate::campaign::WALL_PHASES.iter().zip(&delta.phases) {
                        if row.count > 0 {
                            tr.aggregate(span, phase, row.total_ns, row.count);
                        }
                        let total = rep.wall.entry(phase).or_default();
                        total.0 += row.total_ns as f64 * 1e-9;
                        total.1 += row.count;
                    }
                }
                rep.attempted += 1;
                if out.informed != nodes {
                    rep.failures.push(format!(
                        "{name}: {} of {nodes} nodes know the maximum after {} ticks",
                        out.informed, self.input.ticks
                    ));
                }
                if event {
                    event_delivered.push(out.delivered);
                }
                rep.node_ticks += nodes as u64 * self.input.ticks;
                rep.msgs += out.delivered;
                if let Some(span) = out.span {
                    let secs = tr.spans()[span as usize].dur_ns() as f64 * 1e-9;
                    rep.legs
                        .insert(name, (secs, nodes as u64 * self.input.ticks));
                }
                digest.u64(out.delivered);
                digest.u64(out.informed as u64);
            }
            // The sharded event kernel promises the sequential engine's
            // exact behaviour at any thread count.
            if event_delivered[0] != event_delivered[1] {
                rep.failures.push(format!(
                    "event kernel delivered {} messages at threads = 0 but {} at threads = 1",
                    event_delivered[0], event_delivered[1]
                ));
            }
        });
        rep.digest = digest.value();
        rep.counts.insert("core.msgs.delivered", rep.msgs as f64);
        rep
    }

    fn probes(&self, layers: &mut Layers) {
        let mut rng = Xoshiro256pp::seeded(self.input.seed);
        let t0 = Instant::now();
        for adj in [&self.input.cycle_adj, &self.input.event_adj] {
            black_box(k_out_regular(adj.len(), gen::GOSSIP_DEGREE, &mut rng));
        }
        layers.insert("gossip.topology.build_s", t0.elapsed().as_secs_f64());
    }
}

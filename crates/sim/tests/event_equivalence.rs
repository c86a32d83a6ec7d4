//! The ported event kernel (dense slot map, timer wheel, scratch buffers)
//! must reproduce the seed implementation (HashMap id index, heap-only
//! queue, per-call allocations) **byte for byte**: same delivery order,
//! same per-node RNG draw order, same delivered/dropped accounting. This
//! file carries a faithful port of the seed engine as the reference —
//! mirroring `soa_equivalence` on the solvers side — and compares full
//! per-node delivery traces after interleaved runs, across latency models,
//! loss, phase jitter and churn, for a spread of seeds — at every shard
//! width (`threads ∈ {0, 1, 2, 3, 8}`), since the ported engine has one
//! dispatch path and the reference processes events one at a time.

use gossipopt_sim::{
    Application, ChurnConfig, Ctx, EventConfig, EventEngine, Latency, NodeId, Transport,
};
use gossipopt_util::{Rng64, StreamId, Xoshiro256pp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

// ---------------------------------------------------------------------------
// The seed's event engine, ported verbatim (allocations, HashMap and all).
// ---------------------------------------------------------------------------

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Tick { node: NodeId },
    Churn,
}

struct Event<M> {
    time: u64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct Slot<A: Application> {
    id: NodeId,
    app: A,
    rng: Xoshiro256pp,
    alive: bool,
}

type Spawner<A> = Box<dyn FnMut(NodeId, &mut Xoshiro256pp) -> A>;

struct ReferenceEventEngine<A: Application> {
    cfg: EventConfig,
    slots: Vec<Slot<A>>,
    index: HashMap<NodeId, usize>,
    alive_count: usize,
    next_id: u64,
    next_seq: u64,
    kernel_rng: Xoshiro256pp,
    now: u64,
    heap: BinaryHeap<Reverse<Event<A::Message>>>,
    spawner: Option<Spawner<A>>,
    delivered: u64,
    dropped: u64,
}

impl<A: Application> ReferenceEventEngine<A> {
    fn new(cfg: EventConfig) -> Self {
        assert!(cfg.tick_period > 0, "tick_period must be positive");
        let kernel_rng = Xoshiro256pp::derive(cfg.seed, StreamId(1, 0));
        let mut engine = ReferenceEventEngine {
            cfg,
            slots: Vec::new(),
            index: HashMap::new(),
            alive_count: 0,
            next_id: 0,
            next_seq: 0,
            kernel_rng,
            now: 0,
            heap: BinaryHeap::new(),
            spawner: None,
            delivered: 0,
            dropped: 0,
        };
        if !engine.cfg.churn.is_static() {
            let period = engine.cfg.tick_period;
            engine.schedule(period, EventKind::Churn);
        }
        engine
    }

    fn set_spawner(&mut self, f: impl FnMut(NodeId, &mut Xoshiro256pp) -> A + 'static) {
        self.spawner = Some(Box::new(f));
    }

    fn populate(&mut self, n: usize) {
        for _ in 0..n {
            let id = NodeId(self.next_id);
            let mut spawner = self.spawner.take().expect("populate requires a spawner");
            let mut node_rng = Xoshiro256pp::derive(self.cfg.seed, StreamId::node(3, id.raw()));
            let app = spawner(id, &mut node_rng);
            self.spawner = Some(spawner);
            self.insert(app);
        }
    }

    fn insert(&mut self, app: A) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let rng = Xoshiro256pp::derive(self.cfg.seed, StreamId::node(2, id.raw()));
        let contacts = self.sample_alive(self.cfg.bootstrap_sample, Some(id));
        let slot_idx = self.slots.len();
        self.slots.push(Slot {
            id,
            app,
            rng,
            alive: true,
        });
        self.index.insert(id, slot_idx);
        self.alive_count += 1;

        let mut outbox = Vec::new();
        {
            let slot = &mut self.slots[slot_idx];
            let mut ctx = Ctx::new(id, self.now, &mut slot.rng, &mut outbox);
            slot.app.on_join(&contacts, &mut ctx);
        }
        self.route(id, outbox);

        let phase = if self.cfg.jitter_phase {
            self.kernel_rng.below(self.cfg.tick_period)
        } else {
            0
        };
        self.schedule(phase + 1, EventKind::Tick { node: id });
        id
    }

    fn crash(&mut self, id: NodeId) -> bool {
        match self.index.get(&id) {
            Some(&i) if self.slots[i].alive => {
                self.slots[i].alive = false;
                self.alive_count -= 1;
                true
            }
            _ => false,
        }
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn delivered(&self) -> u64 {
        self.delivered
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn nodes(&self) -> impl Iterator<Item = (NodeId, &A)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.alive)
            .map(|s| (s.id, &s.app))
    }

    /// Seed `run` semantics with the observer stripped (it never touched
    /// event processing): pop events in `(time, seq)` order up to
    /// `max_time`, then land on `max_time`.
    fn run(&mut self, max_time: u64) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time > max_time {
                break;
            }
            let Reverse(ev) = self.heap.pop().expect("peeked event vanished");
            self.now = ev.time;
            self.process(ev.kind);
        }
        self.now = max_time;
    }

    fn schedule(&mut self, delay: u64, kind: EventKind<A::Message>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            time: self.now + delay,
            seq,
            kind,
        }));
    }

    fn process(&mut self, kind: EventKind<A::Message>) {
        match kind {
            EventKind::Tick { node } => {
                let Some(&i) = self.index.get(&node) else {
                    return;
                };
                if !self.slots[i].alive {
                    return;
                }
                let mut outbox = Vec::new();
                {
                    let slot = &mut self.slots[i];
                    let mut ctx = Ctx::new(node, self.now, &mut slot.rng, &mut outbox);
                    slot.app.on_tick(&mut ctx);
                }
                self.route(node, outbox);
                let period = self.cfg.tick_period;
                self.schedule(period, EventKind::Tick { node });
            }
            EventKind::Deliver { from, to, msg } => {
                let Some(&i) = self.index.get(&to) else {
                    self.dropped += 1;
                    return;
                };
                if !self.slots[i].alive {
                    self.dropped += 1;
                    return;
                }
                let mut outbox = Vec::new();
                {
                    let slot = &mut self.slots[i];
                    let mut ctx = Ctx::new(to, self.now, &mut slot.rng, &mut outbox);
                    slot.app.on_message(from, msg, &mut ctx);
                }
                self.delivered += 1;
                self.route(to, outbox);
            }
            EventKind::Churn => {
                self.churn_step();
                let period = self.cfg.tick_period;
                self.schedule(period, EventKind::Churn);
            }
        }
    }

    fn route(&mut self, from: NodeId, outbox: Vec<(NodeId, A::Message)>) {
        for (to, msg) in outbox {
            if self.cfg.transport.drops(&mut self.kernel_rng) {
                self.dropped += 1;
                continue;
            }
            let delay = self
                .cfg
                .transport
                .latency
                .sample(&mut self.kernel_rng)
                .max(1);
            self.schedule(delay, EventKind::Deliver { from, to, msg });
        }
    }

    fn churn_step(&mut self) {
        let churn = self.cfg.churn;
        if churn.crash_prob_per_tick > 0.0 {
            for i in 0..self.slots.len() {
                if self.alive_count <= churn.min_nodes {
                    break;
                }
                if self.slots[i].alive && self.kernel_rng.chance(churn.crash_prob_per_tick) {
                    self.slots[i].alive = false;
                    self.alive_count -= 1;
                }
            }
        }
        let joins = churn.sample_joins(&mut self.kernel_rng);
        for _ in 0..joins {
            if self.alive_count >= churn.max_nodes || self.spawner.is_none() {
                break;
            }
            let mut spawner = self.spawner.take().expect("checked above");
            let id = NodeId(self.next_id);
            let mut node_rng = Xoshiro256pp::derive(self.cfg.seed, StreamId::node(3, id.raw()));
            let app = spawner(id, &mut node_rng);
            self.spawner = Some(spawner);
            self.insert(app);
        }
    }

    fn sample_alive(&mut self, m: usize, except: Option<NodeId>) -> Vec<NodeId> {
        let alive: Vec<NodeId> = self
            .slots
            .iter()
            .filter(|s| s.alive && Some(s.id) != except)
            .map(|s| s.id)
            .collect();
        if alive.is_empty() || m == 0 {
            return Vec::new();
        }
        let m = m.min(alive.len());
        self.kernel_rng
            .sample_indices(alive.len(), m)
            .into_iter()
            .map(|i| alive[i])
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Workload: a protocol whose full observable behavior feeds the comparison.
// ---------------------------------------------------------------------------

/// Records every delivery as `(time, from, msg)` and draws private
/// randomness on tick, so delivery order, latencies, and per-node RNG
/// streams are all load-bearing in the equality assertions.
#[derive(Debug, Clone)]
struct Recorder {
    contacts: Vec<NodeId>,
    trace: Vec<(u64, u64, u64)>,
    ticks: u64,
    acc: u64,
}

impl Application for Recorder {
    type Message = u64;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, u64>) {
        self.contacts = contacts.to_vec();
        for &c in contacts {
            ctx.send(c, c.raw() ^ 0x5bd1e995);
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.ticks += 1;
        let draw = ctx.rng().next_u64();
        if !self.contacts.is_empty() {
            let pick = (draw % self.contacts.len() as u64) as usize;
            ctx.send(self.contacts[pick], draw);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.trace.push((ctx.now, from.raw(), msg));
        self.acc = self.acc.rotate_left(9).wrapping_add(msg);
        // Occasional reply exercises chained scheduling.
        if msg.is_multiple_of(7) {
            ctx.send(from, self.acc);
        }
    }
}

fn spawn_recorder(_id: NodeId, rng: &mut Xoshiro256pp) -> Recorder {
    Recorder {
        contacts: Vec::new(),
        trace: Vec::new(),
        ticks: 0,
        acc: rng.next_u64(),
    }
}

/// Per-node observable state, in live-iteration order.
type Snapshot = Vec<(u64, u64, u64, Vec<(u64, u64, u64)>)>;

/// Drive an engine through the shared script: populate, run, crash two
/// nodes mid-flight, run to the horizon. The ported engine also reports
/// its frame-coalescing savings.
fn drive_ported(cfg: EventConfig, n: usize, horizon: u64) -> ((Snapshot, u64, u64, usize), u64) {
    let mut e: EventEngine<Recorder> = EventEngine::new(cfg);
    e.set_spawner(spawn_recorder);
    e.populate(n);
    e.run(horizon / 2);
    e.crash(NodeId(1));
    e.crash(NodeId(4));
    e.run(horizon);
    let snap = e
        .nodes()
        .map(|(id, a)| (id.raw(), a.ticks, a.acc, a.trace.clone()))
        .collect();
    (
        (snap, e.delivered(), e.stats().dropped(), e.alive_count()),
        e.stats().frame_saved.total(),
    )
}

fn drive_reference(cfg: EventConfig, n: usize, horizon: u64) -> (Snapshot, u64, u64, usize) {
    let mut e: ReferenceEventEngine<Recorder> = ReferenceEventEngine::new(cfg);
    e.set_spawner(spawn_recorder);
    e.populate(n);
    e.run(horizon / 2);
    e.crash(NodeId(1));
    e.crash(NodeId(4));
    e.run(horizon);
    let snap = e
        .nodes()
        .map(|(id, a)| (id.raw(), a.ticks, a.acc, a.trace.clone()))
        .collect();
    (snap, e.delivered(), e.dropped(), e.alive_count())
}

/// The ported engine at every shard width must match the reference; at
/// `threads = 0` it must also never report coalescing savings.
fn assert_equivalent(cfg: EventConfig, n: usize, horizon: u64, label: &str) {
    let reference = drive_reference(cfg.clone(), n, horizon);
    for threads in [0, 1, 2, 3, 8] {
        let cfg = EventConfig {
            threads,
            ..cfg.clone()
        };
        let (ported, saved) = drive_ported(cfg, n, horizon);
        if threads == 0 {
            assert_eq!(saved, 0, "[{label}] threads=0 never coalesces");
        }
        assert_eq!(
            ported.1, reference.1,
            "[{label}] threads={threads}: delivered counts must match"
        );
        assert_eq!(
            ported.2, reference.2,
            "[{label}] threads={threads}: dropped counts must match"
        );
        assert_eq!(
            ported.3, reference.3,
            "[{label}] threads={threads}: alive counts must match"
        );
        assert_eq!(
            ported.0, reference.0,
            "[{label}] threads={threads}: per-node traces must match byte for byte"
        );
    }
}

#[test]
fn reliable_constant_latency_matches_seed() {
    for seed in [1u64, 2, 3, 4, 5] {
        assert_equivalent(EventConfig::seeded(seed), 24, 400, "reliable");
    }
}

#[test]
fn lossy_uniform_latency_matches_seed() {
    for seed in [11u64, 12, 13] {
        let mut cfg = EventConfig::seeded(seed);
        cfg.transport = Transport {
            loss_prob: 0.2,
            latency: Latency::Uniform(1, 25),
        };
        assert_equivalent(cfg, 24, 400, "lossy-uniform");
    }
}

#[test]
fn exponential_latency_no_jitter_matches_seed() {
    for seed in [21u64, 22, 23] {
        let mut cfg = EventConfig::seeded(seed);
        cfg.jitter_phase = false;
        cfg.transport = Transport {
            loss_prob: 0.05,
            latency: Latency::Exponential(12.0),
        };
        assert_equivalent(cfg, 16, 500, "exp-no-jitter");
    }
}

#[test]
fn churny_workload_matches_seed() {
    for seed in [31u64, 32, 33] {
        let mut cfg = EventConfig::seeded(seed);
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.03,
            joins_per_tick: 0.6,
            min_nodes: 2,
            max_nodes: 64,
        };
        cfg.transport = Transport {
            loss_prob: 0.1,
            latency: Latency::Uniform(1, 8),
        };
        assert_equivalent(cfg, 20, 600, "churny");
    }
}

#[test]
fn long_delays_cross_the_wheel_horizon() {
    // Latencies beyond the wheel's 512-slot horizon exercise the overflow
    // heap and its ordering contract against bucketed events.
    for seed in [41u64, 42] {
        let mut cfg = EventConfig::seeded(seed);
        cfg.tick_period = 40;
        cfg.transport = Transport {
            loss_prob: 0.0,
            latency: Latency::Uniform(1, 700),
        };
        assert_equivalent(cfg, 12, 3000, "long-delays");
    }
}

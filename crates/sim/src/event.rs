//! The discrete-event kernel (PeerSim's event-driven mode).
//!
//! Unlike the cycle engine's synchronous rounds, here every node runs its
//! periodic [`Application::on_tick`] on its *own clock* — a timer with the
//! shared period but an individually jittered phase — and messages take a
//! sampled latency to arrive. This is the execution model a real deployment
//! over the Internet would have, and it is used by the extension
//! experiments to check that the paper's cycle-based results survive
//! asynchrony.
//!
//! Events are totally ordered by `(time, sequence)`; equal-time events
//! process in insertion order, which keeps runs deterministic.
//!
//! ## Hot-path layout
//!
//! Joins, crashes, churn and the counters are the [`Membership`] layer the
//! cycle kernel runs on too; this kernel owns only the schedule. Node
//! storage is that layer's dense slots: the id → slot lookup is
//! arithmetic (a bounds compare) instead of the hash map the first
//! implementation paid on every delivery, and the live list makes
//! observer iteration and bootstrap sampling O(alive). The event
//! queue is an indexed timer wheel: a ring of `WHEEL_SLOTS` buckets where
//! an event `delay < WHEEL_SLOTS` lands in bucket `time % WHEEL_SLOTS` (one
//! `Vec` push, O(1), allocation-free once bucket capacities have grown),
//! with a `BinaryHeap` overflow for the rare longer delay — replacing the
//! per-event O(log n) sift of the original heap-only queue. Ordering is
//! still exactly `(time, seq)`: buckets hold a single timestamp's events in
//! insertion (= seq) order, and every overflow event for a timestamp was
//! necessarily scheduled before — so sequences below — any bucketed event
//! for it. Callbacks send into a recycled per-shard outbox rather than
//! a fresh `Vec` per callback, and equal-timestamp events dispatch
//! back-to-back in one batch (the analogue of the cycle kernel's intra-tick
//! drain): observation boundaries are checked once per distinct timestamp,
//! which cannot change the trace because new events are always scheduled at
//! least one time unit in the future.
//!
//! ## Sharded execution — `EventConfig::threads`
//!
//! There is one dispatch path. Every same-timestamp batch runs as
//! slot-range shards: up to `threads` of them in parallel, or one shard
//! on the calling thread at `threads = 0`. Unlike the cycle kernel's
//! phased tick, which is a new discipline, the result is **bit-for-bit
//! identical to processing the events one at a time in `(time, seq)`
//! order** at every thread count. A batch is *partitioned*, never sorted:
//!
//! * **Partition by slot range.** After triage (events for dead targets
//!   drop out in place) a stable partition deals the batch to at most
//!   `threads` shards, each owning a contiguous slot range (`ShardCuts`
//!   balances event counts over a coarse histogram of the batch's targets,
//!   so a hub gets a shard nearly to itself). A single shard simply keeps
//!   the batch buffer.
//! * **Per-shard seq order.** Callbacks only touch their own node's state,
//!   private RNG stream and outbox, never the kernel RNG, so the global
//!   `(time, seq)` interleaving only matters *per node* (a tick targets
//!   its node, a delivery its destination). A node's events all land in
//!   one shard, in an order that is a subsequence of seq order — the order
//!   one-at-a-time processing runs them in. Each shard appends what its
//!   callbacks send to one flat outbox and records, per event, the seq and
//!   the number of messages sent.
//! * **Replay by k-way merge.** Everything that consumes the kernel RNG or
//!   allocates sequence numbers — transport loss/latency draws and
//!   `schedule` calls — is *replayed sequentially in event-seq order*
//!   after the callbacks, exactly as one-at-a-time processing interleaves
//!   them (callbacks draw nothing from the kernel stream in between). The
//!   shards' records are already seq-sorted, so the replay merges
//!   `k <= threads` sorted lists; one shard is one straight walk.
//! * Churn events mutate liveness and spawn nodes, so a batch is split at
//!   every churn event: the sub-batch before it is processed (callbacks +
//!   replay), churn runs sequentially, and the remainder sees the updated
//!   network — the same state each event observed sequentially. Liveness
//!   is static within a sub-batch because nothing else crashes or joins
//!   nodes mid-batch.
//!
//! The committed event fingerprints therefore hold unchanged at
//! `--threads 1/2/3/8`. `tests/event_equivalence.rs` carries an
//! independent one-event-at-a-time reference engine and asserts
//! byte-identical delivery traces against it at `threads ∈ {0, 1, 2, 3,
//! 8}` under churn, loss and latency; `tests/shard_equivalence.rs` sweeps
//! randomized configurations for thread-count invariance.
//!
//! ## Frame coalescing
//!
//! At `threads >= 1` the dispatch additionally offers the application the
//! [`Application::coalesce_round`] hook: after triage, each maximal run of
//! *seq-adjacent same-destination* deliveries in a same-timestamp segment
//! may be fused into batch frames (e.g. `OptNode`'s delta-encoded
//! coordination/rumor/migrant batches). Because the run's callbacks would
//! execute back-to-back and route contiguously unfused anyway — and the
//! application's batch contract preserves per-item state transitions,
//! replies and RNG draws — fused dispatch stays bit-identical to unfused
//! dispatch; items merged away are still credited to the `delivered`
//! counter. The only statistic that may differ between `threads = 0` and
//! `threads >= 1` is [`KernelStats::frame_saved`](crate::KernelStats),
//! which is always zero at `threads == 0`.
//!
//! ## Counters
//!
//! The kernel counts into the membership's [`crate::KernelStats`]. A
//! message counts as `sent` when it resolves: delivered, `lost` to the
//! transport at send time, or a `dead_letter` at its arrival time. Messages
//! still in flight are in none of the counters, so `sent == delivered +
//! lost + dead_letter` always holds (there is no hop budget).

use crate::app::{Application, Ctx};
use crate::churn::ChurnConfig;
use crate::ids::{NodeId, Ticks};
use crate::slots::{adopt_or_append, Membership, ShardCuts};
use crate::transport::Transport;
use crate::Control;
use gossipopt_obs::wall::{self, Phase};
use gossipopt_util::{Rng64, StreamId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};

pub use crate::slots::NodesView;

/// Configuration of an [`EventEngine`].
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Root seed; all randomness in the run derives from it.
    pub seed: u64,
    /// Loss and latency models.
    pub transport: Transport,
    /// Period of each node's tick timer, in time units.
    pub tick_period: u64,
    /// Randomize each node's initial timer phase within one period
    /// (`true` models unsynchronized clocks; `false` makes all nodes fire
    /// together, approximating the cycle engine).
    pub jitter_phase: bool,
    /// Churn process; rates are interpreted per `tick_period` window.
    pub churn: ChurnConfig,
    /// How many live contacts a joining node is bootstrapped with.
    pub bootstrap_sample: usize,
    /// Shard width. `0` (default): each same-timestamp batch runs as one
    /// shard on the calling thread, without frame coalescing. `>= 1`:
    /// shard each batch across this many worker threads and let the
    /// application fuse seq-adjacent same-destination deliveries into
    /// batch frames ([`Application::coalesce_round`]); wire savings
    /// accumulate in [`crate::KernelStats::frame_saved`]. Everything else
    /// is bit-identical at every value (see the module docs).
    pub threads: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            seed: 0,
            transport: Transport::reliable(),
            tick_period: 10,
            jitter_phase: true,
            churn: ChurnConfig::none(),
            bootstrap_sample: 8,
            threads: 0,
        }
    }
}

impl EventConfig {
    /// Default configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        EventConfig {
            seed,
            ..Default::default()
        }
    }
}

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Tick { node: NodeId },
    Churn,
}

struct Event<M> {
    time: Ticks,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> Event<M> {
    /// The node this event runs on: a tick's owner, a delivery's destination.
    fn target(&self) -> NodeId {
        match &self.kind {
            EventKind::Tick { node } => *node,
            EventKind::Deliver { to, .. } => *to,
            EventKind::Churn => unreachable!("segments are split at churn events"),
        }
    }
}

// Ordering on (time, seq) only; the payload does not need Ord.
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

/// One shard of a sharded same-timestamp segment: exclusive slots of a
/// contiguous range plus the buffers it works through.
struct EventShard<'a, A: Application> {
    base: usize,
    slots: &'a mut [crate::slots::Slot<A>],
    now: Ticks,
    bufs: ShardBufs<A::Message>,
}

/// Recycled buffers of one shard; all three are in event-seq order.
struct ShardBufs<M> {
    events: Vec<Event<M>>,
    /// Every message the shard's callbacks sent, back to back; each
    /// [`Replay`] owns the next `sent` entries.
    outbox: Vec<(NodeId, M)>,
    replays: Vec<Replay>,
}

/// Deferred side effects of one processed event, replayed sequentially in
/// seq order after the parallel callback phase.
struct Replay {
    seq: u64,
    /// The event's target node (sender of the messages; owner of the timer).
    from: NodeId,
    /// How many entries of the shard's flat outbox this event sent.
    sent: u32,
    /// Tick events reschedule their timer after routing, like `process`.
    reschedule_tick: bool,
}

/// Number of buckets in the timer wheel (power of two). Delays shorter than
/// this — every tick timer and all but pathological latency samples — take
/// the O(1) bucket path; longer delays fall back to the overflow heap.
const WHEEL_SLOTS: u64 = 512;
const WHEEL_MASK: u64 = WHEEL_SLOTS - 1;

/// The discrete-event simulation kernel: the timer-wheel schedule over a
/// [`Membership`], which it dereferences to for everything that is not a
/// schedule (crashes, the spawner, node access, the counters).
pub struct EventEngine<A: Application> {
    cfg: EventConfig,
    /// Slots, joins, crashes, churn, counters and the kernel stream
    /// (`StreamId(1, 0)`; node streams `node(2 | 3, id)`).
    members: Membership<A>,
    next_seq: u64,
    now: Ticks,
    /// Timer wheel: bucket `t & WHEEL_MASK` holds the pending events for
    /// time `t` (a bucket can only ever hold one timestamp's events at a
    /// time, because events for `t + WHEEL_SLOTS` cannot be scheduled until
    /// after bucket `t` has been drained).
    wheel: Vec<Vec<Event<A::Message>>>,
    /// Events scheduled `>= WHEEL_SLOTS` ahead, ordered on `(time, seq)`.
    overflow: BinaryHeap<Reverse<Event<A::Message>>>,
    /// Total events in wheel + overflow.
    pending: usize,
    // Scratch buffers reused across events to keep dispatch allocation-free.
    /// Join-time outbox (`on_join` sends), reused across `insert` calls.
    join_outbox_buf: Vec<(NodeId, A::Message)>,
    /// Same-timestamp batch scratch.
    batch_buf: Vec<Event<A::Message>>,
    /// Recycled shard buffers, at most one per worker.
    shard_pool: Vec<ShardBufs<A::Message>>,
    /// Per-segment target histogram and the shard cuts chosen from it.
    shard_cuts: ShardCuts,
}

impl<A: Application> EventEngine<A> {
    /// Create an empty network with the given configuration.
    pub fn new(cfg: EventConfig) -> Self {
        assert!(cfg.tick_period > 0, "tick_period must be positive");
        let members = Membership::new(cfg.seed, StreamId(1, 0), 2, cfg.bootstrap_sample, cfg.churn);
        let mut engine = EventEngine {
            cfg,
            members,
            next_seq: 0,
            now: 0,
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            pending: 0,
            join_outbox_buf: Vec::new(),
            batch_buf: Vec::new(),
            shard_pool: Vec::new(),
            shard_cuts: ShardCuts::new(),
        };
        if !engine.cfg.churn.is_static() {
            let period = engine.cfg.tick_period;
            engine.schedule(period, EventKind::Churn);
        }
        engine
    }

    /// Add `n` nodes via the spawner. Panics if no spawner is installed.
    pub fn populate(&mut self, n: usize) {
        for _ in 0..n {
            let app = self.members.spawn().expect("populate requires a spawner");
            self.insert(app);
        }
    }

    /// Add one node; runs `on_join` now, hands its sends to the transport
    /// and schedules its tick timer.
    pub fn insert(&mut self, app: A) -> NodeId {
        let mut outbox = std::mem::take(&mut self.join_outbox_buf);
        let id = self.members.join(app, self.now, &mut outbox);
        for (to, msg) in outbox.drain(..) {
            self.transmit(id, to, msg);
        }
        self.join_outbox_buf = outbox;

        let phase = if self.cfg.jitter_phase {
            self.members.rng.below(self.cfg.tick_period)
        } else {
            0
        };
        self.schedule(phase + 1, EventKind::Tick { node: id });
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Period of each node's local clock ([`EventConfig::tick_period`]).
    pub fn tick_period(&self) -> Ticks {
        self.cfg.tick_period
    }

    /// Run until `max_time`, invoking `observer` every `observe_every` time
    /// units; stops early on [`Control::Stop`]. Returns the stop time.
    pub fn run_until(
        &mut self,
        max_time: Ticks,
        observe_every: Ticks,
        mut observer: impl FnMut(Ticks, &NodesView<'_, A>) -> Control,
    ) -> Ticks {
        assert!(observe_every > 0);
        let mut next_observe = self.now + observe_every;
        while let Some(batch_time) = self.next_event_time() {
            if batch_time > max_time {
                break;
            }
            // Fire observation boundaries that strictly precede the next
            // event; a boundary coinciding with events is observed after
            // all of them have been processed.
            while next_observe < batch_time {
                self.now = next_observe;
                if observer(self.now, &self.members.view()) == Control::Stop {
                    return self.now;
                }
                next_observe += observe_every;
            }
            // Direct same-timestamp dispatch: drain every event scheduled
            // for `batch_time` back-to-back in seq (FIFO) order — the
            // event-kernel analogue of the cycle kernel's intra-tick drain.
            // New events land at least one unit later, so the batch cannot
            // grow under us and no boundary can fall inside it. Overflow
            // events first: they were scheduled >= WHEEL_SLOTS before this
            // timestamp, so their sequence numbers all precede any bucketed
            // event's.
            self.now = batch_time;
            let mut batch = std::mem::take(&mut self.batch_buf);
            while let Some(Reverse(head)) = self.overflow.peek() {
                if head.time != batch_time {
                    break;
                }
                let Reverse(ev) = self.overflow.pop().expect("peeked event vanished");
                batch.push(ev);
            }
            let bucket = (batch_time & WHEEL_MASK) as usize;
            debug_assert!(self.wheel[bucket].iter().all(|ev| ev.time == batch_time));
            adopt_or_append(&mut batch, &mut self.wheel[bucket]);
            self.pending -= batch.len();
            self.process_batch(&mut batch);
            self.batch_buf = batch;
        }
        // Trailing observations up to max_time.
        while next_observe <= max_time {
            self.now = next_observe;
            if observer(self.now, &self.members.view()) == Control::Stop {
                return self.now;
            }
            next_observe += observe_every;
        }
        self.now = max_time;
        max_time
    }

    /// Run until `max_time` with no observation.
    pub fn run(&mut self, max_time: Ticks) {
        self.run_until(max_time, max_time.max(1), |_, _| Control::Continue);
    }

    /// Earliest pending event time, if any: the first non-empty wheel
    /// bucket within the horizon, min'd with the overflow head.
    fn next_event_time(&self) -> Option<Ticks> {
        if self.pending == 0 {
            return None;
        }
        let overflow_head = self.overflow.peek().map(|Reverse(e)| e.time);
        let scan_to = overflow_head
            .map(|t| (t - self.now).min(WHEEL_SLOTS))
            .unwrap_or(WHEEL_SLOTS);
        for d in 1..scan_to {
            let t = self.now + d;
            if !self.wheel[(t & WHEEL_MASK) as usize].is_empty() {
                return Some(t);
            }
        }
        debug_assert!(
            overflow_head.is_some(),
            "pending events must be within the wheel horizon or in overflow"
        );
        overflow_head
    }

    fn schedule(&mut self, delay: Ticks, kind: EventKind<A::Message>) {
        // Every internal caller already guarantees delay >= 1 (timer phases
        // are `phase + 1`, transport latencies are `.max(1)`, churn uses
        // the positive tick period), and the wheel's single-timestamp-per-
        // bucket invariant depends on it — clamp so a future delay-0
        // caller cannot silently corrupt the queue.
        let delay = delay.max(1);
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = self.now + delay;
        let ev = Event { time, seq, kind };
        if delay < WHEEL_SLOTS {
            self.wheel[(time & WHEEL_MASK) as usize].push(ev);
        } else {
            self.overflow.push(Reverse(ev));
        }
        self.pending += 1;
    }

    /// Process one same-timestamp batch: split at churn events (liveness
    /// barriers), run each sub-batch as slot-range shards, then replay
    /// routing/scheduling sequentially in seq order. Bit-identical to
    /// processing the batch event by event; leaves `batch` empty.
    fn process_batch(&mut self, batch: &mut Vec<Event<A::Message>>) {
        let is_churn = |ev: &Event<A::Message>| matches!(ev.kind, EventKind::Churn);
        if !batch.iter().any(is_churn) {
            return self.process_segment(batch);
        }
        let mut segment = Vec::new();
        for ev in batch.drain(..) {
            if is_churn(&ev) {
                self.process_segment(&mut segment);
                Membership::churn_step(self, Self::insert);
                let period = self.cfg.tick_period;
                self.schedule(period, EventKind::Churn);
            } else {
                segment.push(ev);
            }
        }
        self.process_segment(&mut segment);
    }

    /// Sharded execution of a churn-free, same-timestamp event segment
    /// (in seq order); leaves `events` empty. `threads = 0` runs it as one
    /// shard on the calling thread.
    fn process_segment(&mut self, events: &mut Vec<Event<A::Message>>) {
        let threads = self.cfg.threads.max(1);
        // Triage, in place: drop events for dead/unknown targets now
        // (liveness is static within the segment, so this matches the
        // per-event checks of one-at-a-time processing) and count the
        // survivors' targets for the shard cuts.
        let (members, cuts) = (&mut self.members, &mut self.shard_cuts);
        cuts.reset(members.slots.len(), threads);
        events.retain(|ev| match members.slot_index(ev.target()) {
            Some(t) if members.slots[t].alive => {
                cuts.count(t);
                true
            }
            _ => {
                // Crashed-node timer lapses silently; message dead-letters.
                if matches!(ev.kind, EventKind::Deliver { .. }) {
                    members.stats.dead_letter += 1;
                    members.stats.sent += 1;
                }
                false
            }
        });
        if events.is_empty() {
            return;
        }
        // Coalesce hook: fuse seq-adjacent same-destination deliveries of
        // the surviving events into batch frames (triaged events consumed
        // nothing, so adjacency among survivors is adjacency in the order
        // one-at-a-time processing interleaves routing in).
        if self.cfg.threads >= 1 {
            self.coalesce_segment(events);
        }

        // Stable partition by slot range: the first shard keeps the batch
        // buffer, compacted in place; later shards' events move out to
        // their own buffers. Every shard holds its events in seq order.
        let ranges = self.shard_cuts.cut();
        let mut bufs: Vec<ShardBufs<A::Message>> = ranges
            .iter()
            .map(|_| {
                self.shard_pool.pop().unwrap_or_else(|| ShardBufs {
                    events: Vec::new(),
                    outbox: Vec::new(),
                    replays: Vec::new(),
                })
            })
            .collect();
        let (members, cuts) = (&self.members, &self.shard_cuts);
        let shard_of = |ev: &Event<A::Message>| cuts.shard_of(members.slot_of_live(ev.target()));
        for ev in events.extract_if(.., |ev| shard_of(ev) != 0) {
            bufs[shard_of(&ev)].events.push(ev);
        }
        std::mem::swap(&mut bufs[0].events, events);

        // Callback phase: parallel shards, each running its events in seq
        // order against one flat outbox.
        let now = self.now;
        let views = crate::slots::disjoint_slot_ranges(&mut self.members.slots, &ranges);
        let tasks: Vec<EventShard<'_, A>> = views
            .into_iter()
            .zip(bufs)
            .map(|((base, slots), bufs)| EventShard {
                base,
                slots,
                now,
                bufs,
            })
            .collect();
        let dispatch_span = wall::start();
        let mut outs = rayon::execute_indexed(tasks, threads, &|mut shard: EventShard<'_, A>| {
            let mut delivered = 0u64;
            for ev in shard.bufs.events.drain(..) {
                let outbox = &mut shard.bufs.outbox;
                let before = outbox.len();
                let node = ev.target();
                let slot = &mut shard.slots[node.raw() as usize - shard.base];
                debug_assert!(slot.alive, "triage kept live targets only");
                let mut ctx = Ctx::new(node, shard.now, &mut slot.rng, outbox);
                // Ticks always replay: the timer must be rescheduled.
                let reschedule_tick = match ev.kind {
                    EventKind::Tick { .. } => {
                        slot.app.on_tick(&mut ctx);
                        true
                    }
                    EventKind::Deliver { from, msg, .. } => {
                        slot.app.on_message(from, msg, &mut ctx);
                        delivered += 1;
                        false
                    }
                    EventKind::Churn => unreachable!("segments are split at churn events"),
                };
                let sent = u32::try_from(shard.bufs.outbox.len() - before)
                    .expect("one callback's sends fit a u32");
                if reschedule_tick || sent > 0 {
                    shard.bufs.replays.push(Replay {
                        seq: ev.seq,
                        from: node,
                        sent,
                        reschedule_tick,
                    });
                }
            }
            (shard.bufs, delivered)
        });
        wall::finish(Phase::EventDispatch, dispatch_span);

        // Replay phase: sequential, in seq order — the exact interleaving
        // of kernel-RNG draws and sequence allocation the per-event loop
        // produces (callbacks never touch the kernel stream in between).
        // Each shard's replays are already seq-sorted, so this is a merge:
        // walk the shard with the smallest pending seq until it passes the
        // runner-up's. One shard is one straight walk.
        let period = self.cfg.tick_period;
        let delivered = outs.iter().map(|(_, delivered)| delivered).sum::<u64>();
        self.members.stats.delivered += delivered;
        self.members.stats.sent += delivered;
        let mut heads: Vec<_> = outs
            .iter_mut()
            .map(|(bufs, _)| (bufs.replays.iter().peekable(), bufs.outbox.drain(..)))
            .collect();
        loop {
            // `u64::MAX` stands for an exhausted shard.
            let (mut s, mut first, mut limit) = (0, u64::MAX, u64::MAX);
            for (i, (replays, _)) in heads.iter_mut().enumerate() {
                let seq = replays.peek().map_or(u64::MAX, |r| r.seq);
                if seq < first {
                    (s, limit, first) = (i, first, seq);
                } else {
                    limit = limit.min(seq);
                }
            }
            if first == u64::MAX {
                break;
            }
            let (replays, sent) = &mut heads[s];
            while let Some(r) = replays.next_if(|r| r.seq < limit) {
                for (to, msg) in sent.by_ref().take(r.sent as usize) {
                    self.transmit(r.from, to, msg);
                }
                if r.reschedule_tick {
                    self.schedule(period, EventKind::Tick { node: r.from });
                }
            }
        }
        drop(heads);
        std::mem::swap(&mut outs[0].0.events, events);
        for (mut bufs, _) in outs {
            bufs.replays.clear();
            self.shard_pool.push(bufs);
        }
    }

    /// Fuse seq-adjacent same-destination delivery runs of a triaged
    /// same-timestamp segment into batch frames via
    /// [`Application::coalesce_round`].
    ///
    /// Why this is bit-identical to unfused dispatch: the run's events are
    /// adjacent among the segment's survivors, so unfused dispatch would
    /// process their callbacks back-to-back (the receiver's state
    /// transitions and RNG draws match per-item unpacking by the
    /// application's batch contract) and route their replies contiguously
    /// in the same seq order — no other kernel-RNG consumer sits between
    /// them. Items merged away are credited to `delivered` here, so the
    /// kernel stats count per original frame exactly as unfused delivery
    /// would.
    fn coalesce_segment(&mut self, events: &mut Vec<Event<A::Message>>) {
        fn deliver_dest<M>(ev: &Event<M>) -> Option<NodeId> {
            match &ev.kind {
                EventKind::Deliver { to, .. } => Some(*to),
                _ => None,
            }
        }
        // Cheap pre-scan: leave the segment untouched unless some
        // adjacent pair delivers to the same destination.
        let fusible = events
            .windows(2)
            .any(|w| deliver_dest(&w[0]).is_some() && deliver_dest(&w[0]) == deliver_dest(&w[1]));
        if !fusible {
            return;
        }
        let taken = std::mem::take(events);
        events.reserve(taken.len());
        let mut frames: Vec<(NodeId, NodeId, A::Message)> = Vec::new();
        let mut seqs: Vec<u64> = Vec::new();
        let mut it = taken.into_iter().peekable();
        while let Some(ev) = it.next() {
            let Some(to) = deliver_dest(&ev) else {
                events.push(ev);
                continue;
            };
            let run_continues = |next: Option<&Event<A::Message>>| {
                next.is_some_and(|n| deliver_dest(n) == Some(to))
            };
            if !run_continues(it.peek()) {
                events.push(ev);
                continue;
            }
            // Collect the maximal run of adjacent deliveries for this
            // destination and hand it to the application.
            let time = ev.time;
            frames.clear();
            seqs.clear();
            let EventKind::Deliver { from, msg, .. } = ev.kind else {
                unreachable!("deliver_dest matched")
            };
            frames.push((from, to, msg));
            seqs.push(ev.seq);
            while run_continues(it.peek()) {
                let nev = it.next().expect("peeked");
                let EventKind::Deliver { from, msg, .. } = nev.kind else {
                    unreachable!("deliver_dest matched")
                };
                frames.push((from, to, msg));
                seqs.push(nev.seq);
            }
            let before = frames.len();
            let stats = &mut self.members.stats;
            stats.frame_saved += A::coalesce_round(&mut frames);
            debug_assert!(frames.len() <= before, "coalescing must not grow a run");
            // Frames merged away still arrive (inside a batch): credit
            // them to the delivery counter now so stats count per
            // original frame.
            stats.delivered += (before - frames.len()) as u64;
            stats.sent += (before - frames.len()) as u64;
            // Surviving frames keep the run's leading seqs — order within
            // the run is preserved, so replay ordering is unchanged.
            for ((from, to, msg), seq) in frames.drain(..).zip(seqs.iter().copied()) {
                events.push(Event {
                    time,
                    seq,
                    kind: EventKind::Deliver { from, to, msg },
                });
            }
        }
    }

    /// Hand one message to the transport: loss draw, latency draw, schedule.
    #[inline]
    fn transmit(&mut self, from: NodeId, to: NodeId, msg: A::Message) {
        if self.cfg.transport.drops(&mut self.members.rng) {
            self.members.stats.lost += 1;
            self.members.stats.sent += 1;
            return;
        }
        let delay = self
            .cfg
            .transport
            .latency
            .sample(&mut self.members.rng)
            .max(1);
        self.schedule(delay, EventKind::Deliver { from, to, msg });
    }
}

impl<A: Application> Deref for EventEngine<A> {
    type Target = Membership<A>;
    fn deref(&self) -> &Membership<A> {
        &self.members
    }
}

impl<A: Application> DerefMut for EventEngine<A> {
    fn deref_mut(&mut self) -> &mut Membership<A> {
        &mut self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FrameSavings;
    use crate::transport::Latency;

    /// Echo protocol: tick sends a ping to a contact; receivers count.
    #[derive(Debug)]
    struct Echo {
        contact: Option<NodeId>,
        ticks: u64,
        pings: u64,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                contact: None,
                ticks: 0,
                pings: 0,
            }
        }
    }

    impl Application for Echo {
        type Message = ();

        fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, ()>) {
            self.contact = contacts.first().copied();
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.ticks += 1;
            if let Some(c) = self.contact {
                ctx.send(c, ());
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.pings += 1;
        }
    }

    #[test]
    fn timers_fire_at_period() {
        let mut cfg = EventConfig::seeded(1);
        cfg.tick_period = 10;
        cfg.jitter_phase = false;
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        e.insert(Echo::new());
        e.run(100);
        let (_, app) = e.nodes().next().unwrap();
        // Ticks at t=1, 11, 21, ..., 91 -> 10 ticks by t=100.
        assert_eq!(app.ticks, 10);
    }

    #[test]
    fn jittered_phases_spread_ticks() {
        let mut cfg = EventConfig::seeded(2);
        cfg.tick_period = 100;
        cfg.jitter_phase = true;
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        for _ in 0..50 {
            e.insert(Echo::new());
        }
        e.run(99);
        // With uniform phases over one period each node ticks at most once
        // by t=99, and most have ticked.
        let ticks: Vec<u64> = e.nodes().map(|(_, a)| a.ticks).collect();
        assert!(ticks.iter().all(|&t| t <= 1));
        assert!(ticks.iter().sum::<u64>() >= 40);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut cfg = EventConfig::seeded(3);
        cfg.tick_period = 5;
        cfg.jitter_phase = false;
        cfg.transport = Transport {
            loss_prob: 0.0,
            latency: Latency::Constant(50),
        };
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        e.insert(Echo::new());
        e.insert(Echo::new()); // contacts node 0
        e.run(40);
        assert_eq!(e.delivered(), 0, "nothing can arrive before t=51");
        e.run(100);
        assert!(e.delivered() > 0);
    }

    #[test]
    fn loss_drops_messages() {
        let mut cfg = EventConfig::seeded(4);
        cfg.transport = Transport::lossy(1.0);
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        e.insert(Echo::new());
        e.insert(Echo::new());
        e.run(200);
        assert_eq!(e.delivered(), 0);
        assert!(e.stats().dropped() > 0);
    }

    #[test]
    fn crashed_node_timer_lapses() {
        let mut cfg = EventConfig::seeded(5);
        cfg.tick_period = 10;
        cfg.jitter_phase = false;
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        let a = e.insert(Echo::new());
        e.run(25);
        let ticks_before = e.node(a).unwrap().ticks;
        assert_eq!(ticks_before, 3); // t = 1, 11, 21
        e.crash(a);
        e.run(100);
        assert!(e.node(a).is_none());
        assert_eq!(e.alive_count(), 0);
    }

    #[test]
    fn scripted_crash_is_counted_once() {
        let mut cycle = crate::cycle::CycleEngine::new(crate::cycle::CycleConfig::seeded(5));
        let mut event = EventEngine::new(EventConfig::seeded(5));
        let a = cycle.insert(Echo::new());
        cycle.insert(Echo::new());
        assert_eq!(event.insert(Echo::new()), a);
        event.insert(Echo::new());
        for net in [&mut *cycle, &mut *event] {
            assert_eq!(net.stats().crashes, 0);
            assert!(net.crash(a));
            assert_eq!(net.stats().crashes, 1);
            assert!(!net.crash(a), "a dead node cannot crash again");
            assert_eq!(net.stats().crashes, 1);
            assert_eq!(net.alive_count(), 1);
        }
    }

    #[test]
    fn observer_cadence_and_stop() {
        let mut cfg = EventConfig::seeded(6);
        cfg.tick_period = 7;
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        e.insert(Echo::new());
        let mut seen = Vec::new();
        let stop_at = e.run_until(1000, 50, |t, view| {
            seen.push(t);
            assert_eq!(view.len(), 1);
            if t >= 200 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(stop_at, 200);
        assert_eq!(seen, vec![50, 100, 150, 200]);
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut cfg = EventConfig::seeded(seed);
            cfg.transport = Transport {
                loss_prob: 0.1,
                latency: Latency::Uniform(1, 20),
            };
            let mut e: EventEngine<Echo> = EventEngine::new(cfg);
            for _ in 0..10 {
                e.insert(Echo::new());
            }
            e.run(500);
            (
                e.delivered(),
                e.stats().dropped(),
                e.nodes().map(|(_, a)| a.pings).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn churn_with_spawner_joins_and_crashes() {
        let mut cfg = EventConfig::seeded(7);
        cfg.tick_period = 10;
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.02,
            joins_per_tick: 0.4,
            min_nodes: 2,
            max_nodes: 50,
        };
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        e.set_spawner(|_, _| Echo::new());
        e.populate(20);
        e.run(2000);
        assert!(e.alive_count() >= 2 && e.alive_count() <= 50);
        assert!(
            e.members.slots.len() > 20,
            "some joins should have happened"
        );
    }

    type RunDigest = (u64, u64, u64, Vec<(u64, u64, u64)>, [u64; 4]);

    /// Full-behavior digest of a churny, lossy, jittered run at the given
    /// shard thread count (0 = one shard on the calling thread).
    fn sharded_digest(threads: usize) -> RunDigest {
        let mut cfg = EventConfig::seeded(77);
        cfg.threads = threads;
        cfg.tick_period = 10;
        cfg.transport = Transport {
            loss_prob: 0.15,
            latency: Latency::Uniform(1, 30),
        };
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.02,
            joins_per_tick: 0.5,
            min_nodes: 4,
            max_nodes: 64,
        };
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        e.set_spawner(|_, _| Echo::new());
        e.populate(24);
        e.run(600);
        let states = e
            .nodes()
            .map(|(id, a)| (id.raw(), a.ticks, a.pings))
            .collect();
        (
            e.delivered(),
            e.stats().dropped(),
            e.now(),
            states,
            e.members.rng.state(),
        )
    }

    #[test]
    fn sharded_batches_are_bit_identical_to_sequential() {
        // The strong contract of the module docs: the shard width changes
        // nothing, down to the kernel RNG state.
        let sequential = sharded_digest(0);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                sharded_digest(threads),
                sequential,
                "threads={threads} diverged from threads=0"
            );
        }
    }

    /// Protocol whose frames fuse: every tick sends one payload item to
    /// the contact; `coalesce_round` concatenates adjacent same-dest
    /// frames (10 simulated bytes per frame, so a merged frame saves 10).
    /// Receivers count per item, which makes fused and unfused delivery
    /// observably identical.
    #[derive(Debug)]
    struct Fusing {
        contact: Option<NodeId>,
        ticks: u64,
        items: u64,
        sum: u64,
    }

    impl Application for Fusing {
        type Message = Vec<u64>;

        fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, Vec<u64>>) {
            self.contact = contacts.first().copied();
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            self.ticks += 1;
            if let Some(c) = self.contact {
                ctx.send(c, vec![self.ticks]);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Vec<u64>, _ctx: &mut Ctx<'_, Vec<u64>>) {
            self.items += msg.len() as u64;
            self.sum += msg.iter().sum::<u64>();
        }
        fn coalesce_round(round: &mut Vec<(NodeId, NodeId, Vec<u64>)>) -> FrameSavings {
            let mut saved = 0u64;
            let taken = std::mem::take(round);
            for (from, to, msg) in taken {
                match round.last_mut() {
                    Some((_, lto, lmsg)) if *lto == to => {
                        lmsg.extend_from_slice(&msg);
                        saved += 10;
                    }
                    _ => round.push((from, to, msg)),
                }
            }
            FrameSavings::from_total(saved)
        }
    }

    /// (delivered, dropped, per-node states, kernel RNG state, bytes saved).
    type FusingDigest = (u64, u64, Vec<(u64, u64, u64, u64)>, [u64; 4], u64);

    fn fusing_digest(threads: usize) -> FusingDigest {
        let mut cfg = EventConfig::seeded(21);
        cfg.threads = threads;
        cfg.tick_period = 10;
        cfg.jitter_phase = false; // synchronized ticks -> same-time batches
        cfg.transport = Transport {
            loss_prob: 0.05,
            latency: Latency::Constant(3), // same-latency sends stay batched
        };
        let mut e: EventEngine<Fusing> = EventEngine::new(cfg);
        for _ in 0..32 {
            e.insert(Fusing {
                contact: None,
                ticks: 0,
                items: 0,
                sum: 0,
            });
        }
        e.run(400);
        let states = e
            .nodes()
            .map(|(id, a)| (id.raw(), a.ticks, a.items, a.sum))
            .collect();
        (
            e.delivered(),
            e.stats().dropped(),
            states,
            e.members.rng.state(),
            e.stats().frame_saved.total(),
        )
    }

    #[test]
    fn coalesced_dispatch_is_bit_identical_to_sequential() {
        // The event-kernel coalesce hook: fused runs change nothing the
        // unfused threads=0 run can observe — delivered/dropped counts,
        // node states and the kernel RNG stream all match; only the
        // frame_saved ledger moves (and stays zero at threads=0).
        let (sd, sx, ss, srng, ssaved) = fusing_digest(0);
        assert_eq!(ssaved, 0, "threads=0 never coalesces");
        for threads in [1, 2, 3, 8] {
            let (d, x, s, rng, saved) = fusing_digest(threads);
            assert_eq!(d, sd, "threads={threads} delivered diverged");
            assert_eq!(x, sx, "threads={threads} dropped diverged");
            assert_eq!(s, ss, "threads={threads} node states diverged");
            assert_eq!(rng, srng, "threads={threads} kernel RNG diverged");
            assert!(
                saved > 0,
                "threads={threads}: synchronized ticks to shared contacts must fuse"
            );
        }
    }

    #[test]
    fn equal_time_events_fifo() {
        // With jitter off both nodes tick at t=1; node 0 was scheduled
        // first so it fires first. b's ping to a (sent t=1) arrives t=2.
        let mut cfg = EventConfig::seeded(8);
        cfg.jitter_phase = false;
        cfg.tick_period = 10;
        let mut e: EventEngine<Echo> = EventEngine::new(cfg);
        let a = e.insert(Echo::new());
        let b = e.insert(Echo::new()); // contacts a
        e.run(3);
        assert_eq!(e.node(a).unwrap().pings, 1);
        assert_eq!(e.node(b).unwrap().pings, 0);
    }
}

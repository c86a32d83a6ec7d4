//! The cycle-driven kernel (PeerSim's default execution model).
//!
//! Time advances in discrete *ticks*. Each tick the kernel:
//!
//! 1. applies churn (crashes, then joins);
//! 2. visits every live node in a freshly shuffled order, running its
//!    [`Application::on_tick`]; the node's outgoing messages — and any
//!    replies they trigger — are routed immediately, within the tick,
//!    bounded by a hop budget (PeerSim's cycle-based protocols call
//!    peers directly).
//!
//! All scheduling randomness comes from a kernel stream derived from the
//! root seed; every node owns an independent derived stream, so runs are
//! bit-reproducible and insensitive to unrelated configuration changes.
//!
//! ## Sharded (phased) execution — `CycleConfig::threads >= 1`
//!
//! With `threads = 0` (the default) ticks run the sequential discipline
//! above, byte-for-byte as they always have. Setting `threads >= 1`
//! switches the engine to the *phased* tick, which processes one tick as
//! parallel slot-range shards over the slots with a deterministic merge:
//!
//! 1. **Callback phase** — the live list is cut into contiguous slot
//!    ranges, one shard per worker; each shard runs its nodes'
//!    [`Application::on_tick`] in ascending slot order against a
//!    shard-private scratch outbox. Callbacks only touch their own node's
//!    state and private RNG stream, so shard boundaries cannot influence
//!    any node's behavior.
//! 2. **Binning at send time** — at tick start (after churn, the only
//!    thing that allocates slots) the slot table is split into coarse
//!    bins of power-of-two slot ranges (`ShardCuts`). Each lane — a
//!    callback shard now, a dispatch shard in later rounds — drains every
//!    callback's outbox into its own `bucket[lane][bin(to)]`; ids that
//!    were never allocated go to a tail bin after every slot. A lane's
//!    sources precede the next lane's, so a bin's buckets taken in lane
//!    order hold its messages in (source slot, emission sequence) order.
//! 3. **Delivery rounds, sharded by destination** — the bin
//!    sizes choose the dispatch shards (`ShardCuts::cut`: shards balance
//!    message counts, and a hub's bin closes its shard). Each shard, in
//!    parallel, counting-sorts its own bins' buckets over its own slot
//!    range into the canonical delivery order — **destination slot, then
//!    source slot, then source emission sequence**, independent of the
//!    shard count — checks liveness on its own slots, hands its slice to
//!    [`Application::coalesce_round`], dispatches, and bins the replies
//!    into its own lane of the next round (breadth-first, like the
//!    sequential drain). The one sequential step is the transport's loss
//!    draw, and only on a lossy transport: between sort and dispatch, one
//!    pass over the shards in order, then the tail, draws loss per message
//!    in canonical order, so the kernel RNG stream is consumed identically
//!    at any thread count. Tail messages are dead letters. Rounds are
//!    bounded by [`CycleConfig::max_hops_per_tick`] rather than per-cascade
//!    hops.
//!
//! The phased tick is a *different scheduling discipline* from the
//! sequential one (no per-tick shuffle, level-order delivery), but it is
//! bit-for-bit deterministic and **thread-count invariant**: every
//! `threads >= 1` value produces the identical trace, proven by the
//! sharded-vs-sequential equivalence suite (`tests/shard_equivalence.rs`)
//! and the fingerprint CI job diffing `--threads 1/2/3/8`. Churn and
//! explicit joins keep the sequential path (they run in the sequential
//! churn phase of the tick).
//!
//! ## Membership and counters
//!
//! Churn, joins, crashes and the counters are the [`Membership`] layer the
//! event kernel runs on too; this kernel owns only the rounds. A tick's
//! [`StepReport`] is what the tick added to the layer's
//! [`KernelStats`], join-time sends of churn joins included.

use crate::app::{Application, FrameSavings};
use crate::churn::ChurnConfig;
use crate::ids::{NodeId, Ticks};
use crate::slots::{Membership, ShardCuts, SlotRange};
use crate::transport::Transport;
use crate::{Control, KernelStats};
use gossipopt_obs::wall::{self, Phase};
use gossipopt_util::{Rng64, StreamId};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

pub use crate::slots::NodesView;

/// Configuration of a [`CycleEngine`].
#[derive(Debug, Clone)]
pub struct CycleConfig {
    /// Root seed; all randomness in the run derives from it.
    pub seed: u64,
    /// Loss model. The cycle kernel has no latency: messages are routed
    /// as soon as the sending callback returns, so request/reply
    /// exchanges complete within the tick (PeerSim's cycle-based
    /// semantics).
    pub transport: Transport,
    /// Churn process applied at the start of every tick.
    pub churn: ChurnConfig,
    /// Bound on chained message deliveries triggered by one callback
    /// (guards against protocols that ping-pong forever inside a tick).
    pub max_hops_per_tick: u32,
    /// How many live contacts a joining node is bootstrapped with.
    pub bootstrap_sample: usize,
    /// Execution mode. `0` (default): the sequential tick, exactly the
    /// historical semantics. `>= 1`: the sharded *phased* tick on this
    /// many worker threads (see the module docs); results are identical
    /// for every `threads >= 1` value, so `1` is the sequential reference
    /// of the same discipline.
    pub threads: usize,
}

impl Default for CycleConfig {
    fn default() -> Self {
        CycleConfig {
            seed: 0,
            transport: Transport::reliable(),
            churn: ChurnConfig::none(),
            max_hops_per_tick: 64,
            bootstrap_sample: 8,
            threads: 0,
        }
    }
}

impl CycleConfig {
    /// Default configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        CycleConfig {
            seed,
            ..Default::default()
        }
    }
}

/// Per-tick accounting returned by [`CycleEngine::tick`]: what the tick
/// added to the [`KernelStats`], churn joins' sends included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Nodes crashed by churn this tick.
    pub crashes: usize,
    /// Nodes joined by churn this tick.
    pub joins: usize,
    /// Messages delivered this tick.
    pub delivered: u64,
    /// Messages dropped (loss, dead destination, or hop-budget overflow).
    pub dropped: u64,
}

impl StepReport {
    fn between(before: &KernelStats, after: &KernelStats) -> Self {
        StepReport {
            crashes: (after.crashes - before.crashes) as usize,
            joins: (after.joins - before.joins) as usize,
            delivered: after.delivered - before.delivered,
            dropped: after.dropped() - before.dropped(),
        }
    }
}

/// The cycle-driven simulation kernel: the round schedule over a
/// [`Membership`], which it dereferences to for everything that is not a
/// schedule (crashes, the spawner, node access, the counters).
///
/// ## Hot-path layout
///
/// Node storage is the membership's slots: a dense slot map resolved by
/// arithmetic instead of a hash probe, plus a sorted `live` list
/// maintained incrementally on insert/crash so per-tick scheduling is
/// O(alive) rather than a re-filter of every slot ever allocated. Every
/// per-tick/per-message allocation is hoisted into a reusable scratch
/// buffer on the engine.
pub struct CycleEngine<A: Application> {
    cfg: CycleConfig,
    /// Slots, joins, crashes, churn, counters and the kernel stream
    /// (`StreamId::KERNEL`; node streams `node(0 | 1, id)`).
    members: Membership<A>,
    now: Ticks,
    /// Phased delivery rounds executed across the run.
    merge_rounds: u64,
    // Scratch buffers reused across ticks to keep the hot loop allocation-free.
    order_buf: Vec<u32>,
    outbox_buf: Vec<(NodeId, A::Message)>,
    queue_buf: VecDeque<(NodeId, NodeId, A::Message)>,
    /// Reply outbox reused inside `deliver_one`.
    reply_outbox_buf: Vec<(NodeId, A::Message)>,
    /// Phased tick: the slot bins of the current tick and, per round, the
    /// dispatch shards cut from the bins' sizes.
    cuts: ShardCuts,
    /// Phased tick: the current round's messages, `inbound[lane][bin]`.
    inbound: Vec<Vec<Bucket<A::Message>>>,
    /// Phased tick: the replies of the round being dispatched, laid out
    /// like `inbound` (lane = dispatch shard); the two swap every round.
    outbound: Vec<Vec<Bucket<A::Message>>>,
    /// Phased tick: one scratch set per worker, reused by every round.
    works: Vec<ShardWork<A::Message>>,
    /// Phased tick: the callback shards' positions in the live list.
    chunks: Vec<(usize, usize)>,
    /// Phased tick: the current phase's shards as slot ranges.
    ranges: Vec<(usize, usize)>,
}

/// One message of a phased round: `(from, to, msg)`.
type Envelope<M> = (NodeId, NodeId, M);

/// One lane's messages for one destination bin, in emission order. A
/// shard moves each message out exactly once, straight into its dispatch
/// order, leaving `None` behind.
type Bucket<M> = Vec<Option<Envelope<M>>>;

/// Callback-phase shard of a phased tick: exclusive slots (and rows) of
/// one contiguous range plus the live positions inside it, binning its
/// sends into its own lane of buckets.
struct TickShard<'a, A: Application> {
    range: SlotRange<'a, A>,
    live: &'a [u32],
    lane: &'a mut [Bucket<A::Message>],
    /// Per-callback `Ctx` outbox.
    tmp: &'a mut Vec<(NodeId, A::Message)>,
}

/// One dispatch shard's scratch and tallies for a delivery round of the
/// phased tick. The engine keeps one per worker, so steady-state rounds
/// allocate no message buffer.
struct ShardWork<M> {
    /// Destination slots `lo..hi` this shard owns in the current round.
    lo: usize,
    hi: usize,
    /// This round's buckets for the shard's bins: every lane's, in lane
    /// order, each lane's bins ascending. Lent by `inbound` for the round.
    inbox: Vec<Bucket<M>>,
    /// Counting-sort cursors, one per owned slot.
    cursors: Vec<u32>,
    /// Canonical order as `(inbox bucket, position)` handles: the sort
    /// permutes these, never the messages.
    order: Vec<(u32, u32)>,
    /// Messages to live destinations in canonical order, handed to the
    /// coalesce hook, then dispatched.
    survivors: Vec<Envelope<M>>,
    /// Per-callback `Ctx` outbox (also lent to the callback phase).
    tmp: Vec<(NodeId, M)>,
    /// Tallies of the last round: dead letters, deliveries, frame savings.
    dead: u64,
    delivered: u64,
    saved: FrameSavings,
}

impl<M> ShardWork<M> {
    fn new() -> Self {
        ShardWork {
            lo: 0,
            hi: 0,
            inbox: Vec::new(),
            cursors: Vec::new(),
            order: Vec::new(),
            survivors: Vec::new(),
            tmp: Vec::new(),
            dead: 0,
            delivered: 0,
            saved: FrameSavings::default(),
        }
    }

    /// Borrow this round's buckets for the bins of the slot `range` from
    /// every lane, lane by lane.
    fn lend(&mut self, lanes: &mut [Vec<Bucket<M>>], cuts: &ShardCuts, range: (usize, usize)) {
        (self.lo, self.hi) = range;
        let bins = cuts.bins_of(range);
        for lane in lanes {
            self.inbox
                .extend(lane[bins.clone()].iter_mut().map(std::mem::take));
        }
    }

    /// Put the buckets [`ShardWork::lend`] took, emptied, back where they
    /// came from, capacity and all.
    fn give_back(&mut self, lanes: &mut [Vec<Bucket<M>>], cuts: &ShardCuts) {
        let mut lent = self.inbox.drain(..);
        for lane in lanes {
            for bucket in &mut lane[cuts.bins_of((self.lo, self.hi))] {
                *bucket = lent.next().expect("every lent bucket comes back");
                debug_assert!(bucket.is_empty(), "the shard emptied its buckets");
            }
        }
    }

    /// Stable counting sort of the inbox by destination slot, on handles:
    /// one histogram pass, a prefix sum over the owned slots, one pass
    /// placing each message's handle. Buckets arrive in lane (= source)
    /// order and each is in emission order, so ties keep (source slot,
    /// emission sequence).
    fn sort(&mut self) {
        let lo = self.lo;
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.resize(self.hi - lo, 0);
        let mut total = 0usize;
        for (_, to, _) in self.inbox.iter().flatten().flatten() {
            cursors[to.raw() as usize - lo] += 1;
            total += 1;
        }
        assert!(
            u32::try_from(total).is_ok() && u32::try_from(self.inbox.len()).is_ok(),
            "a shard's round fits u32 handles"
        );
        // Counts -> each slot's first position.
        let mut start = 0u32;
        for c in cursors.iter_mut() {
            start += std::mem::replace(c, start);
        }
        self.order.clear();
        self.order.resize(total, (0, 0));
        for (k, bucket) in self.inbox.iter().enumerate() {
            for (i, m) in bucket.iter().enumerate() {
                let (_, to, _) = m.as_ref().expect("a lent bucket is full");
                let cursor = &mut cursors[to.raw() as usize - lo];
                self.order[*cursor as usize] = (k as u32, i as u32);
                *cursor += 1;
            }
        }
    }

    /// Deliver the sorted round to the shard's slots (`lo..hi`): move the
    /// messages the loss pass left into `survivors`, dropping dead
    /// letters, coalesce, dispatch, and bin the replies into `lane`.
    fn deliver<A: Application<Message = M>>(
        &mut self,
        mut slots: SlotRange<'_, A>,
        now: Ticks,
        cuts: &ShardCuts,
        lane: &mut [Bucket<M>],
    ) {
        let mut dead = 0u64;
        for &(k, i) in &self.order {
            let Some(m) = self.inbox[k as usize][i as usize].take() else {
                continue; // lost
            };
            if slots.is_live(m.1.raw() as usize) {
                self.survivors.push(m);
            } else {
                dead += 1;
            }
        }
        self.inbox.iter_mut().for_each(Vec::clear);
        self.dead = dead;
        self.delivered = self.survivors.len() as u64;
        self.saved = if !self.survivors.is_empty() {
            A::coalesce_round(&mut self.survivors)
        } else {
            FrameSavings::default()
        };
        for (from, to, msg) in self.survivors.drain(..) {
            self.tmp.clear();
            let (app, mut ctx) = slots.lend(to.raw() as usize, now, &mut self.tmp);
            app.on_message(from, msg, &mut ctx);
            for (nto, m) in self.tmp.drain(..) {
                lane[cuts.bin_of(nto)].push(Some((to, nto, m)));
            }
        }
    }
}

impl<A: Application> CycleEngine<A> {
    /// Create an empty network with the given configuration.
    pub fn new(cfg: CycleConfig) -> Self {
        let members = Membership::new(
            cfg.seed,
            StreamId::KERNEL,
            0,
            cfg.bootstrap_sample,
            cfg.churn,
        );
        CycleEngine {
            cfg,
            members,
            now: 0,
            merge_rounds: 0,
            order_buf: Vec::new(),
            outbox_buf: Vec::new(),
            queue_buf: VecDeque::new(),
            reply_outbox_buf: Vec::new(),
            cuts: ShardCuts::new(),
            inbound: Vec::new(),
            outbound: Vec::new(),
            works: Vec::new(),
            chunks: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Add `n` nodes via the spawner. Panics if no spawner is installed.
    pub fn populate(&mut self, n: usize) {
        Membership::populate(self, n, Self::insert);
    }

    /// Add one node with an explicitly constructed application; returns its
    /// id. `on_join` runs immediately with a bootstrap contact sample;
    /// any messages it sends are routed now and counted in the kernel
    /// statistics (and, for churn joins, in the surrounding tick's
    /// [`StepReport`]).
    pub fn insert(&mut self, app: A) -> NodeId {
        let mut outbox = std::mem::take(&mut self.outbox_buf);
        let id = self.members.join(app, self.now, &mut outbox);
        self.route(id, &mut outbox);
        self.outbox_buf = outbox;
        id
    }

    /// Current simulated time (ticks elapsed).
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Phased delivery rounds executed so far (`0` on the sequential
    /// path, which drains a queue instead of running merge rounds).
    pub fn merge_rounds(&self) -> u64 {
        self.merge_rounds
    }

    /// Run exactly one tick (sequential or phased, per
    /// [`CycleConfig::threads`]).
    pub fn tick(&mut self) -> StepReport {
        let before = self.members.stats;
        Membership::churn_step(self, Self::insert);
        self.now += 1;
        if self.cfg.threads >= 1 {
            self.tick_phased();
        } else {
            self.tick_sequential();
        }
        StepReport::between(&before, &self.members.stats)
    }

    /// The rest of one tick of the sequential discipline (module docs).
    fn tick_sequential(&mut self) {
        // Visit live nodes in a fresh random order. The live list is
        // maintained sorted by slot index, so copying it here yields the
        // same pre-shuffle sequence as filtering every slot (which this
        // replaces) — the shuffle therefore consumes the RNG identically.
        let mut order = std::mem::take(&mut self.order_buf);
        order.clear();
        order.extend_from_slice(&self.members.live);
        self.members.rng.shuffle(&mut order);

        let mut outbox = std::mem::take(&mut self.outbox_buf);
        // How far ahead of the sweep position to warm the cache: slot
        // memory one full miss latency out, the head of the node's row
        // (its first four lines, as for the slot) at half that distance.
        const SLOT_AHEAD: usize = 12;
        const ROW_AHEAD: usize = 6;
        for at in 0..order.len() {
            if let Some(&j) = order.get(at + SLOT_AHEAD) {
                let slot = &self.members.slots[j as usize];
                let p = slot as *const _ as *const u8;
                // A slot spans several lines (the application state, then
                // its RNG); pull the first four.
                for line in 0..4 {
                    gossipopt_util::prefetch_read(p.wrapping_add(64 * line));
                }
            }
            if let Some(&j) = order.get(at + ROW_AHEAD) {
                let row = self.members.rows.row_mut(j as usize);
                for line in row.chunks(8).take(4) {
                    gossipopt_util::prefetch_read(line.as_ptr());
                }
            }
            let i = order[at] as usize;
            // Nodes crash only in the churn phase before this loop, but a
            // stale order entry would be a logic error — guard in debug.
            debug_assert!(self.members.alive[i]);
            outbox.clear();
            let (app, mut ctx) = self.members.lend(i, self.now, &mut outbox);
            let id = ctx.self_id;
            app.on_tick(&mut ctx);
            self.route(id, &mut outbox);
        }
        self.outbox_buf = outbox;
        self.order_buf = order;
    }

    /// The rest of one tick of the sharded phased discipline (see the
    /// module docs): parallel callback shards that bin their sends by
    /// destination, then breadth-first delivery rounds. Thread-count
    /// invariant by construction — the callback phase is per-node isolated
    /// and every cross-node effect (kernel RNG draws, delivery order)
    /// follows the canonical order.
    fn tick_phased(&mut self) {
        // Churn, the only thing that allocates slots, has run: the bins
        // hold for the rest of the tick.
        let threads = self.cfg.threads.max(1);
        self.cuts.reset(self.members.slots.len(), threads);
        let buckets = self.cuts.bin_count() + 1;
        for lanes in [&mut self.inbound, &mut self.outbound] {
            lanes.resize_with(threads, Vec::new);
            for lane in lanes.iter_mut() {
                lane.resize_with(buckets, Vec::new);
            }
        }
        self.works.resize_with(threads, ShardWork::new);

        // Callback phase: every live node's on_tick, sharded over
        // contiguous slot ranges, ascending slot order within a shard; each
        // shard is a lane of the first round.
        if !self.members.live.is_empty() {
            let live = &self.members.live;
            crate::slots::even_chunks(live.len(), threads, &mut self.chunks);
            self.ranges.clear();
            self.ranges.extend(
                self.chunks
                    .iter()
                    .map(|&(s, e)| (live[s] as usize, live[e - 1] as usize + 1)),
            );
            let (now, cuts) = (self.now, &self.cuts);
            let (views, live) = self.members.shards(&self.ranges);
            let tasks: Vec<TickShard<'_, A>> = views
                .into_iter()
                .zip(&self.chunks)
                .zip(self.inbound.iter_mut().zip(&mut self.works))
                .map(|((range, &(s, e)), (lane, work))| TickShard {
                    range,
                    live: &live[s..e],
                    lane,
                    tmp: &mut work.tmp,
                })
                .collect();
            let callback_span = wall::start();
            rayon::execute_indexed(tasks, threads, &|mut shard: TickShard<'_, A>| {
                for &pos in shard.live {
                    debug_assert!(shard.range.is_live(pos as usize));
                    shard.tmp.clear();
                    let (app, mut ctx) = shard.range.lend(pos as usize, now, shard.tmp);
                    let id = ctx.self_id;
                    app.on_tick(&mut ctx);
                    for (to, m) in shard.tmp.drain(..) {
                        shard.lane[cuts.bin_of(to)].push(Some((id, to, m)));
                    }
                }
            });
            wall::finish(Phase::CycleCallback, callback_span);
        }

        self.deliver_phased();
    }

    /// Deliver the binned messages of `inbound` and the reply rounds they
    /// spawn (module docs, step 3). Each round: cut dispatch shards from
    /// the bin sizes, lend each shard its bins' buckets, sort per shard in
    /// parallel, draw loss sequentially when the transport is lossy, then
    /// dispatch per shard in parallel, replies binned into `outbound`,
    /// which becomes the next round. `max_hops_per_tick` bounds the number
    /// of rounds; the remainder is discarded as hop overflow.
    fn deliver_phased(&mut self) {
        let threads = self.cfg.threads.max(1);
        let tail = self.cuts.bin_count();
        let transport = self.cfg.transport;
        let lossy = transport.loss_prob > 0.0;
        let now = self.now;
        let mut rounds = 0u32;
        loop {
            let pending: u64 = self.inbound.iter().flatten().map(|b| b.len() as u64).sum();
            if pending == 0 {
                break;
            }
            self.members.stats.sent += pending;
            if rounds >= self.cfg.max_hops_per_tick {
                self.members.stats.hop_overflow += pending;
                self.inbound.iter_mut().flatten().for_each(Vec::clear);
                break;
            }
            rounds += 1;

            let merge_span = wall::start();
            let inbound = &self.inbound;
            self.cuts
                .recount(|bin| inbound.iter().map(|lane| lane[bin].len()).sum());
            self.cuts.cut(&mut self.ranges);
            let ranges = &self.ranges;
            let works = &mut self.works[..ranges.len()];
            for (work, &range) in works.iter_mut().zip(ranges) {
                work.lend(&mut self.inbound, &self.cuts, range);
            }
            // Never-allocated destinations: dead letters, last in canonical
            // order. Each draws loss the same way, so their order is moot.
            let mut strays = 0u64;
            for lane in self.inbound.iter_mut() {
                strays += lane[tail].len() as u64;
                lane[tail].clear();
            }

            let cuts = &self.cuts;
            rayon::execute_indexed(
                works.iter_mut().collect(),
                threads,
                &|work: &mut ShardWork<A::Message>| work.sort(),
            );
            // The one sequential pass, on a lossy transport only: loss in
            // canonical order, shards ascending, then the tail.
            let (mut lost, mut stray_lost) = (0u64, 0u64);
            if lossy {
                let krng = &mut self.members.rng;
                for work in works.iter_mut() {
                    for &(k, i) in &work.order {
                        if transport.drops(krng) {
                            work.inbox[k as usize][i as usize] = None;
                            lost += 1;
                        }
                    }
                }
                stray_lost = (0..strays).filter(|_| transport.drops(krng)).count() as u64;
            }
            wall::finish(Phase::CycleMerge, merge_span);

            let dispatch_span = wall::start();
            let (views, _) = self.members.shards(ranges);
            let tasks: Vec<_> = works
                .iter_mut()
                .zip(views)
                .zip(self.outbound.iter_mut())
                .map(|((work, slots), lane)| (work, slots, lane))
                .collect();
            rayon::execute_indexed(tasks, threads, &|(work, slots, lane)| {
                work.deliver(slots, now, cuts, lane);
            });
            wall::finish(Phase::CycleDispatch, dispatch_span);

            // Hand the lent (now empty) buckets back, tally, and make the
            // replies the next round.
            let stats = &mut self.members.stats;
            stats.dead_letter += strays - stray_lost;
            stats.lost += lost + stray_lost;
            for work in works.iter_mut() {
                work.give_back(&mut self.inbound, cuts);
                stats.dead_letter += work.dead;
                stats.delivered += work.delivered;
                stats.frame_saved += work.saved;
            }
            std::mem::swap(&mut self.inbound, &mut self.outbound);
        }
        self.merge_rounds += rounds as u64;
    }

    /// Run `ticks` ticks unconditionally.
    pub fn run(&mut self, ticks: Ticks) {
        for _ in 0..ticks {
            self.tick();
        }
    }

    /// Run up to `max_ticks`, invoking `observer` after every tick; stops
    /// early when it returns [`Control::Stop`]. Returns the number of ticks
    /// actually run.
    pub fn run_until(
        &mut self,
        max_ticks: Ticks,
        mut observer: impl FnMut(Ticks, &NodesView<'_, A>) -> Control,
    ) -> Ticks {
        for t in 0..max_ticks {
            self.tick();
            if observer(self.now, &self.members.view()) == Control::Stop {
                return t + 1;
            }
        }
        max_ticks
    }

    /// Deliver `from`'s outbox and every reply it triggers, breadth-first
    /// in level order: the outbox messages first, straight from the
    /// outbox, then their replies in arrival order — only *replies* ever
    /// touch the queue, so a reply-free exchange never pays for queue
    /// traffic. Each delivery spends one hop of the
    /// [`CycleConfig::max_hops_per_tick`] budget; once it is spent, the
    /// remainder is discarded and counted as hop overflow.
    fn route(&mut self, from: NodeId, outbox: &mut Vec<(NodeId, A::Message)>) {
        if outbox.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.queue_buf);
        debug_assert!(queue.is_empty());
        let budget = self.cfg.max_hops_per_tick;
        let mut hops = 0u32;
        let mut pending = outbox.drain(..);
        while let Some((to, msg)) = pending.next() {
            if hops >= budget {
                // Budget exhausted: discard and count the whole remainder
                // (this message, the rest of the outbox, and any queued
                // replies) in one pass.
                let discarded = 1 + pending.len() as u64 + queue.len() as u64;
                self.members.stats.sent += discarded;
                self.members.stats.hop_overflow += discarded;
                queue.clear();
                self.queue_buf = queue;
                return;
            }
            self.members.stats.sent += 1;
            hops += 1;
            self.deliver_one(from, to, msg, &mut queue);
        }
        drop(pending);
        while let Some((from, to, msg)) = queue.pop_front() {
            if hops >= budget {
                let discarded = 1 + queue.len() as u64;
                self.members.stats.sent += discarded;
                self.members.stats.hop_overflow += discarded;
                queue.clear();
                break;
            }
            self.members.stats.sent += 1;
            hops += 1;
            self.deliver_one(from, to, msg, &mut queue);
        }
        self.queue_buf = queue;
    }

    /// Attempt delivery of one message (loss, liveness, dispatch); replies
    /// produced by the receiver are appended to `queue`. Hop accounting is
    /// the caller's job.
    #[inline]
    fn deliver_one(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: A::Message,
        queue: &mut VecDeque<(NodeId, NodeId, A::Message)>,
    ) {
        let members = &mut self.members;
        if self.cfg.transport.loss_prob > 0.0 && self.cfg.transport.drops(&mut members.rng) {
            members.stats.lost += 1;
            return;
        }
        let Some(i) = members.live_slot(to) else {
            members.stats.dead_letter += 1;
            return;
        };
        let mut outbox = std::mem::take(&mut self.reply_outbox_buf);
        outbox.clear();
        let (app, mut ctx) = self.members.lend(i, self.now, &mut outbox);
        app.on_message(from, msg, &mut ctx);
        self.members.stats.delivered += 1;
        for (nto, nmsg) in outbox.drain(..) {
            queue.push_back((to, nto, nmsg));
        }
        self.reply_outbox_buf = outbox;
    }
}

impl<A: Application> Deref for CycleEngine<A> {
    type Target = Membership<A>;
    fn deref(&self) -> &Membership<A> {
        &self.members
    }
}

impl<A: Application> DerefMut for CycleEngine<A> {
    fn deref_mut(&mut self) -> &mut Membership<A> {
        &mut self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Ctx;
    use gossipopt_util::Xoshiro256pp;

    /// Toy protocol: every tick send our counter to a fixed buddy; on
    /// receive, remember the largest value seen.
    #[derive(Debug, Clone)]
    struct Counter {
        buddy: Option<NodeId>,
        sent: u64,
        max_seen: u64,
        joined_with: Vec<NodeId>,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                buddy: None,
                sent: 0,
                max_seen: 0,
                joined_with: Vec::new(),
            }
        }
    }

    impl Application for Counter {
        type Message = u64;

        fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {
            self.joined_with = contacts.to_vec();
            self.buddy = contacts.first().copied();
        }

        fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.sent += 1;
            if let Some(b) = self.buddy {
                ctx.send(b, self.sent);
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Ctx<'_, u64>) {
            self.max_seen = self.max_seen.max(msg);
        }
    }

    fn engine(seed: u64) -> CycleEngine<Counter> {
        CycleEngine::new(CycleConfig::seeded(seed))
    }

    #[test]
    fn insert_assigns_unique_ids_and_bootstraps() {
        let mut e = engine(1);
        let a = e.insert(Counter::new());
        let b = e.insert(Counter::new());
        let c = e.insert(Counter::new());
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert_eq!(c, NodeId(2));
        assert_eq!(e.alive_count(), 3);
        // First node had nobody to bootstrap from; later ones did.
        assert!(e.node(a).unwrap().joined_with.is_empty());
        assert!(!e.node(c).unwrap().joined_with.is_empty());
        assert!(!e.node(c).unwrap().joined_with.contains(&c));
    }

    #[test]
    fn ticks_advance_time_and_run_protocols() {
        let mut e = engine(2);
        for _ in 0..4 {
            e.insert(Counter::new());
        }
        e.run(10);
        assert_eq!(e.now(), 10);
        for (_, app) in e.nodes() {
            assert_eq!(app.sent, 10);
        }
        // Messages flowed: someone received a counter value.
        let max_any = e.nodes().map(|(_, a)| a.max_seen).max().unwrap();
        assert!(max_any > 0);
    }

    #[test]
    fn delivery_is_within_the_send_tick() {
        let mut e = engine(3);
        let a = e.insert(Counter::new());
        let b = e.insert(Counter::new());
        let _ = a;
        e.tick();
        // b's buddy is a (the only earlier node); after one tick a has
        // already seen b's value 1 because delivery is intra-tick.
        let max_seen: u64 = e.nodes().map(|(_, x)| x.max_seen).max().unwrap();
        assert_eq!(max_seen, 1);
        let _ = b;
    }

    #[test]
    fn crash_removes_from_view_and_drops_messages() {
        let mut e = engine(5);
        let a = e.insert(Counter::new());
        let b = e.insert(Counter::new());
        assert!(e.crash(b));
        assert!(!e.crash(b), "double crash is a no-op");
        assert_eq!(e.alive_count(), 1);
        assert!(e.node(b).is_none());
        e.run(3);
        // a keeps running; b's buddy messages (b->a) stopped, a sends to
        // nobody (a joined first, no buddy) — ensure dead-letter counted
        // when someone targets b.
        let mut e2 = engine(6);
        let a2 = e2.insert(Counter::new());
        let b2 = e2.insert(Counter::new()); // buddy = a2
        let _ = (a, a2);
        e2.crash(a2);
        e2.tick();
        assert!(e2.stats().dead_letter > 0, "b2 -> dead a2 must dead-letter");
        let _ = b2;
    }

    #[test]
    fn message_loss_is_applied() {
        let mut cfg = CycleConfig::seeded(7);
        cfg.transport = Transport::lossy(1.0);
        let mut e: CycleEngine<Counter> = CycleEngine::new(cfg);
        e.insert(Counter::new());
        e.insert(Counter::new());
        e.run(5);
        assert_eq!(e.stats().delivered, 0);
        assert!(e.stats().lost > 0);
        for (_, app) in e.nodes() {
            assert_eq!(app.max_seen, 0);
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let mut e = engine(seed);
            for _ in 0..8 {
                e.insert(Counter::new());
            }
            e.run(20);
            e.nodes().map(|(_, a)| (a.sent, a.max_seen)).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn spawner_churn_crashes_and_joins() {
        let mut cfg = CycleConfig::seeded(8);
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.05,
            joins_per_tick: 0.5,
            min_nodes: 2,
            max_nodes: 30,
        };
        let mut e: CycleEngine<Counter> = CycleEngine::new(cfg);
        e.set_spawner(|_, _| Counter::new());
        e.populate(20);
        assert_eq!(e.alive_count(), 20);
        e.run(100);
        let s = e.stats();
        assert!(s.crashes > 0, "expected some crashes");
        assert!(s.joins > 0, "expected some joins");
        assert!(e.alive_count() >= 2);
        assert!(e.alive_count() <= 30);
    }

    #[test]
    fn crash_fraction_halves_network() {
        let mut e = engine(9);
        let mut ev = crate::event::EventEngine::new(crate::event::EventConfig::seeded(9));
        for _ in 0..100 {
            e.insert(Counter::new());
            ev.insert(Counter::new());
        }
        for net in [&mut *e, &mut *ev] {
            assert_eq!(net.crash_fraction(0.5), 50);
            assert_eq!(net.alive_count(), 50);
            assert_eq!(net.stats().crashes, 50);
        }
    }

    #[test]
    fn run_until_stops_on_observer() {
        let mut e = engine(10);
        for _ in 0..4 {
            e.insert(Counter::new());
        }
        let ran = e.run_until(100, |t, view| {
            assert_eq!(view.len(), 4);
            if t >= 7 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(ran, 7);
        assert_eq!(e.now(), 7);
    }

    #[test]
    fn hop_budget_stops_infinite_ping_pong() {
        /// Protocol that replies to every message, forever.
        #[derive(Debug)]
        struct PingPong {
            peer: Option<NodeId>,
            received: u64,
        }
        impl Application for PingPong {
            type Message = ();
            fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, ()>) {
                self.peer = contacts.first().copied();
            }
            fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
                if let Some(p) = self.peer {
                    ctx.send(p, ());
                }
            }
            fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Ctx<'_, ()>) {
                self.received += 1;
                ctx.send(from, ()); // always bounce back
            }
        }
        let mut cfg = CycleConfig::seeded(11);
        cfg.max_hops_per_tick = 16;
        let mut e: CycleEngine<PingPong> = CycleEngine::new(cfg);
        e.insert(PingPong {
            peer: None,
            received: 0,
        });
        e.insert(PingPong {
            peer: None,
            received: 0,
        });
        e.tick(); // would never terminate without the budget
        assert!(e.stats().hop_overflow > 0);
    }

    #[test]
    fn view_matches_nodes_iterator() {
        let mut e = engine(12);
        for _ in 0..5 {
            e.insert(Counter::new());
        }
        e.crash(NodeId(2));
        let ids_a: Vec<NodeId> = e.nodes().map(|(id, _)| id).collect();
        let view = e.view();
        let ids_b: Vec<NodeId> = view.iter().map(|(id, _)| id).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
    }

    /// Protocol that greets every bootstrap contact the moment it joins —
    /// exercises the join-time dispatch path that used to drop its
    /// `StepReport`.
    #[derive(Debug, Clone)]
    struct Greeter {
        greetings_seen: u64,
    }

    impl Application for Greeter {
        type Message = ();

        fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, ()>) {
            for &c in contacts {
                ctx.send(c, ());
            }
        }
        fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        fn on_message(&mut self, _f: NodeId, _m: (), _ctx: &mut Ctx<'_, ()>) {
            self.greetings_seen += 1;
        }
    }

    #[test]
    fn stats_invariant_holds_with_join_time_sends() {
        let mut cfg = CycleConfig::seeded(40);
        cfg.transport = Transport::lossy(0.3);
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.05,
            joins_per_tick: 1.5,
            min_nodes: 1,
            max_nodes: 200,
        };
        let mut e: CycleEngine<Greeter> = CycleEngine::new(cfg);
        e.set_spawner(|_, _| Greeter { greetings_seen: 0 });
        e.populate(20);
        // Everything sent from here on happens inside ticks (protocol sends
        // and churn-join greetings alike) and must therefore appear in the
        // per-tick StepReports — the join-time dispatch used to drop them.
        let s0 = e.stats();
        let mut report_delivered = 0u64;
        let mut report_dropped = 0u64;
        for _ in 0..50 {
            let r = e.tick();
            report_delivered += r.delivered;
            report_dropped += r.dropped;
        }
        let s = e.stats();
        assert_eq!(
            s.sent,
            s.delivered + s.lost + s.dead_letter + s.hop_overflow,
            "conservation: {s:?}"
        );
        assert!(s.joins > 0, "churn joined nodes during the run");
        assert_eq!(
            report_delivered,
            s.delivered - s0.delivered,
            "per-tick delivered must cover every in-tick delivery, join-time included"
        );
        let dropped_stats = (s.lost + s.dead_letter + s.hop_overflow)
            - (s0.lost + s0.dead_letter + s0.hop_overflow);
        assert_eq!(
            report_dropped, dropped_stats,
            "per-tick dropped must cover every in-tick drop, join-time included"
        );
    }

    #[test]
    fn hop_overflow_bulk_discard_counts_every_message() {
        /// Floods: replies to every message with two more.
        #[derive(Debug)]
        struct Flood {
            peer: Option<NodeId>,
        }
        impl Application for Flood {
            type Message = ();
            fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, ()>) {
                self.peer = contacts.first().copied();
            }
            fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
                if let Some(p) = self.peer {
                    ctx.send(p, ());
                    ctx.send(p, ());
                }
            }
            fn on_message(&mut self, from: NodeId, _m: (), ctx: &mut Ctx<'_, ()>) {
                ctx.send(from, ());
                ctx.send(from, ());
            }
        }
        let mut cfg = CycleConfig::seeded(41);
        cfg.max_hops_per_tick = 8;
        let mut e: CycleEngine<Flood> = CycleEngine::new(cfg);
        for _ in 0..4 {
            e.insert(Flood { peer: None });
        }
        e.run(4);
        let s = e.stats();
        assert!(
            s.hop_overflow > 1,
            "doubling flood must overflow the budget"
        );
        // The bulk discard must count every remaining message exactly once:
        // delivering 8 hops of a doubling flood leaves a known remainder,
        // and conservation is the observable contract.
        assert_eq!(
            s.sent,
            s.delivered + s.lost + s.dead_letter + s.hop_overflow
        );
    }

    #[test]
    fn dense_slot_map_survives_crash_and_rejoin() {
        // Crash a node, join replacements, and confirm (a) ids are never
        // reused, (b) messages to the dead id keep dead-lettering, (c) the
        // whole schedule stays bit-deterministic.
        let run = |seed: u64| -> (Vec<u64>, KernelStats) {
            let mut e: CycleEngine<Counter> = CycleEngine::new(CycleConfig::seeded(seed));
            for _ in 0..8 {
                e.insert(Counter::new());
            }
            e.run(5);
            let dead = NodeId(3);
            assert!(e.crash(dead));
            assert!(e.node(dead).is_none(), "crashed node must disappear");
            // Rejoin: a fresh id strictly above every allocated one.
            let reborn = e.insert(Counter::new());
            assert_eq!(reborn, NodeId(8), "ids are never reused");
            assert!(e.node(reborn).is_some());
            e.run(10);
            let ids: Vec<u64> = e.nodes().map(|(id, _)| id.raw()).collect();
            (ids, e.stats())
        };
        let (ids_a, stats_a) = run(55);
        let (ids_b, stats_b) = run(55);
        assert_eq!(ids_a, ids_b);
        assert_eq!(stats_a, stats_b);
        assert!(!ids_a.contains(&3), "dead id stays dead");
        assert!(ids_a.contains(&8));
        // Someone had buddy 3 (node 4 bootstrapped when 3 was alive), so
        // dead letters must have accumulated after the crash.
        assert!(stats_a.dead_letter > 0 || stats_a.delivered > 0);
    }

    #[test]
    fn view_is_o_alive_after_mass_crash() {
        // After crashing 90% of a network, iteration must only visit
        // survivors (functional check of the incremental live list).
        let mut e = engine(56);
        for _ in 0..200 {
            e.insert(Counter::new());
        }
        let killed = e.crash_fraction(0.9);
        assert_eq!(killed, 180);
        assert_eq!(e.view().len(), 20);
        assert_eq!(e.nodes().count(), 20);
        let mut last = None;
        for (id, _) in e.nodes() {
            if let Some(prev) = last {
                assert!(id > prev, "live iteration stays in slot order");
            }
            last = Some(id);
        }
        e.run(3);
        assert_eq!(e.alive_count(), 20);
    }

    /// Run a churny, lossy, reply-heavy phased network and return a full
    /// behavioral digest (per-node state + stats).
    fn phased_digest(threads: usize) -> (Vec<(u64, u64, u64)>, KernelStats) {
        let mut cfg = CycleConfig::seeded(97);
        cfg.threads = threads;
        cfg.transport = Transport::lossy(0.2);
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.03,
            joins_per_tick: 0.6,
            min_nodes: 4,
            max_nodes: 64,
        };
        let mut e: CycleEngine<Counter> = CycleEngine::new(cfg);
        e.set_spawner(|_, _| Counter::new());
        e.populate(24);
        e.run(40);
        let states = e
            .nodes()
            .map(|(id, a)| (id.raw(), a.sent, a.max_seen))
            .collect();
        (states, e.stats())
    }

    #[test]
    fn phased_tick_is_thread_count_invariant() {
        let reference = phased_digest(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                phased_digest(threads),
                reference,
                "threads={threads} must match the 1-thread phased run"
            );
        }
    }

    #[test]
    fn phased_tick_conserves_message_accounting() {
        let (_, s) = phased_digest(4);
        assert_eq!(
            s.sent,
            s.delivered + s.lost + s.dead_letter + s.hop_overflow,
            "conservation: {s:?}"
        );
        assert!(s.delivered > 0 && s.lost > 0 && s.crashes > 0 && s.joins > 0);
    }

    #[test]
    fn phased_round_budget_stops_ping_pong() {
        #[derive(Debug)]
        struct PingPong {
            peer: Option<NodeId>,
        }
        impl Application for PingPong {
            type Message = ();
            fn on_join(&mut self, contacts: &[NodeId], _ctx: &mut Ctx<'_, ()>) {
                self.peer = contacts.first().copied();
            }
            fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
                if let Some(p) = self.peer {
                    ctx.send(p, ());
                }
            }
            fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Ctx<'_, ()>) {
                ctx.send(from, ());
            }
        }
        let mut cfg = CycleConfig::seeded(98);
        cfg.threads = 2;
        cfg.max_hops_per_tick = 16;
        let mut e: CycleEngine<PingPong> = CycleEngine::new(cfg);
        e.insert(PingPong { peer: None });
        e.insert(PingPong { peer: None });
        e.tick(); // would never terminate without the round budget
        let s = e.stats();
        assert!(s.hop_overflow > 0);
        assert_eq!(
            s.sent,
            s.delivered + s.lost + s.dead_letter + s.hop_overflow
        );
    }

    proptest::proptest! {
        /// Oracle: the canonical order is `sort_by_key(to.raw())` over the
        /// round in lane order. Under test, the merge as the engine runs
        /// it: lanes bin their runs of the round (`ShardCuts::bin_of`),
        /// the bin sizes cut the shards, each shard borrows its buckets
        /// and counting-sorts them over its own slots; the shards in order,
        /// then the tail in raw-id order, must give the oracle. Sparse and
        /// dense rounds, one to eight lanes, with and without
        /// never-allocated ids; the payload is the arrival index, so a
        /// stability slip shows as a mismatch.
        #[test]
        fn sharded_sort_matches_the_comparison_sort(
            nslots in 1usize..600,
            threads in 1usize..9,
            strays in proptest::prop_oneof![proptest::prelude::Just(0u64), 1u64..40],
            dests in proptest::collection::vec(0u64..1_000_000, 0..400),
        ) {
            let round: Vec<Envelope<usize>> = dests
                .iter()
                .enumerate()
                .map(|(i, d)| (NodeId(i as u64), NodeId(d % (nslots as u64 + strays)), i))
                .collect();
            let mut oracle = round.clone();
            oracle.sort_by_key(|&(_, to, _)| to.raw());

            let mut cuts = ShardCuts::new();
            cuts.reset(nslots, threads);
            let tail = cuts.bin_count();
            let mut lanes: Vec<Vec<Bucket<usize>>> = vec![vec![Vec::new(); tail + 1]; threads];
            let mut runs = Vec::new();
            crate::slots::even_chunks(round.len(), threads, &mut runs);
            for (lane, &(s, e)) in lanes.iter_mut().zip(&runs) {
                for &m in &round[s..e] {
                    lane[cuts.bin_of(m.1)].push(Some(m));
                }
            }
            cuts.recount(|bin| lanes.iter().map(|lane| lane[bin].len()).sum());
            let mut work = ShardWork::new();
            work.cursors = vec![7; 3]; // dirty scratch
            let mut merged = Vec::new();
            let mut ranges = Vec::new();
            cuts.cut(&mut ranges);
            for range in ranges {
                work.lend(&mut lanes, &cuts, range);
                work.sort();
                for &(k, i) in &work.order {
                    let m = work.inbox[k as usize][i as usize].take();
                    merged.push(m.expect("every handle is distinct"));
                }
                work.inbox.iter_mut().for_each(Vec::clear);
                work.give_back(&mut lanes, &cuts);
            }
            let mut tail_msgs: Vec<Envelope<usize>> =
                lanes.iter_mut().flat_map(|lane| lane[tail].drain(..).flatten()).collect();
            tail_msgs.sort_by_key(|&(_, to, _)| to.raw());
            merged.extend(tail_msgs);
            proptest::prop_assert!(lanes.iter().flatten().all(Vec::is_empty));
            proptest::prop_assert_eq!(merged, oracle);
        }
    }

    /// Sprays traffic at allocated ids (live and crashed) every tick, at
    /// never-allocated ids on some ticks, and thins out to a sixteenth of
    /// the senders on others — dense and sparse rounds, with and without a
    /// tail bin.
    #[derive(Debug, Clone, Default)]
    struct Stray {
        population: u64,
        ticks: u64,
        heard: u64,
    }

    impl Application for Stray {
        type Message = u64;

        fn on_join(&mut self, _contacts: &[NodeId], _ctx: &mut Ctx<'_, u64>) {}

        fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.ticks += 1;
            let r = ctx.rng().next_u64();
            if self.ticks.is_multiple_of(3) && !ctx.self_id.raw().is_multiple_of(16) {
                return; // sparse tick
            }
            ctx.send(NodeId(r % self.population), r);
            if self.ticks % 3 == 1 {
                ctx.send(NodeId(self.population + r % 7), r);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.heard = self.heard.wrapping_mul(31).wrapping_add(msg);
            if msg.is_multiple_of(4) {
                ctx.send(from, msg / 4 + 1);
            }
        }
    }

    #[test]
    fn phased_loss_draws_follow_the_comparison_sort_order() {
        const N: u64 = 200;
        const SEED: u64 = 1234;
        const TICKS: u64 = 12;
        let crashed = |id: u64| id % 9 == 4;
        let transport = Transport::lossy(0.25);

        // Reference model of the phased discipline, with the canonical
        // order spelled as a comparison sort:
        // loss draws, dead letters and deliveries in exactly that order.
        let mut apps: Vec<Stray> = (0..N)
            .map(|_| Stray {
                population: N,
                ..Stray::default()
            })
            .collect();
        let mut rngs: Vec<Xoshiro256pp> = (0..N)
            .map(|id| Xoshiro256pp::derive(SEED, StreamId::node(0, id)))
            .collect();
        let mut krng = Xoshiro256pp::derive(SEED, StreamId::KERNEL);
        let mut model = KernelStats::default();
        let live = |id: u64| id < N && !crashed(id);
        for now in 1..=TICKS {
            let mut round: Vec<(NodeId, NodeId, u64)> = Vec::new();
            for i in (0..N).filter(|&i| live(i)) {
                let mut outbox = Vec::new();
                let mut ctx = Ctx::new(NodeId(i), now, &mut rngs[i as usize], &mut outbox);
                apps[i as usize].on_tick(&mut ctx);
                round.extend(outbox.into_iter().map(|(to, m)| (NodeId(i), to, m)));
            }
            while !round.is_empty() {
                round.sort_by_key(|&(_, to, _)| to.raw());
                let mut next = Vec::new();
                for (from, to, msg) in round {
                    model.sent += 1;
                    if transport.drops(&mut krng) {
                        model.lost += 1;
                    } else if !live(to.raw()) {
                        model.dead_letter += 1;
                    } else {
                        model.delivered += 1;
                        let t = to.raw() as usize;
                        let mut outbox = Vec::new();
                        let mut ctx = Ctx::new(to, now, &mut rngs[t], &mut outbox);
                        apps[t].on_message(from, msg, &mut ctx);
                        next.extend(outbox.into_iter().map(|(nto, m)| (to, nto, m)));
                    }
                }
                round = next;
            }
        }
        model.crashes = (0..N).filter(|&id| crashed(id)).count() as u64;
        assert!(model.lost > 0 && model.dead_letter > 0 && model.delivered > 0);

        for threads in [1, 2, 3, 8] {
            let mut cfg = CycleConfig::seeded(SEED);
            cfg.threads = threads;
            cfg.transport = transport;
            cfg.bootstrap_sample = 0; // no kernel draws at join time
            let mut e: CycleEngine<Stray> = CycleEngine::new(cfg);
            for _ in 0..N {
                e.insert(Stray {
                    population: N,
                    ..Stray::default()
                });
            }
            for id in (0..N).filter(|&id| crashed(id)) {
                assert!(e.crash(NodeId(id)));
            }
            e.run(TICKS);
            assert_eq!(e.stats(), model, "threads={threads}");
            assert_eq!(e.members.rng.state(), krng.state(), "threads={threads}");
            let heard: Vec<u64> = e.nodes().map(|(_, a)| a.heard).collect();
            let expected: Vec<u64> = (0..N)
                .filter(|&i| live(i))
                .map(|i| apps[i as usize].heard)
                .collect();
            assert_eq!(heard, expected, "threads={threads}");
        }
    }

    #[test]
    fn populate_uses_spawner_rng_deterministically() {
        let build = |seed| {
            let mut e: CycleEngine<Counter> = CycleEngine::new(CycleConfig::seeded(seed));
            e.set_spawner(|_, rng| {
                let mut c = Counter::new();
                c.sent = rng.below(1000); // spawner-visible randomness
                c
            });
            e.populate(6);
            e.nodes().map(|(_, a)| a.sent).collect::<Vec<_>>()
        };
        assert_eq!(build(31), build(31));
    }
}

//! The membership layer both kernels run on.
//!
//! A node's life-cycle — entry with a bootstrap sample, crash, churn — is
//! one model, independent of how a kernel advances time. [`Membership`]
//! owns it: the slots, the spawner, bootstrap sampling, the churn step,
//! scripted crashes, the wire counts harvested from the dead and the one
//! [`KernelStats`] both kernels count into. A kernel keeps only its
//! schedule (rounds, or a timer wheel) and routes what a joining node
//! sends; both dereference to their membership, so `e.crash(id)`,
//! `e.stats()` or `e.set_spawner(..)` resolve on either kernel.
//!
//! Storage: ids are allocated sequentially and a slot is never removed,
//! so the id → slot lookup is pure arithmetic (a bounds compare) instead
//! of a hash-map probe, and the set of live nodes is an incrementally
//! maintained sorted list of slot indices — iterating it is O(alive) and
//! equals filtering every slot ever allocated by liveness, so visit order
//! (and therefore RNG draw order) is identical to the re-filtering
//! implementations it replaced.

use crate::app::{Application, Ctx, WireCounts};
use crate::churn::ChurnConfig;
use crate::ids::{NodeId, Ticks};
use crate::KernelStats;
use gossipopt_util::{Rng64, StreamId, Xoshiro256pp};
use std::ops::DerefMut;

/// One node's kernel-side record: identity, protocol state, private RNG
/// stream and liveness flag. Slots are append-only; crashes only clear
/// `alive`.
pub(crate) struct Slot<A> {
    pub(crate) id: NodeId,
    pub(crate) app: A,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) alive: bool,
}

/// Read-only view over live nodes, handed to observers by both kernels.
pub struct NodesView<'a, A> {
    pub(crate) slots: &'a [Slot<A>],
    pub(crate) live: &'a [u32],
}

impl<'a, A> NodesView<'a, A> {
    /// Iterate `(id, application)` over live nodes in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a A)> + '_ {
        let slots = self.slots;
        self.live.iter().map(move |&i| {
            let s = &slots[i as usize];
            (s.id, &s.app)
        })
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the network is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

type Spawner<A> = Box<dyn FnMut(NodeId, &mut Xoshiro256pp) -> A>;

/// A kernel's network and its life-cycle: append-only slots indexed by
/// id and a sorted live list, the joiner factory, bootstrap sampling,
/// crashes and churn, and the counters. The kernel's RNG stream lives here
/// too, because joins, churn and [`Membership::crash_fraction`] draw from
/// it in between the kernel's own scheduling and transport draws.
pub struct Membership<A> {
    pub(crate) slots: Vec<Slot<A>>,
    /// Slot indices of live nodes, kept sorted ascending (insertions only
    /// ever append because new ids take the highest slot index; crashes
    /// remove in place).
    pub(crate) live: Vec<u32>,
    pub(crate) alive_count: usize,
    next_id: u64,
    /// The kernel stream.
    pub(crate) rng: Xoshiro256pp,
    pub(crate) stats: KernelStats,
    seed: u64,
    /// A node's own stream is `node(component, id)`; the stream its
    /// spawner call gets is `node(component + 1, id)`.
    component: u64,
    bootstrap_sample: usize,
    churn: ChurnConfig,
    spawner: Option<Spawner<A>>,
    /// Wire counts harvested from nodes at death, so a crash never loses
    /// traffic from the per-kind totals.
    retired: WireCounts,
    /// Bootstrap contacts of the node being joined.
    contacts: Vec<NodeId>,
    /// Index scratch for `Rng64::sample_indices_into`.
    sample_buf: Vec<usize>,
}

impl<A> Membership<A> {
    /// An empty network drawing from the kernel stream `kernel` of `seed`;
    /// see the `component` field for the node streams.
    pub(crate) fn new(
        seed: u64,
        kernel: StreamId,
        component: u64,
        bootstrap_sample: usize,
        churn: ChurnConfig,
    ) -> Self {
        Membership {
            slots: Vec::new(),
            live: Vec::new(),
            alive_count: 0,
            next_id: 0,
            rng: Xoshiro256pp::derive(seed, kernel),
            stats: KernelStats::default(),
            seed,
            component,
            bootstrap_sample,
            churn,
            spawner: None,
            retired: WireCounts::new(),
            contacts: Vec::new(),
            sample_buf: Vec::new(),
        }
    }

    /// Slot index for `id`, if the id was ever allocated.
    #[inline]
    pub(crate) fn slot_index(&self, id: NodeId) -> Option<usize> {
        let i = id.raw() as usize;
        if i < self.slots.len() {
            Some(i)
        } else {
            None
        }
    }

    /// Slot index for an id already verified allocated **and live** (the
    /// sharded delivery paths pre-check liveness, then index repeatedly).
    #[inline]
    pub(crate) fn slot_of_live(&self, id: NodeId) -> usize {
        let i = id.raw() as usize;
        debug_assert!(self.slots[i].alive);
        i
    }

    /// Append a live slot for `app` under the next sequential id; returns
    /// the slot index.
    fn push(&mut self, app: A, rng: Xoshiro256pp) -> usize {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let slot_idx = self.slots.len();
        debug_assert_eq!(slot_idx as u64, id.raw(), "ids are slot-sequential");
        // The tick loops visit slots in shuffled order; at large networks
        // the buffer spans more 4 KiB pages than the TLB covers, which also
        // makes hardware drop the sweep's prefetches. THP in `madvise` mode
        // only installs 2 MiB pages at fault time for pre-advised ranges,
        // so on growth (O(log n) times total) allocate the new buffer
        // ourselves, advise it while still untouched, then move the slots.
        if self.slots.len() == self.slots.capacity() {
            let grown = self.slots.capacity().max(4).saturating_mul(2);
            let mut moved: Vec<Slot<A>> = Vec::with_capacity(grown);
            gossipopt_util::mem::advise_hugepages(
                moved.as_ptr(),
                grown * std::mem::size_of::<Slot<A>>(),
            );
            moved.append(&mut self.slots);
            self.slots = moved;
        }
        self.slots.push(Slot {
            id,
            app,
            rng,
            alive: true,
        });
        // New slots take the largest index, so appending keeps `live` sorted.
        self.live.push(slot_idx as u32);
        self.alive_count += 1;
        slot_idx
    }

    /// Re-filter the live list after slots were marked dead.
    fn retain_live(&mut self) {
        let slots = &self.slots;
        self.live.retain(|&i| slots[i as usize].alive);
    }

    /// Install the factory that builds the nodes of churn joins and of the
    /// kernels' `populate`.
    pub fn set_spawner(&mut self, f: impl FnMut(NodeId, &mut Xoshiro256pp) -> A + 'static) {
        self.spawner = Some(Box::new(f));
    }

    /// Build the next joiner with the spawner, on the spawner stream of
    /// the id it will get; `None` when no spawner is installed.
    pub(crate) fn spawn(&mut self) -> Option<A> {
        let id = NodeId(self.next_id);
        let stream = StreamId::node(self.component + 1, id.raw());
        let seed = self.seed;
        self.spawner
            .as_mut()
            .map(|spawn| spawn(id, &mut Xoshiro256pp::derive(seed, stream)))
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Cumulative kernel statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Messages delivered so far (`stats().delivered`).
    pub fn delivered(&self) -> u64 {
        self.stats.delivered
    }

    /// Per-kind wire counts harvested from nodes that have died. Add
    /// these to the live nodes' counts for exact totals under churn.
    pub fn retired_wire_counts(&self) -> WireCounts {
        self.retired
    }

    /// Read a live node's application state.
    pub fn node(&self, id: NodeId) -> Option<&A> {
        self.slot_index(id)
            .map(|i| &self.slots[i])
            .filter(|s| s.alive)
            .map(|s| &s.app)
    }

    /// Iterate `(id, application)` over live nodes in slot order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &A)> + '_ {
        self.live.iter().map(|&i| {
            let s = &self.slots[i as usize];
            (s.id, &s.app)
        })
    }

    /// Observer view of the live network.
    pub fn view(&self) -> NodesView<'_, A> {
        NodesView {
            slots: &self.slots,
            live: &self.live,
        }
    }
}

impl<A: Application> Membership<A> {
    /// Add `app` as a new live node: sample its bootstrap contacts from
    /// the kernel stream, append its slot with its own stream, and run its
    /// [`Application::on_join`], whose sends land in `outbox` (cleared
    /// first) for the kernel to route.
    pub(crate) fn join(
        &mut self,
        app: A,
        now: Ticks,
        outbox: &mut Vec<(NodeId, A::Message)>,
    ) -> NodeId {
        let id = NodeId(self.next_id);
        // A uniform sample without replacement of up to
        // `bootstrap_sample` live nodes (the joiner is not one yet); no
        // draws when there is nobody to sample or no sample is wanted.
        self.contacts.clear();
        let m = self.bootstrap_sample.min(self.live.len());
        if m > 0 {
            self.rng
                .sample_indices_into(self.live.len(), m, &mut self.sample_buf);
            let (slots, live) = (&self.slots, &self.live);
            self.contacts
                .extend(self.sample_buf.iter().map(|&k| slots[live[k] as usize].id));
        }
        let rng = Xoshiro256pp::derive(self.seed, StreamId::node(self.component, id.raw()));
        let i = self.push(app, rng);
        let slot = &mut self.slots[i];
        outbox.clear();
        let mut ctx = Ctx::new(id, now, &mut slot.rng, outbox);
        slot.app.on_join(&self.contacts, &mut ctx);
        id
    }

    /// Crash live slot `i`: harvest its wire counts and count the crash.
    /// The caller updates the live list.
    fn retire(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        debug_assert!(slot.alive);
        self.retired.add(&slot.app.wire_counts());
        slot.alive = false;
        self.alive_count -= 1;
        self.stats.crashes += 1;
    }

    /// Crash a node now (scripted failure). Returns `false` if it was
    /// already dead or unknown. Messages still addressed to it become dead
    /// letters; a rejoin is a new id.
    pub fn crash(&mut self, id: NodeId) -> bool {
        let Some(i) = self.slot_index(id).filter(|&i| self.slots[i].alive) else {
            return false;
        };
        self.retire(i);
        if let Ok(pos) = self.live.binary_search(&(i as u32)) {
            self.live.remove(pos);
        }
        true
    }

    /// Crash a uniform random `fraction` of live nodes at once (the "large
    /// portion of the network fails" scenario of the paper's §4), drawn
    /// from the kernel stream. Returns how many crashed.
    pub fn crash_fraction(&mut self, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction));
        let n = self.live.len();
        let m = ((n as f64 * fraction).round() as usize).min(n);
        let mut picks = std::mem::take(&mut self.sample_buf);
        self.rng.sample_indices_into(n, m, &mut picks);
        // Picks index the live list, which stays intact until re-filtered.
        for &k in &picks {
            self.retire(self.live[k] as usize);
        }
        let crashed = picks.len();
        if crashed > 0 {
            self.retain_live();
        }
        self.sample_buf = picks;
        crashed
    }

    /// One period of the churn process on `kernel`. Crashes first: one
    /// `chance` draw per live slot in ascending slot order until the
    /// population is down to `min_nodes`. Then `sample_joins`, and per
    /// join, while below `max_nodes` and a spawner is installed, a spawned
    /// node handed to the kernel's `insert`, which routes its join-time
    /// sends. A static process draws nothing.
    pub(crate) fn churn_step<K>(kernel: &mut K, mut insert: impl FnMut(&mut K, A) -> NodeId)
    where
        K: DerefMut<Target = Self>,
    {
        let m: &mut Self = kernel;
        let churn = m.churn;
        if churn.is_static() {
            return;
        }
        if churn.crash_prob_per_tick > 0.0 {
            let mut crashed = false;
            // Kills only mark slots until the live list is re-filtered.
            for k in 0..m.live.len() {
                if m.alive_count <= churn.min_nodes {
                    break;
                }
                if m.rng.chance(churn.crash_prob_per_tick) {
                    m.retire(m.live[k] as usize);
                    crashed = true;
                }
            }
            if crashed {
                m.retain_live();
            }
        }
        for _ in 0..churn.sample_joins(&mut m.rng) {
            if kernel.alive_count >= churn.max_nodes {
                break;
            }
            let Some(app) = kernel.spawn() else {
                break; // no spawner: churn joins disabled
            };
            insert(kernel, app);
            kernel.stats.joins += 1;
        }
    }
}

/// Split `slots` into disjoint mutable sub-slices covering the half-open,
/// ascending, pairwise-disjoint slot `ranges`; returns `(base, slice)`
/// pairs where `slice[i]` is the slot at absolute index `base + i`.
///
/// This is the aliasing-free foundation of the sharded execution paths:
/// each shard gets exclusive `&mut` access to a contiguous slot range, so
/// per-node callbacks can run concurrently without locks while the borrow
/// checker rules out cross-shard access.
pub(crate) fn disjoint_slot_ranges<'a, A>(
    mut slots: &'a mut [Slot<A>],
    ranges: &[(usize, usize)],
) -> Vec<(usize, &'a mut [Slot<A>])> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for &(lo, hi) in ranges {
        debug_assert!(lo >= consumed && hi >= lo, "ranges ascending + disjoint");
        let rest = std::mem::take(&mut slots);
        let (_skip, rest) = rest.split_at_mut(lo - consumed);
        let (mine, rest) = rest.split_at_mut(hi - lo);
        out.push((lo, mine));
        slots = rest;
        consumed = hi;
    }
    out
}

/// Histogram bins per worker behind [`ShardCuts`]: a shard boundary can
/// overshoot its even share of a batch by less than one bin.
const BINS_PER_SHARD: usize = 8;

/// Slot-range shard cuts for one batch, chosen from a coarse histogram of
/// the batch's target slots — the one cut rule of both kernels. The event
/// kernel counts a same-timestamp segment target by target; the phased
/// cycle tick bins its sends by destination when it makes them
/// ([`ShardCuts::bin_of`]) and hands over the bins' sizes
/// ([`ShardCuts::recount`]).
///
/// The rule: walking the bins in slot order, a shard closes at the first
/// bin edge where it holds an even share of the events that were left when
/// it opened (`left / shards still to fill`, rounded up). Shards therefore
/// balance *event counts* to within one bin, not slot counts, and a bin
/// that alone exceeds its share — a star hub — ends its shard right there,
/// the remaining events being re-divided evenly over the remaining shards
/// instead of an even slice of every other slot riding along with the hub.
/// Which cuts are chosen never shows in a result (any slot partition
/// yields the same bits); it only decides how evenly workers are loaded.
pub(crate) struct ShardCuts {
    /// Per-bin target counts while a batch is counted; after
    /// [`ShardCuts::cut`], the index of the shard each bin belongs to.
    bins: Vec<u32>,
    /// Bin `b` covers slots `b << shift .. (b + 1) << shift`.
    shift: u32,
    nslots: usize,
}

impl ShardCuts {
    pub(crate) fn new() -> Self {
        ShardCuts {
            bins: Vec::new(),
            shift: 0,
            nslots: 0,
        }
    }

    /// Start counting a batch over `nslots` slots, to be cut into at most
    /// `parts` shards: the coarsest power-of-two bin width that keeps the
    /// slot table within `BINS_PER_SHARD` bins per shard.
    pub(crate) fn reset(&mut self, nslots: usize, parts: usize) {
        self.bins.clear();
        self.bins.resize(BINS_PER_SHARD * parts, 0);
        self.shift = (0..usize::BITS)
            .find(|&s| nslots.saturating_sub(1) >> s < self.bins.len())
            .expect("a usize shifts down to zero");
        self.nslots = nslots;
    }

    /// Count one batch item targeting `slot`.
    #[inline]
    pub(crate) fn count(&mut self, slot: usize) {
        self.bins[slot >> self.shift] += 1;
    }

    /// Number of slot bins; the tail bin [`ShardCuts::bin_of`] uses for
    /// never-allocated ids has this index.
    pub(crate) fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// The bin holding messages addressed to `id`: its slot's bin, or the
    /// tail bin (after every slot bin) for an id `>= nslots`.
    #[inline]
    pub(crate) fn bin_of(&self, id: NodeId) -> usize {
        let slot = id.raw() as usize;
        if slot < self.nslots {
            slot >> self.shift
        } else {
            self.bins.len()
        }
    }

    /// Replace the histogram with `count(bin)` per slot bin — for a batch
    /// already binned with [`ShardCuts::bin_of`].
    pub(crate) fn recount(&mut self, count: impl Fn(usize) -> usize) {
        for (b, bin) in self.bins.iter_mut().enumerate() {
            *bin = u32::try_from(count(b)).expect("a bin's count fits a u32");
        }
    }

    /// The bins covering one of the slot ranges [`ShardCuts::cut`]
    /// returned (its edges are bin edges, except the last range's end).
    pub(crate) fn bins_of(&self, (lo, hi): (usize, usize)) -> std::ops::Range<usize> {
        lo >> self.shift..hi.div_ceil(1 << self.shift)
    }

    /// Close the histogram: at most `parts` half-open slot ranges —
    /// ascending, covering `0..nslots`, each holding at least one counted
    /// item. Afterwards [`ShardCuts::shard_of`] maps slots to ranges.
    pub(crate) fn cut(&mut self) -> Vec<(usize, usize)> {
        let parts = self.bins.len() / BINS_PER_SHARD;
        let total: usize = self.bins.iter().map(|&c| c as usize).sum();
        let mut ranges = Vec::with_capacity(parts);
        // `goal`: the running count at which the open shard closes.
        let (mut lo, mut acc, mut goal) = (0usize, 0usize, total.div_ceil(parts));
        for (b, bin) in self.bins.iter_mut().enumerate() {
            acc += *bin as usize;
            *bin = ranges.len() as u32;
            // `acc < total`: cut only while events remain for a further
            // shard — which also caps the cuts at `parts - 1`, because the
            // last shard's goal is `total` itself.
            if acc < total && acc >= goal {
                let hi = (b + 1) << self.shift;
                ranges.push((lo, hi));
                lo = hi;
                goal = acc + (total - acc).div_ceil(parts - ranges.len());
            }
        }
        ranges.push((lo, self.nslots));
        ranges
    }

    /// Index, into the ranges [`ShardCuts::cut`] returned, of the shard
    /// that owns `slot`.
    #[inline]
    pub(crate) fn shard_of(&self, slot: usize) -> usize {
        self.bins[slot >> self.shift] as usize
    }
}

/// Cut the positions `0..len` into at most `parts` contiguous chunks of
/// near-equal size (difference ≤ 1), skipping empty chunks. Returns
/// half-open `(start, end)` position ranges.
pub(crate) fn even_chunks(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        if size == 0 {
            break;
        }
        out.push((start, start + size));
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seeded(7)
    }

    impl Application for u32 {
        type Message = ();
        fn on_join(&mut self, _contacts: &[NodeId], _ctx: &mut Ctx<'_, ()>) {}
        fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
    }

    /// A network of `n` nodes whose apps are their ids.
    fn net(seed: u64, n: u32, bootstrap_sample: usize) -> Membership<u32> {
        let mut a = Membership::new(
            seed,
            StreamId::KERNEL,
            0,
            bootstrap_sample,
            ChurnConfig::none(),
        );
        for v in 0..n {
            a.join(v, 0, &mut Vec::new());
        }
        a
    }

    #[test]
    fn sequential_ids_and_arithmetic_lookup() {
        let a = net(7, 5, 0);
        for (i, slot) in a.slots.iter().enumerate() {
            assert_eq!(slot.id.raw() as usize, i);
        }
        assert_eq!(a.slot_index(NodeId(3)), Some(3));
        assert_eq!(a.slot_index(NodeId(5)), None);
        assert_eq!(a.node(NodeId(4)), Some(&4));
    }

    #[test]
    fn crash_maintains_sorted_live_list() {
        let mut a = net(7, 6, 0);
        assert!(a.crash(NodeId(2)));
        assert!(!a.crash(NodeId(2)), "double crash is a no-op");
        assert!(!a.crash(NodeId(99)));
        assert_eq!((a.alive_count, a.stats.crashes), (5, 1));
        assert_eq!(a.live, vec![0, 1, 3, 4, 5]);
        assert!(a.node(NodeId(2)).is_none());
        let ids: Vec<u64> = a.nodes().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn crash_fraction_refilters_the_live_list() {
        let mut a = net(7, 4, 0);
        assert_eq!(a.crash_fraction(0.5), 2);
        assert_eq!((a.alive_count, a.stats.crashes), (2, 2));
        assert_eq!(a.view().len(), 2);
        assert!(a.live.iter().all(|&i| a.slots[i as usize].alive));
    }

    #[test]
    fn disjoint_ranges_cover_exactly_and_exclusively() {
        let mut a = net(7, 10, 0);
        let views = disjoint_slot_ranges(&mut a.slots, &[(0, 3), (4, 4), (5, 9)]);
        assert_eq!(views.len(), 3);
        let (base0, s0) = &views[0];
        assert_eq!((*base0, s0.len()), (0, 3));
        let (base1, s1) = &views[1];
        assert_eq!((*base1, s1.len()), (4, 0));
        let (base2, s2) = &views[2];
        assert_eq!((*base2, s2.len()), (5, 4));
        assert_eq!(s2[3].id, NodeId(8));
    }

    #[test]
    fn histogram_cuts_keep_a_hub_alone() {
        // One gossip step on a 1024-node star, hub in slot 0: every leaf
        // ticks (an event targeting the leaf) and the hub receives one
        // delivery per leaf — half the batch targets a single slot.
        const N: usize = 1024;
        for parts in [2usize, 3, 8] {
            let mut cuts = ShardCuts::new();
            cuts.reset(N, parts);
            for leaf in 1..N {
                cuts.count(0);
                cuts.count(leaf);
            }
            let ranges = cuts.cut();
            assert_eq!(ranges.len(), parts, "{ranges:?}");
            let mut leaf_events = vec![0usize; parts];
            for leaf in 1..N {
                leaf_events[cuts.shard_of(leaf)] += 1;
            }
            let hub = cuts.shard_of(0);
            let bin = 1usize << cuts.shift;
            assert!(
                leaf_events[hub] < bin,
                "parts {parts}: the hub shares its shard with {} leaves",
                leaf_events[hub]
            );
            // The leaves spread evenly over the shards the hub left free.
            let even = (N - 1).div_ceil(parts - 1);
            for (s, &load) in leaf_events.iter().enumerate() {
                assert!(
                    s == hub || load <= even + bin,
                    "parts {parts}: shard {s} carries {load} of {} leaf events",
                    N - 1
                );
            }
        }
    }

    #[test]
    fn histogram_cuts_partition_the_slot_table() {
        let mut rng = rng();
        for (nslots, parts, events) in [(1, 1, 1), (5, 8, 3), (1000, 3, 40), (4097, 8, 9000)] {
            let mut cuts = ShardCuts::new();
            cuts.reset(nslots, parts);
            let targets: Vec<usize> = (0..events).map(|_| rng.index(nslots)).collect();
            targets.iter().for_each(|&t| cuts.count(t));
            let ranges = cuts.cut();
            assert!(ranges.len() <= parts);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, nslots);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous: {ranges:?}");
            }
            let mut load = vec![0usize; ranges.len()];
            for &t in &targets {
                let s = cuts.shard_of(t);
                assert!((ranges[s].0..ranges[s].1).contains(&t));
                load[s] += 1;
            }
            assert!(load.iter().all(|&l| l > 0), "no empty shard: {load:?}");
        }
    }

    #[test]
    fn even_chunks_partition_every_position() {
        for (len, parts) in [(10, 3), (0, 4), (5, 8), (7, 1), (16, 16)] {
            let chunks = even_chunks(len, parts);
            let mut covered = 0;
            let mut prev_end = 0;
            for &(s, e) in &chunks {
                assert_eq!(s, prev_end, "contiguous");
                assert!(e > s, "no empty chunks");
                covered += e - s;
                prev_end = e;
            }
            assert_eq!(covered, len, "len {len} parts {parts}");
            assert!(chunks.len() <= parts.max(1));
            if len > 0 {
                let sizes: Vec<usize> = chunks.iter().map(|&(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn bootstrap_samples_are_live_distinct_and_deterministic() {
        let contacts = |seed| {
            let mut a = net(seed, 0, 4);
            let before = a.rng.clone();
            a.join(0, 0, &mut Vec::new());
            assert_eq!(a.rng, before, "nobody to sample: no draws");
            assert!(a.contacts.is_empty());
            for v in 1..10 {
                a.join(v, 0, &mut Vec::new());
            }
            a.crash(NodeId(3));
            a.join(10, 0, &mut Vec::new());
            a.contacts.clone()
        };
        let mut got = contacts(1);
        assert_eq!(got, contacts(1), "same seed, same sample");
        assert!(!got.contains(&NodeId(3)) && !got.contains(&NodeId(10)));
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 4);
    }
}

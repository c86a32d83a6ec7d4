//! Dense slot storage shared by both kernels.
//!
//! Both engines allocate `NodeId`s sequentially and never remove a slot, so
//! the id → slot lookup is pure arithmetic (a bounds compare) instead of a
//! hash-map probe, and the set of live nodes is an incrementally maintained
//! sorted list of slot indices — iterating it is O(alive) and equals
//! filtering every slot ever allocated by liveness, so visit order (and
//! therefore RNG draw order) is identical to the re-filtering
//! implementations it replaced. The arena also owns the scratch buffers for
//! live-id sampling, keeping `sample_alive_into` allocation-free in steady
//! state.

use crate::ids::NodeId;
use gossipopt_util::{Rng64, Xoshiro256pp};

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

/// Append-only slot arena with a dense id map and sorted live list.
pub(crate) struct SlotArena<A> {
    pub(crate) slots: Vec<Slot<A>>,
    /// Dense slot map: `slot_of[id.raw()]` is the slot index for `id`.
    /// Redundant with the identity mapping today (checked in debug builds);
    /// kept so a future slot compaction only has to swap `slot_index`.
    pub(crate) slot_of: Vec<u32>,
    /// Slot indices of live nodes, kept sorted ascending (insertions only
    /// ever append because new ids take the highest slot index; crashes
    /// remove in place).
    pub(crate) live: Vec<u32>,
    pub(crate) alive_count: usize,
    pub(crate) next_id: u64,
    /// Live-id scratch for `sample_alive_into` / bulk-crash helpers.
    alive_ids_buf: Vec<NodeId>,
    /// Index scratch for `Rng64::sample_indices_into`.
    sample_buf: Vec<usize>,
}

impl<A> SlotArena<A> {
    pub(crate) fn new() -> Self {
        SlotArena {
            slots: Vec::new(),
            slot_of: Vec::new(),
            live: Vec::new(),
            alive_count: 0,
            next_id: 0,
            alive_ids_buf: Vec::new(),
            sample_buf: Vec::new(),
        }
    }

    /// Slot index for `id`, if the id was ever allocated.
    #[inline]
    pub(crate) fn slot_index(&self, id: NodeId) -> Option<usize> {
        let i = id.raw() as usize;
        if i < self.slots.len() {
            debug_assert_eq!(self.slot_of[i] as usize, i);
            Some(i)
        } else {
            None
        }
    }

    /// Slot index for an id already verified allocated **and live** (the
    /// sharded delivery paths pre-check liveness, then index repeatedly).
    /// Arithmetic today; like [`SlotArena::slot_index`], this is the seam
    /// a future slot compaction would reroute through `slot_of`.
    #[inline]
    pub(crate) fn slot_of_live(&self, id: NodeId) -> usize {
        let i = id.raw() as usize;
        debug_assert_eq!(self.slot_of[i] as usize, i);
        debug_assert!(self.slots[i].alive);
        i
    }

    /// Reserve the next sequential id without inserting (callers derive the
    /// node's RNG streams from the id before constructing the app).
    #[inline]
    pub(crate) fn peek_next_id(&self) -> NodeId {
        NodeId(self.next_id)
    }

    /// Append a live slot for `app`; returns `(id, slot index)`.
    pub(crate) fn insert(&mut self, app: A, rng: Xoshiro256pp) -> (NodeId, usize) {
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
        self.slot_of.push(slot_idx as u32);
        // New slots take the largest index, so appending keeps `live` sorted.
        self.live.push(slot_idx as u32);
        self.alive_count += 1;
        (id, slot_idx)
    }

    /// Crash `id`. Returns `false` if it was already dead or unknown.
    pub(crate) fn kill(&mut self, id: NodeId) -> bool {
        match self.slot_index(id) {
            Some(i) if self.slots[i].alive => {
                self.slots[i].alive = false;
                self.alive_count -= 1;
                if let Ok(pos) = self.live.binary_search(&(i as u32)) {
                    self.live.remove(pos);
                }
                true
            }
            _ => false,
        }
    }

    /// Mark slot `i` dead without touching the live list (bulk-crash path;
    /// follow with [`SlotArena::retain_live`]).
    #[inline]
    pub(crate) fn kill_slot_deferred(&mut self, i: usize) {
        debug_assert!(self.slots[i].alive);
        self.slots[i].alive = false;
        self.alive_count -= 1;
    }

    /// Re-filter the live list after deferred kills.
    pub(crate) fn retain_live(&mut self) {
        let slots = &self.slots;
        self.live.retain(|&i| slots[i as usize].alive);
    }

    /// Read a live node's application state.
    pub(crate) fn get(&self, id: NodeId) -> Option<&A> {
        self.slot_index(id)
            .map(|i| &self.slots[i])
            .filter(|s| s.alive)
            .map(|s| &s.app)
    }

    /// Iterate `(id, application)` over live nodes in slot order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (NodeId, &A)> + '_ {
        self.live.iter().map(|&i| {
            let s = &self.slots[i as usize];
            (s.id, &s.app)
        })
    }

    /// Observer view of the live network.
    pub(crate) fn view(&self) -> NodesView<'_, A> {
        NodesView {
            slots: &self.slots,
            live: &self.live,
        }
    }

    /// Uniform sample (without replacement) of up to `m` live node ids,
    /// excluding `except`, into `out` (cleared first). Draws from `rng`
    /// exactly as the allocating implementation did: no draws when the
    /// candidate set is empty or `m == 0`.
    pub(crate) fn sample_alive_into(
        &mut self,
        rng: &mut Xoshiro256pp,
        m: usize,
        except: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if m == 0 {
            // No draws and no output either way; skip the O(alive)
            // candidate build so `bootstrap_sample = 0` runs (100k-node
            // scale scenarios with explicit topologies) insert in O(1).
            return;
        }
        let mut alive = std::mem::take(&mut self.alive_ids_buf);
        alive.clear();
        alive.extend(
            self.live
                .iter()
                .map(|&i| self.slots[i as usize].id)
                .filter(|&id| Some(id) != except),
        );
        if !alive.is_empty() && m > 0 {
            let m = m.min(alive.len());
            let mut idx = std::mem::take(&mut self.sample_buf);
            rng.sample_indices_into(alive.len(), m, &mut idx);
            out.extend(idx.iter().map(|&i| alive[i]));
            self.sample_buf = idx;
        }
        alive.clear();
        self.alive_ids_buf = alive;
    }

    /// Borrow the live-id scratch (cleared) for callers that need a
    /// temporary id list; return it with [`SlotArena::return_id_scratch`].
    pub(crate) fn take_id_scratch(&mut self) -> Vec<NodeId> {
        let mut buf = std::mem::take(&mut self.alive_ids_buf);
        buf.clear();
        buf
    }

    /// Give back the scratch taken with [`SlotArena::take_id_scratch`].
    pub(crate) fn return_id_scratch(&mut self, buf: Vec<NodeId>) {
        self.alive_ids_buf = buf;
    }

    /// Borrow the index scratch for `sample_indices_into`; return it with
    /// [`SlotArena::return_index_scratch`].
    pub(crate) fn take_index_scratch(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.sample_buf)
    }

    /// Give back the scratch taken with [`SlotArena::take_index_scratch`].
    pub(crate) fn return_index_scratch(&mut self, buf: Vec<usize>) {
        self.sample_buf = buf;
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

/// `dst.append(src)`, except that an empty `dst` takes over `src`'s buffer
/// instead of copying it (the event kernel's batch assembly, where the
/// wheel bucket is usually the whole batch).
pub(crate) fn adopt_or_append<T>(dst: &mut Vec<T>, src: &mut Vec<T>) {
    if dst.is_empty() {
        std::mem::swap(dst, src);
    } else {
        dst.append(src);
    }
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

    #[test]
    fn sequential_ids_and_arithmetic_lookup() {
        let mut a: SlotArena<u32> = SlotArena::new();
        for v in 0..5u32 {
            let (id, slot) = a.insert(v, rng());
            assert_eq!(id.raw() as usize, slot);
        }
        assert_eq!(a.slot_index(NodeId(3)), Some(3));
        assert_eq!(a.slot_index(NodeId(5)), None);
        assert_eq!(a.get(NodeId(4)), Some(&4));
    }

    #[test]
    fn kill_maintains_sorted_live_list() {
        let mut a: SlotArena<u32> = SlotArena::new();
        for v in 0..6u32 {
            a.insert(v, rng());
        }
        assert!(a.kill(NodeId(2)));
        assert!(!a.kill(NodeId(2)), "double kill is a no-op");
        assert!(!a.kill(NodeId(99)));
        assert_eq!(a.alive_count, 5);
        assert_eq!(a.live, vec![0, 1, 3, 4, 5]);
        assert!(a.get(NodeId(2)).is_none());
        let ids: Vec<u64> = a.nodes().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn deferred_kills_then_retain() {
        let mut a: SlotArena<u32> = SlotArena::new();
        for v in 0..4u32 {
            a.insert(v, rng());
        }
        a.kill_slot_deferred(1);
        a.kill_slot_deferred(3);
        a.retain_live();
        assert_eq!(a.live, vec![0, 2]);
        assert_eq!(a.alive_count, 2);
        assert_eq!(a.view().len(), 2);
    }

    #[test]
    fn disjoint_ranges_cover_exactly_and_exclusively() {
        let mut a: SlotArena<u32> = SlotArena::new();
        for v in 0..10u32 {
            a.insert(v, rng());
        }
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
    fn sampling_excludes_and_is_deterministic() {
        let mut a: SlotArena<u32> = SlotArena::new();
        for v in 0..10u32 {
            a.insert(v, rng());
        }
        let mut out = Vec::new();
        let mut r1 = Xoshiro256pp::seeded(1);
        a.sample_alive_into(&mut r1, 4, Some(NodeId(0)), &mut out);
        assert_eq!(out.len(), 4);
        assert!(!out.contains(&NodeId(0)));
        let first = out.clone();
        let mut r2 = Xoshiro256pp::seeded(1);
        a.sample_alive_into(&mut r2, 4, Some(NodeId(0)), &mut out);
        assert_eq!(out, first, "same seed, same sample");
        // Empty candidate set: no draws, empty result.
        let mut empty: SlotArena<u32> = SlotArena::new();
        let before = r2.clone();
        empty.sample_alive_into(&mut r2, 4, None, &mut out);
        assert!(out.is_empty());
        assert_eq!(r2, before, "no RNG draws on the empty path");
    }
}

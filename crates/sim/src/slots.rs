//! The membership layer both kernels run on.
//!
//! A node's life-cycle — entry with a bootstrap sample, crash, churn — is
//! one model, independent of how a kernel advances time. [`Membership`]
//! owns it: the slots, the spawner, bootstrap sampling, the churn step,
//! scripted crashes, the per-lane wire ledgers and the one [`KernelStats`]
//! both kernels count into. A kernel keeps only its
//! schedule (rounds, or a timer wheel) and routes what a joining node
//! sends; both dereference to their membership, so `e.crash(id)`,
//! `e.stats()` or `e.set_spawner(..)` resolve on either kernel.
//!
//! Storage: a node's id is the index of its slot, which is never removed,
//! so the id → slot lookup is pure arithmetic (a bounds compare) instead
//! of a hash-map probe, and the set of live nodes is an incrementally
//! maintained sorted list of slot indices — iterating it is O(alive) and
//! equals filtering every slot ever allocated by liveness, so visit order
//! (and therefore RNG draw order) is identical to the re-filtering
//! implementations it replaced.
//! Beside the slots sit the [`RowTable`] and a dense liveness vector,
//! split together with them ([`Membership::shards`]), so a row is as
//! exclusive as its slot and a liveness check loads a byte, not a slot.

use crate::app::{Application, Ctx, WireCounts};
use crate::churn::ChurnConfig;
use crate::ids::{NodeId, Ticks};
use crate::KernelStats;
use gossipopt_util::{Rng64, StreamId, Xoshiro256pp};
use std::ops::DerefMut;

/// One node's kernel-side record: protocol state and private RNG stream;
/// the node's id is the slot's index. Slots are append-only; a crash only
/// clears the slot's entry of [`Membership`]'s `alive`.
pub(crate) struct Slot<A> {
    pub(crate) app: A,
    pub(crate) rng: Xoshiro256pp,
}

/// Read-only view over live nodes, handed to observers by both kernels.
pub struct NodesView<'a, A> {
    pub(crate) slots: &'a [Slot<A>],
    pub(crate) live: &'a [u32],
}

impl<'a, A> NodesView<'a, A> {
    /// Iterate `(id, application)` over live nodes in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a A)> + 'a {
        let slots = self.slots;
        self.live
            .iter()
            .map(move |&i| (NodeId(u64::from(i)), &slots[i as usize].app))
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
    /// Row `i` belongs to slot `i`.
    pub(crate) rows: RowTable,
    /// `alive[i]`: slot `i`'s node is live.
    pub(crate) alive: Vec<bool>,
    /// Slot indices of live nodes, kept sorted ascending (insertions only
    /// ever append because new ids take the highest slot index; crashes
    /// remove in place).
    pub(crate) live: Vec<u32>,
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
    /// The wire ledgers lent to callbacks ([`Ctx::with_wire`]): `wire[0]`
    /// to every callback on the calling thread (the sequential sweep,
    /// `deliver_one`, joins), `wire[1 + k]` to the callbacks of shard `k`.
    /// Summed only when read ([`Membership::wire_ledger`]).
    wire: Vec<WireCounts>,
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
            rows: RowTable::default(),
            alive: Vec::new(),
            live: Vec::new(),
            rng: Xoshiro256pp::derive(seed, kernel),
            stats: KernelStats::default(),
            seed,
            component,
            bootstrap_sample,
            churn,
            spawner: None,
            wire: vec![WireCounts::default()],
            contacts: Vec::new(),
            sample_buf: Vec::new(),
        }
    }

    /// Slot index for `id` (its raw value), if the id was allocated and
    /// its node is live.
    #[inline]
    pub(crate) fn live_slot(&self, id: NodeId) -> Option<usize> {
        let i = id.raw() as usize;
        (self.alive.get(i) == Some(&true)).then_some(i)
    }

    /// Append a live slot for `app`, the next id's; returns the slot
    /// index.
    fn push(&mut self, app: A, rng: Xoshiro256pp) -> usize {
        let slot_idx = self.slots.len();
        if self.slots.len() == self.slots.capacity() {
            grow_advised(&mut self.slots, 1);
        }
        self.slots.push(Slot { app, rng });
        self.alive.push(true);
        // New slots take the largest index, so appending keeps `live` sorted.
        self.live.push(slot_idx as u32);
        slot_idx
    }

    /// Slot `i`'s application, and a context at `now` lending it the
    /// node's stream and row and the calling thread's ledger.
    #[inline]
    pub(crate) fn lend<'b, M>(
        &'b mut self,
        i: usize,
        now: Ticks,
        outbox: &'b mut Vec<(NodeId, M)>,
    ) -> (&'b mut A, Ctx<'b, M>) {
        let slot = &mut self.slots[i];
        let ctx = Ctx::new(NodeId(i as u64), now, &mut slot.rng, outbox)
            .with_row(self.rows.row_mut(i))
            .with_wire(&mut self.wire[0]);
        (&mut slot.app, ctx)
    }

    /// Split the network into one exclusive [`SlotRange`] per entry of
    /// `ranges` (half-open, ascending, pairwise disjoint): its slots,
    /// rows and liveness, and the wire ledger of shard `k` for the `k`-th
    /// range. The live list comes back beside them, shared.
    ///
    /// This is the aliasing-free foundation of the sharded execution
    /// paths: each shard gets exclusive `&mut` access to a contiguous slot
    /// range, its rows and a ledger no other shard counts into, so
    /// per-node callbacks can run concurrently without locks while the
    /// borrow checker rules out cross-shard access.
    pub(crate) fn shards(&mut self, ranges: &[(usize, usize)]) -> (Vec<SlotRange<'_, A>>, &[u32]) {
        if self.wire.len() <= ranges.len() {
            self.wire.resize(1 + ranges.len(), WireCounts::default());
        }
        let stride = self.rows.stride;
        let mut slots = &mut self.slots[..];
        let mut floats = &mut self.rows.buf[self.rows.start..];
        let mut wire = self.wire[1..].iter_mut();
        let mut out = Vec::with_capacity(ranges.len());
        let mut consumed = 0usize;
        for &(lo, hi) in ranges {
            debug_assert!(lo >= consumed && hi >= lo, "ranges ascending + disjoint");
            let (_skip, rest) = std::mem::take(&mut slots).split_at_mut(lo - consumed);
            let (mine, rest) = rest.split_at_mut(hi - lo);
            slots = rest;
            let (_skip, rest) = std::mem::take(&mut floats).split_at_mut((lo - consumed) * stride);
            let (my_rows, rest) = rest.split_at_mut((hi - lo) * stride);
            floats = rest;
            out.push(SlotRange {
                base: lo,
                slots: mine,
                rows: my_rows,
                stride,
                alive: &self.alive[lo..hi],
                wire: wire.next().expect("a ledger per shard"),
            });
            consumed = hi;
        }
        (out, &self.live)
    }

    /// Re-filter the live list after slots were marked dead.
    fn retain_live(&mut self) {
        let alive = &self.alive;
        self.live.retain(|&i| alive[i as usize]);
    }

    /// Install the factory that builds the nodes of churn joins and of the
    /// kernels' `populate`.
    pub fn set_spawner(&mut self, f: impl FnMut(NodeId, &mut Xoshiro256pp) -> A + 'static) {
        self.spawner = Some(Box::new(f));
    }

    /// Build the next joiner with the spawner, on the spawner stream of
    /// the id it will get; `None` when no spawner is installed.
    pub(crate) fn spawn(&mut self) -> Option<A> {
        let id = NodeId(self.slots.len() as u64);
        let stream = StreamId::node(self.component + 1, id.raw());
        let seed = self.seed;
        self.spawner
            .as_mut()
            .map(|spawn| spawn(id, &mut Xoshiro256pp::derive(seed, stream)))
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.live.len()
    }

    /// Cumulative kernel statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Messages delivered so far (`stats().delivered`).
    pub fn delivered(&self) -> u64 {
        self.stats.delivered
    }

    /// Per-kind wire totals of every node's traffic so far, crashed
    /// nodes' included: the sum of the ledgers lent to callbacks.
    pub fn wire_ledger(&self) -> WireCounts {
        let mut total = WireCounts::default();
        self.wire.iter().for_each(|wire| total.add(wire));
        total
    }

    /// Read a live node's application state.
    pub fn node(&self, id: NodeId) -> Option<&A> {
        self.live_slot(id).map(|i| &self.slots[i].app)
    }

    /// Iterate `(id, application)` over live nodes in slot order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &A)> + '_ {
        self.view().iter()
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
        let id = NodeId(self.slots.len() as u64);
        // A uniform sample without replacement of up to
        // `bootstrap_sample` live nodes (the joiner is not one yet); no
        // draws when there is nobody to sample or no sample is wanted.
        self.contacts.clear();
        let m = self.bootstrap_sample.min(self.live.len());
        if m > 0 {
            self.rng
                .sample_indices_into(self.live.len(), m, &mut self.sample_buf);
            let live = &self.live;
            self.contacts
                .extend(self.sample_buf.iter().map(|&k| NodeId(u64::from(live[k]))));
        }
        let rng = Xoshiro256pp::derive(self.seed, StreamId::node(self.component, id.raw()));
        self.rows.push(app.row_len(), self.slots.is_empty(), id);
        let i = self.push(app, rng);
        outbox.clear();
        let contacts = std::mem::take(&mut self.contacts);
        let (app, mut ctx) = self.lend(i, now, outbox);
        app.on_join(&contacts, &mut ctx);
        self.contacts = contacts;
        id
    }

    /// Crash live slot `i` and count the crash. The caller updates the
    /// live list.
    fn retire(&mut self, i: usize) {
        debug_assert!(self.alive[i]);
        self.alive[i] = false;
        self.stats.crashes += 1;
    }

    /// Crash a node now (scripted failure). Returns `false` if it was
    /// already dead or unknown. Messages still addressed to it become dead
    /// letters; a rejoin is a new id.
    pub fn crash(&mut self, id: NodeId) -> bool {
        let Some(i) = self.live_slot(id) else {
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

    /// Join `n` spawner-built nodes through the kernel's `insert`. At the
    /// first, the slot table and the row table each reserve
    /// [`headroom`]`(n)` entries in one advised allocation, and the
    /// liveness table in one plain one, all sized by [`table_capacity`].
    /// Grown a node at a time, each table would be
    /// faulted anew at every doubling and leave a trail of freed buffers
    /// (half, a quarter, … of its size) that raise glibc's mmap threshold.
    /// Reserved entries no join reaches are address space, not memory.
    pub(crate) fn populate<K>(kernel: &mut K, n: usize, mut insert: impl FnMut(&mut K, A) -> NodeId)
    where
        K: DerefMut<Target = Self>,
    {
        for k in 0..n {
            let app = kernel.spawn().expect("populate requires a spawner");
            if k == 0 {
                let room = headroom(n);
                if kernel.slots.capacity() < kernel.slots.len() + room {
                    grow_advised(&mut kernel.slots, room);
                }
                let len = kernel.alive.len();
                kernel
                    .alive
                    .reserve_exact(table_capacity(len + room, 1) - len);
                kernel.rows.reserve(room * app.row_len());
            }
            insert(kernel, app);
        }
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
            let mut crashed = 0;
            // Kills only mark slots until the live list is re-filtered.
            for k in 0..m.live.len() {
                if m.live.len() - crashed <= churn.min_nodes {
                    break;
                }
                if m.rng.chance(churn.crash_prob_per_tick) {
                    m.retire(m.live[k] as usize);
                    crashed += 1;
                }
            }
            if crashed > 0 {
                m.retain_live();
            }
        }
        for _ in 0..churn.sample_joins(&mut m.rng) {
            if kernel.live.len() >= churn.max_nodes {
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

/// Room [`Membership::populate`]`(n)` reserves in each table: its `n`
/// nodes and `n / 8` later joiners, so the first churn joins of a cell do
/// not double a full table.
fn headroom(n: usize) -> usize {
    n + n / 8
}

/// glibc's `DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit targets.
const MMAP_THRESHOLD_MAX: usize = 32 << 20;

/// One transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

/// The capacity to allocate for a table of at least `want` elements of
/// `elem` bytes: `want`, unless the table would land in glibc's threshold
/// band, in which case just enough more to leave it.
///
/// glibc serves an allocation of at least its mmap threshold (initially
/// 128 KiB) with its own `mmap`. Freeing such a chunk of at most
/// [`MMAP_THRESHOLD_MAX`] raises the threshold to the chunk's size and
/// the heap's trim threshold to twice that, for the rest of the process:
/// every later allocation below it comes from a heap that keeps what is
/// freed. A table freed at each cell's end therefore sets how much the
/// next cell's buffers can leave behind — `scale_dpso`'s 30.6 MiB slot
/// table made its peak bimodal on a 2-core VM, ≈88 or ≈114 MB by which
/// cell's frees came first. A chunk larger than the maximum leaves the threshold as
/// it is, so a table in the band, `HUGE_PAGE..=MMAP_THRESHOLD_MAX`
/// bytes, is rounded up past it; the untouched tail is address space, not
/// memory (the used part's last huge page at most). Tables under one huge
/// page keep their size: rounding them would fault a whole 2 MiB page
/// for them, and they raise the threshold by less than that.
fn table_capacity(want: usize, elem: usize) -> usize {
    match want.saturating_mul(elem) {
        HUGE_PAGE..=MMAP_THRESHOLD_MAX => MMAP_THRESHOLD_MAX / elem + 1,
        _ => want,
    }
}

/// Grow `v` to room for `additional` more elements, at least doubling its
/// capacity ([`table_capacity`] sizes the result): allocate the new
/// buffer, advise it onto huge pages while it is still untouched, then
/// move the contents in. The tick loops visit slots and rows in shuffled
/// order, and a large table spans more 4 KiB pages than the TLB covers;
/// THP in `madvise` mode only installs 2 MiB pages at fault time for
/// ranges advised before. Until the old buffer is freed both are
/// resident, so a growth costs about twice the table for that moment.
fn grow_advised<T>(v: &mut Vec<T>, additional: usize) {
    let want = (v.len() + additional).max(2 * v.capacity());
    let cap = table_capacity(want, std::mem::size_of::<T>());
    let mut moved = Vec::with_capacity(cap);
    gossipopt_util::mem::advise_hugepages(moved.as_ptr(), cap * std::mem::size_of::<T>());
    moved.append(v);
    *v = moved;
}

/// One `stride`-float row per slot ([`Ctx::row`]), contiguous in slot
/// order, row 0 on a cache line; the first node fixes the stride.
/// [`Membership::populate`] reserves its rows at once; a join past them
/// grows the table as the slot table grows ([`grow_advised`]), then
/// realigns row 0.
#[derive(Default)]
pub(crate) struct RowTable {
    /// `start` pad floats, then the rows back to back.
    buf: Vec<f64>,
    /// Pad that puts row 0 on a 64-byte boundary of `buf`'s allocation.
    start: usize,
    stride: usize,
}

impl RowTable {
    /// Append a zeroed row of `len` floats for node `id`, the network's
    /// `first`.
    fn push(&mut self, len: usize, first: bool, id: NodeId) {
        if first {
            self.stride = len;
        }
        assert!(
            len == self.stride,
            "node {id:?} asks for a row of {len} f64s, but this network's row table has \
             stride {}: every node of a network must ask for the same row length",
            self.stride
        );
        self.reserve(len);
        self.buf.resize(self.buf.len() + len, 0.0);
    }

    /// Room for `floats` more floats. A grown buffer also has room for
    /// the up to 7 pad floats that realigning it may add.
    fn reserve(&mut self, floats: usize) {
        if floats > 0 && self.buf.capacity() < self.buf.len() + floats {
            grow_advised(&mut self.buf, floats + 7);
            self.realign();
        }
    }

    /// Move the rows so row 0 starts on a cache line of the (possibly
    /// moved) allocation; with a whole-line stride every row then does.
    fn realign(&mut self) {
        let pad = self.buf.as_ptr().align_offset(64);
        let rows = self.buf.len() - self.start;
        if pad == self.start {
            return;
        }
        self.buf.resize(pad.max(self.start) + rows, 0.0);
        self.buf.copy_within(self.start..self.start + rows, pad);
        self.buf.truncate(pad + rows);
        self.start = pad;
    }

    /// Slot `i`'s row.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let at = self.start + i * self.stride;
        &mut self.buf[at..at + self.stride]
    }
}

/// One shard's exclusive part of the network ([`Membership::shards`]):
/// the slots `base..base + n`, their rows and liveness, and the shard's
/// wire ledger.
pub(crate) struct SlotRange<'a, A> {
    pub(crate) base: usize,
    pub(crate) slots: &'a mut [Slot<A>],
    rows: &'a mut [f64],
    stride: usize,
    alive: &'a [bool],
    wire: &'a mut WireCounts,
}

impl<A> SlotRange<'_, A> {
    /// The application in slot `i` (absolute index), and a context at
    /// `now` lending it the node's stream and row and the shard's ledger.
    #[inline]
    pub(crate) fn lend<'b, M>(
        &'b mut self,
        i: usize,
        now: Ticks,
        outbox: &'b mut Vec<(NodeId, M)>,
    ) -> (&'b mut A, Ctx<'b, M>) {
        let (k, stride) = (i - self.base, self.stride);
        let slot = &mut self.slots[k];
        let ctx = Ctx::new(NodeId(i as u64), now, &mut slot.rng, outbox)
            .with_row(&mut self.rows[k * stride..(k + 1) * stride])
            .with_wire(self.wire);
        (&mut slot.app, ctx)
    }

    /// Whether the node in slot `i` (absolute index) is live.
    #[inline]
    pub(crate) fn is_live(&self, i: usize) -> bool {
        self.alive[i - self.base]
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

    /// Close the histogram into `ranges` (cleared first): at most `parts`
    /// half-open slot ranges — ascending, covering `0..nslots`, each
    /// holding at least one counted item. Afterwards
    /// [`ShardCuts::shard_of`] maps slots to ranges.
    pub(crate) fn cut(&mut self, ranges: &mut Vec<(usize, usize)>) {
        let parts = self.bins.len() / BINS_PER_SHARD;
        let total: usize = self.bins.iter().map(|&c| c as usize).sum();
        ranges.clear();
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
    }

    /// Index, into the ranges [`ShardCuts::cut`] returned, of the shard
    /// that owns `slot`.
    #[inline]
    pub(crate) fn shard_of(&self, slot: usize) -> usize {
        self.bins[slot >> self.shift] as usize
    }
}

/// Cut the positions `0..len` into at most `parts` contiguous chunks of
/// near-equal size (difference ≤ 1), skipping empty chunks, as half-open
/// `(start, end)` position ranges in `out` (cleared first).
pub(crate) fn even_chunks(len: usize, parts: usize, out: &mut Vec<(usize, usize)>) {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    out.clear();
    let mut start = 0usize;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        if size == 0 {
            break;
        }
        out.push((start, start + size));
        start += size;
    }
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
        let ids: Vec<u64> = a.nodes().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(a.live_slot(NodeId(3)), Some(3));
        assert_eq!(a.live_slot(NodeId(5)), None);
        assert_eq!(a.node(NodeId(4)), Some(&4));
    }

    #[test]
    fn crash_maintains_sorted_live_list() {
        let mut a = net(7, 6, 0);
        assert!(a.crash(NodeId(2)));
        assert!(!a.crash(NodeId(2)), "double crash is a no-op");
        assert!(!a.crash(NodeId(99)));
        assert_eq!((a.alive_count(), a.stats.crashes), (5, 1));
        assert_eq!(a.live, vec![0, 1, 3, 4, 5]);
        assert!(a.node(NodeId(2)).is_none());
        let ids: Vec<u64> = a.nodes().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn crash_fraction_refilters_the_live_list() {
        let mut a = net(7, 4, 0);
        assert_eq!(a.crash_fraction(0.5), 2);
        assert_eq!((a.alive_count(), a.stats.crashes), (2, 2));
        assert_eq!(a.view().len(), 2);
        assert!(a.live.iter().all(|&i| a.alive[i as usize]));
    }

    #[test]
    fn disjoint_ranges_cover_exactly_and_exclusively() {
        let mut a = net(7, 10, 0);
        let (views, _) = a.shards(&[(0, 3), (4, 4), (5, 9)]);
        assert_eq!(views.len(), 3);
        let lens: Vec<(usize, usize)> = views.iter().map(|v| (v.base, v.slots.len())).collect();
        assert_eq!(lens, [(0, 3), (4, 0), (5, 4)]);
        assert_eq!(views[2].slots[3].app, 8);
    }

    /// A node asking for a 3-float row whose first float is its app value.
    struct Wide(u32);

    impl Application for Wide {
        type Message = ();
        fn on_join(&mut self, _contacts: &[NodeId], ctx: &mut Ctx<'_, ()>) {
            ctx.row()[0] = f64::from(self.0);
        }
        fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
        fn row_len(&self) -> usize {
            3
        }
    }

    #[test]
    fn rows_stay_aligned_and_intact_as_the_table_grows() {
        let mut a: Membership<Wide> =
            Membership::new(7, StreamId::KERNEL, 0, 0, ChurnConfig::none());
        for v in 0..2000 {
            a.join(Wide(v), 0, &mut Vec::new());
            let row0 = a.rows.row_mut(0).as_ptr();
            assert_eq!(row0.align_offset(64), 0, "row 0 on a cache line");
        }
        for v in 0..2000 {
            assert_eq!(a.rows.row_mut(v as usize), [f64::from(v), 0.0, 0.0]);
        }
        let (views, _) = a.shards(&[(3, 5), (1999, 2000)]);
        let got: Vec<f64> = views
            .into_iter()
            .flat_map(|mut v| {
                let base = v.base;
                (base..base + v.slots.len())
                    .map(|i| v.lend(i, 0, &mut Vec::<(NodeId, ())>::new()).1.row()[0])
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, [3.0, 4.0, 1999.0]);
    }

    #[test]
    fn table_capacity_never_lands_in_the_threshold_band() {
        // Slots of gossip_kernel (72 B) and of campaign cells (320 B; 712
        // B with the node's own wire ledger, 824 B with a 152 B `Msg`), and
        // a row table's f64.
        for elem in [72usize, 320, 712, 824, 8] {
            for want in (0..=64)
                .map(|k| k << 16)
                .chain((1..=40).map(|k| k * 1000))
                .chain([45_000, 67_500, 168_750, 1 << 22])
            {
                let cap = table_capacity(want, elem);
                let bytes = cap * elem;
                assert!(cap >= want, "{want} x {elem} B shrank to {cap}");
                assert!(
                    !(HUGE_PAGE..=MMAP_THRESHOLD_MAX).contains(&bytes),
                    "{want} x {elem} B reserves {bytes} B, inside the band"
                );
                if cap > want {
                    assert!(
                        bytes - elem <= MMAP_THRESHOLD_MAX,
                        "{want} x {elem} B rounds past the band by more than one entry"
                    );
                }
            }
        }
        // scale_dpso's populate(40 000): 45 000 slots of 712 B (30.6 MiB)
        // become 47 128 (32 MiB and one slot), and of 320 B (13.7 MiB)
        // 104 858.
        assert_eq!(table_capacity(45_000, 712), 47_128);
        assert_eq!(table_capacity(45_000, 320), 104_858);
        assert_eq!(
            table_capacity(1152, 712),
            1152,
            "a small table keeps its size"
        );
    }

    #[test]
    fn populate_allocates_each_table_once() {
        const N: usize = 1000;
        let mut m: Box<Membership<Wide>> = Box::new(Membership::new(
            7,
            StreamId::KERNEL,
            0,
            0,
            ChurnConfig::none(),
        ));
        m.set_spawner(|id, _| Wide(id.raw() as u32));
        let tables = |m: &Membership<Wide>| (m.slots.as_ptr(), m.rows.buf.as_ptr());
        let mut seen = Vec::new();
        let mut outbox = Vec::new();
        Membership::populate(&mut m, N, |m, app| {
            let id = m.join(app, 0, &mut outbox);
            seen.push(tables(m));
            id
        });
        // Churn-style joins up to the headroom.
        for _ in 0..N / 8 {
            let app = m.spawn().unwrap();
            m.join(app, 0, &mut outbox);
            seen.push(tables(&m));
        }
        assert_eq!(seen.len(), headroom(N));
        assert!(
            seen.iter().all(|&t| t == seen[0]),
            "a table moved during populate or its headroom"
        );
        // The next join grows the slot table (the rows keep the slack of
        // their alignment pad, up to 7 floats).
        let app = m.spawn().unwrap();
        m.join(app, 0, &mut outbox);
        assert_ne!(tables(&m).0, seen[0].0, "the headroom is exact");
        for v in 0..=headroom(N) {
            assert_eq!(m.rows.row_mut(v)[0], v as f64, "rows moved intact");
        }
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
            let mut ranges = Vec::new();
            cuts.cut(&mut ranges);
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
        // One descriptor vector for every batch, as the engines keep it.
        let mut ranges = Vec::new();
        for (nslots, parts, events) in [(1, 1, 1), (5, 8, 3), (1000, 3, 40), (4097, 8, 9000)] {
            let mut cuts = ShardCuts::new();
            cuts.reset(nslots, parts);
            let targets: Vec<usize> = (0..events).map(|_| rng.index(nslots)).collect();
            targets.iter().for_each(|&t| cuts.count(t));
            cuts.cut(&mut ranges);
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
        // One descriptor vector for every cut, as the engines keep it.
        let mut chunks = Vec::new();
        for (len, parts) in [(16, 16), (10, 3), (0, 4), (5, 8), (7, 1)] {
            even_chunks(len, parts, &mut chunks);
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

//! Bounded partial views of node descriptors.

use gossipopt_sim::{NodeId, Ticks};
use gossipopt_util::{Rng64, Xoshiro256pp};
use serde::{Deserialize, Serialize};

/// A node descriptor: remote identifier plus the logical timestamp at which
/// the descriptor was created by its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    /// The described node.
    pub id: NodeId,
    /// Freshness: creation time at the described node.
    pub stamp: Ticks,
}

/// A bounded set of descriptors, at most one per node, kept freshest-first.
///
/// This is NEWSCAST's core data structure: merging two views keeps, for each
/// node, the freshest descriptor seen, then truncates to the `capacity`
/// freshest overall. Crashed nodes stop producing fresh descriptors, so
/// their entries age out — the self-repair property the paper relies on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialView {
    capacity: usize,
    // Invariant: sorted by stamp descending, ids unique, len <= capacity.
    entries: Vec<Descriptor>,
}

/// Slots of the id → position table a merge builds on the stack.
const INDEX_SLOTS: usize = 512;
/// Most merged entries the counting cut takes: its ranks are `u8`s.
const SCRATCH_LEN: usize = 128;
/// Stamp spans (`newest − oldest`) below this take the counting cut.
const STAMP_BUCKETS: usize = 64;
const _: () = assert!(SCRATCH_LEN <= u8::MAX as usize);

impl PartialView {
    /// Empty view with room for `capacity` descriptors.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "view capacity must be at least 1");
        PartialView {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Maximum number of descriptors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current descriptors, freshest first.
    pub fn entries(&self) -> &[Descriptor] {
        &self.entries
    }

    /// Number of descriptors held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no descriptors are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `id` appears in the view.
    pub fn contains(&self, id: NodeId) -> bool {
        self.entries.iter().any(|d| d.id == id)
    }

    /// Insert or refresh one descriptor, preserving the invariants.
    /// Freshness ties are broken in favor of existing entries.
    pub fn insert(&mut self, d: Descriptor) {
        self.merge_entries(std::iter::once(d), None);
        self.keep_freshest();
    }

    /// Merge descriptors from `incoming`, dropping any descriptor of
    /// `exclude` (a node never stores itself), keeping per-node freshest,
    /// then the `capacity` freshest overall. Freshness **ties are broken
    /// uniformly at random** using `rng`: in a cycle-driven simulation most
    /// stamps collide (one logical clock tick per cycle), and a
    /// deterministic tie-break would systematically favor old entries,
    /// freezing the overlay instead of shuffling it.
    ///
    /// # Cost
    ///
    /// O(|view| + |incoming|) on what a gossip run feeds it. The per-node
    /// dedup looks ids up in a direct-mapped id → position table and scans
    /// the view only behind a slot collision; the shuffle draws exactly
    /// `len − 1` values from `rng`; the freshest-`capacity` cut is a stable
    /// counting sort keyed on `newest − stamp`. That cut equals the stable
    /// comparison sort by descending stamp it replaces: either one lists,
    /// for each stamp from newest to oldest, the entries carrying it in
    /// shuffled order — the counting sort without comparing entries or
    /// branching on them. Its scratch is fixed and on the stack, so it
    /// takes at most `SCRATCH_LEN` (128) merged entries whose stamps span
    /// fewer than `STAMP_BUCKETS` (64) ticks — views hold `newest − oldest
    /// ≤ 5` on the cycle kernel, ≲ 50 on the event kernel. Longer or wider
    /// input, as read off the merged entries, gets the comparison sort.
    pub fn merge_from<I: IntoIterator<Item = Descriptor>>(
        &mut self,
        incoming: I,
        exclude: Option<NodeId>,
        rng: &mut Xoshiro256pp,
    ) {
        self.merge_entries(incoming, exclude);
        // The node's RNG is shared with its solver: one draw more or less
        // here changes every downstream number.
        rng.shuffle(&mut self.entries);
        self.keep_freshest();
    }

    /// Per-node freshest of `entries ∪ incoming`: known ids are refreshed
    /// in place, new ids appended in arrival order.
    fn merge_entries<I: IntoIterator<Item = Descriptor>>(
        &mut self,
        incoming: I,
        exclude: Option<NodeId>,
    ) {
        // slot → position + 1 of an entry whose id maps there (0: none).
        // Every entry's slot is occupied, by itself or by another entry,
        // so an empty slot proves the id is new.
        let mut index = [0u16; INDEX_SLOTS];
        let slot = |id: NodeId| id.raw() as usize % INDEX_SLOTS;
        let tag = |pos: usize| u16::try_from(pos + 1).unwrap_or(u16::MAX);
        for (pos, e) in self.entries.iter().enumerate() {
            index[slot(e.id)] = tag(pos);
        }
        for d in incoming {
            if Some(d.id) == exclude {
                continue;
            }
            let s = &mut index[slot(d.id)];
            let known = match *s {
                0 => {
                    *s = tag(self.entries.len());
                    None
                }
                // A saturated tag or a slot collision points at some other
                // entry; only then is the view scanned.
                t => match self.entries.get_mut(usize::from(t) - 1) {
                    Some(e) if e.id == d.id => Some(e),
                    _ => self.entries.iter_mut().find(|e| e.id == d.id),
                },
            };
            match known {
                Some(e) => e.stamp = e.stamp.max(d.stamp),
                None => self.entries.push(d),
            }
        }
    }

    /// Stable sort by descending stamp, then truncate to `capacity`.
    fn keep_freshest(&mut self) {
        let (oldest, newest) = self.entries.iter().fold((Ticks::MAX, 0), |(lo, hi), e| {
            (lo.min(e.stamp), hi.max(e.stamp))
        });
        let span = newest.saturating_sub(oldest); // empty view: 0
        if self.entries.len() > SCRATCH_LEN || span >= STAMP_BUCKETS as Ticks {
            self.entries.sort_by_key(|e| std::cmp::Reverse(e.stamp));
            self.entries.truncate(self.capacity);
            return;
        }
        // Counting sort: bucket `newest - stamp` sizes, each bucket's first
        // output rank, then one scatter in input order. The entries are
        // shuffled, so neither loop may branch on them.
        let mut sorted = [Descriptor {
            id: NodeId(0),
            stamp: 0,
        }; SCRATCH_LEN];
        if span < 8 {
            // The usual case: eight `u8` counters in one register, where
            // repeated stamps do not serialize on a store-to-load chain.
            let mut next = 0u64;
            for e in &self.entries {
                next += 1 << (8 * (newest - e.stamp));
            }
            // Byte `b` of the product sums bytes `0..b`: the first ranks.
            next = (next << 8).wrapping_mul(0x0101_0101_0101_0101);
            for e in &self.entries {
                let shift = 8 * (newest - e.stamp);
                sorted[usize::from((next >> shift) as u8)] = *e;
                next += 1 << shift;
            }
        } else {
            let mut next = [0u8; STAMP_BUCKETS];
            for e in &self.entries {
                next[(newest - e.stamp) as usize] += 1;
            }
            let mut rank = 0;
            for slot in &mut next[..=span as usize] {
                rank += std::mem::replace(slot, rank);
            }
            for e in &self.entries {
                let slot = &mut next[(newest - e.stamp) as usize];
                sorted[usize::from(*slot)] = *e;
                *slot += 1;
            }
        }
        self.entries.truncate(self.capacity);
        let kept = self.entries.len();
        self.entries.copy_from_slice(&sorted[..kept]);
    }

    /// Remove a descriptor (e.g. a peer that failed to answer).
    pub fn remove(&mut self, id: NodeId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|d| d.id != id);
        self.entries.len() != before
    }

    /// Uniform random descriptor, if any.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> Option<Descriptor> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries[rng.index(self.entries.len())])
        }
    }

    /// Ids currently in view, freshest first.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|d| d.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d(id: u64, stamp: Ticks) -> Descriptor {
        Descriptor {
            id: NodeId(id),
            stamp,
        }
    }

    /// `merge_from` as it was before the linear pass: quadratic dedup,
    /// shuffle, stable comparison sort. The oracle for the tests below.
    fn reference_merge_from(
        v: &mut PartialView,
        incoming: &[Descriptor],
        exclude: Option<NodeId>,
        rng: &mut Xoshiro256pp,
    ) {
        for &d in incoming {
            if Some(d.id) == exclude {
                continue;
            }
            match v.entries.iter_mut().find(|e| e.id == d.id) {
                Some(e) => {
                    if d.stamp > e.stamp {
                        e.stamp = d.stamp;
                    }
                }
                None => v.entries.push(d),
            }
        }
        rng.shuffle(&mut v.entries);
        v.entries.sort_by_key(|e| std::cmp::Reverse(e.stamp));
        v.entries.truncate(v.capacity);
    }

    /// Merge `incoming` through both implementations from the same view
    /// and RNG state; entries and the RNG's next output must agree.
    fn assert_matches_reference(
        view: &mut PartialView,
        incoming: &[Descriptor],
        exclude: Option<NodeId>,
        rng: &mut Xoshiro256pp,
    ) {
        let (mut expected, mut expected_rng) = (view.clone(), rng.clone());
        reference_merge_from(&mut expected, incoming, exclude, &mut expected_rng);
        view.merge_from(incoming.iter().copied(), exclude, rng);
        assert_eq!(view.entries(), expected.entries());
        assert_eq!(
            rng.next_u64(),
            expected_rng.next_u64(),
            "RNG state diverged"
        );
    }

    /// Stamp shapes: all equal; 2–5 distinct; uniform 0..64 (the harness
    /// probe); spread beyond 2^32; both ends of the `u64` range; spans
    /// straddling the register/stack and the stack/comparison-sort splits.
    const SHAPES: u8 = 7;
    fn stamp(shape: u8, rng: &mut Xoshiro256pp) -> Ticks {
        match shape {
            0 => 1_000,
            1 => 1_000 + rng.below(5),
            2 => rng.below(64),
            3 => rng.below(8) << 33,
            4 => [0, 1, Ticks::MAX - 1, Ticks::MAX][rng.index(4)],
            5 => 1_000 + rng.below(10),
            _ => 1_000 + rng.below(STAMP_BUCKETS as u64 + 2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn merge_matches_reference(
            cap in 1usize..=70,
            shape in 0..SHAPES,
            // Narrow universes force duplicate ids inside one payload; the
            // stride folds every id onto few index slots.
            universe in 1u64..300,
            stride in prop_oneof![Just(1u64), Just(64), Just(INDEX_SLOTS as u64), 1u64..1_000],
            lens in (0usize..=150, 0usize..=150, 0usize..=150),
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256pp::seeded(seed);
            let batch = |len: usize, rng: &mut Xoshiro256pp| -> Vec<Descriptor> {
                (0..len)
                    .map(|_| d(rng.below(universe) * stride, stamp(shape, rng)))
                    .collect()
            };
            // `universe` itself is never drawn: an exclude that misses.
            let exclude = [None, Some(NodeId(0)), Some(NodeId(universe * stride))][rng.index(3)];
            let mut view = PartialView::new(cap);
            // A pre-populated view, then two more merges into it.
            for len in [lens.0, lens.1, lens.2] {
                let incoming = batch(len, &mut rng);
                assert_matches_reference(&mut view, &incoming, exclude, &mut rng);
            }
        }
    }

    #[test]
    fn scratch_bounds_match_reference() {
        // Exactly at, one below and one above each bound of the counting cut.
        let mut rng = Xoshiro256pp::seeded(78);
        let buckets = STAMP_BUCKETS as u64;
        for len in SCRATCH_LEN - 1..=SCRATCH_LEN + 1 {
            for span in [0, 7, 8, 9, buckets - 1, buckets, buckets + 1] {
                let incoming: Vec<Descriptor> = (0..len as u64)
                    .map(|i| match i {
                        3 => d(i, 50),
                        5 => d(i, 50 + span),
                        _ => d(i, 50 + rng.below(span + 1)),
                    })
                    .collect();
                let mut view = PartialView::new(SCRATCH_LEN + 2);
                assert_matches_reference(&mut view, &incoming, None, &mut rng);
                assert_eq!(view.len(), len);
            }
        }
    }

    #[test]
    fn datagram_sized_payload_matches_reference() {
        // What a 64 KiB datagram can carry through `runtime::wire::decode`.
        let mut rng = Xoshiro256pp::seeded(77);
        for shape in 0..SHAPES {
            let mut view = PartialView::new(20);
            for i in 0..20 {
                view.insert(d(i, stamp(shape, &mut rng)));
            }
            let incoming: Vec<Descriptor> = (0..5_000)
                .map(|_| d(rng.below(4_000), stamp(shape, &mut rng)))
                .collect();
            assert_matches_reference(&mut view, &incoming, Some(NodeId(7)), &mut rng);
            assert_eq!(view.len(), 20);
        }
    }

    #[test]
    fn insert_respects_capacity_and_order() {
        let mut v = PartialView::new(3);
        for i in 0..5 {
            v.insert(d(i, i));
        }
        assert_eq!(v.len(), 3);
        let stamps: Vec<Ticks> = v.entries().iter().map(|e| e.stamp).collect();
        assert_eq!(stamps, vec![4, 3, 2], "freshest three kept, sorted");
        // Full view, newcomer ties the stalest entry: the existing one wins.
        v.insert(d(9, 2));
        assert_eq!(v.entries(), [d(4, 4), d(3, 3), d(2, 2)]);
        // Tying a fresher entry: admitted behind it, the stalest drops out.
        v.insert(d(10, 3));
        assert_eq!(v.entries(), [d(4, 4), d(3, 3), d(10, 3)]);
    }

    #[test]
    fn duplicate_ids_keep_freshest() {
        let mut v = PartialView::new(4);
        v.insert(d(1, 10));
        v.insert(d(1, 5)); // staler duplicate must not regress
        assert_eq!(v.len(), 1);
        assert_eq!(v.entries()[0].stamp, 10);
        v.insert(d(1, 20));
        assert_eq!(v.entries()[0].stamp, 20);
        // Full view of tied stamps: an equal-stamp duplicate changes
        // nothing, a refreshed one moves to the front of the rest.
        for i in 2..=4 {
            v.insert(d(i, 20));
        }
        let full = [d(1, 20), d(2, 20), d(3, 20), d(4, 20)];
        assert_eq!(v.entries(), full);
        v.insert(d(3, 20));
        assert_eq!(v.entries(), full);
        v.insert(d(3, 21));
        assert_eq!(v.entries(), [d(3, 21), d(1, 20), d(2, 20), d(4, 20)]);
    }

    #[test]
    fn merge_excludes_self() {
        let mut v = PartialView::new(4);
        let mut rng = Xoshiro256pp::seeded(9);
        v.merge_from([d(1, 1), d(2, 2), d(3, 3)], Some(NodeId(2)), &mut rng);
        assert!(!v.contains(NodeId(2)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn merge_tie_break_is_fair() {
        // With every stamp equal, repeated merges of fresh candidates into
        // a full view must sometimes admit the newcomer.
        let mut rng = Xoshiro256pp::seeded(10);
        let mut admitted = 0;
        for trial in 0..200 {
            let mut v = PartialView::new(4);
            for i in 0..4 {
                v.insert(d(i, 7));
            }
            let newcomer = 100 + trial;
            v.merge_from([d(newcomer, 7)], None, &mut rng);
            if v.contains(NodeId(newcomer)) {
                admitted += 1;
            }
        }
        // Newcomer survival chance is 4/5; allow generous slack.
        assert!(
            (100..=195).contains(&admitted),
            "admitted {admitted}/200 — tie-break looks biased"
        );
    }

    #[test]
    fn remove_works() {
        let mut v = PartialView::new(4);
        v.insert(d(1, 1));
        v.insert(d(2, 2));
        assert!(v.remove(NodeId(1)));
        assert!(!v.remove(NodeId(1)));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn sample_uniform_over_entries() {
        let mut v = PartialView::new(8);
        for i in 0..8 {
            v.insert(d(i, 100));
        }
        let mut rng = Xoshiro256pp::seeded(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            let s = v.sample(&mut rng).unwrap();
            counts[s.id.raw() as usize] += 1;
        }
        for c in counts {
            assert!(c > 700 && c < 1300, "count {c} far from uniform");
        }
    }

    #[test]
    fn sample_empty_is_none() {
        let v = PartialView::new(2);
        let mut rng = Xoshiro256pp::seeded(1);
        assert!(v.sample(&mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        PartialView::new(0);
    }
}

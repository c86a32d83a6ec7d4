//! The wire protocol of a framework node: the union of its services'
//! message types.

use crate::rumor::GlobalBest;
use gossipopt_gossip::rumor::RumorAck;
use gossipopt_gossip::{AntiEntropyMsg, NewscastMsg};
use gossipopt_sim::NodeId;
use gossipopt_util::varint::{f64_delta_len, varint_len};

/// Messages exchanged between [`crate::node::OptNode`]s.
///
/// Each variant belongs to one service, mirroring how the paper's layers
/// multiplex one transport.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Topology service traffic (NEWSCAST view exchange).
    Newscast(NewscastMsg),
    /// Coordination service traffic (anti-entropy optimum diffusion).
    Coord(AntiEntropyMsg<GlobalBest>),
    /// A batch of same-destination coordination messages fused into one
    /// frame by [`crate::node::OptNode`]'s `coalesce_round` (phased cycle
    /// kernel only); payloads after the first are delta-encoded on the
    /// wire (see [`CoordBatch`]).
    CoordBatch(CoordBatch),
    /// Rumor-mongering coordination: a pushed optimum.
    RumorPush(GlobalBest),
    /// A batch of same-destination rumor pushes fused into one frame (see
    /// [`GossipBatch`]); the receiver acknowledges each item's original
    /// source exactly as if the pushes had arrived unbatched.
    RumorBatch(GossipBatch),
    /// Rumor-mongering coordination: feedback for an earlier push (the
    /// pusher's cooling signal).
    RumorFeedback(RumorAck),
    /// Island-model coordination: a migrating individual.
    Migrant(GlobalBest),
    /// A batch of same-destination migrants fused into one frame (see
    /// [`GossipBatch`]); unpacked in delivery order so the receiving
    /// solver's RNG draws match unbatched delivery exactly.
    MigrantBatch(GossipBatch),
    /// Master–slave baseline: slave reports its best to the hub.
    MasterReport(GlobalBest),
    /// Master–slave baseline: hub pushes the current global best.
    MasterUpdate(GlobalBest),
}

/// Several same-tick coordination messages for one destination, fused
/// into a single frame.
///
/// Each item keeps its original source so the receiver can address its
/// reply (anti-entropy replies go back to the offering peer). On the wire
/// the frame encodes the first optimum payload raw and every later
/// payload of the *same dimensionality* as per-element deltas against it:
/// zig-zag LEB128 varints of the `f64` bit-pattern differences
/// (`gossipopt_util::varint`). Once the network has converged on one
/// optimum — the steady state of anti-entropy diffusion — every follower
/// payload collapses to one byte per element. Payloads of a different
/// dimensionality than the reference are encoded raw (a deterministic
/// rule, so no flag byte is spent).
#[derive(Debug, Clone)]
pub struct CoordBatch {
    /// `(original source, message)` in the original delivery order.
    pub items: Vec<(NodeId, AntiEntropyMsg<GlobalBest>)>,
}

impl CoordBatch {
    /// Serialized payload size in bytes under the runtime wire codec
    /// (header excluded): an item-count varint, then per item a source-id
    /// varint, a kind byte, and — for payload-carrying kinds — a `u32`
    /// dimensionality followed by either raw `f64`s or bit-pattern deltas
    /// against the frame's first payload.
    pub fn payload_wire_bytes(&self) -> usize {
        Self::payload_bytes_of(self.items.iter().map(|(src, m)| (*src, m)))
    }

    /// [`CoordBatch::payload_wire_bytes`] of a batch holding `items`,
    /// sized from borrowed messages without building the batch.
    pub(crate) fn payload_bytes_of<'a>(
        items: impl ExactSizeIterator<Item = (NodeId, &'a AntiEntropyMsg<GlobalBest>)>,
    ) -> usize {
        let mut n = varint_len(items.len() as u64);
        let mut reference: Option<&GlobalBest> = None;
        for (src, m) in items {
            n += varint_len(src.raw()) + 1;
            let g = match m {
                AntiEntropyMsg::Offer(g) | AntiEntropyMsg::Tell(g) => g,
                AntiEntropyMsg::Ask => continue,
            };
            n += 4;
            match reference {
                Some(r) if r.x.len() == g.x.len() => {
                    for (&x, &rx) in g.x.iter().zip(r.x.iter()) {
                        n += f64_delta_len(x, rx);
                    }
                    n += f64_delta_len(g.f, r.f);
                }
                _ => {
                    n += 8 * g.x.len() + 8;
                    if reference.is_none() {
                        reference = Some(g);
                    }
                }
            }
        }
        n
    }
}

/// Several same-tick single-optimum messages (rumor pushes or migrants)
/// for one destination, fused into a single frame.
///
/// The wire layout mirrors [`CoordBatch`] minus the kind byte — one tag
/// covers one payload kind: an item-count varint, then per item a
/// source-id varint, a `u32` dimensionality and either raw `f64`s (the
/// frame's first payload, or a dimensionality mismatch) or zig-zag
/// LEB128 varints of the `f64` bit-pattern deltas against that first
/// payload. Once the epidemic converges on one optimum, every follower
/// payload collapses to one byte per element.
///
/// Unlike [`CoordBatch`], whose anti-entropy traffic converges on one
/// optimum, migrant batches routinely carry *dissimilar* payloads
/// (distinct particles' personal bests), where bit-pattern deltas cost up
/// to 10 bytes per element against 8 raw. Each follower item therefore
/// picks the cheaper of delta and raw encoding; choosing raw is signalled
/// by setting the (otherwise always clear) top bit of the item's
/// dimensionality word, so a batch never costs more than its items' raw
/// payloads plus one source varint each.
#[derive(Debug, Clone)]
pub struct GossipBatch {
    /// `(original source, optimum)` in the original delivery order.
    pub items: Vec<(NodeId, GlobalBest)>,
}

impl GossipBatch {
    /// Serialized payload size in bytes under the runtime wire codec
    /// (header excluded); see the type docs for the layout.
    pub fn payload_wire_bytes(&self) -> usize {
        Self::payload_bytes_of(self.items.iter().map(|(src, g)| (*src, g)))
    }

    /// [`GossipBatch::payload_wire_bytes`] of a batch holding `items`,
    /// sized from borrowed optima without building the batch.
    pub(crate) fn payload_bytes_of<'a>(
        items: impl ExactSizeIterator<Item = (NodeId, &'a GlobalBest)>,
    ) -> usize {
        let mut n = varint_len(items.len() as u64);
        let mut reference: Option<&GlobalBest> = None;
        for (src, g) in items {
            n += varint_len(src.raw()) + 4;
            let raw = 8 * g.x.len() + 8;
            match reference {
                Some(r) if r.x.len() == g.x.len() => {
                    let mut delta = 0usize;
                    for (&x, &rx) in g.x.iter().zip(r.x.iter()) {
                        delta += f64_delta_len(x, rx);
                    }
                    delta += f64_delta_len(g.f, r.f);
                    n += delta.min(raw);
                }
                _ => {
                    n += raw;
                    if reference.is_none() {
                        reference = Some(g);
                    }
                }
            }
        }
        n
    }
}

/// Number of [`Msg`] wire kinds (matches [`Msg::kind_index`]'s range).
pub const KIND_COUNT: usize = 10;

/// Stable snake_case names of every wire kind, in enum declaration order
/// (indexable by [`Msg::kind_index`]).
pub const KIND_NAMES: [&str; KIND_COUNT] = [
    "newscast",
    "coord",
    "coord_batch",
    "rumor_push",
    "rumor_batch",
    "rumor_feedback",
    "migrant",
    "migrant_batch",
    "master_report",
    "master_update",
];

impl Msg {
    /// Frame header every message pays on the wire: version byte + tag
    /// byte.
    pub(crate) const HEADER_BYTES: usize = 2;

    /// Index of this message's wire kind in enum declaration order; the
    /// per-kind observability counters are arrays indexed by this.
    pub fn kind_index(&self) -> usize {
        match self {
            Msg::Newscast(_) => 0,
            Msg::Coord(_) => 1,
            Msg::CoordBatch(_) => 2,
            Msg::RumorPush(_) => 3,
            Msg::RumorBatch(_) => 4,
            Msg::RumorFeedback(_) => 5,
            Msg::Migrant(_) => 6,
            Msg::MigrantBatch(_) => 7,
            Msg::MasterReport(_) => 8,
            Msg::MasterUpdate(_) => 9,
        }
    }

    /// Stable snake_case name of this message's wire kind.
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Serialized size of this message in bytes under the runtime wire
    /// codec (`gossipopt_runtime::encode`), version + tag header included.
    ///
    /// The paper reports communication cost; counting bytes instead of
    /// messages lets reports weigh a 10-dimensional optimum push against a
    /// 20-descriptor NEWSCAST exchange honestly. Kept in lock-step with the
    /// codec by a test in `gossipopt_runtime::wire`.
    pub fn wire_bytes(&self) -> usize {
        /// A `Descriptor` is a `u64` id + `u64` timestamp.
        const DESCRIPTOR: usize = 16;
        Msg::HEADER_BYTES
            + match self {
                Msg::Newscast(NewscastMsg::Request(ds)) | Msg::Newscast(NewscastMsg::Reply(ds)) => {
                    4 + DESCRIPTOR * ds.len()
                }
                Msg::Coord(AntiEntropyMsg::Offer(g)) | Msg::Coord(AntiEntropyMsg::Tell(g)) => {
                    g.wire_bytes()
                }
                Msg::Coord(AntiEntropyMsg::Ask) => 0,
                Msg::CoordBatch(b) => b.payload_wire_bytes(),
                Msg::RumorBatch(b) | Msg::MigrantBatch(b) => b.payload_wire_bytes(),
                Msg::RumorFeedback(_) => 1,
                Msg::RumorPush(g)
                | Msg::Migrant(g)
                | Msg::MasterReport(g)
                | Msg::MasterUpdate(g) => g.wire_bytes(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let m = Msg::MasterReport(GlobalBest::new(&[1.0], 0.5));
        let c = m.clone();
        assert!(format!("{c:?}").contains("MasterReport"));
    }

    #[test]
    fn wire_bytes_counts_payload_dimensions() {
        let g = GlobalBest::new(&[0.0; 10], 1.0);
        // 2 header + 4 length + 10 coordinates + 1 value, each f64 = 8B.
        assert_eq!(Msg::RumorPush(g.clone()).wire_bytes(), 2 + 4 + 88);
        assert_eq!(Msg::Coord(AntiEntropyMsg::Ask).wire_bytes(), 2);
        assert_eq!(
            Msg::RumorFeedback(RumorAck::Duplicate).wire_bytes(),
            3,
            "feedback is a single flag byte"
        );
        assert_eq!(
            Msg::Newscast(NewscastMsg::Request(Vec::new())).wire_bytes(),
            6
        );
    }

    #[test]
    fn gossip_batch_sizing_collapses_identical_payloads() {
        let g = GlobalBest::new(&[0.25; 10], 1.0);
        let b = GossipBatch {
            items: vec![(NodeId(1), g.clone()), (NodeId(2), g.clone())],
        };
        // Header 2 + count 1; first item: src 1 + dim 4 + 88 raw;
        // second: src 1 + dim 4 + 11 one-byte deltas. Unbatched, the same
        // two pushes cost 2 × 94.
        assert_eq!(Msg::RumorBatch(b.clone()).wire_bytes(), 2 + 1 + 93 + 16);
        assert_eq!(
            Msg::MigrantBatch(b).wire_bytes(),
            2 + 1 + 93 + 16,
            "migrant batches share the layout"
        );
        assert_eq!(Msg::RumorPush(g).wire_bytes(), 94);
    }

    #[test]
    fn gossip_batch_sizing_caps_dissimilar_payloads_at_raw() {
        // Distinct migrant payloads (random bit patterns) make bit-pattern
        // deltas cost up to 10 bytes per element; the per-item raw
        // fallback caps every follower at its 8-byte-per-element raw size,
        // so a batched run always undercuts the per-message headers.
        let items: Vec<(NodeId, GlobalBest)> = (0..8u64)
            .map(|i| {
                let x: Vec<f64> = (0..10u64)
                    .map(|j| f64::from_bits((i * 10 + j).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect();
                let f = f64::from_bits(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
                (NodeId(i + 1), GlobalBest { x: x.into(), f })
            })
            .collect();
        let unbatched: usize = items
            .iter()
            .map(|(_, g)| Msg::Migrant(g.clone()).wire_bytes())
            .sum();
        let batched = Msg::MigrantBatch(GossipBatch { items }).wire_bytes();
        // Header 2 + count 1 + 8 × (src 1 + dim 4 + 88 raw) is the worst
        // case; unbatched the run costs 8 × 94.
        assert!(batched <= 2 + 1 + 8 * 93, "{batched} exceeds the raw cap");
        assert!(batched < unbatched, "{batched} >= {unbatched}");
    }

    #[test]
    fn coord_batch_sizing_collapses_identical_payloads() {
        let g = GlobalBest::new(&[0.25; 10], 1.0);
        let b = CoordBatch {
            items: vec![
                (NodeId(1), AntiEntropyMsg::Offer(g.clone())),
                (NodeId(2), AntiEntropyMsg::Offer(g)),
            ],
        };
        // Header 2 + count 1; first item: src 1 + kind 1 + dim 4 + 88
        // raw; second: src 1 + kind 1 + dim 4 + 11 one-byte deltas.
        // Unbatched, the same two messages cost 2 × 94.
        assert_eq!(Msg::CoordBatch(b).wire_bytes(), 2 + 1 + 94 + 17);
    }
}

//! The protocol interface shared by both engines.

use crate::ids::{NodeId, Ticks};
use gossipopt_util::Xoshiro256pp;

/// Maximum number of distinct wire kinds a [`WireCounts`] can track: the
/// `Msg` kinds in use (`core::messages` asserts they fit).
pub const MAX_WIRE_KINDS: usize = 10;

/// Per-wire-kind message accounting: a ledger the host lends to every
/// callback ([`Ctx::with_wire`]) and the application bumps through
/// [`Ctx::record_send`] and [`Ctx::record_delivery`].
///
/// Indexed by the application's own kind numbering (for `OptNode`,
/// `Msg::kind_index`). Purely simulation-state-derived, so these feed the
/// deterministic observability plane. A kernel keeps one ledger per lane
/// that can run at once and sums them when read
/// ([`crate::Membership::wire_ledger`]); a node's traffic stays counted
/// after it crashes because the ledger never lived in the node. A ledger
/// spans whole cache lines, so two shards' ledgers never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(align(64))]
pub struct WireCounts {
    /// Messages sent, by kind index.
    pub sent: [u64; MAX_WIRE_KINDS],
    /// Wire bytes sent, by kind index.
    pub bytes: [u64; MAX_WIRE_KINDS],
    /// Messages delivered, by kind index.
    pub delivered: [u64; MAX_WIRE_KINDS],
}

impl WireCounts {
    /// Add another ledger's counts into this one, element-wise.
    pub fn add(&mut self, other: &WireCounts) {
        for k in 0..MAX_WIRE_KINDS {
            self.sent[k] += other.sent[k];
            self.bytes[k] += other.bytes[k];
            self.delivered[k] += other.delivered[k];
        }
    }

    /// Count one sent message of `kind` costing `bytes` on the wire.
    #[inline]
    pub fn record_send(&mut self, kind: usize, bytes: u64) {
        self.sent[kind] += 1;
        self.bytes[kind] += bytes;
    }

    /// Count one delivered message of `kind`.
    #[inline]
    pub fn record_delivery(&mut self, kind: usize) {
        self.delivered[kind] += 1;
    }

    /// Total wire bytes across kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Frame-class indices for [`FrameSavings`] attribution.
pub mod frame_class {
    /// Anti-entropy coordination batches (`CoordBatch`).
    pub const COORD: usize = 0;
    /// Rumor-push batches (`RumorBatch`).
    pub const RUMOR: usize = 1;
    /// Island-model migrant batches (`MigrantBatch`).
    pub const MIGRANT: usize = 2;
    /// Savings an application reports without attributing a class.
    pub const OTHER: usize = 3;
    /// Number of frame classes.
    pub const COUNT: usize = 4;
    /// Stable class names, indexable by the constants above.
    pub const NAMES: [&str; COUNT] = ["coord", "rumor", "migrant", "other"];
}

/// Wire bytes saved by [`Application::coalesce_round`], attributed per
/// batch class so the deterministic observability plane can report which
/// frame kind the savings came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameSavings {
    /// Bytes saved, indexed by the [`frame_class`] constants.
    pub by_class: [u64; frame_class::COUNT],
}

impl FrameSavings {
    /// Total bytes saved across classes.
    pub fn total(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Credit `bytes` of savings to `class`.
    #[inline]
    pub fn add(&mut self, class: usize, bytes: u64) {
        self.by_class[class] += bytes;
    }
}

impl std::ops::AddAssign for FrameSavings {
    fn add_assign(&mut self, other: FrameSavings) {
        for (acc, got) in self.by_class.iter_mut().zip(other.by_class) {
            *acc += got;
        }
    }
}

/// A per-node protocol state machine.
///
/// Both engines drive implementations through the same three entry points:
///
/// * [`Application::on_join`] — once, when the node enters the network,
///   with a bootstrap sample of live peers (how any real deployment seeds
///   its first view);
/// * [`Application::on_tick`] — the periodic active thread (PeerSim's
///   `nextCycle`); in the gossipopt experiments one tick hosts one local
///   function evaluation;
/// * [`Application::on_message`] — the passive thread, invoked per
///   delivered message.
///
/// Implementations communicate *only* through [`Ctx::send`]; the kernel
/// owns loss, latency and liveness. Sending to a crashed node silently
/// drops the message, as UDP would.
/// `Application` and its messages are `Send` so a network can be sharded
/// across worker threads (the engines' `threads >= 1` phased/sharded
/// execution paths); per-node state is still only ever touched by one
/// thread at a time — the kernel hands each shard exclusive access to a
/// disjoint slot range.
/// A node may also have the kernel host a row of `f64`s for it
/// ([`Application::row_len`], [`Ctx::row`]) whose meaning the kernel
/// never sees, and counts its traffic per wire kind into the
/// [`WireCounts`] ledger the kernel lends the callback, not into its own
/// state.
pub trait Application: Sized + Send {
    /// Message type exchanged between nodes of this application.
    type Message: Clone + std::fmt::Debug + Send;

    /// Called once when the node joins; `contacts` is a uniform sample of
    /// currently live nodes (possibly empty for the very first node).
    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, Self::Message>);

    /// Periodic action, once per tick while alive.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Message>);

    /// A message from `from` has been delivered.
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<'_, Self::Message>);

    /// Length of the zeroed `f64` row the kernel keeps for this node and
    /// lends to every callback as [`Ctx::row`]; asked once, at join. Every
    /// node of a network must ask for the same length (else the join
    /// panics). The default 0 lends an empty row.
    fn row_len(&self) -> usize {
        0
    }

    /// Frame-coalescing hook for batched delivery.
    ///
    /// The phased cycle kernel hands it each dispatch shard's slice of a
    /// delivery round — the shard's surviving `(from, to, msg)` after loss
    /// and liveness, in canonical order, stably sorted by destination —
    /// right before dispatching it (shards own whole destinations, so no
    /// run crosses a slice boundary); the event kernel's sharded
    /// dispatch (`EventConfig::threads >= 1`) hands it each maximal run
    /// of seq-adjacent same-destination deliveries of a same-timestamp
    /// batch. An application may rewrite *consecutive runs* of
    /// same-destination messages into batch frames of its own message
    /// type (e.g. `OptNode` fuses coordination messages into one
    /// delta-encoded `Msg::CoordBatch`), shrinking both
    /// the simulated wire traffic and, in a real deployment, the frames
    /// on the socket. Returns the wire bytes saved (the byte accounting
    /// delta between the replaced messages and their batch frames),
    /// attributed per batch class; the kernel accumulates the
    /// [`FrameSavings::total`] into its statistics and keeps the
    /// per-class split for the observability plane.
    ///
    /// Contract: the rewrite must preserve per-destination processing
    /// order and the exact replies each receiver would have emitted, so
    /// trajectories and kernel statistics other than byte accounting are
    /// unchanged — the kernel counts `sent`/`delivered` *before* calling
    /// this hook. The default does nothing.
    fn coalesce_round(_round: &mut Vec<(NodeId, NodeId, Self::Message)>) -> FrameSavings {
        FrameSavings::default()
    }
}

/// Kernel services exposed to a protocol during a callback.
pub struct Ctx<'a, M> {
    /// This node's identifier.
    pub self_id: NodeId,
    /// Current simulated time.
    pub now: Ticks,
    pub(crate) rng: &'a mut Xoshiro256pp,
    pub(crate) outbox: &'a mut Vec<(NodeId, M)>,
    row: &'a mut [f64],
    wire: Option<&'a mut WireCounts>,
}

impl<'a, M> Ctx<'a, M> {
    /// Construct a context lending an empty row and no wire ledger
    /// (kernel-internal; public for hosts in other crates and their
    /// tests).
    pub fn new(
        self_id: NodeId,
        now: Ticks,
        rng: &'a mut Xoshiro256pp,
        outbox: &'a mut Vec<(NodeId, M)>,
    ) -> Self {
        Ctx {
            self_id,
            now,
            rng,
            outbox,
            row: &mut [],
            wire: None,
        }
    }

    /// Lend `row` to the callback as the node's row ([`Ctx::row`]).
    #[inline]
    pub fn with_row(mut self, row: &'a mut [f64]) -> Self {
        self.row = row;
        self
    }

    /// Lend `wire` to the callback as the ledger [`Ctx::record_send`] and
    /// [`Ctx::record_delivery`] count into.
    #[inline]
    pub fn with_wire(mut self, wire: &'a mut WireCounts) -> Self {
        self.wire = Some(wire);
        self
    }

    /// Count one sent message of `kind` costing `bytes` on the wire into
    /// the lent ledger (nothing when the host lends none).
    #[inline]
    pub fn record_send(&mut self, kind: usize, bytes: u64) {
        if let Some(wire) = self.wire.as_deref_mut() {
            wire.record_send(kind, bytes);
        }
    }

    /// Count one delivered message of `kind` into the lent ledger
    /// (nothing when the host lends none).
    #[inline]
    pub fn record_delivery(&mut self, kind: usize) {
        if let Some(wire) = self.wire.as_deref_mut() {
            wire.record_delivery(kind);
        }
    }

    /// Queue `msg` for delivery to `to`. Delivery is asynchronous and
    /// unreliable; the kernel applies the configured loss and latency.
    /// Self-sends are delivered like any other message.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// A mark of the sends queued so far, for [`Ctx::retain_since`]. The
    /// outbox may already hold sends of earlier callbacks; the mark sits
    /// after them.
    #[inline]
    pub fn mark(&self) -> usize {
        self.outbox.len()
    }

    /// Keep only the sends queued since `mark` for which `keep` holds,
    /// in their order, and return how many were dropped. Sends queued
    /// before `mark` are neither passed to `keep` nor moved. Panics if
    /// `mark` is past the sends queued.
    pub fn retain_since(
        &mut self,
        mark: usize,
        mut keep: impl FnMut(&(NodeId, M)) -> bool,
    ) -> usize {
        let tail = &mut self.outbox[mark..];
        let mut kept = 0;
        for i in 0..tail.len() {
            if keep(&tail[i]) {
                if kept != i {
                    tail.swap(kept, i);
                }
                kept += 1;
            }
        }
        let dropped = tail.len() - kept;
        self.outbox.truncate(mark + kept);
        dropped
    }

    /// This node's deterministic private random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        self.rng
    }

    /// This node's row (empty when the host lends none).
    #[inline]
    pub fn row(&mut self) -> &mut [f64] {
        self.row
    }

    /// [`Ctx::row`] and [`Ctx::rng`] at once.
    #[inline]
    pub fn row_and_rng(&mut self) -> (&mut [f64], &mut Xoshiro256pp) {
        (self.row, self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::Rng64;

    #[test]
    fn ctx_queues_sends_in_order() {
        let mut rng = Xoshiro256pp::seeded(1);
        let mut outbox: Vec<(NodeId, u32)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 5, &mut rng, &mut outbox);
        ctx.send(NodeId(1), 10);
        ctx.send(NodeId(2), 20);
        assert_eq!(ctx.now, 5);
        let _ = ctx.rng().next_u64();
        assert_eq!(outbox, vec![(NodeId(1), 10), (NodeId(2), 20)]);
    }

    #[test]
    fn ctx_counts_into_the_lent_ledger_only() {
        let mut rng = Xoshiro256pp::seeded(1);
        let mut outbox: Vec<(NodeId, u32)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
        ctx.record_send(1, 9);
        ctx.record_delivery(1);
        let mut wire = WireCounts::default();
        let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox).with_wire(&mut wire);
        ctx.record_send(2, 5);
        ctx.record_send(2, 7);
        ctx.record_delivery(0);
        assert_eq!((wire.sent[2], wire.bytes[2], wire.delivered[0]), (2, 12, 1));
        assert_eq!(
            (wire.sent[1], wire.delivered[1]),
            (0, 0),
            "no ledger, no count"
        );
        assert_eq!(wire.total_bytes(), 12);
    }

    #[test]
    fn retain_since_filters_only_the_sends_after_the_mark() {
        let mut rng = Xoshiro256pp::seeded(1);
        // Two sends of an earlier callback, one of them odd.
        let mut outbox: Vec<(NodeId, u32)> = vec![(NodeId(7), 1), (NodeId(8), 2)];
        let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
        let mark = ctx.mark();
        assert_eq!(mark, 2);
        for v in [3, 4, 5, 6, 8, 9] {
            ctx.send(NodeId(u64::from(v)), v);
        }
        let mut seen = Vec::new();
        let dropped = ctx.retain_since(mark, |&(_, v)| {
            seen.push(v);
            v % 2 == 0
        });
        assert_eq!(dropped, 3);
        assert_eq!(seen, [3, 4, 5, 6, 8, 9], "only the sends since the mark");
        assert_eq!(ctx.mark(), 5);
        assert_eq!(ctx.retain_since(5, |_| false), 0, "nothing since the end");
        let kept: Vec<u32> = outbox.iter().map(|&(_, v)| v).collect();
        assert_eq!(kept, [1, 2, 4, 6, 8], "earlier sends untouched, order kept");
    }
}

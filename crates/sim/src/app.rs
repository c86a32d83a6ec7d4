//! The protocol interface shared by both engines.

use crate::ids::{NodeId, Ticks};
use gossipopt_util::Xoshiro256pp;

/// Maximum number of distinct wire kinds a [`WireCounts`] can track.
///
/// Sized above the present `Msg` kind count (10) so adding a wire kind
/// does not change this type's layout.
pub const MAX_WIRE_KINDS: usize = 16;

/// Per-wire-kind message accounting an application can expose to the
/// kernel via [`Application::wire_counts`].
///
/// Indexed by the application's own kind numbering (for `OptNode`,
/// `Msg::kind_index`). Purely simulation-state-derived, so these feed the
/// deterministic observability plane. The engines harvest a dying node's
/// counts into an engine-owned `retired` accumulator before dropping the
/// slot, which is what makes churn-era byte accounting exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCounts {
    /// Messages sent, by kind index.
    pub sent: [u64; MAX_WIRE_KINDS],
    /// Wire bytes sent, by kind index.
    pub bytes: [u64; MAX_WIRE_KINDS],
    /// Messages delivered to this node, by kind index.
    pub delivered: [u64; MAX_WIRE_KINDS],
}

impl WireCounts {
    /// All-zero counts.
    pub fn new() -> WireCounts {
        WireCounts {
            sent: [0; MAX_WIRE_KINDS],
            bytes: [0; MAX_WIRE_KINDS],
            delivered: [0; MAX_WIRE_KINDS],
        }
    }

    /// Add another node's counts into this accumulator, element-wise.
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

    /// Total sent messages across kinds.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total delivered messages across kinds.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }
}

impl Default for WireCounts {
    fn default() -> WireCounts {
        WireCounts::new()
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
    /// Total bytes saved across classes (what the kernel's aggregate
    /// `frame_bytes_saved` statistic accumulates).
    pub fn total(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Credit `bytes` of savings to `class`.
    #[inline]
    pub fn add(&mut self, class: usize, bytes: u64) {
        self.by_class[class] += bytes;
    }

    /// Savings with no class attribution (credited to
    /// [`frame_class::OTHER`]) — the shape legacy `u64`-returning hooks
    /// map onto.
    pub fn from_total(bytes: u64) -> FrameSavings {
        let mut s = FrameSavings::default();
        s.by_class[frame_class::OTHER] = bytes;
        s
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

    /// Scheduling hint: is the *upcoming* [`Application::on_tick`]
    /// guaranteed to send no messages?
    ///
    /// When every live node answers `true`, callbacks of that tick cannot
    /// interact (nodes communicate only through messages), so the
    /// sequential cycle kernel may visit slots in storage order —
    /// sequential memory access — instead of the shuffled sweep, without
    /// changing any trajectory. The kernel still advances its RNG exactly
    /// as if it had shuffled, so the random stream is unaffected.
    ///
    /// The default `false` always keeps the canonical shuffled sweep.
    /// Returning `true` is a *contract*: if the next `on_tick` then sends
    /// anyway, the kernel panics (a silent fallback would let the
    /// declared-quiet visit order leak into trajectories).
    fn quiet_tick(&self) -> bool {
        false
    }

    /// Cache-warming hint: the kernel is about to run this node's
    /// callback within a few iterations; prefetch any out-of-line hot
    /// state (e.g. an arena row) now. Must not mutate anything. Default:
    /// no-op.
    fn prefetch(&self) {}

    /// Frame-coalescing hook for batched delivery.
    ///
    /// The phased cycle kernel hands it each dispatch shard's slice of a
    /// delivery round — the shard's surviving `(from, to, msg)` after loss
    /// and liveness, in canonical order, stably sorted by destination —
    /// right before dispatching it (shards own whole destinations, so no
    /// run crosses a slice boundary); the event kernel's sharded
    /// dispatch hands it each maximal run of seq-adjacent
    /// same-destination deliveries of a same-timestamp batch (see
    /// `EventConfig::coalesce_frames`). An application may rewrite
    /// *consecutive runs* of same-destination messages into batch frames
    /// of its own message type (e.g. `OptNode` fuses coordination
    /// messages into one delta-encoded `Msg::CoordBatch`), shrinking both
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

    /// Per-wire-kind accounting of this node's traffic, if the
    /// application keeps any (see [`WireCounts`]). The engines harvest
    /// this at node death so churn never loses bytes from the totals.
    /// The default reports all zeros.
    fn wire_counts(&self) -> WireCounts {
        WireCounts::new()
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
}

impl<'a, M> Ctx<'a, M> {
    /// Construct a context (kernel-internal; public for engine reuse in
    /// other crates' tests).
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
        }
    }

    /// Queue `msg` for delivery to `to`. Delivery is asynchronous and
    /// unreliable; the kernel applies the configured loss and latency.
    /// Self-sends are delivered like any other message.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// This node's deterministic private random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        self.rng
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
}

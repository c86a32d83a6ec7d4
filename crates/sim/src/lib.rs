#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gossipopt-sim
//!
//! A PeerSim-equivalent peer-to-peer network simulator, written from scratch
//! for the gossipopt reproduction.
//!
//! The paper evaluates its architecture inside PeerSim's cycle-driven
//! kernel; this crate reimplements those semantics in Rust and adds the
//! event-driven engine PeerSim also offers:
//!
//! * [`cycle::CycleEngine`] — synchronous rounds. Every *tick* each live
//!   node, in a freshly shuffled order, runs its periodic action and the
//!   kernel routes any resulting messages within the tick, replies
//!   included (PeerSim's cycle-based protocols call peers directly; we
//!   model this as an immediately drained message queue with a hop
//!   budget). Latency is the event kernel's; the cycle kernel has none.
//! * [`event::EventEngine`] — a discrete-event kernel with per-message
//!   latency models, per-node periodic timers with jittered phases, and the
//!   same [`Application`] protocol interface.
//!
//! Shared infrastructure: one membership layer, [`Membership`], under
//! both kernels — the slots, joins with their bootstrap sample, scripted
//! crashes, the [`churn`] process and the [`KernelStats`] counters — so
//! each kernel keeps only its schedule (rounds, or timed events); the
//! [`transport`] loss and latency models; and deterministic PRNG streams
//! per node derived from one root seed (see `gossipopt-util`).
//!
//! The kernel knows nothing about optimization: protocols are arbitrary
//! state machines implementing [`Application`]. Global measurements are
//! taken by *observers* — closures given read access to every live node,
//! exactly like PeerSim's `Control` components.

pub mod app;
pub mod churn;
pub mod cycle;
pub mod event;
pub mod ids;
mod slots;
pub mod transport;

pub use app::{frame_class, Application, Ctx, FrameSavings, WireCounts, MAX_WIRE_KINDS};
pub use churn::ChurnConfig;
pub use cycle::{CycleConfig, CycleEngine, StepReport};
pub use event::{EventConfig, EventEngine};
pub use ids::{NodeId, Ticks};
pub use slots::{Membership, NodesView};
pub use transport::{Latency, Transport};

/// Observer verdict: keep simulating or stop at this observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Continue the simulation.
    Continue,
    /// Stop; engines return the time at which the stop was requested.
    Stop,
}

/// Cumulative counters of a kernel, the same shape on both. A message is
/// counted in `sent` once it resolves, so `sent == delivered + lost +
/// dead_letter + hop_overflow`; messages still in flight (the event
/// kernel's latency) are in none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Messages handed to the transport that have resolved.
    pub sent: u64,
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages dropped by loss.
    pub lost: u64,
    /// Messages addressed to dead or unknown nodes.
    pub dead_letter: u64,
    /// Messages discarded by the cycle kernel's hop budget.
    pub hop_overflow: u64,
    /// Nodes crashed by churn or by a scripted crash.
    pub crashes: u64,
    /// Nodes joined by churn.
    pub joins: u64,
    /// Wire bytes saved by application frame coalescing, per class (see
    /// [`Application::coalesce_round`]); zero at `threads = 0`, which
    /// never batches.
    pub frame_saved: FrameSavings,
}

impl KernelStats {
    /// Messages dropped: lost, dead-lettered or over the hop budget.
    pub fn dropped(&self) -> u64 {
        self.lost + self.dead_letter + self.hop_overflow
    }
}

//! Fault injection: a transparent [`Application`] wrapper plus the
//! compiled schedule it executes.
//!
//! [`FaultApp`] wraps any protocol node and layers timed faults over it
//! without the kernel knowing:
//!
//! * **partition** — while a partition window is open, every message
//!   whose endpoints fall in different groups is silently eaten (on both
//!   the send and the receive side, so traffic already in flight when the
//!   cut lands is dropped too — the semantics of a severed link);
//! * **corrupt_optimum** — byzantine nodes (a deterministic id-hash
//!   selection) call [`FaultTarget::inject_lie`] at the scheduled tick
//!   and proceed to gossip a fabricated optimum through their normal
//!   protocol;
//! * **massacre** and **flash_crowd** are membership events and are
//!   applied by the executor through the engine (scripted crashes and the
//!   churn spawner), not by this wrapper.
//!
//! The wrapper is deterministic and engine-agnostic: its only inputs are
//! the callback context (`self_id`, `now`) and the immutable compiled
//! schedule, so cycle and event kernels inject identically, and sharded
//! execution is unaffected (no cross-node state).

use crate::spec::Fault;
use gossipopt_core::messages::Msg;
use gossipopt_core::node::OptNode;
use gossipopt_core::rumor::GlobalBest;
use gossipopt_sim::{Application, Ctx, FrameSavings, NodeId, Ticks};
use std::sync::Arc;

/// A node the fault injector knows how to corrupt.
pub trait FaultTarget: Application {
    /// Plant a fabricated optimum claiming objective value `lie` in a
    /// `dim`-dimensional space; the node must thereafter report and
    /// gossip it as its best.
    fn inject_lie(&mut self, lie: f64, dim: usize);

    /// Split a batch frame produced by this application's
    /// `coalesce_round` back into `(original source, message)` items, so
    /// the wrapper can apply receive-side fault filtering per original
    /// link instead of per fused frame. Non-batch messages come back
    /// unchanged as `Err`. The default treats nothing as a batch.
    fn unbatch(msg: Self::Message) -> Result<Vec<(NodeId, Self::Message)>, Self::Message> {
        Err(msg)
    }
}

impl FaultTarget for OptNode {
    fn inject_lie(&mut self, lie: f64, dim: usize) {
        self.poison_best(GlobalBest::new(&vec![0.0; dim], lie));
    }

    fn unbatch(msg: Msg) -> Result<Vec<(NodeId, Msg)>, Msg> {
        match msg {
            Msg::CoordBatch(b) => Ok(b
                .items
                .into_iter()
                .map(|(src, m)| (src, Msg::Coord(m)))
                .collect()),
            Msg::RumorBatch(b) => Ok(b
                .items
                .into_iter()
                .map(|(src, g)| (src, Msg::RumorPush(g)))
                .collect()),
            Msg::MigrantBatch(b) => Ok(b
                .items
                .into_iter()
                .map(|(src, g)| (src, Msg::Migrant(g)))
                .collect()),
            other => Err(other),
        }
    }
}

/// One partition window of the compiled schedule.
#[derive(Debug, Clone)]
struct PartitionWindow {
    at: Ticks,
    heal_at: Ticks,
    /// Disjoint `[start, end)` id ranges.
    groups: Vec<(u64, u64)>,
}

impl PartitionWindow {
    fn group_of(&self, id: NodeId) -> Option<usize> {
        let raw = id.raw();
        self.groups.iter().position(|&(s, e)| raw >= s && raw < e)
    }

    /// Is the `a → b` link cut at `now`? Nodes outside every group (e.g.
    /// churn joiners with fresh ids) are unaffected.
    fn cuts(&self, now: Ticks, a: NodeId, b: NodeId) -> bool {
        if now < self.at || now >= self.heal_at {
            return false;
        }
        match (self.group_of(a), self.group_of(b)) {
            (Some(ga), Some(gb)) => ga != gb,
            _ => false,
        }
    }
}

/// The immutable, shared compilation of a cell's fault schedule (the
/// wrapper-relevant parts; membership faults live in the executor).
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    partitions: Vec<PartitionWindow>,
    /// `(at, node_frac, lie)` of the corrupt-optimum fault, if any.
    corrupt: Option<(Ticks, f64, f64)>,
    /// Objective dimensionality (for the fabricated optimum's position).
    dim: usize,
    /// Selection seed for the byzantine id hash.
    seed: u64,
}

impl FaultSchedule {
    /// Compile the wrapper-relevant faults of a schedule. `dim` is the
    /// objective dimensionality, `seed` the cell seed (byzantine
    /// selection derives from it, so it is deterministic per cell and
    /// identical on both kernels). `tick_scale` converts the schedule's
    /// tick times into the kernel's `Ctx::now` units: `1` for the cycle
    /// kernel, the tick period for the event kernel (whose clock counts
    /// simulated time units, not ticks).
    pub fn new(faults: &[Fault], dim: usize, seed: u64, tick_scale: u64) -> Self {
        let scale = tick_scale.max(1);
        let mut partitions = Vec::new();
        let mut corrupt = None;
        for f in faults {
            match *f {
                Fault::Partition {
                    at,
                    heal_at,
                    ref groups,
                } => partitions.push(PartitionWindow {
                    at: at * scale,
                    heal_at: heal_at * scale,
                    groups: groups.clone(),
                }),
                Fault::CorruptOptimum { at, node_frac, lie } => {
                    corrupt = Some((at * scale, node_frac, lie));
                }
                Fault::FlashCrowd { .. } | Fault::Massacre { .. } => {}
            }
        }
        FaultSchedule {
            partitions,
            corrupt,
            dim,
            seed,
        }
    }

    /// A schedule with no wrapper-visible faults (transparent wrapper).
    pub fn none(dim: usize, seed: u64) -> Self {
        FaultSchedule::new(&[], dim, seed, 1)
    }

    /// Is the `a → b` link cut by any open partition window at `now`?
    #[inline]
    pub fn blocks(&self, now: Ticks, a: NodeId, b: NodeId) -> bool {
        self.partitions.iter().any(|p| p.cuts(now, a, b))
    }

    /// Is `id` in the byzantine set of the corrupt-optimum fault?
    /// Deterministic splitmix hash of `(seed, id)` against `node_frac` —
    /// independent of kernel, thread count and execution order.
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        let Some((_, frac, _)) = self.corrupt else {
            return false;
        };
        let mut z = self
            .seed
            .wrapping_add(0x9E3779B97F4A7C15)
            .wrapping_add(id.raw().wrapping_mul(0xBF58476D1CE4E5B9));
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        // Top 53 bits → uniform in [0, 1).
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < frac
    }

    /// The corrupt-optimum activation `(at, lie)` for byzantine nodes.
    fn corrupt_at(&self) -> Option<(Ticks, f64)> {
        self.corrupt.map(|(at, _, lie)| (at, lie))
    }
}

/// Fault-injecting wrapper around a protocol node.
///
/// Transparent when the schedule has no wrapper-visible faults: callbacks
/// are forwarded with the kernel's own context, so wrapping does not shift
/// seeded trajectories. Its state is what it models: whether the lie was
/// injected and how many messages the faults ate.
pub struct FaultApp<A: FaultTarget> {
    inner: A,
    sched: Arc<FaultSchedule>,
    /// Has this node already injected its lie?
    corrupted: bool,
    /// Messages eaten by partition windows (send + receive side).
    blocked: u64,
}

// Every campaign slot holds one: the wrapper adds 24 bytes to the node, and
// with its RNG stream the slot is 320.
const _: () = assert!(std::mem::size_of::<FaultApp<OptNode>>() <= 288);

impl<A: FaultTarget> FaultApp<A> {
    /// Wrap `inner` under `sched`.
    pub fn new(inner: A, sched: Arc<FaultSchedule>) -> Self {
        FaultApp {
            inner,
            sched,
            corrupted: false,
            blocked: 0,
        }
    }

    /// The wrapped node (observer access).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Messages this node's faults have eaten so far.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    /// Run `call` against the inner node on the kernel's context, then
    /// drop and count the sends it made that cross an open partition.
    /// Sends already queued before the call are left alone.
    fn forward(
        &mut self,
        ctx: &mut Ctx<'_, <A as Application>::Message>,
        call: impl FnOnce(&mut A, &mut Ctx<'_, <A as Application>::Message>),
    ) {
        let (self_id, now) = (ctx.self_id, ctx.now);
        let mark = ctx.mark();
        call(&mut self.inner, ctx);
        let sched = &self.sched;
        let dropped = ctx.retain_since(mark, |&(to, _)| !sched.blocks(now, self_id, to));
        self.blocked += dropped as u64;
    }
}

/// Observers that read the protocol node (core's run loop) see through
/// the wrapper.
impl<A: FaultTarget> std::borrow::Borrow<A> for FaultApp<A> {
    fn borrow(&self) -> &A {
        &self.inner
    }
}

impl<A: FaultTarget> Application for FaultApp<A> {
    type Message = <A as Application>::Message;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, Self::Message>) {
        self.forward(ctx, |inner, ctx| inner.on_join(contacts, ctx));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        if !self.corrupted {
            if let Some((at, lie)) = self.sched.corrupt_at() {
                if ctx.now >= at && self.sched.is_byzantine(ctx.self_id) {
                    self.corrupted = true;
                    let dim = self.sched.dim;
                    self.inner.inject_lie(lie, dim);
                }
            }
        }
        self.forward(ctx, |inner, ctx| inner.on_tick(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<'_, Self::Message>) {
        match A::unbatch(msg) {
            Err(msg) => {
                // Receive-side cut: in-flight traffic dies with the link.
                if self.sched.blocks(ctx.now, from, ctx.self_id) {
                    self.blocked += 1;
                    return;
                }
                self.forward(ctx, |inner, ctx| inner.on_message(from, msg, ctx));
            }
            Ok(items) => {
                // A fused frame: the receive-side cut applies per
                // *original* link, exactly as if the items had arrived
                // unbatched — a partition must not leak (or eat) traffic
                // just because the kernel coalesced frames.
                for (src, m) in items {
                    if self.sched.blocks(ctx.now, src, ctx.self_id) {
                        self.blocked += 1;
                        continue;
                    }
                    self.forward(ctx, |inner, ctx| inner.on_message(src, m, ctx));
                }
            }
        }
    }

    fn coalesce_round(round: &mut Vec<(NodeId, NodeId, Self::Message)>) -> FrameSavings {
        A::coalesce_round(round)
    }

    fn row_len(&self) -> usize {
        self.inner.row_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::Xoshiro256pp;

    /// Echo protocol for wrapper tests.
    struct Echo {
        received: Vec<(NodeId, u64)>,
        lie: Option<f64>,
    }

    impl Application for Echo {
        type Message = u64;
        fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, u64>) {
            for &c in contacts {
                ctx.send(c, 1);
            }
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(NodeId(9), 7);
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.received.push((from, msg));
            ctx.send(from, msg + 1);
        }
    }

    impl FaultTarget for Echo {
        fn inject_lie(&mut self, lie: f64, _dim: usize) {
            self.lie = Some(lie);
        }
    }

    fn partition_sched(at: Ticks, heal_at: Ticks) -> Arc<FaultSchedule> {
        Arc::new(FaultSchedule::new(
            &[Fault::Partition {
                at,
                heal_at,
                groups: vec![(0, 5), (5, 10)],
            }],
            3,
            1,
            1,
        ))
    }

    fn ctx_run(
        app: &mut FaultApp<Echo>,
        id: NodeId,
        now: Ticks,
        f: impl FnOnce(&mut FaultApp<Echo>, &mut Ctx<'_, u64>),
    ) -> Vec<(NodeId, u64)> {
        let mut rng = Xoshiro256pp::seeded(4);
        let mut outbox = Vec::new();
        let mut ctx = Ctx::new(id, now, &mut rng, &mut outbox);
        f(app, &mut ctx);
        outbox
    }

    #[test]
    fn partition_cuts_cross_group_sends_both_ways() {
        let sched = partition_sched(10, 20);
        let mut app = FaultApp::new(
            Echo {
                received: Vec::new(),
                lie: None,
            },
            sched,
        );
        // Node 2 (group 0) ticks to NodeId(9) (group 1).
        let before = ctx_run(&mut app, NodeId(2), 5, |a, c| a.on_tick(c));
        assert_eq!(before, vec![(NodeId(9), 7)], "open before the window");
        let during = ctx_run(&mut app, NodeId(2), 10, |a, c| a.on_tick(c));
        assert!(during.is_empty(), "cut inside the window");
        assert_eq!(app.blocked(), 1);
        // Receive side: a cross-group message in flight is eaten.
        let replies = ctx_run(&mut app, NodeId(2), 15, |a, c| {
            a.on_message(NodeId(7), 3, c)
        });
        assert!(replies.is_empty());
        assert!(app.inner().received.is_empty(), "inner never saw it");
        assert_eq!(app.blocked(), 2);
        // Healed.
        let after = ctx_run(&mut app, NodeId(2), 20, |a, c| a.on_tick(c));
        assert_eq!(after, vec![(NodeId(9), 7)], "healed at heal_at");
    }

    #[test]
    fn partition_filters_only_this_callbacks_sends() {
        let mut app = FaultApp::new(
            Echo {
                received: Vec::new(),
                lie: None,
            },
            partition_sched(0, 100),
        );
        let mut rng = Xoshiro256pp::seeded(4);
        // Sends of an earlier callback in a flat shard outbox; both cross
        // the partition as seen from node 2.
        let earlier = vec![(NodeId(8), 100), (NodeId(6), 101)];
        let mut outbox = earlier.clone();
        let mut ctx = Ctx::new(NodeId(2), 50, &mut rng, &mut outbox);
        let contacts = [NodeId(1), NodeId(7), NodeId(3), NodeId(9), NodeId(4)];
        app.on_join(&contacts, &mut ctx);
        assert_eq!(app.blocked(), 2, "7 and 9 are across the cut");
        assert_eq!(outbox[..2], earlier, "earlier sends unchanged");
        assert_eq!(
            outbox[2..],
            [(NodeId(1), 1), (NodeId(3), 1), (NodeId(4), 1)],
            "kept sends in send order"
        );
    }

    #[test]
    fn same_group_and_ungrouped_traffic_passes() {
        let sched = partition_sched(0, 100);
        let mut app = FaultApp::new(
            Echo {
                received: Vec::new(),
                lie: None,
            },
            sched,
        );
        // Node 7 → 9: both group 1.
        let out = ctx_run(&mut app, NodeId(7), 50, |a, c| a.on_tick(c));
        assert_eq!(out.len(), 1);
        // Node 42 (ungrouped churn joiner) receives from group 0.
        let out = ctx_run(&mut app, NodeId(42), 50, |a, c| {
            a.on_message(NodeId(1), 5, c)
        });
        assert_eq!(out, vec![(NodeId(1), 6)]);
        assert_eq!(app.blocked(), 0);
    }

    #[test]
    fn corrupt_optimum_fires_once_for_byzantine_nodes() {
        let sched = Arc::new(FaultSchedule::new(
            &[Fault::CorruptOptimum {
                at: 10,
                node_frac: 1.0,
                lie: -5.0,
            }],
            3,
            1,
            1,
        ));
        let mut app = FaultApp::new(
            Echo {
                received: Vec::new(),
                lie: None,
            },
            Arc::clone(&sched),
        );
        ctx_run(&mut app, NodeId(0), 9, |a, c| a.on_tick(c));
        assert_eq!(app.inner().lie, None, "not before `at`");
        ctx_run(&mut app, NodeId(0), 10, |a, c| a.on_tick(c));
        assert_eq!(app.inner().lie, Some(-5.0), "injected at `at`");
        assert!(sched.is_byzantine(NodeId(0)), "frac 1.0 selects everyone");
    }

    #[test]
    fn byzantine_selection_is_deterministic_and_proportional() {
        let sched = FaultSchedule::new(
            &[Fault::CorruptOptimum {
                at: 0,
                node_frac: 0.25,
                lie: -1.0,
            }],
            3,
            99,
            1,
        );
        let picked: Vec<bool> = (0..4000).map(|i| sched.is_byzantine(NodeId(i))).collect();
        let again: Vec<bool> = (0..4000).map(|i| sched.is_byzantine(NodeId(i))).collect();
        assert_eq!(picked, again);
        let count = picked.iter().filter(|&&b| b).count();
        assert!(
            (800..1200).contains(&count),
            "~25% of 4000 expected, got {count}"
        );
        // Different seed, different set.
        let other = FaultSchedule::new(
            &[Fault::CorruptOptimum {
                at: 0,
                node_frac: 0.25,
                lie: -1.0,
            }],
            3,
            100,
            1,
        );
        let other_picked: Vec<bool> = (0..4000).map(|i| other.is_byzantine(NodeId(i))).collect();
        assert_ne!(picked, other_picked);
    }

    #[test]
    fn transparent_schedule_forwards_everything() {
        let sched = Arc::new(FaultSchedule::none(3, 0));
        let mut app = FaultApp::new(
            Echo {
                received: Vec::new(),
                lie: None,
            },
            sched,
        );
        let joins = ctx_run(&mut app, NodeId(0), 0, |a, c| {
            a.on_join(&[NodeId(1), NodeId(2)], c)
        });
        assert_eq!(joins.len(), 2);
        let out = ctx_run(&mut app, NodeId(0), 1, |a, c| a.on_message(NodeId(3), 8, c));
        assert_eq!(out, vec![(NodeId(3), 9)]);
        assert_eq!(app.blocked(), 0);
        assert_eq!(app.inner().received, vec![(NodeId(3), 8)]);
    }
}

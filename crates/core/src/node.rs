//! The composed framework node: topology + optimization + coordination.

use crate::messages::{CoordBatch, GossipBatch, Msg};
use crate::rumor::{BestRumor, GlobalBest};
use gossipopt_functions::Objective;
use gossipopt_gossip::{
    AntiEntropy, AntiEntropyMsg, ExchangeMode, Newscast, NewscastConfig, PartialView, PeerSampler,
    StaticSampler,
};
use gossipopt_obs::wall::{self, Phase};
use gossipopt_sim::{frame_class, Application, Ctx, FrameSavings, NodeId, WireCounts};
use gossipopt_solvers::Solver;
use gossipopt_util::Xoshiro256pp;
use std::sync::Arc;

/// Topology-service component instance.
#[derive(Debug, Clone)]
pub enum TopologyComp {
    /// Dynamic random overlay via NEWSCAST.
    Newscast(Newscast),
    /// Fixed neighbor list (mesh / star / ring / k-out baselines).
    Static(StaticSampler),
}

impl TopologyComp {
    fn on_join(&mut self, contacts: &[NodeId], now: u64, rng: &mut Xoshiro256pp) {
        if let TopologyComp::Newscast(nc) = self {
            nc.on_join(contacts, now, rng);
        }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> Option<NodeId> {
        match self {
            TopologyComp::Newscast(nc) => nc.sample_peer(rng),
            TopologyComp::Static(s) => s.sample_peer(rng),
        }
    }

    /// The NEWSCAST view, when this component is dynamic (for observers).
    pub fn newscast_view(&self) -> Option<&PartialView> {
        match self {
            TopologyComp::Newscast(nc) => Some(nc.view()),
            TopologyComp::Static(_) => None,
        }
    }
}

/// Coordination-role of a node under the master–slave baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Symmetric peer (gossip / no coordination).
    Peer,
    /// The star hub.
    Master,
    /// A spoke reporting to `master`.
    Slave(NodeId),
}

/// Per-node coordination state.
#[derive(Debug, Clone)]
pub enum CoordComp {
    /// The paper's anti-entropy diffusion of the global optimum.
    Gossip(AntiEntropy<GlobalBest>),
    /// Demers rumor mongering of the global optimum (fan-out `k`, stop
    /// probability `p` — the background section's alternative epidemic).
    Rumor(BestRumor),
    /// Island-model migration: whole individuals move between nodes
    /// (the future-work "diverse domain space allocation").
    Migrate {
        /// Individuals sent per coordination event.
        migrants: usize,
    },
    /// Centralized collection at a hub.
    MasterSlave,
    /// Isolated search (the "without coordination" extreme).
    Isolated,
}

/// A node of the decentralized optimization framework.
///
/// Implements [`Application`]: every kernel tick performs **one local
/// function evaluation** (while budget remains), runs the topology
/// service's periodic maintenance, and — every `gossip_every` local
/// evaluations — one coordination exchange with a peer drawn from the
/// topology service, exactly the cadence defined in the paper's §4
/// ("each node exchanges information about the global optimum with a
/// random peer every `r` local function evaluations").
///
/// `OptNode` is `Send` (the [`Application`] contract), so the kernels can
/// run disjoint shards of a network on worker threads. All callback state
/// is per-node: the solver (possibly an `ArenaPso` handle into the shared
/// cross-node `SwarmArena` — see `NodeRecipe` — whose row is exclusively
/// this node's), the topology view, the coordination store and the byte
/// ledger. Nothing here may reach for cross-node shared mutable state;
/// that isolation is what makes sharded ticks deterministic.
pub struct OptNode {
    objective: Arc<dyn Objective>,
    solver: Box<dyn Solver>,
    topology: TopologyComp,
    coord: CoordComp,
    role: Role,
    /// Coordination period `r`, in local evaluations.
    gossip_every: u64,
    /// Per-node evaluation budget (`None` = unbounded; the observer stops
    /// the run).
    eval_budget: Option<u64>,
    /// Count of coordination exchanges this node initiated.
    exchanges_initiated: u64,
    /// Per-wire-kind ledger of every message this node sent and received
    /// (topology and coordination traffic alike) — the paper reports
    /// communication cost, so reports can state volume in bytes per
    /// message kind, not just counts. Indexed by [`Msg::kind_index`].
    wire: WireCounts,
}

/// Queue `msg` on `ctx` while charging its wire size and kind to the
/// per-kind ledger — every [`OptNode`] send goes through here so the byte
/// accounting cannot drift from the traffic. (Free function so the
/// accumulator can borrow one field while a service component borrows
/// another.)
#[inline]
fn send_tracked(wire: &mut WireCounts, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) {
    wire.record_send(msg.kind_index(), msg.wire_bytes() as u64);
    ctx.send(to, msg);
}

impl OptNode {
    /// Compose a node. `gossip_every` must be positive.
    pub fn new(
        objective: Arc<dyn Objective>,
        solver: Box<dyn Solver>,
        topology: TopologyComp,
        coord: CoordComp,
        role: Role,
        gossip_every: u64,
        eval_budget: Option<u64>,
    ) -> Self {
        assert!(gossip_every >= 1, "gossip_every must be at least 1");
        OptNode {
            objective,
            solver,
            topology,
            coord,
            role,
            gossip_every,
            eval_budget,
            exchanges_initiated: 0,
            wire: WireCounts::new(),
        }
    }

    /// The node's current best point (swarm optimum `g` for PSO).
    pub fn best(&self) -> Option<gossipopt_solvers::BestPoint> {
        self.solver.best().cloned()
    }

    /// Is `evals` on the coordination cadence? Same predicate as
    /// `evals.is_multiple_of(self.gossip_every)`, but the experiments all
    /// use small power-of-two periods, where a mask beats the hardware
    /// divide this check would otherwise pay twice per tick (once in the
    /// kernel's quiet scan, once in `on_tick`).
    #[inline]
    fn coord_due(&self, evals: u64) -> bool {
        let g = self.gossip_every;
        if g & (g - 1) == 0 {
            evals & (g - 1) == 0
        } else {
            evals.is_multiple_of(g)
        }
    }

    /// Solution quality: `f(g) − f*` (`+inf` before any evaluation).
    pub fn quality(&self) -> f64 {
        match self.solver.best() {
            Some(b) => b.f - self.objective.optimum_value(),
            None => f64::INFINITY,
        }
    }

    /// Local evaluations performed so far ("time" in the paper's metric).
    pub fn evals(&self) -> u64 {
        self.solver.evals()
    }

    /// Coordination exchanges initiated by this node (overhead metric).
    pub fn exchanges_initiated(&self) -> u64 {
        self.exchanges_initiated
    }

    /// Total wire bytes this node has sent (see [`Msg::wire_bytes`]).
    pub fn payload_bytes_sent(&self) -> u64 {
        self.wire.total_bytes()
    }

    /// The solver's registry name.
    pub fn solver_name(&self) -> &str {
        self.solver.name()
    }

    /// Observer access to the topology component.
    pub fn topology(&self) -> &TopologyComp {
        &self.topology
    }

    /// Default NEWSCAST-based topology component.
    pub fn newscast_topology(cfg: NewscastConfig) -> TopologyComp {
        TopologyComp::Newscast(Newscast::new(cfg))
    }

    /// Sync the coordination store with the solver's current best so the
    /// next exchange carries fresh information. The payload is only built
    /// when the local best would actually improve the stored optimum
    /// ([`GlobalBest::improves`] is the exact predicate `offer_local`
    /// applies), keeping the steady state allocation-free even beyond the
    /// [`crate::rumor::POS_INLINE_DIM`] inline cap.
    fn sync_gossip_value(&mut self) {
        match &mut self.coord {
            CoordComp::Gossip(ae) => {
                if let Some(b) = self.solver.best() {
                    if GlobalBest::improves(b.f, ae.value().map(|v| v.f)) {
                        ae.offer_local(GlobalBest::from_point(b));
                    }
                }
            }
            CoordComp::Rumor(rm) => {
                if let Some(b) = self.solver.best() {
                    if GlobalBest::improves(b.f, rm.value().map(|v| v.f)) {
                        rm.offer_local(GlobalBest::from_point(b));
                    }
                }
            }
            _ => {}
        }
    }

    /// Absorb a remotely received optimum into the local solver.
    fn adopt_remote(&mut self, g: &GlobalBest) {
        // Borrowed-payload injection: solvers reuse their best-point
        // allocation, so steady-state adoption stays off the allocator.
        self.solver.tell_best_slice(g.x.as_slice(), g.f);
    }

    /// Turn this node byzantine: plant `lie` (a fabricated optimum,
    /// typically claiming an objective value below the true `f*`) into the
    /// coordination store *and* the local solver, so the node both reports
    /// the lie as its own best and gossips it onward through whatever
    /// coordination service it runs. Used by the scenario harness's
    /// `corrupt_optimum` fault schedule to measure how an unauthenticated
    /// epidemic reacts to optimum poisoning; honest runs never call this.
    pub fn poison_best(&mut self, lie: GlobalBest) {
        match &mut self.coord {
            CoordComp::Gossip(ae) => {
                ae.offer_local(lie.clone());
            }
            CoordComp::Rumor(rm) => {
                rm.offer_local(lie.clone());
            }
            // Migration / master–slave / isolated nodes lie through the
            // solver state alone (it is what they report or emigrate).
            _ => {}
        }
        self.solver.tell_best(lie.to_point());
    }

    /// Handle one anti-entropy coordination message from `from`: compare
    /// against the freshest local best, absorb an improvement into the
    /// solver, and send the push-pull reply when the local value wins.
    /// Shared by the `Msg::Coord` arm and per-item [`Msg::CoordBatch`]
    /// unpacking; draws no randomness, so batched and unbatched delivery
    /// leave every RNG stream untouched.
    fn handle_coord(
        &mut self,
        from: NodeId,
        m: AntiEntropyMsg<GlobalBest>,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        // Make sure the exchange compares against our freshest best.
        self.sync_gossip_value();
        if let CoordComp::Gossip(ae) = &mut self.coord {
            let before = ae.value().map(|v| v.f);
            let reply = ae.handle(m);
            let improved = match (before, ae.value()) {
                (Some(b), Some(a)) => a.f < b,
                (None, Some(_)) => true,
                _ => false,
            };
            if improved {
                let g = ae.value().expect("improved implies value").clone();
                self.adopt_remote(&g);
            }
            if let Some(r) = reply {
                send_tracked(&mut self.wire, ctx, from, Msg::Coord(r));
            }
        }
    }

    /// Shared by the `Msg::RumorPush` arm and per-item
    /// [`Msg::RumorBatch`] unpacking: receive one pushed optimum and
    /// acknowledge its original source. Draws no randomness, so batched
    /// and unbatched delivery leave every RNG stream untouched.
    fn handle_rumor_push(&mut self, from: NodeId, g: GlobalBest, ctx: &mut Ctx<'_, Msg>) {
        // Compare against our freshest best, not a stale store.
        self.sync_gossip_value();
        if let CoordComp::Rumor(rm) = &mut self.coord {
            let ack = rm.receive(g);
            if ack == gossipopt_gossip::rumor::RumorAck::New {
                let g = rm.value().expect("new implies value").clone();
                self.adopt_remote(&g);
            }
            send_tracked(&mut self.wire, ctx, from, Msg::RumorFeedback(ack));
        }
    }

    fn coordinate(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match (&self.coord, self.role) {
            (CoordComp::Isolated, _) => {}
            (CoordComp::Gossip(_), _) => {
                self.sync_gossip_value();
                let CoordComp::Gossip(ae) = &self.coord else {
                    unreachable!()
                };
                if let Some(msg) = ae.initiate() {
                    if let Some(peer) = self.topology.sample(ctx.rng()) {
                        self.exchanges_initiated += 1;
                        send_tracked(&mut self.wire, ctx, peer, Msg::Coord(msg));
                    }
                }
            }
            (CoordComp::Rumor(_), _) => {
                self.sync_gossip_value();
                let CoordComp::Rumor(rm) = &mut self.coord else {
                    unreachable!()
                };
                if let Some((g, fanout)) = rm.on_tick() {
                    for _ in 0..fanout {
                        if let Some(peer) = self.topology.sample(ctx.rng()) {
                            self.exchanges_initiated += 1;
                            send_tracked(&mut self.wire, ctx, peer, Msg::RumorPush(g.clone()));
                        }
                    }
                }
            }
            (CoordComp::Migrate { migrants }, _) => {
                let migrants = *migrants;
                for _ in 0..migrants {
                    let Some(e) = self.solver.emigrate(ctx.rng()) else {
                        break;
                    };
                    if let Some(peer) = self.topology.sample(ctx.rng()) {
                        self.exchanges_initiated += 1;
                        send_tracked(
                            &mut self.wire,
                            ctx,
                            peer,
                            Msg::Migrant(GlobalBest::from_point(&e)),
                        );
                    }
                }
            }
            (CoordComp::MasterSlave, Role::Slave(master)) => {
                if let Some(b) = self.solver.best() {
                    self.exchanges_initiated += 1;
                    send_tracked(
                        &mut self.wire,
                        ctx,
                        master,
                        Msg::MasterReport(GlobalBest::from_point(b)),
                    );
                }
            }
            // The master is purely reactive.
            (CoordComp::MasterSlave, _) => {}
        }
    }
}

impl Application for OptNode {
    type Message = Msg;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now;
        self.topology.on_join(contacts, now, ctx.rng());
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // 1. Function optimization service: one evaluation per tick.
        let may_evaluate = self.eval_budget.is_none_or(|b| self.solver.evals() < b);
        if may_evaluate {
            let span = wall::start();
            self.solver.step(self.objective.as_ref(), ctx.rng());
            wall::finish(Phase::SolverStep, span);
        }

        // 2. Topology service maintenance (periodic NEWSCAST exchange;
        //    its own cadence is configured inside the component).
        if let TopologyComp::Newscast(nc) = &mut self.topology {
            let (self_id, now) = (ctx.self_id, ctx.now);
            if let Some((peer, msg)) = nc.on_tick(self_id, now, ctx.rng()) {
                send_tracked(&mut self.wire, ctx, peer, Msg::Newscast(msg));
            }
        }

        // 3. Coordination service: every `r` local evaluations.
        if may_evaluate && self.coord_due(self.solver.evals()) {
            self.coordinate(ctx);
        }
    }

    /// Exact one-tick-ahead mirror of [`OptNode::on_tick`]'s send
    /// conditions (conservative where a send depends on runtime state the
    /// hint cannot cheaply see, e.g. a master–slave hub's pending reply —
    /// replies happen in `on_message`, which the kernel never treats as
    /// quiet). Returning `true` lets the sequential cycle kernel visit
    /// nodes in slot order instead of the shuffled sweep; the kernel
    /// panics if a declared-quiet node sends anyway, so this must stay in
    /// lock-step with `on_tick`.
    fn quiet_tick(&self) -> bool {
        // Step 1 sends nothing; step 3 fires when the (possibly advanced)
        // evaluation counter hits the coordination cadence.
        let may_evaluate = self.eval_budget.is_none_or(|b| self.solver.evals() < b);
        let evals_after = self.solver.evals() + u64::from(may_evaluate);
        let coord_due = may_evaluate && self.coord_due(evals_after);
        let coord_may_send = match (&self.coord, self.role) {
            (CoordComp::Isolated, _) => false,
            // The master is purely reactive; only slaves report.
            (CoordComp::MasterSlave, role) => matches!(role, Role::Slave(_)),
            _ => true,
        };
        // Step 2: periodic NEWSCAST exchange on its own cadence.
        let topology_may_send = match &self.topology {
            TopologyComp::Newscast(nc) => nc.exchange_due_next_tick(),
            TopologyComp::Static(_) => false,
        };
        !((coord_due && coord_may_send) || topology_may_send)
    }

    fn prefetch(&self) {
        self.solver.prefetch();
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.wire.record_delivery(msg.kind_index());
        match msg {
            Msg::Newscast(m) => {
                if let TopologyComp::Newscast(nc) = &mut self.topology {
                    let (self_id, now) = (ctx.self_id, ctx.now);
                    if let Some(reply) = nc.handle(self_id, from, m, now, ctx.rng()) {
                        send_tracked(&mut self.wire, ctx, from, Msg::Newscast(reply));
                    }
                }
            }
            Msg::Coord(m) => self.handle_coord(from, m, ctx),
            Msg::CoordBatch(b) => {
                // Unpack in delivery order, replying to each item's
                // original source — byte-for-byte the state transitions
                // and replies of receiving the messages unbatched.
                for (src, m) in b.items {
                    self.handle_coord(src, m, ctx);
                }
            }
            Msg::RumorPush(g) => self.handle_rumor_push(from, g, ctx),
            Msg::RumorBatch(b) => {
                // Unpack in delivery order, acknowledging each item's
                // original source — byte-for-byte the state transitions
                // and feedback of receiving the pushes unbatched.
                for (src, g) in b.items {
                    self.handle_rumor_push(src, g, ctx);
                }
            }
            Msg::RumorFeedback(ack) => {
                if let CoordComp::Rumor(rm) = &mut self.coord {
                    rm.feedback(ack, ctx.rng());
                }
            }
            Msg::Migrant(g) => {
                self.solver.immigrate(g.to_point(), ctx.rng());
            }
            Msg::MigrantBatch(b) => {
                // Unpack in delivery order: `immigrate` draws from the
                // node RNG, so per-item order must match unbatched
                // delivery exactly.
                for (_src, g) in b.items {
                    self.solver.immigrate(g.to_point(), ctx.rng());
                }
            }
            Msg::MasterReport(g) => {
                if self.role == Role::Master {
                    self.adopt_remote(&g);
                    if let Some(b) = self.solver.best() {
                        send_tracked(
                            &mut self.wire,
                            ctx,
                            from,
                            Msg::MasterUpdate(GlobalBest::from_point(b)),
                        );
                    }
                }
            }
            Msg::MasterUpdate(g) => {
                self.adopt_remote(&g);
            }
        }
    }

    fn coalesce_round(round: &mut Vec<(NodeId, NodeId, Msg)>) -> FrameSavings {
        /// The fusible frame families: consecutive same-destination
        /// messages of one family fuse into that family's batch kind.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Fuse {
            Coord,
            Rumor,
            Migrant,
        }
        impl Fuse {
            fn class(self) -> usize {
                match self {
                    Fuse::Coord => frame_class::COORD,
                    Fuse::Rumor => frame_class::RUMOR,
                    Fuse::Migrant => frame_class::MIGRANT,
                }
            }
        }
        fn fuse_kind(m: &Msg) -> Option<Fuse> {
            match m {
                Msg::Coord(_) => Some(Fuse::Coord),
                Msg::RumorPush(_) => Some(Fuse::Rumor),
                Msg::Migrant(_) => Some(Fuse::Migrant),
                _ => None,
            }
        }
        /// Wire size of the batch frame `run` (one family, one
        /// destination) would fuse into, from the borrowed messages.
        fn fused_wire_bytes(kind: Fuse, run: &[(NodeId, NodeId, Msg)]) -> usize {
            let payload = match kind {
                Fuse::Coord => {
                    CoordBatch::payload_bytes_of(run.iter().map(|(src, _, m)| match m {
                        Msg::Coord(c) => (*src, c),
                        _ => unreachable!("a run holds one family"),
                    }))
                }
                Fuse::Rumor | Fuse::Migrant => {
                    GossipBatch::payload_bytes_of(run.iter().map(|(src, _, m)| match m {
                        Msg::RumorPush(g) | Msg::Migrant(g) => (*src, g),
                        _ => unreachable!("a run holds one family"),
                    }))
                }
            };
            Msg::HEADER_BYTES + payload
        }
        // Pass 1, in place: a maximal run of consecutive same-destination,
        // same-family messages whose batch frame would be smaller becomes
        // that frame, in the run's first position; the messages after it
        // leave payload-free placeholders, and their positions are noted.
        let mut saved = FrameSavings::default();
        let mut absorbed: Vec<std::ops::Range<usize>> = Vec::new();
        let n = round.len();
        let mut start = 0;
        while start < n {
            let (from, to) = (round[start].0, round[start].1);
            let Some(kind) = fuse_kind(&round[start].2) else {
                start += 1;
                continue;
            };
            let mut end = start + 1;
            while end < n && round[end].1 == to && fuse_kind(&round[end].2) == Some(kind) {
                end += 1;
            }
            let run = &round[start..end];
            let saving = match run.len() {
                1 => 0,
                _ => {
                    let unbatched: usize = run.iter().map(|(_, _, m)| m.wire_bytes()).sum();
                    unbatched.saturating_sub(fused_wire_bytes(kind, run))
                }
            };
            if saving > 0 {
                saved.add(kind.class(), saving as u64);
                let items = round[start..end].iter_mut().map(|(src, _, m)| {
                    (*src, std::mem::replace(m, Msg::Coord(AntiEntropyMsg::Ask)))
                });
                let fused = match kind {
                    Fuse::Coord => Msg::CoordBatch(CoordBatch {
                        items: items
                            .map(|(src, m)| match m {
                                Msg::Coord(c) => (src, c),
                                _ => unreachable!("a run holds one family"),
                            })
                            .collect(),
                    }),
                    Fuse::Rumor | Fuse::Migrant => {
                        let batch = GossipBatch {
                            items: items
                                .map(|(src, m)| match m {
                                    Msg::RumorPush(g) | Msg::Migrant(g) => (src, g),
                                    _ => unreachable!("a run holds one family"),
                                })
                                .collect(),
                        };
                        if kind == Fuse::Rumor {
                            Msg::RumorBatch(batch)
                        } else {
                            Msg::MigrantBatch(batch)
                        }
                    }
                };
                round[start] = (from, to, fused);
                absorbed.push(start + 1..end);
            }
            start = end;
        }
        // Pass 2: drop the placeholders; `retain` moves every later message
        // once, and none before the first batch.
        if !absorbed.is_empty() {
            let mut gaps = absorbed.iter().peekable();
            let mut at = 0;
            round.retain(|_| {
                let keep = !gaps.peek().is_some_and(|gap| gap.contains(&at));
                at += 1;
                if gaps.peek().is_some_and(|gap| at >= gap.end) {
                    gaps.next();
                }
                keep
            });
        }
        saved
    }

    fn wire_counts(&self) -> WireCounts {
        self.wire
    }
}

/// Convenience: the paper's coordination component (push-pull diffusion).
pub fn paper_coordination() -> CoordComp {
    CoordComp::Gossip(AntiEntropy::new(ExchangeMode::PushPull))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_functions::Sphere;
    use gossipopt_solvers::{PsoParams, Swarm};
    use gossipopt_util::StreamId;

    fn sphere_node(k: usize, gossip_every: u64) -> OptNode {
        OptNode::new(
            Arc::new(Sphere::new(5)),
            Box::new(Swarm::new(k, PsoParams::default())),
            OptNode::newscast_topology(NewscastConfig::default()),
            paper_coordination(),
            Role::Peer,
            gossip_every,
            None,
        )
    }

    #[test]
    fn quality_is_infinite_before_any_evaluation() {
        let n = sphere_node(4, 4);
        assert_eq!(n.quality(), f64::INFINITY);
        assert!(n.best().is_none());
        assert_eq!(n.evals(), 0);
    }

    #[test]
    fn tick_evaluates_once() {
        let mut n = sphere_node(4, 4);
        let mut rng = Xoshiro256pp::derive(1, StreamId::node(0, 0));
        let mut outbox = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 1, &mut rng, &mut outbox);
        n.on_tick(&mut ctx);
        assert_eq!(n.evals(), 1);
        assert!(n.quality().is_finite());
    }

    #[test]
    fn budget_stops_evaluation() {
        let mut n = OptNode::new(
            Arc::new(Sphere::new(3)),
            Box::new(Swarm::new(2, PsoParams::default())),
            OptNode::newscast_topology(NewscastConfig::default()),
            CoordComp::Isolated,
            Role::Peer,
            1,
            Some(5),
        );
        let mut rng = Xoshiro256pp::derive(2, StreamId::node(0, 0));
        for t in 1..=10 {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
        }
        assert_eq!(n.evals(), 5, "budget must cap evaluations");
    }

    #[test]
    fn gossip_initiated_every_r_evals() {
        let mut n = sphere_node(4, 4);
        // Seed the view so coordination has a peer to contact.
        let mut rng = Xoshiro256pp::derive(3, StreamId::node(0, 0));
        {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
            n.on_join(&[NodeId(1)], &mut ctx);
        }
        let mut coord_sends = 0;
        for t in 1..=16 {
            let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
            coord_sends += outbox
                .iter()
                .filter(|(_, m)| matches!(m, Msg::Coord(_)))
                .count();
        }
        assert_eq!(coord_sends, 4, "16 evals / r=4 = 4 exchanges");
        assert_eq!(n.exchanges_initiated(), 4);
    }

    #[test]
    fn coord_exchange_adopts_better_value() {
        let mut n = sphere_node(4, 4);
        let mut rng = Xoshiro256pp::derive(4, StreamId::node(0, 0));
        // Evaluate a few times so the node has its own (worse) value.
        for t in 1..=4 {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
        }
        let incoming = GlobalBest::new(&[0.0; 5], 0.0);
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 5, &mut rng, &mut outbox);
        n.on_message(
            NodeId(9),
            Msg::Coord(gossipopt_gossip::AntiEntropyMsg::Offer(incoming)),
            &mut ctx,
        );
        assert_eq!(n.quality(), 0.0, "remote optimum adopted");
        assert!(outbox.is_empty(), "no reply when remote wins");
    }

    #[test]
    fn coord_exchange_replies_when_local_is_better() {
        let mut n = sphere_node(4, 4);
        let mut rng = Xoshiro256pp::derive(5, StreamId::node(0, 0));
        for t in 1..=4 {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
        }
        let incoming = GlobalBest::new(&[90.0; 5], 5.0 * 90.0 * 90.0);
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 5, &mut rng, &mut outbox);
        let my_quality = n.quality();
        assert!(my_quality < incoming.f, "test premise: local is better");
        n.on_message(
            NodeId(9),
            Msg::Coord(gossipopt_gossip::AntiEntropyMsg::Offer(incoming)),
            &mut ctx,
        );
        assert_eq!(outbox.len(), 1, "push-pull replies with better value");
        assert!(matches!(outbox[0].1, Msg::Coord(_)));
        assert_eq!(n.quality(), my_quality, "local value unchanged");
    }

    #[test]
    fn master_slave_roundtrip() {
        let obj: Arc<dyn Objective> = Arc::new(Sphere::new(3));
        let mut master = OptNode::new(
            Arc::clone(&obj),
            Box::new(Swarm::new(2, PsoParams::default())),
            TopologyComp::Static(StaticSampler::new(vec![NodeId(1)])),
            CoordComp::MasterSlave,
            Role::Master,
            1,
            None,
        );
        let mut rng = Xoshiro256pp::derive(6, StreamId::node(0, 0));
        // Slave reports a perfect point; master adopts and answers.
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 1, &mut rng, &mut outbox);
        master.on_message(
            NodeId(1),
            Msg::MasterReport(GlobalBest::new(&[0.0; 3], 0.0)),
            &mut ctx,
        );
        assert_eq!(master.quality(), 0.0);
        assert!(matches!(
            outbox.as_slice(),
            [(NodeId(1), Msg::MasterUpdate(_))]
        ));

        // Slaves ignore MasterReport but adopt MasterUpdate.
        let mut slave = OptNode::new(
            obj,
            Box::new(Swarm::new(2, PsoParams::default())),
            TopologyComp::Static(StaticSampler::new(vec![NodeId(0)])),
            CoordComp::MasterSlave,
            Role::Slave(NodeId(0)),
            1,
            None,
        );
        let mut outbox2: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx2 = Ctx::new(NodeId(1), 1, &mut rng, &mut outbox2);
        slave.on_message(
            NodeId(0),
            Msg::MasterUpdate(GlobalBest::new(&[0.0; 3], 0.0)),
            &mut ctx2,
        );
        assert_eq!(slave.quality(), 0.0);
    }

    #[test]
    fn isolated_nodes_never_send_coordination() {
        let mut n = OptNode::new(
            Arc::new(Sphere::new(3)),
            Box::new(Swarm::new(2, PsoParams::default())),
            OptNode::newscast_topology(NewscastConfig::default()),
            CoordComp::Isolated,
            Role::Peer,
            1,
            None,
        );
        let mut rng = Xoshiro256pp::derive(7, StreamId::node(0, 0));
        {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
            n.on_join(&[NodeId(1)], &mut ctx);
        }
        for t in 1..=20 {
            let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
            assert!(
                outbox.iter().all(|(_, m)| matches!(m, Msg::Newscast(_))),
                "only topology traffic expected"
            );
        }
        assert_eq!(n.exchanges_initiated(), 0);
    }

    #[test]
    #[should_panic(expected = "gossip_every")]
    fn zero_gossip_period_rejected() {
        sphere_node(4, 0);
    }

    #[test]
    fn poisoned_node_reports_and_gossips_the_lie() {
        let mut n = sphere_node(4, 4);
        let mut rng = Xoshiro256pp::derive(8, StreamId::node(0, 0));
        {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
            n.on_join(&[NodeId(1)], &mut ctx);
        }
        for t in 1..=3 {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
        }
        // Plant a lie claiming f = −1e9 (below sphere's true optimum 0).
        n.poison_best(GlobalBest::new(&[0.0; 5], -1e9));
        assert_eq!(n.quality(), -1e9, "the node now reports the lie");
        // The next coordination event (eval 4, r = 4) offers the lie.
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 4, &mut rng, &mut outbox);
        n.on_tick(&mut ctx);
        let coord: Vec<_> = outbox
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Coord(gossipopt_gossip::AntiEntropyMsg::Offer(g)) => Some(g.f),
                _ => None,
            })
            .collect();
        assert_eq!(coord, vec![-1e9], "the lie travels on the wire");
    }

    fn rumor_node(fanout: usize, stop_prob: f64) -> OptNode {
        OptNode::new(
            Arc::new(Sphere::new(5)),
            Box::new(Swarm::new(4, PsoParams::default())),
            OptNode::newscast_topology(NewscastConfig::default()),
            CoordComp::Rumor(crate::rumor::BestRumor::new(
                gossipopt_gossip::RumorConfig { fanout, stop_prob },
            )),
            Role::Peer,
            4,
            None,
        )
    }

    #[test]
    fn rumor_coordination_pushes_fanout_messages() {
        let mut n = rumor_node(3, 0.5);
        let mut rng = Xoshiro256pp::derive(21, StreamId::node(0, 0));
        {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
            n.on_join(&[NodeId(1), NodeId(2), NodeId(3)], &mut ctx);
        }
        // 4 evals trigger one coordination event; the freshly improved
        // best makes the node hot, so it pushes to `fanout` peers.
        let mut pushes = 0;
        for t in 1..=4 {
            let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
            pushes += outbox
                .iter()
                .filter(|(_, m)| matches!(m, Msg::RumorPush(_)))
                .count();
        }
        assert_eq!(pushes, 3, "hot node pushes to fanout peers");
        assert_eq!(n.exchanges_initiated(), 3);
    }

    #[test]
    fn rumor_push_adopts_and_acks() {
        let mut n = rumor_node(2, 0.5);
        let mut rng = Xoshiro256pp::derive(22, StreamId::node(0, 0));
        for t in 1..=4 {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
        }
        // A better optimum arrives: adopt + ack New.
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 5, &mut rng, &mut outbox);
        n.on_message(
            NodeId(7),
            Msg::RumorPush(GlobalBest::new(&[0.0; 5], 0.0)),
            &mut ctx,
        );
        assert_eq!(n.quality(), 0.0, "new rumor adopted into the solver");
        assert!(matches!(
            outbox.as_slice(),
            [(
                NodeId(7),
                Msg::RumorFeedback(gossipopt_gossip::RumorAck::New)
            )]
        ));
        // A worse one: no adoption, Duplicate ack.
        let mut outbox2: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx2 = Ctx::new(NodeId(0), 6, &mut rng, &mut outbox2);
        n.on_message(
            NodeId(8),
            Msg::RumorPush(GlobalBest::new(&[9.0; 5], 405.0)),
            &mut ctx2,
        );
        assert!(matches!(
            outbox2.as_slice(),
            [(
                NodeId(8),
                Msg::RumorFeedback(gossipopt_gossip::RumorAck::Duplicate)
            )]
        ));
    }

    #[test]
    fn rumor_duplicate_feedback_cools_the_node() {
        let mut n = rumor_node(1, 1.0); // stop_prob 1: first duplicate cools
        let mut rng = Xoshiro256pp::derive(23, StreamId::node(0, 0));
        {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), 0, &mut rng, &mut outbox);
            n.on_join(&[NodeId(1)], &mut ctx);
        }
        for t in 1..=4 {
            let mut outbox = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            n.on_tick(&mut ctx);
        }
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), 5, &mut rng, &mut outbox);
        n.on_message(
            NodeId(1),
            Msg::RumorFeedback(gossipopt_gossip::RumorAck::Duplicate),
            &mut ctx,
        );
        let CoordComp::Rumor(rm) = &n.coord else {
            panic!("rumor node")
        };
        assert!(!rm.is_hot(), "duplicate feedback with p=1 must cool");
    }

    #[test]
    fn migration_sends_and_absorbs_individuals() {
        let obj: Arc<dyn Objective> = Arc::new(Sphere::new(4));
        let mut sender = OptNode::new(
            Arc::clone(&obj),
            Box::new(Swarm::new(4, PsoParams::default())),
            TopologyComp::Static(StaticSampler::new(vec![NodeId(1)])),
            CoordComp::Migrate { migrants: 2 },
            Role::Peer,
            2,
            None,
        );
        let mut rng = Xoshiro256pp::derive(24, StreamId::node(0, 0));
        let mut migrants = Vec::new();
        for t in 1..=4 {
            let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), t, &mut rng, &mut outbox);
            sender.on_tick(&mut ctx);
            migrants.extend(
                outbox
                    .into_iter()
                    .filter(|(_, m)| matches!(m, Msg::Migrant(_))),
            );
        }
        // r=2 over 4 evals → 2 events × 2 migrants each.
        assert_eq!(migrants.len(), 4);
        assert_eq!(sender.exchanges_initiated(), 4);

        // Receiving a perfect migrant makes it the receiver's best.
        let mut receiver = OptNode::new(
            obj,
            Box::new(Swarm::new(4, PsoParams::default())),
            TopologyComp::Static(StaticSampler::new(vec![NodeId(0)])),
            CoordComp::Migrate { migrants: 1 },
            Role::Peer,
            2,
            None,
        );
        let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
        let mut ctx = Ctx::new(NodeId(1), 1, &mut rng, &mut outbox);
        receiver.on_message(
            NodeId(0),
            Msg::Migrant(GlobalBest::new(&[0.0; 4], 0.0)),
            &mut ctx,
        );
        assert_eq!(receiver.quality(), 0.0);
        assert!(outbox.is_empty(), "migration is push-only");
    }
}

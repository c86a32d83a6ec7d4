//! The NEWSCAST peer-sampling protocol.
//!
//! Each node maintains a [`PartialView`] of `c` descriptors. Periodically it
//! (i) picks a random peer from the view, (ii) refreshes its own descriptor,
//! and (iii) performs a view exchange: both sides send their view plus their
//! fresh self-descriptor, merge what they receive, and keep the `c` freshest
//! entries. The emergent overlay approximates a random graph of out-degree
//! `c`, stays strongly connected for `c ≈ 20`, and self-repairs after
//! failures because crashed nodes stop minting fresh descriptors.
//!
//! This is a *component*: the host application owns the message transport
//! and calls [`Newscast::on_tick`] / [`Newscast::handle`], embedding
//! [`NewscastMsg`] in its own message enum.

use crate::sampler::PeerSampler;
use crate::view::{Descriptor, PartialView};
use gossipopt_sim::{NodeId, Ticks};
use gossipopt_util::Xoshiro256pp;
use serde::{Deserialize, Serialize};

/// NEWSCAST parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewscastConfig {
    /// View size `c`. The paper cites `c = 20` as "already sufficient for
    /// very stable and robust connectivity".
    pub view_size: usize,
    /// Initiate one exchange every this many host ticks.
    pub exchange_every: u64,
}

impl Default for NewscastConfig {
    fn default() -> Self {
        NewscastConfig {
            view_size: 20,
            exchange_every: 1,
        }
    }
}

/// Wire messages of the protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NewscastMsg {
    /// Initiator's view (plus fresh self-descriptor); expects a reply.
    Request(Vec<Descriptor>),
    /// Responder's pre-merge view (plus fresh self-descriptor).
    Reply(Vec<Descriptor>),
}

/// Per-node NEWSCAST state.
#[derive(Debug, Clone)]
pub struct Newscast {
    cfg: NewscastConfig,
    view: PartialView,
    ticks_since_exchange: u64,
}

impl Newscast {
    /// Fresh instance; call [`Newscast::on_join`] before first use.
    pub fn new(cfg: NewscastConfig) -> Self {
        Newscast {
            view: PartialView::new(cfg.view_size),
            cfg,
            ticks_since_exchange: 0,
        }
    }

    /// Bootstrap the view from the kernel-provided contact sample.
    pub fn on_join(&mut self, contacts: &[NodeId], now: Ticks, rng: &mut Xoshiro256pp) {
        self.view.merge_from(
            contacts.iter().map(|&id| Descriptor { id, stamp: now }),
            None,
            rng,
        );
    }

    /// Will the *next* [`Newscast::on_tick`] initiate an exchange? True
    /// exactly when the cadence will be due and a peer is known (a
    /// non-empty view always yields a sample). Scheduling hint for hosts
    /// that want to predict sends; `on_tick` remains the source of truth.
    pub fn exchange_due_next_tick(&self) -> bool {
        self.ticks_since_exchange + 1 >= self.cfg.exchange_every && !self.view.is_empty()
    }

    /// Advance one host tick; if an exchange is due and a peer is known,
    /// returns `(peer, request)` for the host to send.
    pub fn on_tick(
        &mut self,
        self_id: NodeId,
        now: Ticks,
        rng: &mut Xoshiro256pp,
    ) -> Option<(NodeId, NewscastMsg)> {
        self.ticks_since_exchange += 1;
        if self.ticks_since_exchange < self.cfg.exchange_every {
            return None;
        }
        self.ticks_since_exchange = 0;
        let peer = self.view.sample(rng)?.id;
        let payload = self.outgoing_payload(self_id, now);
        Some((peer, NewscastMsg::Request(payload)))
    }

    /// Handle an incoming message; returns a reply for the host to send
    /// back (only for requests).
    pub fn handle(
        &mut self,
        self_id: NodeId,
        _from: NodeId,
        msg: NewscastMsg,
        now: Ticks,
        rng: &mut Xoshiro256pp,
    ) -> Option<NewscastMsg> {
        match msg {
            NewscastMsg::Request(descriptors) => {
                let reply = self.outgoing_payload(self_id, now);
                self.view.merge_from(descriptors, Some(self_id), rng);
                Some(NewscastMsg::Reply(reply))
            }
            NewscastMsg::Reply(descriptors) => {
                self.view.merge_from(descriptors, Some(self_id), rng);
                None
            }
        }
    }

    /// The current view (for observers and overlay analysis).
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// View plus our own freshly minted descriptor — what goes on the wire.
    fn outgoing_payload(&self, self_id: NodeId, now: Ticks) -> Vec<Descriptor> {
        let mut payload = Vec::with_capacity(self.view.len() + 1);
        payload.push(Descriptor {
            id: self_id,
            stamp: now,
        });
        payload.extend_from_slice(self.view.entries());
        payload
    }
}

impl PeerSampler for Newscast {
    fn sample_peer(&self, rng: &mut Xoshiro256pp) -> Option<NodeId> {
        self.view.sample(rng).map(|d| d.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::PeerSampler;
    use gossipopt_sim::{
        Application, Control, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine,
    };

    fn cfg(view_size: usize) -> NewscastConfig {
        NewscastConfig {
            view_size,
            exchange_every: 1,
        }
    }

    #[test]
    fn join_seeds_view() {
        let mut nc = Newscast::new(cfg(4));
        let mut rng = Xoshiro256pp::seeded(0);
        nc.on_join(&[NodeId(1), NodeId(2)], 0, &mut rng);
        assert_eq!(nc.view().len(), 2);
        assert!(nc.view().contains(NodeId(1)));
    }

    #[test]
    fn tick_respects_exchange_period() {
        let mut nc = Newscast::new(NewscastConfig {
            view_size: 4,
            exchange_every: 3,
        });
        let mut rng = Xoshiro256pp::seeded(1);
        nc.on_join(&[NodeId(1)], 0, &mut rng);
        assert!(nc.on_tick(NodeId(0), 1, &mut rng).is_none());
        assert!(nc.on_tick(NodeId(0), 2, &mut rng).is_none());
        assert!(nc.on_tick(NodeId(0), 3, &mut rng).is_some());
        assert!(nc.on_tick(NodeId(0), 4, &mut rng).is_none());
    }

    #[test]
    fn request_reply_exchanges_views() {
        let mut a = Newscast::new(cfg(4));
        let mut b = Newscast::new(cfg(4));
        let mut rng = Xoshiro256pp::seeded(2);
        a.on_join(&[NodeId(1)], 0, &mut rng); // a=node0 knows b=node1
        b.on_join(&[], 0, &mut rng);
        let (peer, req) = a.on_tick(NodeId(0), 1, &mut rng).expect("a initiates");
        assert_eq!(peer, NodeId(1));
        let reply = b
            .handle(NodeId(1), NodeId(0), req, 1, &mut rng)
            .expect("request gets a reply");
        assert!(b.view().contains(NodeId(0)), "b learned a");
        assert!(a.handle(NodeId(0), NodeId(1), reply, 1, &mut rng).is_none());
        assert!(a.view().contains(NodeId(1)));
    }

    #[test]
    fn never_stores_self() {
        let mut nc = Newscast::new(cfg(4));
        let mut rng = Xoshiro256pp::seeded(3);
        nc.on_join(&[NodeId(5)], 0, &mut rng);
        let msg = NewscastMsg::Reply(vec![
            Descriptor {
                id: NodeId(7),
                stamp: 3,
            },
            Descriptor {
                id: NodeId(7),
                stamp: 9,
            },
            Descriptor {
                id: NodeId(9),
                stamp: 1,
            },
        ]);
        // Receiving our own descriptor must not self-insert.
        let own = NewscastMsg::Reply(vec![Descriptor {
            id: NodeId(0),
            stamp: 100,
        }]);
        nc.handle(NodeId(0), NodeId(5), own, 4, &mut rng);
        assert!(!nc.view().contains(NodeId(0)));
        nc.handle(NodeId(0), NodeId(5), msg, 4, &mut rng);
        assert!(nc.view().contains(NodeId(7)));
    }

    /// Host app that runs pure NEWSCAST — used for emergent-property tests.
    #[derive(Debug, Clone)]
    struct NcApp {
        nc: Newscast,
    }

    impl Application for NcApp {
        type Message = NewscastMsg;

        fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, NewscastMsg>) {
            let now = ctx.now;
            self.nc.on_join(contacts, now, ctx.rng());
        }
        fn on_tick(&mut self, ctx: &mut Ctx<'_, NewscastMsg>) {
            let now = ctx.now;
            let self_id = ctx.self_id;
            if let Some((peer, msg)) = self.nc.on_tick(self_id, now, ctx.rng()) {
                ctx.send(peer, msg);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: NewscastMsg, ctx: &mut Ctx<'_, NewscastMsg>) {
            let (self_id, now) = (ctx.self_id, ctx.now);
            if let Some(reply) = self.nc.handle(self_id, from, msg, now, ctx.rng()) {
                ctx.send(from, reply);
            }
        }
    }

    fn newscast_network(n: usize, view_size: usize, seed: u64) -> CycleEngine<NcApp> {
        let mut e = CycleEngine::new(CycleConfig::seeded(seed));
        for _ in 0..n {
            e.insert(NcApp {
                nc: Newscast::new(cfg(view_size)),
            });
        }
        e
    }

    #[test]
    fn views_fill_to_capacity() {
        let mut e = newscast_network(50, 8, 3);
        e.run(20);
        for (_, app) in e.nodes() {
            assert_eq!(app.nc.view().len(), 8, "views should saturate");
        }
    }

    #[test]
    fn overlay_becomes_strongly_connected() {
        let mut e = newscast_network(100, 10, 4);
        e.run(30);
        // Build the directed overlay and check weak connectivity via the
        // graph module.
        let ids: Vec<NodeId> = e.nodes().map(|(id, _)| id).collect();
        let index = |id: NodeId| ids.iter().position(|&x| x == id).unwrap();
        let adj: Vec<Vec<usize>> = e
            .nodes()
            .map(|(_, app)| app.nc.view().ids().map(index).collect())
            .collect();
        assert!(crate::graph::is_weakly_connected(&adj));
    }

    #[test]
    fn self_repair_after_mass_failure() {
        let mut e = newscast_network(100, 20, 5);
        e.run(20);
        e.crash_fraction(0.5);
        e.run(40); // let views repair
                   // No live node's view should still reference dead nodes
                   // (descriptors from crashed nodes age out).
        let live: std::collections::HashSet<NodeId> = e.nodes().map(|(id, _)| id).collect();
        let mut stale_total = 0usize;
        let mut entries_total = 0usize;
        for (_, app) in e.nodes() {
            for d in app.nc.view().entries() {
                entries_total += 1;
                if !live.contains(&d.id) {
                    stale_total += 1;
                }
            }
        }
        let stale_frac = stale_total as f64 / entries_total as f64;
        assert!(
            stale_frac < 0.05,
            "stale fraction {stale_frac} should be tiny after repair"
        );
    }

    #[test]
    fn sampling_is_spread_over_network() {
        // Peer sampling quality: over time, a node's samples should cover
        // a large part of a modest network.
        let mut e = newscast_network(40, 10, 6);
        let mut seen = std::collections::HashSet::new();
        e.run_until(200, |_, view| {
            let mut rng = Xoshiro256pp::seeded(9);
            for (_, app) in view.iter() {
                if let Some(p) = app.nc.sample_peer(&mut rng) {
                    seen.insert(p);
                }
            }
            Control::Continue
        });
        assert!(
            seen.len() > 30,
            "samples covered only {} of 40 nodes",
            seen.len()
        );
    }

    /// FNV-1a over every node's id and view, in node order.
    fn overlay_fingerprint<'a>(nodes: impl Iterator<Item = (NodeId, &'a NcApp)>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (id, app) in nodes {
            mix(id.raw());
            for d in app.nc.view().entries() {
                mix(d.id.raw());
                mix(d.stamp);
            }
        }
        h
    }

    /// Bit-identity of the topology service on its own: 100 nodes,
    /// `view_size` 20, 50 ticks, one constant per kernel configuration,
    /// captured with the comparison-sort merge. Any change to the merge's
    /// entry order or RNG consumption moves all three.
    #[test]
    fn golden_overlay_fingerprint() {
        let nodes = || {
            (0..100).map(|_| NcApp {
                nc: Newscast::new(cfg(20)),
            })
        };
        for (threads, golden) in [(0, 0x69ac_f787_da64_8c00u64), (1, 0x11d6_be20_689b_4ddb)] {
            let mut e = CycleEngine::new(CycleConfig {
                threads,
                ..CycleConfig::seeded(15)
            });
            for app in nodes() {
                e.insert(app);
            }
            e.run(50);
            let got = overlay_fingerprint(e.nodes());
            assert_eq!(got, golden, "cycle threads={threads}: {got:#018x}");
        }
        let mut e = EventEngine::new(EventConfig::seeded(15));
        for app in nodes() {
            e.insert(app);
        }
        e.run(50 * EventConfig::default().tick_period);
        let got = overlay_fingerprint(e.nodes());
        assert_eq!(got, 0xce2b_7a9b_ca75_b7dd, "event: {got:#018x}");
    }
}

//! Property-based tests for the epidemic substrate.

use gossipopt_gossip::aggregation::GossipAverage;
use gossipopt_gossip::{Descriptor, Newscast, NewscastConfig, PartialView};
use gossipopt_sim::NodeId;
use gossipopt_util::Xoshiro256pp;
use proptest::prelude::*;

proptest! {
    /// View merge is idempotent **when stamps are unique**: merging the
    /// same batch twice changes nothing the second time. (With tied
    /// stamps the tie-break is deliberately random, so idempotence only
    /// holds per freshness class.)
    #[test]
    fn view_merge_idempotent(
        cap in 1usize..16,
        entries in prop::collection::vec(0u64..30, 0..30),
        seed in any::<u64>(),
    ) {
        let descriptors: Vec<Descriptor> = entries
            .iter()
            .enumerate()
            .map(|(i, &id)| Descriptor { id: NodeId(id), stamp: i as u64 })
            .collect();
        let mut rng = Xoshiro256pp::seeded(seed);
        let mut v = PartialView::new(cap);
        v.merge_from(descriptors.iter().copied(), None, &mut rng);
        // Snapshot the *set* of (id, stamp) pairs (order may reshuffle on
        // equal stamps).
        let mut before: Vec<(u64, u64)> =
            v.entries().iter().map(|d| (d.id.raw(), d.stamp)).collect();
        before.sort_unstable();
        v.merge_from(descriptors.iter().copied(), None, &mut rng);
        let mut after: Vec<(u64, u64)> =
            v.entries().iter().map(|d| (d.id.raw(), d.stamp)).collect();
        after.sort_unstable();
        // Freshest-per-id selection is already stable after the first
        // merge; the second can only re-confirm it.
        prop_assert_eq!(before, after);
    }

    /// A NEWSCAST exchange never teaches a node its own id and never
    /// exceeds capacity, for arbitrary views.
    #[test]
    fn newscast_exchange_invariants(
        seed in any::<u64>(),
        view_size in 1usize..20,
        peers in prop::collection::vec(1u64..50, 1..20),
    ) {
        let mut rng = Xoshiro256pp::seeded(seed);
        let me = NodeId(0);
        let mut nc = Newscast::new(NewscastConfig {
            view_size,
            exchange_every: 1,
        });
        let contacts: Vec<NodeId> = peers.iter().map(|&p| NodeId(p)).collect();
        nc.on_join(&contacts, 0, &mut rng);
        prop_assert!(nc.view().len() <= view_size);
        if let Some((peer, msg)) = nc.on_tick(me, 1, &mut rng) {
            prop_assert!(peer != me);
            // Bounce the request through a fresh peer and absorb the reply.
            let mut other = Newscast::new(NewscastConfig {
                view_size,
                exchange_every: 1,
            });
            let reply = other.handle(peer, me, msg, 1, &mut rng).expect("reply");
            nc.handle(me, peer, reply, 1, &mut rng);
        }
        prop_assert!(nc.view().len() <= view_size);
        prop_assert!(!nc.view().contains(me));
    }

    /// Gossip averaging conserves the pairwise sum exactly for arbitrary
    /// values (the invariant behind its correctness).
    #[test]
    fn averaging_conserves_mass(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        let mut x = GossipAverage::new(a);
        let mut y = GossipAverage::new(b);
        let before = x.estimate() + y.estimate();
        let offer = x.initiate();
        let counter = y.handle(offer).expect("offer gets counter");
        prop_assert!(x.handle(counter).is_none());
        let after = x.estimate() + y.estimate();
        prop_assert!((before - after).abs() <= 1e-6 * before.abs().max(1.0));
        prop_assert!((x.estimate() - y.estimate()).abs() < 1e-6 * before.abs().max(1.0));
    }
}

//! Peer samplers: the topology-service abstraction and its static
//! implementations.
//!
//! The paper's architecture treats the topology service as pluggable —
//! "consider a random topology used by a gossip protocol…, a mesh topology
//! connecting nodes responsible for different partitions…, but also a
//! star-shaped topology used in a master-slave approach". [`PeerSampler`]
//! is that interface; NEWSCAST implements it dynamically, and this module
//! provides the static alternatives used by baselines and ablations.

use gossipopt_sim::NodeId;
use gossipopt_util::{Rng64, Xoshiro256pp};

/// The topology service interface: supply a communication partner.
pub trait PeerSampler {
    /// A peer to talk to, or `None` when isolated.
    fn sample_peer(&self, rng: &mut Xoshiro256pp) -> Option<NodeId>;
}

/// Fixed neighbor list; sampling is uniform over it.
///
/// Degenerate cases model the paper's sketches: a single-entry list at
/// every slave plus a full list at the master is a star; two entries are a
/// ring; everybody-knows-everybody is the full mesh.
#[derive(Debug, Clone, Default)]
pub struct StaticSampler {
    neighbors: Vec<NodeId>,
}

impl StaticSampler {
    /// Sampler over an explicit neighbor list.
    pub fn new(neighbors: Vec<NodeId>) -> Self {
        StaticSampler { neighbors }
    }

    /// The neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }
}

impl PeerSampler for StaticSampler {
    fn sample_peer(&self, rng: &mut Xoshiro256pp) -> Option<NodeId> {
        if self.neighbors.is_empty() {
            None
        } else {
            Some(self.neighbors[rng.index(self.neighbors.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_sampler_uniform_and_empty() {
        let mut rng = Xoshiro256pp::seeded(1);
        let s = StaticSampler::new(vec![NodeId(1), NodeId(2), NodeId(3)]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.sample_peer(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
        let empty = StaticSampler::new(vec![]);
        assert!(empty.sample_peer(&mut rng).is_none());
    }
}

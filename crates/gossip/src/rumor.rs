//! Rumor mongering — Demers' "Gossip" dissemination model.
//!
//! When a node first learns an update it becomes *hot* and forwards the
//! update to `fanout` random peers each round; whenever it pushes the rumor
//! to a peer that already knew it, it loses interest (goes cold) with
//! probability `stop_prob`. The `(fanout, stop_prob)` pair trades residual
//! miss probability against redundant traffic — the background section's
//! `k` and `p`.

use gossipopt_util::Xoshiro256pp;
use serde::{Deserialize, Serialize};

/// Rumor-mongering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RumorConfig {
    /// Peers contacted per round while hot (`k`).
    pub fanout: usize,
    /// Probability of going cold on learning a push was redundant (`p`).
    pub stop_prob: f64,
}

impl Default for RumorConfig {
    fn default() -> Self {
        RumorConfig {
            fanout: 2,
            stop_prob: 0.5,
        }
    }
}

/// Feedback returned by a receiver: did it already know the rumor?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RumorAck {
    /// The receiver learned something new.
    New,
    /// The receiver had already heard it.
    Duplicate,
}

/// Per-node rumor-mongering state for a single rumor generation.
///
/// `R` is the payload; generations are distinguished by an id so stale
/// rumors from previous broadcasts are ignored.
#[derive(Debug, Clone)]
pub struct RumorMonger<R: Clone> {
    cfg: RumorConfig,
    rumor: Option<(u64, R)>,
    hot: bool,
    /// Pushes sent (for overhead accounting).
    pub sent: u64,
}

impl<R: Clone> RumorMonger<R> {
    /// New cold node with no rumor.
    pub fn new(cfg: RumorConfig) -> Self {
        RumorMonger {
            cfg,
            rumor: None,
            hot: false,
            sent: 0,
        }
    }

    /// Do we know a rumor of generation `gen`?
    pub fn knows(&self, gen: u64) -> bool {
        matches!(&self.rumor, Some((g, _)) if *g == gen)
    }

    /// The current rumor payload, if any.
    pub fn rumor(&self) -> Option<&R> {
        self.rumor.as_ref().map(|(_, r)| r)
    }

    /// Still actively spreading?
    pub fn is_hot(&self) -> bool {
        self.hot
    }

    /// Originate a new rumor (e.g. the broadcast source).
    pub fn originate(&mut self, gen: u64, payload: R) {
        self.rumor = Some((gen, payload));
        self.hot = true;
    }

    /// Receive a pushed rumor; returns the ack the host should send back.
    pub fn receive(&mut self, gen: u64, payload: R) -> RumorAck {
        if self.knows(gen) {
            RumorAck::Duplicate
        } else {
            self.rumor = Some((gen, payload));
            self.hot = true;
            RumorAck::New
        }
    }

    /// Receive feedback for an earlier push.
    pub fn feedback(&mut self, ack: RumorAck, rng: &mut Xoshiro256pp) {
        use gossipopt_util::Rng64;
        if ack == RumorAck::Duplicate && self.hot && rng.chance(self.cfg.stop_prob) {
            self.hot = false;
        }
    }

    /// One spreading round: if hot, returns the rumor to push to up to
    /// `fanout` peers (the host picks the peers via its sampler).
    pub fn on_tick(&mut self) -> Option<(u64, R, usize)> {
        if !self.hot {
            return None;
        }
        let (gen, r) = self.rumor.clone()?;
        self.sent += self.cfg.fanout as u64;
        Some((gen, r, self.cfg.fanout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::{Rng64, Xoshiro256pp};

    #[test]
    fn originate_and_receive() {
        let mut rm: RumorMonger<String> = RumorMonger::new(RumorConfig::default());
        assert!(!rm.knows(1));
        rm.originate(1, "hello".into());
        assert!(rm.knows(1));
        assert!(rm.is_hot());
        assert_eq!(rm.rumor().map(String::as_str), Some("hello"));

        let mut other: RumorMonger<String> = RumorMonger::new(RumorConfig::default());
        assert_eq!(other.receive(1, "hello".into()), RumorAck::New);
        assert_eq!(other.receive(1, "hello".into()), RumorAck::Duplicate);
    }

    #[test]
    fn cold_nodes_do_not_spread() {
        let mut rm: RumorMonger<u32> = RumorMonger::new(RumorConfig::default());
        assert!(rm.on_tick().is_none());
        rm.originate(0, 7);
        let (gen, r, k) = rm.on_tick().unwrap();
        assert_eq!((gen, r, k), (0, 7, 2));
    }

    #[test]
    fn duplicate_feedback_eventually_stops() {
        let mut rm: RumorMonger<u32> = RumorMonger::new(RumorConfig {
            fanout: 1,
            stop_prob: 0.5,
        });
        rm.originate(0, 1);
        let mut rng = Xoshiro256pp::seeded(4);
        let mut rounds = 0;
        while rm.is_hot() {
            rm.feedback(RumorAck::Duplicate, &mut rng);
            rounds += 1;
            assert!(rounds < 200, "should go cold quickly");
        }
        // Expected geometric with mean 2.
        assert!(rounds <= 20);
    }

    #[test]
    fn new_feedback_never_stops() {
        let mut rm: RumorMonger<u32> = RumorMonger::new(RumorConfig {
            fanout: 1,
            stop_prob: 1.0,
        });
        rm.originate(0, 1);
        let mut rng = Xoshiro256pp::seeded(5);
        for _ in 0..50 {
            rm.feedback(RumorAck::New, &mut rng);
        }
        assert!(rm.is_hot());
    }

    #[test]
    fn mesh_broadcast_reaches_almost_everyone() {
        // Synchronous rounds over n nodes with uniform random peer choice.
        let n = 200;
        let cfg = RumorConfig {
            fanout: 2,
            stop_prob: 0.3,
        };
        let mut nodes: Vec<RumorMonger<u8>> = (0..n).map(|_| RumorMonger::new(cfg)).collect();
        nodes[0].originate(0, 42);
        let mut rng = Xoshiro256pp::seeded(6);
        for _round in 0..60 {
            // Collect pushes first to emulate simultaneity.
            let mut pushes: Vec<(usize, usize)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                if let Some((_gen, _r, k)) = node.on_tick() {
                    for _ in 0..k {
                        let mut j = rng.index(n - 1);
                        if j >= i {
                            j += 1;
                        }
                        pushes.push((i, j));
                    }
                }
            }
            if pushes.is_empty() {
                break;
            }
            for (i, j) in pushes {
                let ack = nodes[j].receive(0, 42);
                nodes[i].feedback(ack, &mut rng);
            }
        }
        let reached = nodes.iter().filter(|x| x.knows(0)).count();
        assert!(
            reached as f64 / n as f64 > 0.95,
            "rumor reached only {reached}/{n}"
        );
    }
}

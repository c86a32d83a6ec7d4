//! Anti-entropy epidemic exchange (Demers et al., PODC '87).
//!
//! Each node holds a value; periodically it contacts a random peer and they
//! reconcile so both end up with the *better* value. With a total preference
//! order this implements epidemic **extrema propagation**: the globally best
//! value reaches every node in `O(log n)` expected rounds.
//!
//! The paper's coordination service is exactly the push-pull instance whose
//! value is the pair `⟨g, f(g)⟩` (swarm optimum and its fitness): *"p sends
//! ⟨gp, f(gp)⟩ to q; if f(gp) < f(gq) then q updates its swarm optimum;
//! otherwise it replies by sending ⟨gq, f(gq)⟩"*.

use serde::{Deserialize, Serialize};

/// A reconcilable value with a total preference order.
pub trait Rumor: Clone + std::fmt::Debug {
    /// True when `self` is strictly preferred over `other` (for the
    /// optimization instance: strictly lower fitness).
    fn better_than(&self, other: &Self) -> bool;
}

/// Demers exchange styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Originator sends its value; the peer absorbs.
    Push,
    /// Originator asks; the peer answers with its value.
    Pull,
    /// Originator sends its value; the peer absorbs and answers with its
    /// own previous value when that was better (the paper's algorithm).
    PushPull,
}

/// Wire messages of an anti-entropy session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AntiEntropyMsg<R> {
    /// Push of the originator's value.
    Offer(R),
    /// Pull request (originator has sent nothing).
    Ask,
    /// Answer to an `Ask`, or the better-value reply of push-pull.
    Tell(R),
}

/// Per-node anti-entropy state over rumor type `R`.
///
/// ```
/// use gossipopt_gossip::{AntiEntropy, ExchangeMode, Rumor};
///
/// #[derive(Debug, Clone)]
/// struct Min(f64);
/// impl Rumor for Min {
///     fn better_than(&self, other: &Self) -> bool { self.0 < other.0 }
/// }
///
/// // The paper's coordination exchange: p offers, q adopts or counters.
/// let mut p = AntiEntropy::new(ExchangeMode::PushPull);
/// let mut q = AntiEntropy::new(ExchangeMode::PushPull);
/// p.offer_local(Min(3.0));
/// q.offer_local(Min(8.0));
/// let offer = p.initiate().unwrap();
/// assert!(q.handle(offer).is_none()); // p was better: q adopts silently
/// assert_eq!(q.value().unwrap().0, 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct AntiEntropy<R: Rumor> {
    mode: ExchangeMode,
    value: Option<R>,
    /// Number of times `absorb` improved the local value.
    improvements: u64,
}

impl<R: Rumor> AntiEntropy<R> {
    /// New instance with no value yet.
    pub fn new(mode: ExchangeMode) -> Self {
        AntiEntropy {
            mode,
            value: None,
            improvements: 0,
        }
    }

    /// The current local value.
    pub fn value(&self) -> Option<&R> {
        self.value.as_ref()
    }

    /// How often a received value replaced the local one.
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// Locally produced candidate (e.g. the node's own swarm optimum);
    /// keeps the better of current and `candidate`.
    pub fn offer_local(&mut self, candidate: R) -> bool {
        self.absorb(candidate)
    }

    /// Start an exchange; the host sends the returned message to a peer of
    /// its choosing. Returns `None` when there is nothing to send (push
    /// with no value yet).
    pub fn initiate(&self) -> Option<AntiEntropyMsg<R>> {
        match self.mode {
            ExchangeMode::Push | ExchangeMode::PushPull => {
                self.value.clone().map(AntiEntropyMsg::Offer)
            }
            ExchangeMode::Pull => Some(AntiEntropyMsg::Ask),
        }
    }

    /// Handle an incoming message; optionally returns a reply.
    pub fn handle(&mut self, msg: AntiEntropyMsg<R>) -> Option<AntiEntropyMsg<R>> {
        match msg {
            AntiEntropyMsg::Offer(r) => {
                // Keep our previous value to answer with, per push-pull.
                let mine_was_better = match (&self.value, &r) {
                    (Some(mine), theirs) => mine.better_than(theirs),
                    (None, _) => false,
                };
                let reply = if self.mode == ExchangeMode::PushPull && mine_was_better {
                    self.value.clone().map(AntiEntropyMsg::Tell)
                } else {
                    None
                };
                self.absorb(r);
                reply
            }
            AntiEntropyMsg::Ask => self.value.clone().map(AntiEntropyMsg::Tell),
            AntiEntropyMsg::Tell(r) => {
                self.absorb(r);
                None
            }
        }
    }

    /// Keep the better of the current value and `incoming`; true if the
    /// local value changed.
    pub fn absorb(&mut self, incoming: R) -> bool {
        let better = match &self.value {
            Some(current) => incoming.better_than(current),
            None => true,
        };
        if better {
            self.value = Some(incoming);
            self.improvements += 1;
        }
        better
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal rumor: an f64 where smaller is better.
    #[derive(Debug, Clone, PartialEq)]
    struct MinVal(f64);
    impl Rumor for MinVal {
        fn better_than(&self, other: &Self) -> bool {
            self.0 < other.0
        }
    }

    #[test]
    fn absorb_keeps_minimum() {
        let mut ae = AntiEntropy::new(ExchangeMode::PushPull);
        assert!(ae.absorb(MinVal(5.0)));
        assert!(!ae.absorb(MinVal(7.0)));
        assert!(ae.absorb(MinVal(2.0)));
        assert_eq!(ae.value(), Some(&MinVal(2.0)));
        assert_eq!(ae.improvements(), 2);
    }

    #[test]
    fn push_semantics() {
        let mut a = AntiEntropy::new(ExchangeMode::Push);
        let mut b = AntiEntropy::new(ExchangeMode::Push);
        a.absorb(MinVal(1.0));
        b.absorb(MinVal(3.0));
        let msg = a.initiate().unwrap();
        let reply = b.handle(msg);
        assert!(reply.is_none(), "push never replies");
        assert_eq!(b.value(), Some(&MinVal(1.0)));
        assert_eq!(a.value(), Some(&MinVal(1.0)), "a unchanged");
    }

    #[test]
    fn pull_semantics() {
        let mut a = AntiEntropy::new(ExchangeMode::Pull);
        let mut b = AntiEntropy::new(ExchangeMode::Pull);
        b.absorb(MinVal(0.5));
        let ask = a.initiate().unwrap();
        assert_eq!(ask, AntiEntropyMsg::Ask);
        let tell = b.handle(ask).expect("pull answers");
        assert!(a.handle(tell).is_none());
        assert_eq!(a.value(), Some(&MinVal(0.5)));
    }

    #[test]
    fn push_pull_paper_protocol() {
        // p's value worse than q's: q must NOT update, and must reply with
        // its own better value, which p then adopts.
        let mut p = AntiEntropy::new(ExchangeMode::PushPull);
        let mut q = AntiEntropy::new(ExchangeMode::PushPull);
        p.absorb(MinVal(9.0));
        q.absorb(MinVal(4.0));
        let offer = p.initiate().unwrap();
        let reply = q.handle(offer).expect("q replies with better value");
        assert_eq!(q.value(), Some(&MinVal(4.0)));
        p.handle(reply);
        assert_eq!(p.value(), Some(&MinVal(4.0)));

        // p's value better: q adopts silently.
        let mut q2 = AntiEntropy::new(ExchangeMode::PushPull);
        q2.absorb(MinVal(10.0));
        let offer2 = p.initiate().unwrap();
        assert!(q2.handle(offer2).is_none());
        assert_eq!(q2.value(), Some(&MinVal(4.0)));
    }

    #[test]
    fn empty_push_initiates_nothing() {
        let ae: AntiEntropy<MinVal> = AntiEntropy::new(ExchangeMode::Push);
        assert!(ae.initiate().is_none());
        let ae2: AntiEntropy<MinVal> = AntiEntropy::new(ExchangeMode::Pull);
        assert!(ae2.initiate().is_some(), "pull can always ask");
    }

    #[test]
    fn ask_with_no_value_yields_no_tell() {
        let mut ae: AntiEntropy<MinVal> = AntiEntropy::new(ExchangeMode::PushPull);
        assert!(ae.handle(AntiEntropyMsg::Ask).is_none());
    }

    #[test]
    fn epidemic_min_spreads_all_to_all() {
        // Simulate synchronous anti-entropy rounds over 64 nodes without
        // the kernel: each round every node push-pulls a random peer.
        use gossipopt_util::{Rng64, Xoshiro256pp};
        let n = 64;
        let mut nodes: Vec<AntiEntropy<MinVal>> = (0..n)
            .map(|i| {
                let mut ae = AntiEntropy::new(ExchangeMode::PushPull);
                ae.absorb(MinVal(100.0 + i as f64));
                ae
            })
            .collect();
        nodes[17].absorb(MinVal(1.0)); // the global minimum
        let mut rng = Xoshiro256pp::seeded(11);
        let mut rounds = 0;
        loop {
            rounds += 1;
            for i in 0..n {
                let j = rng.index(n - 1);
                let j = if j >= i { j + 1 } else { j };
                if let Some(offer) = nodes[i].initiate() {
                    let reply = nodes[j].handle(offer);
                    if let Some(r) = reply {
                        nodes[i].handle(r);
                    }
                }
            }
            if nodes.iter().all(|x| x.value() == Some(&MinVal(1.0))) {
                break;
            }
            assert!(rounds < 50, "min should spread in O(log n) rounds");
        }
        assert!(
            rounds <= 12,
            "expected ~log2(64)=6-ish rounds, took {rounds}"
        );
    }
}

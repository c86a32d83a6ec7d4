//! The coordination service's rumor type: the best-known optimum, plus
//! the rumor-mongering diffusion state built on it.

use gossipopt_gossip::rumor::{RumorAck, RumorConfig};
use gossipopt_gossip::Rumor;
use gossipopt_solvers::BestPoint;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A search-space position: an immutable window onto a shared buffer of
/// coordinates, with allocation-free `clone`.
///
/// Coordination messages carry the best-known position on every hop, and
/// every hop clones it (fan-out pushes, push-pull replies, migration). A
/// `Vec<f64>` payload would allocate once per delivered message; a `Pos`
/// clone is a refcount bump, so a position is allocated once, where it is
/// built (a node's improvement, or a decoded frame), and then shared by
/// every message that carries it. Positions are immutable once built —
/// exactly the lifecycle of a gossiped optimum — so sharing changes no
/// value, only the size of the message: 24 bytes whatever the
/// dimensionality.
///
/// A window need not cover its buffer: every payload of one decoded batch
/// frame is a view of that frame's one slab ([`Pos::view`]).
#[derive(Clone)]
pub struct Pos {
    buf: Arc<[f64]>,
    at: u32,
    len: u32,
}

impl Pos {
    /// Build from a coordinate slice (one allocation).
    pub fn from_slice(x: &[f64]) -> Self {
        Pos::view(&x.into(), 0, x.len())
    }

    /// The window `slab[at..at + len]`, sharing `slab`.
    ///
    /// # Panics
    ///
    /// When the window does not lie inside `slab`.
    pub fn view(slab: &Arc<[f64]>, at: usize, len: usize) -> Self {
        assert!(
            at.checked_add(len).is_some_and(|end| end <= slab.len()),
            "window {at}..{at}+{len} outside a slab of {}",
            slab.len()
        );
        let narrow = |v: usize| u32::try_from(v).expect("a slab window fits u32 offsets");
        Pos {
            buf: Arc::clone(slab),
            at: narrow(at),
            len: narrow(len),
        }
    }

    /// The coordinates.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.at as usize..][..self.len as usize]
    }

    /// Copy out as an owned vector (allocates).
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for Pos {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Pos {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[f64]> for Pos {
    fn from(x: &[f64]) -> Self {
        Pos::from_slice(x)
    }
}

impl From<Vec<f64>> for Pos {
    fn from(x: Vec<f64>) -> Self {
        // No reuse opportunity: Arc<[f64]> from a Vec copies into a fresh
        // refcounted allocation anyway, so the slice path covers both.
        Pos::from_slice(&x)
    }
}

impl Serialize for Pos {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for Pos {
    fn deserialize<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        Vec::<f64>::deserialize(src).map(Pos::from)
    }
}

/// A `⟨g, f(g)⟩` pair as diffused by the anti-entropy coordination service
/// (newtype so the [`Rumor`] ordering lives in this crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalBest {
    /// Position of the best-known optimum.
    pub x: Pos,
    /// Its objective value `f(g)`.
    pub f: f64,
}

impl GlobalBest {
    /// Build from a coordinate slice and its objective value.
    pub fn new(x: &[f64], f: f64) -> Self {
        GlobalBest {
            x: Pos::from_slice(x),
            f,
        }
    }

    /// Convert from the solver-side best point.
    pub fn from_point(p: &BestPoint) -> Self {
        GlobalBest::new(&p.x, p.f)
    }

    /// Convert into the solver-side best point (allocates; adoption-time
    /// only, never on the per-hop path).
    pub fn to_point(&self) -> BestPoint {
        BestPoint {
            x: self.x.to_vec(),
            f: self.f,
        }
    }

    /// The [`Rumor`] preference order as a predicate on objective values:
    /// would a candidate with value `candidate_f` strictly improve on
    /// `current_f`? NaN-safe against an existing value — a NaN candidate
    /// never beats a stored one; with no value stored (`None`) any
    /// candidate counts as an improvement, exactly mirroring
    /// `offer_local`/`absorb`. Hosts use this to skip building a payload
    /// at all when the local best cannot improve the stored optimum.
    #[inline]
    pub fn improves(candidate_f: f64, current_f: Option<f64>) -> bool {
        match current_f {
            None => true,
            Some(cur) => candidate_f.total_cmp(&cur).is_lt() && candidate_f.is_finite(),
        }
    }

    /// Serialized size in bytes under the runtime wire codec
    /// (`u32` length + `f64` coordinates + `f64` value).
    pub fn wire_bytes(&self) -> usize {
        4 + 8 * self.x.len() + 8
    }
}

impl Rumor for GlobalBest {
    fn better_than(&self, other: &Self) -> bool {
        GlobalBest::improves(self.f, Some(other.f))
    }
}

/// Rumor-mongering diffusion of the best-known optimum — Demers' "Gossip"
/// model (fan-out `k`, stop probability `p`) specialized to optimization.
///
/// Plain rumor mongering distinguishes rumor *generations*; in a
/// decentralized optimization there is no global generation counter, so
/// supersession is by fitness instead: an incoming optimum is *new* when
/// it strictly improves on the locally known one and *duplicate*
/// otherwise. A node is *hot* (actively pushing) from the moment it
/// learns or produces an improvement until enough duplicate feedback
/// cools it down — exactly the `k`/`p` trade-off of the paper's
/// background section, with the anti-entropy mode as the always-on
/// alternative.
#[derive(Debug, Clone)]
pub struct BestRumor {
    cfg: RumorConfig,
    value: Option<GlobalBest>,
    hot: bool,
    /// Pushes sent (overhead accounting).
    pub pushes_sent: u64,
}

impl BestRumor {
    /// New cold state with no known optimum.
    pub fn new(cfg: RumorConfig) -> Self {
        BestRumor {
            cfg,
            value: None,
            hot: false,
            pushes_sent: 0,
        }
    }

    /// The best optimum this node knows.
    pub fn value(&self) -> Option<&GlobalBest> {
        self.value.as_ref()
    }

    /// Actively spreading?
    pub fn is_hot(&self) -> bool {
        self.hot
    }

    /// Offer the local solver's current best. Becoming the new known
    /// optimum re-heats the node (it has something new to tell).
    pub fn offer_local(&mut self, g: GlobalBest) {
        if self.value.as_ref().is_none_or(|v| g.better_than(v)) {
            self.value = Some(g);
            self.hot = true;
        }
    }

    /// Handle a pushed optimum; the returned ack must be sent back to the
    /// pusher (its cooling signal).
    pub fn receive(&mut self, g: GlobalBest) -> RumorAck {
        if self.value.as_ref().is_none_or(|v| g.better_than(v)) {
            self.value = Some(g);
            self.hot = true;
            RumorAck::New
        } else {
            RumorAck::Duplicate
        }
    }

    /// Feedback for an earlier push: duplicate acks cool the node with
    /// probability `p`.
    pub fn feedback(&mut self, ack: RumorAck, rng: &mut gossipopt_util::Xoshiro256pp) {
        use gossipopt_util::Rng64;
        if ack == RumorAck::Duplicate && self.hot && rng.chance(self.cfg.stop_prob) {
            self.hot = false;
        }
    }

    /// One spreading round: when hot, the payload to push and the fan-out.
    pub fn on_tick(&mut self) -> Option<(GlobalBest, usize)> {
        if !self.hot {
            return None;
        }
        let g = self.value.clone()?;
        self.pushes_sent += self.cfg.fanout as u64;
        Some((g, self.cfg.fanout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_util::Xoshiro256pp;

    #[test]
    fn best_rumor_heats_on_improvement_only() {
        let mut r = BestRumor::new(RumorConfig::default());
        assert!(!r.is_hot());
        r.offer_local(GlobalBest::new(&[1.0], 5.0));
        assert!(r.is_hot());
        let mut rng = Xoshiro256pp::seeded(1);
        // Cool it down with duplicate feedback.
        while r.is_hot() {
            r.feedback(RumorAck::Duplicate, &mut rng);
        }
        // A non-improving offer stays cold; an improving one re-heats.
        r.offer_local(GlobalBest::new(&[1.0], 9.0));
        assert!(!r.is_hot(), "worse offer must not re-heat");
        assert_eq!(r.value().unwrap().f, 5.0);
        r.offer_local(GlobalBest::new(&[0.5], 1.0));
        assert!(r.is_hot());
    }

    #[test]
    fn best_rumor_receive_orders_by_fitness() {
        let mut r = BestRumor::new(RumorConfig::default());
        assert_eq!(r.receive(GlobalBest::new(&[], 3.0)), RumorAck::New);
        assert_eq!(
            r.receive(GlobalBest::new(&[], 4.0)),
            RumorAck::Duplicate,
            "worse optimum is a duplicate"
        );
        assert_eq!(r.receive(GlobalBest::new(&[], 2.0)), RumorAck::New);
        assert_eq!(r.value().unwrap().f, 2.0);
    }

    #[test]
    fn best_rumor_pushes_only_when_hot() {
        let mut r = BestRumor::new(RumorConfig {
            fanout: 3,
            stop_prob: 1.0,
        });
        assert!(r.on_tick().is_none());
        r.offer_local(GlobalBest::new(&[], 1.0));
        let (g, k) = r.on_tick().unwrap();
        assert_eq!((g.f, k), (1.0, 3));
        assert_eq!(r.pushes_sent, 3);
        // stop_prob = 1: first duplicate ack cools immediately.
        let mut rng = Xoshiro256pp::seeded(2);
        r.feedback(RumorAck::Duplicate, &mut rng);
        assert!(r.on_tick().is_none());
    }

    #[test]
    fn ordering_prefers_lower_f() {
        let a = GlobalBest::new(&[0.0], 1.0);
        let b = GlobalBest::new(&[1.0], 2.0);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert!(!a.better_than(&a));
    }

    #[test]
    fn nan_never_wins() {
        let nan = GlobalBest::new(&[], f64::NAN);
        let fin = GlobalBest::new(&[], 1e300);
        assert!(!nan.better_than(&fin));
        assert!(fin.better_than(&nan));
    }

    #[test]
    fn pos_clones_share_one_buffer_at_every_dimension() {
        // Cloning a payload on the per-hop path bumps a refcount: the
        // clone aliases the same coordinates, whatever the dimension.
        for dim in [0, 1, 10, 16, 17, 100] {
            let g = GlobalBest::new(&vec![1.5; dim], 2.0);
            let c = g.clone();
            assert_eq!(g.x.as_slice(), &vec![1.5; dim][..]);
            assert_eq!(
                g.x.as_slice().as_ptr(),
                c.x.as_slice().as_ptr(),
                "dim {dim}: a clone must alias, not copy"
            );
            assert_eq!(c, g);
        }
    }

    #[test]
    fn a_view_equals_the_position_of_its_values() {
        let slab: Arc<[f64]> = (0..12).map(f64::from).collect::<Vec<_>>().into();
        let v = Pos::view(&slab, 3, 4);
        assert_eq!(v, Pos::from_slice(&[3.0, 4.0, 5.0, 6.0]));
        assert_eq!(v.to_vec(), vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(format!("{v:?}"), "[3.0, 4.0, 5.0, 6.0]");
        assert_ne!(v, Pos::view(&slab, 4, 4), "equality is by value");
        assert_eq!(Pos::view(&slab, 12, 0), Pos::from_slice(&[]));
        assert_eq!(
            v.as_slice().as_ptr(),
            slab[3..].as_ptr(),
            "a view shares its slab"
        );
        let back: Pos = serde::Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v, "serde sees the window, not the slab");
    }

    #[test]
    fn view_refuses_an_out_of_range_window() {
        let slab: Arc<[f64]> = vec![0.0; 4].into();
        for (at, len) in [(0, 5), (4, 1), (5, 0), (usize::MAX, 2)] {
            let r = std::panic::catch_unwind(|| Pos::view(&slab, at, len));
            assert!(r.is_err(), "window {at}+{len} of 4 must be refused");
        }
    }

    #[test]
    fn wire_bytes_scale_with_dimension() {
        assert_eq!(GlobalBest::new(&[], 0.0).wire_bytes(), 12);
        assert_eq!(GlobalBest::new(&[0.0; 10], 0.0).wire_bytes(), 12 + 80);
    }

    #[test]
    fn improves_matches_better_than() {
        let cases = [0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &a in &cases {
            assert!(
                GlobalBest::improves(a, None),
                "any value beats no value ({a})"
            );
            for &b in &cases {
                let ga = GlobalBest::new(&[], a);
                let gb = GlobalBest::new(&[], b);
                assert_eq!(
                    GlobalBest::improves(a, Some(b)),
                    ga.better_than(&gb),
                    "improves({a}, {b}) must mirror better_than"
                );
            }
        }
    }

    #[test]
    fn point_roundtrip() {
        let p = BestPoint {
            x: vec![1.0, 2.0],
            f: 3.0,
        };
        let g = GlobalBest::from_point(&p);
        assert_eq!(g.to_point(), p);
    }
}

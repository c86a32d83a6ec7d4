#![warn(missing_docs)]

//! # gossipopt-gossip
//!
//! The epidemic substrate of the decentralized optimization architecture:
//!
//! * [`view`] — bounded partial views of node descriptors with freshest-first
//!   merge, the data structure underlying peer sampling;
//! * [`newscast`] — the NEWSCAST peer-sampling protocol (Jelasity et al.)
//!   used by the paper as its topology service;
//! * [`antientropy`] — Demers-style anti-entropy exchanges (push, pull,
//!   push-pull) over an application-defined [`antientropy::Rumor`]; the
//!   paper's coordination service is the push-pull instance whose rumor is
//!   the best-known optimum;
//! * [`rumor`] — Demers rumor mongering ("Gossip" model: fan-out `k`, stop
//!   probability `p`);
//! * [`aggregation`] — push-pull gossip averaging (Jelasity, Montresor &
//!   Babaoglu), included as the background's example epidemic service and
//!   used in tests as a convergence yardstick;
//! * [`sampler`] — the peer-sampler interface and its static
//!   implementation;
//! * [`topology`] — **the unified topology service**: every static overlay
//!   builder (full mesh, ring, star, ring lattice, shuffle and rejection
//!   k-out, torus grid, Watts–Strogatz, Erdős–Rényi, two-level hierarchy)
//!   in one index-space module, single source of truth for both the
//!   experiment layer and the 100k-node scale paths;
//! * [`graph`] — overlay analysis: connectivity, degree statistics,
//!   clustering, path lengths; used to validate that NEWSCAST maintains a
//!   random-graph-like topology (`c = 20` "already sufficient").
//!
//! These are *components*, not applications: they expose pure state-machine
//! methods (`on_tick`-style initiators, `handle`-style responders) that a
//! host [`gossipopt_sim::Application`] wires to its message enum. This is
//! exactly how the paper's architecture composes its three services inside
//! one node.

pub mod aggregation;
pub mod antientropy;
pub mod graph;
pub mod newscast;
pub mod rumor;
pub mod sampler;
pub mod topology;
pub mod view;

pub use antientropy::{AntiEntropy, AntiEntropyMsg, ExchangeMode, Rumor};
pub use newscast::{Newscast, NewscastConfig, NewscastMsg};
pub use rumor::{RumorAck, RumorConfig, RumorMonger};
pub use sampler::{PeerSampler, StaticSampler};
pub use view::{Descriptor, PartialView};

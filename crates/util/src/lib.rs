#![warn(missing_docs)]

//! # gossipopt-util
//!
//! Deterministic pseudo-randomness and streaming statistics used by every
//! other crate in the `gossipopt` workspace.
//!
//! The simulation experiments of Biazzini et al. (2008) are repeated 50
//! times and aggregated (avg/min/max/variance); both halves of that pipeline
//! live here:
//!
//! * [`rng`] — a from-scratch [`rng::SplitMix64`] seeder and
//!   [Xoshiro256++](rng::Xoshiro256pp) generator with *stream splitting*, so
//!   that every node/component of a simulation owns an independent,
//!   reproducible random stream derived from a single root seed.
//! * [`stats`] — Welford online moments, min/max tracking, summaries and
//!   percentiles matching the aggregates the paper reports.
//! * [`hypothesis`] — Mann–Whitney U / Vargha–Delaney A₁₂ for comparing
//!   configurations (used by `examples/solver_zoo.rs`).
//! * [`varint`] — LEB128 varints and bit-pattern f64 deltas shared by the
//!   simulator's byte accounting and the runtime wire codec.
//! * [`simd`] — the 4-wide f64 lane type behind the objective and
//!   solver lane kernels.

pub mod hypothesis;
pub mod mem;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod varint;

pub use hypothesis::{mann_whitney, MannWhitney};
pub use mem::{prefetch_read, AlignedBox};
pub use rng::{Rng64, SplitMix64, StreamId, Xoshiro256pp};
pub use stats::{OnlineStats, Summary};

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gossipopt-runtime
//!
//! A **real threaded deployment** of the decentralized optimization
//! architecture — the system the paper envisions, not just the simulator
//! it evaluates with.
//!
//! Every node is an OS thread running the *identical* protocol state
//! machine as the simulator ([`gossipopt_core::node::OptNode`]: NEWSCAST
//! topology service + solver + epidemic coordination), driven by a
//! wall-clock loop instead of the kernel scheduler. Messages travel as
//! versioned binary datagrams ([`wire`]) over a pluggable [`Transport`]:
//!
//! * [`transport::ChannelTransport`] — in-process crossbeam channels;
//! * [`udp::UdpTransport`] — real UDP sockets on localhost;
//! * [`transport::LossyTransport`] — Bernoulli loss injection over either.
//!
//! [`cluster::run_cluster`] deploys a whole network from the same
//! [`gossipopt_core::experiment::DistributedPsoSpec`] the simulator uses,
//! so simulated predictions can be validated against a live deployment
//! (see `tests/runtime_vs_sim.rs` at the workspace root). The `campaign
//! deploy <spec.toml>` command runs TOML campaign cells on it over the
//! channel transport.
//!
//! ## What is intentionally different from the simulator
//!
//! | Aspect | Simulator | Runtime |
//! |---|---|---|
//! | Time | global ticks | wall clock per thread |
//! | Message order | deterministic, seeded | OS scheduling + UDP |
//! | Determinism | bit-exact per seed | statistical only |
//! | Churn | kernel processes | [`cluster::CrashPlan`] injection |
//!
//! The protocol tolerates all of this by construction (§3.3.4 of the
//! paper): lost messages only slow diffusion, and crashed nodes simply
//! stop minting fresh NEWSCAST descriptors.

pub mod cluster;
pub mod node;
pub mod transport;
pub mod udp;
pub mod wire;

pub use cluster::{run_cluster, ClusterConfig, ClusterReport, CrashPlan, TransportKind};
pub use node::{run_node, NodeConfig, NodeOutcome};
pub use transport::{ChannelNet, ChannelTransport, LossyTransport, Transport};
pub use udp::{UdpDirectory, UdpTransport};
pub use wire::{decode, encode, WireError, WIRE_VERSION};

//! Multi-threaded cluster deployment: spawn `n` real node threads and
//! harvest their outcomes.
//!
//! This is the deployment the paper *envisions* ("several hundreds or even
//! thousands of personal workstations … exploit their idle periods"),
//! scaled to one process: every node is an OS thread running the exact
//! [`OptNode`](gossipopt_core::node::OptNode) protocol, communicating
//! over in-process channels or real UDP sockets. The experiment specification is shared with the simulator
//! ([`DistributedPsoSpec`]), so any simulated configuration can be
//! re-executed as a deployment and compared (`tests/runtime_vs_sim.rs`).
//!
//! Deployment semantics differ from the kernel in exactly the ways a real
//! network would: no global tick, no deterministic message order, and no
//! kernel-driven churn (crashes are injected with [`CrashPlan`] instead;
//! spec churn rates are ignored and documented as such).

use crate::node::{run_node, NodeConfig, NodeOutcome};
use crate::transport::{ChannelNet, LossyTransport, Transport};
use crate::udp::{UdpDirectory, UdpTransport};
use gossipopt_core::experiment::{Budget, DistributedPsoSpec, NodeRecipe};
use gossipopt_core::CoreError;
use gossipopt_functions::{by_name, Objective};
use gossipopt_sim::{NodeId, WireCounts};
use gossipopt_util::{Rng64, StreamId, Xoshiro256pp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which transport the cluster deploys over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process crossbeam channels (fast, laptop-scale default).
    Channel,
    /// Real UDP datagrams over 127.0.0.1.
    Udp,
}

/// Crash-injection plan: after `after`, stop a `fraction` of the nodes and
/// drop them from the network directory (they vanish mid-protocol, exactly
/// the failure model of §3.3.4).
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// When to inject the crash, measured from cluster start.
    pub after: Duration,
    /// Fraction of nodes to crash, in `[0, 1]`.
    pub fraction: f64,
}

/// Cluster deployment configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The shared experiment specification (`nodes`, `k`, `r`, topology,
    /// coordination, solver). `spec.churn` is ignored — use `crash`;
    /// `spec.loss_prob` is honored via a lossy transport decorator.
    pub spec: DistributedPsoSpec,
    /// Objective function registry name.
    pub function: String,
    /// Per-node evaluation budget.
    pub budget_per_node: u64,
    /// Root seed (per-node streams derive from it).
    pub seed: u64,
    /// Transport selection.
    pub transport: TransportKind,
    /// Wall-clock deadline for the whole deployment.
    pub deadline: Duration,
    /// Post-budget gossip linger per node.
    pub linger: Duration,
    /// Optional pause per evaluation (models expensive objectives).
    pub eval_pause: Duration,
    /// Optional crash injection.
    pub crash: Option<CrashPlan>,
}

impl ClusterConfig {
    /// Sensible defaults for `spec` on `function` (channel transport,
    /// 1000 evaluations per node — the paper's set-1 budget).
    pub fn new(spec: DistributedPsoSpec, function: &str) -> Self {
        ClusterConfig {
            spec,
            function: function.to_string(),
            budget_per_node: 1000,
            seed: 1,
            transport: TransportKind::Channel,
            deadline: Duration::from_secs(60),
            linger: Duration::from_millis(50),
            eval_pause: Duration::ZERO,
            crash: None,
        }
    }
}

/// Aggregated outcome of a cluster deployment.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Global solution quality `min_p f(g_p) − f*` over surviving nodes.
    pub best_quality: f64,
    /// Raw best objective value.
    pub best_value: f64,
    /// Evaluations summed over all nodes (crashed ones included).
    pub total_evals: u64,
    /// Coordination exchanges initiated network-wide.
    pub coordination_exchanges: u64,
    /// Datagrams sent / received / refused network-wide.
    pub messages_sent: u64,
    /// Datagrams received and decoded.
    pub messages_received: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Sends refused (loss, unknown destination, crashed peer).
    pub send_failures: u64,
    /// Per-kind traffic network-wide: the nodes' ledgers summed.
    pub wire: WireCounts,
    /// Nodes that ran to completion (not crashed).
    pub survivors: usize,
    /// Wall-clock duration of the deployment.
    pub wall_time: Duration,
    /// Per-node outcomes, indexed by node id order.
    pub nodes: Vec<NodeOutcome>,
}

impl ClusterReport {
    fn from_outcomes(
        mut nodes: Vec<NodeOutcome>,
        objective: &dyn Objective,
        wall_time: Duration,
    ) -> Self {
        nodes.sort_by_key(|o| o.id.raw());
        let fstar = objective.optimum_value();
        let mut best_value = f64::INFINITY;
        let mut wire = WireCounts::default();
        for o in &nodes {
            if let Some(b) = &o.best {
                best_value = best_value.min(b.f);
            }
            wire.add(&o.wire);
        }
        ClusterReport {
            best_quality: best_value - fstar,
            best_value,
            total_evals: nodes.iter().map(|o| o.evals).sum(),
            coordination_exchanges: nodes.iter().map(|o| o.exchanges_initiated).sum(),
            messages_sent: nodes.iter().map(|o| o.sent).sum(),
            messages_received: nodes.iter().map(|o| o.received).sum(),
            decode_errors: nodes.iter().map(|o| o.decode_errors).sum(),
            send_failures: nodes.iter().map(|o| o.send_failures).sum(),
            wire,
            survivors: nodes.iter().filter(|o| !o.interrupted).count(),
            wall_time,
            nodes,
        }
    }
}

/// Per-node bootstrap contacts: a uniform sample of other ids, mirroring
/// the simulator kernel's bootstrap behavior.
fn bootstrap_contacts(n: usize, sample: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut rng = Xoshiro256pp::derive(seed, StreamId::node(0xB0_07, 0));
    (0..n)
        .map(|i| {
            let mut others: Vec<NodeId> = (0..n as u64)
                .filter(|&j| j != i as u64)
                .map(NodeId)
                .collect();
            rng.shuffle(&mut others);
            others.truncate(sample.min(n.saturating_sub(1)).max(1));
            others
        })
        .collect()
}

/// Deploy the cluster and block until every node thread finishes.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<ClusterReport, CoreError> {
    let objective: Arc<dyn Objective> = Arc::from(
        by_name(&cfg.function, cfg.spec.function_dim)
            .ok_or_else(|| CoreError::UnknownFunction(cfg.function.clone()))?,
    );
    let recipe = NodeRecipe::new(
        &cfg.spec,
        Arc::clone(&objective),
        Budget::PerNode(cfg.budget_per_node),
        cfg.seed,
    )?;
    let n = cfg.spec.nodes;
    let sample = cfg.spec.newscast.view_size.min(n.saturating_sub(1)).max(1);
    let contacts = bootstrap_contacts(n, sample, cfg.seed);
    let node_cfg = NodeConfig {
        eval_budget: cfg.budget_per_node,
        deadline: cfg.deadline,
        linger: cfg.linger,
        eval_pause: cfg.eval_pause,
    };

    let stops: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let started = Instant::now();

    // Build all endpoints BEFORE spawning so no early sender misses a
    // not-yet-registered peer.
    enum Net {
        Channel(ChannelNet),
        Udp(UdpDirectory),
    }
    let (net, transports): (Net, Vec<Box<dyn Transport>>) = match cfg.transport {
        TransportKind::Channel => {
            let net = ChannelNet::new();
            let ts: Vec<Box<dyn Transport>> = (0..n)
                .map(|i| {
                    let ep = net.endpoint(NodeId(i as u64));
                    if cfg.spec.loss_prob > 0.0 {
                        Box::new(LossyTransport::new(
                            ep,
                            cfg.spec.loss_prob,
                            cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9),
                        )) as Box<dyn Transport>
                    } else {
                        Box::new(ep) as Box<dyn Transport>
                    }
                })
                .collect();
            (Net::Channel(net), ts)
        }
        TransportKind::Udp => {
            let dir = UdpDirectory::new();
            let mut ts: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
            for i in 0..n {
                let ep = UdpTransport::bind(NodeId(i as u64), dir.clone()).map_err(|e| {
                    CoreError::InvalidSpec(format!("udp bind failed for node {i}: {e}"))
                })?;
                if cfg.spec.loss_prob > 0.0 {
                    ts.push(Box::new(LossyTransport::new(
                        ep,
                        cfg.spec.loss_prob,
                        cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9),
                    )));
                } else {
                    ts.push(Box::new(ep));
                }
            }
            (Net::Udp(dir), ts)
        }
    };

    let mut handles = Vec::with_capacity(n);
    for (i, transport) in transports.into_iter().enumerate() {
        let node = recipe.build(i)?;
        let my_contacts = contacts[i].clone();
        let stop = Arc::clone(&stops[i]);
        let seed = cfg.seed;
        handles.push(std::thread::spawn(move || {
            run_node_boxed(node, transport, &my_contacts, node_cfg, seed, stop)
        }));
    }

    // Crash injection from the coordinator thread.
    if let Some(plan) = cfg.crash {
        assert!((0.0..=1.0).contains(&plan.fraction), "fraction in [0,1]");
        std::thread::sleep(plan.after);
        let mut rng = Xoshiro256pp::derive(cfg.seed, StreamId::node(0xDEAD, 0));
        let mut victims: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut victims);
        victims.truncate((plan.fraction * n as f64).round() as usize);
        for &v in &victims {
            stops[v].store(true, Ordering::Relaxed);
            match &net {
                Net::Channel(c) => c.disconnect(NodeId(v as u64)),
                Net::Udp(d) => d.deregister(NodeId(v as u64)),
            }
        }
    }

    let outcomes: Vec<NodeOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    Ok(ClusterReport::from_outcomes(
        outcomes,
        objective.as_ref(),
        started.elapsed(),
    ))
}

/// Monomorphization shim: `run_node` is generic over the transport, but
/// the cluster stores endpoints as trait objects.
fn run_node_boxed(
    node: gossipopt_core::node::OptNode,
    transport: Box<dyn Transport>,
    contacts: &[NodeId],
    cfg: NodeConfig,
    seed: u64,
    stop: Arc<AtomicBool>,
) -> NodeOutcome {
    run_node(node, transport, contacts, cfg, seed, stop)
}

impl Transport for Box<dyn Transport> {
    fn local_id(&self) -> NodeId {
        (**self).local_id()
    }
    fn send(&self, to: NodeId, payload: bytes::Bytes) -> bool {
        (**self).send(to, payload)
    }
    fn recv(&self, timeout: Duration) -> Option<(NodeId, bytes::Bytes)> {
        (**self).recv(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossipopt_core::experiment::CoordinationKind;

    fn small_spec(nodes: usize) -> DistributedPsoSpec {
        DistributedPsoSpec {
            nodes,
            particles_per_node: 4,
            gossip_every: 4,
            ..Default::default()
        }
    }

    fn quick_cfg(nodes: usize, budget: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(small_spec(nodes), "sphere");
        c.budget_per_node = budget;
        c.deadline = Duration::from_secs(30);
        c.linger = Duration::from_millis(40);
        c
    }

    #[test]
    fn cluster_runs_to_budget_on_channels() {
        let cfg = quick_cfg(8, 300);
        let r = run_cluster(&cfg).unwrap();
        assert_eq!(r.total_evals, 8 * 300);
        assert_eq!(r.survivors, 8);
        assert!(r.best_quality.is_finite() && r.best_quality >= 0.0);
        assert!(r.messages_sent > 0, "nodes must have gossiped");
        assert_eq!(r.decode_errors, 0);
        assert_eq!(r.nodes.len(), 8);
    }

    #[test]
    fn cluster_runs_over_udp() {
        let cfg = ClusterConfig {
            transport: TransportKind::Udp,
            ..quick_cfg(6, 200)
        };
        let r = run_cluster(&cfg).unwrap();
        assert_eq!(r.total_evals, 6 * 200);
        assert!(r.messages_received > 0, "UDP datagrams must flow");
        assert_eq!(r.decode_errors, 0, "wire protocol must be clean");
    }

    #[test]
    fn gossip_spreads_the_best_beyond_its_discoverer() {
        // Anti-entropy stops once every budget is spent, so full consensus
        // is not guaranteed (same as the simulator) — but the global best
        // must have reached at least one other node via push-pull, and
        // every node must have absorbed *some* remote information.
        let cfg = quick_cfg(8, 400);
        let r = run_cluster(&cfg).unwrap();
        let best = r.best_value;
        let holders = r
            .nodes
            .iter()
            .filter(|o| o.best.as_ref().is_some_and(|b| b.f == best))
            .count();
        assert!(
            holders >= 2,
            "the global best {best} never left its discoverer"
        );
        assert!(r.nodes.iter().all(|o| o.received > 0));
    }

    #[test]
    fn isolated_nodes_send_nothing_coordinative() {
        let mut spec = small_spec(4);
        spec.coordination = CoordinationKind::None;
        let mut cfg = ClusterConfig::new(spec, "sphere");
        cfg.budget_per_node = 100;
        let r = run_cluster(&cfg).unwrap();
        assert_eq!(r.coordination_exchanges, 0);
        // Newscast still runs (topology maintenance).
        assert!(r.messages_sent > 0);
    }

    #[test]
    fn crash_plan_kills_a_fraction() {
        let mut cfg = quick_cfg(8, 2_000_000);
        cfg.eval_pause = Duration::from_micros(200); // keep them busy
        cfg.deadline = Duration::from_secs(2);
        cfg.crash = Some(CrashPlan {
            after: Duration::from_millis(150),
            fraction: 0.5,
        });
        let r = run_cluster(&cfg).unwrap();
        assert_eq!(r.survivors, 4, "half the cluster must have been crashed");
        // Survivors hit the deadline (budget unreachable) — still reported.
        assert_eq!(r.nodes.len(), 8);
        assert!(r.best_quality.is_finite());
    }

    #[test]
    fn unknown_function_is_rejected() {
        let cfg = ClusterConfig::new(small_spec(2), "not-a-function");
        assert!(matches!(
            run_cluster(&cfg),
            Err(CoreError::UnknownFunction(_))
        ));
    }

    #[test]
    fn lossy_deployment_still_completes() {
        let mut spec = small_spec(6);
        spec.loss_prob = 0.3;
        let mut cfg = ClusterConfig::new(spec, "sphere");
        cfg.budget_per_node = 200;
        let r = run_cluster(&cfg).unwrap();
        assert_eq!(r.total_evals, 6 * 200);
        assert!(r.send_failures > 0, "loss injector must have dropped some");
        assert!(r.best_quality.is_finite());
    }

    #[test]
    fn per_kind_ledgers_count_every_flushed_and_received_message() {
        let mut spec = small_spec(6);
        spec.loss_prob = 0.3;
        let mut cfg = ClusterConfig::new(spec, "sphere");
        cfg.budget_per_node = 200;
        let r = run_cluster(&cfg).unwrap();
        for o in &r.nodes {
            let sent: u64 = o.wire.sent.iter().sum();
            assert_eq!(sent, o.sent + o.send_failures, "node {:?}", o.id);
            assert_eq!(o.wire.delivered.iter().sum::<u64>(), o.received);
        }
        let sent: u64 = r.wire.sent.iter().sum();
        assert_eq!(sent, r.messages_sent + r.send_failures);
        assert!(r.send_failures > 0 && r.wire.total_bytes() > 0);
    }
}

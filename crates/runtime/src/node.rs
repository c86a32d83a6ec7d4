//! The per-node thread loop: drives one [`OptNode`] over a real transport.
//!
//! The deployment runs the **identical protocol state machine** as the
//! simulator — [`OptNode`] with its topology/optimization/coordination
//! services — but wall-clock-paced and message-driven instead of
//! kernel-scheduled. One loop iteration performs at most one local
//! function evaluation (the paper's unit of time) and then drains the
//! mailbox, so gossip cadence in evaluations (`r`) is preserved exactly.

use crate::transport::Transport;
use crate::wire;
use gossipopt_core::messages::Msg;
use gossipopt_core::node::OptNode;
use gossipopt_sim::{Application, Ctx, NodeId, WireCounts};
use gossipopt_solvers::BestPoint;
use gossipopt_util::{StreamId, Xoshiro256pp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RNG stream component tag for runtime node threads (distinct from the
/// simulator's streams so a shared root seed cannot collide).
const RUNTIME_STREAM: u64 = 0x52_54; // "RT"

/// Wall-clock execution limits of one node thread.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Local evaluation budget (the loop also respects the budget baked
    /// into the [`OptNode`], whichever is hit first).
    pub eval_budget: u64,
    /// Hard wall-clock deadline for the whole run.
    pub deadline: Duration,
    /// How long to keep serving gossip after the local budget is spent, so
    /// in-flight improvements still diffuse (the epidemic's tail).
    pub linger: Duration,
    /// Optional pause between evaluations, modeling an expensive objective
    /// (`Duration::ZERO` = run at full speed).
    pub eval_pause: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            eval_budget: 1000,
            deadline: Duration::from_secs(30),
            linger: Duration::from_millis(30),
            eval_pause: Duration::ZERO,
        }
    }
}

/// What one node thread reports when it stops.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// The node's identity.
    pub id: NodeId,
    /// Its best point at shutdown (local view of the global optimum).
    pub best: Option<BestPoint>,
    /// Local evaluations performed.
    pub evals: u64,
    /// Coordination exchanges initiated.
    pub exchanges_initiated: u64,
    /// Datagrams handed to the transport.
    pub sent: u64,
    /// Datagrams received and decoded.
    pub received: u64,
    /// Datagrams that failed to decode (corruption, version skew).
    pub decode_errors: u64,
    /// Sends refused by the transport (unknown/crashed destination, loss).
    pub send_failures: u64,
    /// Per-kind ledger of the node's traffic, counted by the node as the
    /// simulator counts it: every message it handed to the transport
    /// (`sent + send_failures` in all) and every one it received decoded.
    pub wire: WireCounts,
    /// True when the node stopped because of the stop flag (crash
    /// injection or cluster shutdown) rather than budget completion.
    pub interrupted: bool,
}

/// Drive `node` until its evaluation budget and gossip linger complete, the
/// deadline passes, or `stop` is raised. Consumes the transport (each node
/// owns its endpoint).
pub fn run_node<T: Transport>(
    mut node: OptNode,
    transport: T,
    contacts: &[NodeId],
    cfg: NodeConfig,
    root_seed: u64,
    stop: Arc<AtomicBool>,
) -> NodeOutcome {
    let id = transport.local_id();
    let mut rng = Xoshiro256pp::derive(root_seed, StreamId::node(RUNTIME_STREAM, id.raw()));
    let start = Instant::now();
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut decode_errors = 0u64;
    let mut send_failures = 0u64;
    let mut interrupted = false;
    let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
    // The node's row (`Application::row_len`), kept here as a simulation
    // kernel keeps it in its row table.
    let mut row = vec![0.0; node.row_len()];
    // Its wire ledger, lent to every callback as a kernel lends one.
    let mut wire = WireCounts::default();
    let mut tick: u64 = 0;

    // Bootstrap the topology service from the provided contacts.
    {
        let mut ctx = Ctx::new(id, tick, &mut rng, &mut outbox)
            .with_row(&mut row)
            .with_wire(&mut wire);
        node.on_join(contacts, &mut ctx);
    }
    flush(&transport, &mut outbox, &mut sent, &mut send_failures);

    let mut budget_done_at: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Relaxed) {
            interrupted = true;
            break;
        }
        if start.elapsed() >= cfg.deadline {
            break;
        }

        let budget_left = node.evals() < cfg.eval_budget;
        if budget_left {
            tick += 1;
            let mut ctx = Ctx::new(id, tick, &mut rng, &mut outbox)
                .with_row(&mut row)
                .with_wire(&mut wire);
            node.on_tick(&mut ctx);
            flush(&transport, &mut outbox, &mut sent, &mut send_failures);
            if !cfg.eval_pause.is_zero() {
                std::thread::sleep(cfg.eval_pause);
            }
        } else if budget_done_at.is_none() {
            budget_done_at = Some(Instant::now());
        }

        // Drain the mailbox. While evaluating we never block (evaluation
        // throughput is the priority); once the budget is spent we wait in
        // small slices so late gossip still lands.
        let first_wait = if budget_left {
            Duration::ZERO
        } else {
            Duration::from_millis(1)
        };
        let mut wait = first_wait;
        while let Some((from, bytes)) = transport.recv(wait) {
            wait = Duration::ZERO; // only block once per iteration
            match wire::decode(&bytes) {
                Ok(msg) => {
                    received += 1;
                    let mut ctx = Ctx::new(id, tick, &mut rng, &mut outbox)
                        .with_row(&mut row)
                        .with_wire(&mut wire);
                    node.on_message(from, msg, &mut ctx);
                    flush(&transport, &mut outbox, &mut sent, &mut send_failures);
                }
                Err(_) => decode_errors += 1,
            }
        }

        if let Some(done) = budget_done_at {
            if done.elapsed() >= cfg.linger {
                break;
            }
        }
    }

    NodeOutcome {
        id,
        best: node.best(),
        evals: node.evals(),
        exchanges_initiated: node.exchanges_initiated(),
        sent,
        received,
        decode_errors,
        send_failures,
        wire,
        interrupted,
    }
}

fn flush<T: Transport>(
    transport: &T,
    outbox: &mut Vec<(NodeId, Msg)>,
    sent: &mut u64,
    send_failures: &mut u64,
) {
    for (to, msg) in outbox.drain(..) {
        if transport.send(to, wire::encode(&msg)) {
            *sent += 1;
        } else {
            *send_failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelNet;
    use gossipopt_core::node::{paper_coordination, CoordComp, Role, TopologyComp};
    use gossipopt_functions::Sphere;
    use gossipopt_gossip::{NewscastConfig, StaticSampler};
    use gossipopt_solvers::{PsoParams, Swarm};

    fn make_node(budget: u64, coord: CoordComp) -> OptNode {
        OptNode::new(
            Arc::new(Sphere::new(5)),
            Box::new(Swarm::new(4, PsoParams::default())),
            OptNode::newscast_topology(NewscastConfig::default()),
            coord,
            Role::Peer,
            4,
            Some(budget),
        )
    }

    #[test]
    fn single_node_exhausts_budget_and_stops() {
        let net = ChannelNet::new();
        let t = net.endpoint(NodeId(0));
        let out = run_node(
            make_node(200, CoordComp::Isolated),
            t,
            &[],
            NodeConfig {
                eval_budget: 200,
                deadline: Duration::from_secs(10),
                linger: Duration::from_millis(5),
                eval_pause: Duration::ZERO,
            },
            1,
            Arc::new(AtomicBool::new(false)),
        );
        assert_eq!(out.evals, 200);
        assert!(!out.interrupted);
        assert!(out.best.is_some());
        assert_eq!(out.decode_errors, 0);
    }

    #[test]
    fn stop_flag_interrupts_promptly() {
        let net = ChannelNet::new();
        let t = net.endpoint(NodeId(0));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            run_node(
                make_node(u64::MAX, CoordComp::Isolated),
                t,
                &[],
                NodeConfig {
                    eval_budget: u64::MAX,
                    deadline: Duration::from_secs(60),
                    linger: Duration::ZERO,
                    eval_pause: Duration::ZERO,
                },
                2,
                stop2,
            )
        });
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        let out = h.join().unwrap();
        assert!(out.interrupted);
        assert!(out.evals > 0);
    }

    #[test]
    fn two_nodes_share_their_best_over_channels() {
        // Node 1 is isolated-but-reachable (static neighbor list), node 0
        // gossips at it. After both finish, node 1 must know node 0's best
        // or vice versa — i.e. their finals agree on the better value.
        let net = ChannelNet::new();
        let t0 = net.endpoint(NodeId(0));
        let t1 = net.endpoint(NodeId(1));
        let stop = Arc::new(AtomicBool::new(false));
        let obj: Arc<dyn gossipopt_functions::Objective> = Arc::new(Sphere::new(5));
        let mk = |peer: u64| {
            OptNode::new(
                Arc::clone(&obj),
                Box::new(Swarm::new(4, PsoParams::default())),
                TopologyComp::Static(StaticSampler::new(vec![NodeId(peer)])),
                paper_coordination(),
                Role::Peer,
                4,
                Some(400),
            )
        };
        let (n0, n1) = (mk(1), mk(0));
        let cfg = NodeConfig {
            eval_budget: 400,
            deadline: Duration::from_secs(10),
            linger: Duration::from_millis(100),
            eval_pause: Duration::ZERO,
        };
        let s0 = Arc::clone(&stop);
        let h0 = std::thread::spawn(move || run_node(n0, t0, &[NodeId(1)], cfg, 3, s0));
        let s1 = Arc::clone(&stop);
        let h1 = std::thread::spawn(move || run_node(n1, t1, &[NodeId(0)], cfg, 3, s1));
        let o0 = h0.join().unwrap();
        let o1 = h1.join().unwrap();
        assert_eq!(o0.evals, 400);
        assert_eq!(o1.evals, 400);
        assert!(o0.sent > 0 && o1.sent > 0, "both nodes gossiped");
        let b0 = o0.best.unwrap().f;
        let b1 = o1.best.unwrap().f;
        // Push-pull anti-entropy: after the linger, both agree on the min.
        assert!(
            (b0 - b1).abs() <= f64::EPSILON.max(b0.abs().min(b1.abs()) * 1e-12),
            "bests diverged: {b0} vs {b1}"
        );
    }
}

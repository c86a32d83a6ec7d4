//! Determinism fingerprint: hashes solver trajectories and kernel traces
//! for a spread of configurations. Two builds that print identical lines
//! produce bit-identical simulations — used to verify that hot-path
//! refactors (SoA swarm, dense slot map, cross-node solver arena) preserve
//! behavior exactly.
//!
//! Run with `cargo run --release --example fingerprint`.
//!
//! `--threads N` (default 0) runs the kernel / event / dist families under
//! sharded execution with `N` worker threads. The event kernel is
//! bit-identical to sequential, and the cycle kernel's phased discipline
//! is thread-count invariant, so the output for every `N >= 1` must be
//! byte-identical — CI diffs `--threads 1/2/3/8`. `N = 0` keeps the
//! historical sequential output.

use gossipopt::core::prelude::*;
use gossipopt::functions::{by_name, Objective};
use gossipopt::sim::{
    Application, ChurnConfig, Ctx, CycleConfig, CycleEngine, EventConfig, EventEngine, Latency,
    NodeId, Transport,
};
use gossipopt::solvers::pso::Influence;
use gossipopt::solvers::{BoundPolicy, PsoParams, Solver, Swarm, Topology};
use gossipopt::util::{Rng64, Xoshiro256pp};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn push(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
    fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }
}

fn swarm_fingerprint(label: &str, params: PsoParams, f: &dyn Objective, steps: u64, seed: u64) {
    let mut swarm = Swarm::new(12, params);
    let mut rng = Xoshiro256pp::seeded(seed);
    for _ in 0..steps {
        swarm.step(f, &mut rng);
    }
    let mut h = Fnv::new();
    let best = swarm.best().expect("stepped swarm has a best");
    for &v in &best.x {
        h.push_f64(v);
    }
    h.push_f64(best.f);
    h.push(swarm.evals());
    // Emigrants expose pbest rows (and consume RNG in a defined order).
    for _ in 0..20 {
        if let Some(e) = swarm.emigrate(&mut rng) {
            for &v in &e.x {
                h.push_f64(v);
            }
            h.push_f64(e.f);
        }
    }
    for w in rng.state() {
        h.push(w);
    }
    println!("swarm {label}: {:016x}", h.0);
}

/// Protocol whose whole behavior (messages, private randomness) feeds the
/// fingerprint.
#[derive(Debug, Clone)]
struct Probe {
    buddy: Option<NodeId>,
    acc: u64,
    ticks: u64,
}

impl Application for Probe {
    type Message = u64;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, u64>) {
        self.buddy = contacts.first().copied();
        for &c in contacts {
            ctx.send(c, c.raw() ^ 0x5bd1e995);
        }
    }
    fn on_tick(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.ticks += 1;
        let draw = ctx.rng().next_u64();
        if let Some(b) = self.buddy {
            ctx.send(b, draw);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.acc = self
            .acc
            .rotate_left(7)
            .wrapping_add(msg ^ from.raw().wrapping_mul(0x9E3779B97F4A7C15));
        // Occasional reply exercises intra-tick chaining.
        if msg.is_multiple_of(5) {
            ctx.send(from, self.acc);
        }
    }
}

fn kernel_fingerprint(label: &str, mut cfg: CycleConfig, churn: bool, ticks: u64) {
    cfg.threads = shard_threads();
    if churn {
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.03,
            joins_per_tick: 0.7,
            min_nodes: 2,
            max_nodes: 96,
        };
    }
    let mut e: CycleEngine<Probe> = CycleEngine::new(cfg);
    e.set_spawner(|_, rng| Probe {
        buddy: None,
        acc: rng.next_u64(),
        ticks: 0,
    });
    e.populate(32);
    e.run(ticks / 2);
    e.crash_fraction(0.25);
    e.crash(NodeId(1));
    e.run(ticks - ticks / 2);
    let mut h = Fnv::new();
    for (id, app) in e.nodes() {
        h.push(id.raw());
        h.push(app.acc);
        h.push(app.ticks);
    }
    let s = e.stats();
    for w in [
        s.sent,
        s.delivered,
        s.lost,
        s.dead_letter,
        s.hop_overflow,
        s.crashes,
        s.joins,
    ] {
        h.push(w);
    }
    println!("kernel {label}: {:016x}", h.0);
}

fn event_fingerprint(label: &str, mut cfg: EventConfig, churn: bool, until: u64) {
    cfg.threads = shard_threads();
    if churn {
        cfg.churn = ChurnConfig {
            crash_prob_per_tick: 0.02,
            joins_per_tick: 0.5,
            min_nodes: 2,
            max_nodes: 96,
        };
    }
    let mut e: EventEngine<Probe> = EventEngine::new(cfg);
    e.set_spawner(|_, rng| Probe {
        buddy: None,
        acc: rng.next_u64(),
        ticks: 0,
    });
    e.populate(32);
    e.run(until / 2);
    e.crash(NodeId(1));
    e.crash(NodeId(5));
    e.run(until);
    let mut h = Fnv::new();
    for (id, app) in e.nodes() {
        h.push(id.raw());
        h.push(app.acc);
        h.push(app.ticks);
    }
    for w in [
        e.delivered(),
        e.stats().dropped(),
        e.alive_count() as u64,
        e.now(),
    ] {
        h.push(w);
    }
    println!("event {label}: {:016x}", h.0);
}

fn distributed_fingerprint(label: &str, spec: &DistributedPsoSpec, function: &str, seed: u64) {
    let spec = DistributedPsoSpec {
        threads: shard_threads(),
        ..spec.clone()
    };
    let r = run_distributed_pso(&spec, function, Budget::PerNode(120), seed).expect("runs");
    println!(
        "dist {label}: q={:016x} sent={} evals={} exch={} pop={}",
        r.best_quality.to_bits(),
        r.messages_sent,
        r.total_evals,
        r.coordination_exchanges,
        r.final_population,
    );
}

/// `--threads N` from the command line; 0 (sequential engines) when
/// absent. Any other argument is an error, not a silent no-op.
fn shard_threads() -> usize {
    let mut threads = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        assert!(
            flag == "--threads",
            "unknown argument `{flag}` (usage: fingerprint [--threads N])"
        );
        threads = it
            .next()
            .and_then(|v| v.parse().ok())
            .expect("--threads requires a number");
    }
    threads
}

fn main() {
    let sphere = by_name("sphere", 10).unwrap();
    let rastrigin = by_name("rastrigin", 8).unwrap();

    swarm_fingerprint(
        "gbest-constriction",
        PsoParams::default(),
        sphere.as_ref(),
        4000,
        11,
    );
    swarm_fingerprint(
        "vanilla-1995",
        PsoParams::paper_1995(),
        sphere.as_ref(),
        4000,
        12,
    );
    swarm_fingerprint(
        "fips-ring",
        PsoParams::fips_ring(),
        rastrigin.as_ref(),
        4000,
        13,
    );
    swarm_fingerprint(
        "lbest-vonneumann-clamp",
        PsoParams {
            topology: Topology::VonNeumann,
            bounds: BoundPolicy::Clamp,
            ..PsoParams::default()
        },
        rastrigin.as_ref(),
        3000,
        14,
    );
    swarm_fingerprint(
        "random-topo-reflect-fips",
        PsoParams {
            topology: Topology::Random(3),
            bounds: BoundPolicy::Reflect,
            influence: Influence::FullyInformed,
            ..PsoParams::default()
        },
        sphere.as_ref(),
        3000,
        15,
    );

    kernel_fingerprint("reliable", CycleConfig::seeded(21), false, 60);
    kernel_fingerprint(
        "lossy",
        {
            let mut c = CycleConfig::seeded(22);
            c.transport = Transport::lossy(0.3);
            c
        },
        false,
        60,
    );
    kernel_fingerprint("churny", CycleConfig::seeded(23), true, 80);
    kernel_fingerprint(
        "deferred-tiny-hops",
        {
            let mut c = CycleConfig::seeded(24);
            c.intra_tick_delivery = false;
            c.max_hops_per_tick = 4;
            c
        },
        true,
        80,
    );

    event_fingerprint("reliable", EventConfig::seeded(41), false, 400);
    event_fingerprint(
        "lossy-uniform",
        {
            let mut c = EventConfig::seeded(42);
            c.transport = Transport {
                loss_prob: 0.25,
                latency: Latency::Uniform(1, 15),
            };
            c
        },
        false,
        400,
    );
    event_fingerprint(
        "exponential-churny",
        {
            let mut c = EventConfig::seeded(43);
            c.transport = Transport {
                loss_prob: 0.05,
                latency: Latency::Exponential(8.0),
            };
            c
        },
        true,
        400,
    );
    event_fingerprint(
        "no-jitter",
        {
            let mut c = EventConfig::seeded(44);
            c.jitter_phase = false;
            c
        },
        false,
        400,
    );

    let base = DistributedPsoSpec {
        nodes: 24,
        particles_per_node: 6,
        gossip_every: 4,
        ..Default::default()
    };
    distributed_fingerprint("newscast-sphere", &base, "sphere", 31);
    distributed_fingerprint(
        "lossy-churny-rastrigin",
        &DistributedPsoSpec {
            loss_prob: 0.2,
            churn: ChurnConfig {
                crash_prob_per_tick: 0.01,
                joins_per_tick: 0.2,
                min_nodes: 4,
                max_nodes: 48,
            },
            ..base.clone()
        },
        "rastrigin",
        32,
    );
    distributed_fingerprint(
        "mixed-solvers-griewank",
        &DistributedPsoSpec {
            solver: SolverSpec::Mix(vec![
                SolverSpec::Named("pso".into()),
                SolverSpec::Named("de".into()),
                SolverSpec::Named("nelder-mead".into()),
                SolverSpec::Named("sa".into()),
            ]),
            ..base.clone()
        },
        "griewank",
        33,
    );
    // Static topologies skip kernel bootstrap sampling as of PR 3 (their
    // samplers ignore join contacts), which intentionally shifted their
    // seeded results once; this line locks the post-PR-3 behavior for a
    // pre-existing static kind so future refactors are covered.
    distributed_fingerprint(
        "static-kout-sphere",
        &DistributedPsoSpec {
            topology: TopologyKind::KOut(3),
            ..base.clone()
        },
        "sphere",
        37,
    );
    // The scale topologies wired into the topology service (PR 3): static
    // overlays from the unified builder module, zero kernel bootstrap.
    distributed_fingerprint(
        "ring-lattice-sphere",
        &DistributedPsoSpec {
            topology: TopologyKind::RingLattice(2),
            ..base.clone()
        },
        "sphere",
        34,
    );
    distributed_fingerprint(
        "kout-regular-rastrigin",
        &DistributedPsoSpec {
            topology: TopologyKind::KOutRegular(4),
            ..base.clone()
        },
        "rastrigin",
        35,
    );
    distributed_fingerprint(
        "two-level-griewank",
        &DistributedPsoSpec {
            topology: TopologyKind::TwoLevelHierarchy { degree: 2 },
            ..base
        },
        "griewank",
        36,
    );
}

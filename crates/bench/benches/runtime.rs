//! Runtime-substrate benchmarks: wire codec throughput, channel transport
//! latency, and a full threaded-cluster deployment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossipopt_core::experiment::DistributedPsoSpec;
use gossipopt_core::messages::{CoordBatch, Msg};
use gossipopt_core::rumor::GlobalBest;
use gossipopt_gossip::AntiEntropyMsg;
use gossipopt_runtime::{decode, encode, run_cluster, ChannelNet, ClusterConfig, Transport};
use gossipopt_sim::NodeId;
use gossipopt_util::{Rng64, Xoshiro256pp};
use std::hint::black_box;
use std::time::Duration;

fn offer(dim: usize) -> Msg {
    let x: Vec<f64> = (0..dim).map(|i| i as f64 * 0.5 - 1.0).collect();
    Msg::Coord(AntiEntropyMsg::Offer(GlobalBest::new(&x, 1.25)))
}

/// A near-converged anti-entropy batch, the frame that dominates codec
/// time in a deployment: `items` dimension-10 payloads, each within 1e-9
/// of one optimum, offers and tells mixed at random.
fn coord_batch(seed: u64, items: usize) -> Msg {
    let mut rng = Xoshiro256pp::seeded(seed);
    let centre: Vec<f64> = (0..10).map(|_| rng.range_f64(-5.0, 5.0)).collect();
    let f = centre.iter().map(|v| v * v).sum();
    let items = (0..items)
        .map(|_| {
            let x: Vec<f64> = centre
                .iter()
                .map(|v| v + rng.range_f64(-1e-9, 1e-9))
                .collect();
            let g = GlobalBest::new(&x, f);
            let m = if rng.below(2) == 0 {
                AntiEntropyMsg::Offer(g)
            } else {
                AntiEntropyMsg::Tell(g)
            };
            (NodeId(rng.below(1 << 20)), m)
        })
        .collect();
    Msg::CoordBatch(CoordBatch { items })
}

/// Each iteration handles the next frame of a row's set, round robin.
/// The coord-batch rows cycle through 16 distinct frames: re-coding one
/// frame lets the branch predictor learn its varint lengths, which a
/// live stream of frames never allows.
fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/wire");
    let mut rows: Vec<(&str, usize, Vec<Msg>)> =
        [2, 10, 100].map(|d| ("", d, vec![offer(d)])).into();
    rows.push((
        "-coord-batch",
        136,
        (0..16).map(|s| coord_batch(s, 136)).collect(),
    ));
    for (kind, param, msgs) in &rows {
        let enc = format!("encode{kind}");
        group.bench_with_input(BenchmarkId::new(&enc, param), msgs, |b, msgs| {
            let mut next = msgs.iter().cycle();
            b.iter(|| black_box(encode(black_box(next.next().unwrap()))))
        });
        let frames: Vec<_> = msgs.iter().map(encode).collect();
        let dec = format!("decode{kind}");
        group.bench_with_input(BenchmarkId::new(&dec, param), &frames, |b, frames| {
            let mut next = frames.iter().cycle();
            b.iter(|| black_box(decode(black_box(next.next().unwrap())).unwrap()))
        });
    }
    group.finish();
}

fn bench_channel_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/channel");
    group.bench_function("send+recv", |b| {
        let net = ChannelNet::new();
        let a = net.endpoint(NodeId(0));
        let bb = net.endpoint(NodeId(1));
        let payload = encode(&offer(10));
        b.iter(|| {
            a.send(NodeId(1), payload.clone());
            black_box(bb.recv(Duration::ZERO))
        })
    });
    group.finish();
}

fn bench_cluster_deploy(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/cluster");
    group.sample_size(10);
    for nodes in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("deploy-200-evals", nodes),
            &nodes,
            |b, &nodes| {
                b.iter(|| {
                    let spec = DistributedPsoSpec {
                        nodes,
                        particles_per_node: 8,
                        gossip_every: 8,
                        ..Default::default()
                    };
                    let mut cfg = ClusterConfig::new(spec, "sphere");
                    cfg.budget_per_node = 200;
                    cfg.linger = Duration::from_millis(5);
                    black_box(run_cluster(&cfg).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_codec,
    bench_channel_transport,
    bench_cluster_deploy
);
criterion_main!(benches);

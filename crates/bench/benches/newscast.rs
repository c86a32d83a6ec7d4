//! Microbenchmarks: NEWSCAST view merge and full-network exchange rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossipopt_gossip::{Descriptor, Newscast, NewscastConfig, NewscastMsg, PartialView};
use gossipopt_sim::{Application, Ctx, CycleConfig, CycleEngine, NodeId};
use gossipopt_util::{Rng64, Xoshiro256pp};
use std::hint::black_box;

fn bench_view_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("newscast/merge");
    for &cap in &[8usize, 20, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let mut rng = Xoshiro256pp::seeded(1);
            let incoming: Vec<Descriptor> = (0..cap as u64 + 1)
                .map(|i| Descriptor {
                    id: NodeId(100 + i),
                    stamp: i,
                })
                .collect();
            let mut view = PartialView::new(cap);
            for i in 0..cap as u64 {
                view.insert(Descriptor {
                    id: NodeId(i),
                    stamp: i,
                });
            }
            b.iter(|| {
                let mut v = view.clone();
                v.merge_from(incoming.iter().copied(), Some(NodeId(0)), &mut rng);
                black_box(v.len())
            })
        });
    }
    group.finish();
}

/// The merge a cycle-driven run performs: a full view meets a peer's
/// `cap + 1` descriptors whose stamps sit within three ticks of `now`
/// (3–5 distinct stamps once merged) and whose ids are drawn from a
/// universe of 2.5 × `cap`, so ≈40 % are already known. `newscast/merge`
/// above feeds all-distinct stamps, the one shape such a run never
/// produces. The payloads are generated up front and re-stamped through
/// the iterator, so the timed closure allocates nothing.
fn bench_view_merge_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("newscast/merge-cycle");
    for &cap in &[8usize, 20, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let mut rng = Xoshiro256pp::seeded(1);
            let universe = cap * 5 / 2;
            let payloads: Vec<Vec<Descriptor>> = (0..64)
                .map(|_| {
                    rng.sample_indices(universe, cap + 1)
                        .into_iter()
                        .map(|id| Descriptor {
                            id: NodeId(1 + id as u64),
                            stamp: rng.below(3),
                        })
                        .collect()
                })
                .collect();
            let mut view = PartialView::new(cap);
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                let payload = &payloads[now as usize % payloads.len()];
                view.merge_from(
                    payload.iter().map(|d| Descriptor {
                        id: d.id,
                        stamp: d.stamp + now,
                    }),
                    Some(NodeId(0)),
                    &mut rng,
                );
                black_box(view.len())
            })
        });
    }
    group.finish();
}

struct NcApp {
    nc: Newscast,
}
impl Application for NcApp {
    type Message = NewscastMsg;
    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, NewscastMsg>) {
        let now = ctx.now;
        self.nc.on_join(contacts, now, ctx.rng());
    }
    fn on_tick(&mut self, ctx: &mut Ctx<'_, NewscastMsg>) {
        let (id, now) = (ctx.self_id, ctx.now);
        if let Some((peer, msg)) = self.nc.on_tick(id, now, ctx.rng()) {
            ctx.send(peer, msg);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: NewscastMsg, ctx: &mut Ctx<'_, NewscastMsg>) {
        let (id, now) = (ctx.self_id, ctx.now);
        if let Some(reply) = self.nc.handle(id, from, msg, now, ctx.rng()) {
            ctx.send(from, reply);
        }
    }
}

fn bench_network_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("newscast/network-round");
    for &n in &[128usize, 1024] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut e: CycleEngine<NcApp> = CycleEngine::new(CycleConfig::seeded(3));
            for _ in 0..n {
                e.insert(NcApp {
                    nc: Newscast::new(NewscastConfig::default()),
                });
            }
            e.run(5); // warm views
            b.iter(|| black_box(e.tick()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_view_merge,
    bench_view_merge_cycle,
    bench_network_round
);
criterion_main!(benches);

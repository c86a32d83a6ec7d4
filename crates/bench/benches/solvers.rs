//! Microbenchmarks: solver step cost (one function evaluation plus
//! solver bookkeeping) for every registered solver and PSO variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossipopt_functions::{by_name, Sphere};
use gossipopt_solvers::{solver_by_name, Inertia, PsoParams, Solver, Swarm};
use gossipopt_util::{AlignedBox, Rng64, Xoshiro256pp};
use std::hint::black_box;

fn bench_solver_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers/step");
    let f = Sphere::new(10);
    for name in gossipopt_solvers::solver_names() {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, name| {
            let mut solver = solver_by_name(name, 16).expect("registered");
            let mut rng = Xoshiro256pp::seeded(2);
            b.iter(|| {
                solver.step(black_box(&f), &mut rng);
                black_box(solver.evals())
            })
        });
    }
    group.finish();
}

/// Step cost of the lane-kernel solvers at the dimensionality extremes:
/// dim 4 is exactly one 4-wide lane group (the kernels' break-even
/// point), dim 32 is eight groups where the widened update loops earn
/// their keep. Guards the `solvers::lanes` fast paths specifically —
/// the dim-10 `solvers/step/{pso,de}` rows above track the paper's
/// default configuration.
fn bench_step_dims(c: &mut Criterion) {
    for name in ["pso", "de"] {
        let mut group = c.benchmark_group(&format!("solvers/step/{name}"));
        for dim in [4usize, 32] {
            let f = Sphere::new(dim);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("dim{dim}")),
                &dim,
                |b, _| {
                    let mut solver = solver_by_name(name, 16).expect("registered");
                    let mut rng = Xoshiro256pp::seeded(5);
                    b.iter(|| {
                        solver.step(black_box(&f), &mut rng);
                        black_box(solver.evals())
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_pso_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers/pso-variant");
    let f = Sphere::new(10);
    let variants: Vec<(&str, PsoParams)> = vec![
        ("vanilla-1995", PsoParams::paper_1995()),
        ("constriction", PsoParams::default()),
        (
            "inertia-0.729",
            PsoParams {
                c1: 1.49618,
                c2: 1.49618,
                inertia: Inertia::Constant(0.7298),
                ..PsoParams::paper_1995()
            },
        ),
    ];
    for (name, params) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &params, |b, params| {
            let mut swarm = Swarm::new(16, *params);
            let mut rng = Xoshiro256pp::seeded(3);
            b.iter(|| {
                swarm.step(black_box(&f), &mut rng);
                black_box(swarm.evals())
            })
        });
    }
    group.finish();
}

/// Batch objective-evaluation throughput for the four-wide lane kernels:
/// a 32-point batch through `eval_batch`, at a small and a large
/// dimensionality. (`schwefel` is the suite's Schwefel problem 1.2.)
fn bench_eval_batch(c: &mut Criterion) {
    const POINTS: usize = 32;
    for (label, registry_name) in [
        ("sphere", "sphere"),
        ("rastrigin", "rastrigin"),
        ("schwefel", "schwefel12"),
        ("griewank", "griewank"),
    ] {
        let mut group = c.benchmark_group(&format!("eval/{label}"));
        for dim in [4usize, 32] {
            let f = by_name(registry_name, dim).expect("registered");
            let mut rng = Xoshiro256pp::seeded(11);
            // 64-byte-aligned scratch, matching the arena's row layout.
            let xs = AlignedBox::new_with(POINTS * dim, |i| {
                let (lo, hi) = f.bounds(i % dim);
                rng.range_f64(lo, hi)
            });
            let mut out = AlignedBox::new_with(POINTS, |_| 0.0f64);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("dim{dim}")),
                &dim,
                |b, &dim| {
                    b.iter(|| {
                        f.eval_batch(black_box(&xs), dim, &mut out);
                        black_box(out[POINTS - 1])
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_solver_steps,
    bench_step_dims,
    bench_pso_variants,
    bench_eval_batch
);
criterion_main!(benches);

//! The row contract: a [`RowPso`] over a lent row is bit-identical to a
//! boxed gbest/classic [`Swarm`] — same trajectories, same RNG draw order,
//! same coordination behavior (`tell_best` / `emigrate` / `immigrate`).
//! This is what lets `core::NodeRecipe` swap 100k boxed swarms for one
//! flat row table without shifting a single committed fingerprint.

use gossipopt_functions::by_name;
use gossipopt_solvers::{BestPoint, BoundPolicy, Inertia, PsoParams, RowPso, Solver, Swarm};
use gossipopt_util::Xoshiro256pp;

fn configs() -> Vec<(&'static str, PsoParams)> {
    vec![
        ("default-constriction", PsoParams::default()),
        ("vanilla-1995", PsoParams::paper_1995()),
        (
            "constant-inertia-clamp",
            PsoParams {
                inertia: Inertia::Constant(0.7),
                bounds: BoundPolicy::Clamp,
                ..PsoParams::default()
            },
        ),
        (
            "reflect-bounds",
            PsoParams {
                bounds: BoundPolicy::Reflect,
                ..PsoParams::default()
            },
        ),
    ]
}

fn assert_same_best(a: &RowPso, b: &dyn Solver, context: &str) {
    match (a.best(), b.best()) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.f.to_bits(), y.f.to_bits(), "{context}: best value");
            let xb: Vec<u64> = x.x.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb, "{context}: best position");
        }
        _ => panic!("{context}: one solver has a best, the other does not"),
    }
}

/// Lockstep driver: identical RNG streams into both solvers, with
/// interleaved coordination traffic, asserting bit-equality throughout.
fn lockstep(label: &str, params: PsoParams, function: &str, dim: usize, seed: u64) {
    let f = by_name(function, dim).unwrap();
    let mut row_solver = RowPso::new(6, params, f.as_ref());
    // The tested row is row 1 of a four-row table (offset indexing), and
    // the rows around it must come out untouched.
    let len = row_solver.row_len();
    let mut table = vec![-7.0; 4 * len];
    let row = &mut table[len..2 * len];
    let mut boxed = Swarm::new(6, params);
    let mut rng_a = Xoshiro256pp::seeded(seed);
    let mut rng_b = Xoshiro256pp::seeded(seed);

    for step in 0..600u64 {
        row_solver.step(row, f.as_ref(), &mut rng_a);
        boxed.step(f.as_ref(), &mut rng_b);
        assert_eq!(
            rng_a.state(),
            rng_b.state(),
            "{label}: RNG diverged @ {step}"
        );
        if step % 97 == 0 {
            // Remote optimum injection (the coordination hook).
            let point = BestPoint {
                x: vec![0.25; dim],
                f: 0.125 * step as f64,
            };
            row_solver.tell_best(point.clone());
            boxed.tell_best(point);
        }
        if step % 131 == 0 {
            let ea = row_solver.emigrate(row, &mut rng_a);
            let eb = boxed.emigrate(&mut rng_b);
            assert_eq!(
                ea.as_ref().map(|p| p.f.to_bits()),
                eb.as_ref().map(|p| p.f.to_bits()),
                "{label}: emigrant @ {step}"
            );
            assert_eq!(rng_a.state(), rng_b.state(), "{label}: emigrate draws");
            let migrant = BestPoint {
                x: vec![0.5; dim],
                f: 1.0 + step as f64,
            };
            row_solver.immigrate(row, migrant.clone());
            boxed.immigrate(migrant, &mut rng_b);
        }
        assert_same_best(&row_solver, &boxed, label);
        assert_eq!(row_solver.evals(), boxed.evals(), "{label}");
    }
    let (before, rest) = table.split_at(len);
    assert!(
        before.iter().chain(&rest[len..]).all(|&v| v == -7.0),
        "{label}: a neighbouring row was written"
    );
}

#[test]
fn arena_matches_boxed_swarm_bit_for_bit() {
    for (label, params) in configs() {
        for (function, dim, seed) in [("sphere", 8, 41), ("rastrigin", 5, 42), ("griewank", 3, 43)]
        {
            lockstep(&format!("{label}/{function}"), params, function, dim, seed);
        }
    }
}

#[test]
fn arena_name_matches_boxed_swarm() {
    let f = by_name("sphere", 4).unwrap();
    let handle = RowPso::new(2, PsoParams::default(), f.as_ref());
    assert_eq!(handle.name(), Swarm::new(2, PsoParams::default()).name());
}

#[test]
fn pre_initialization_behavior_matches() {
    // tell_best / emigrate / best before any step: the lazy-init edge.
    let f = by_name("sphere", 4).unwrap();
    let mut a = RowPso::new(3, PsoParams::default(), f.as_ref());
    let mut table = vec![0.0; 2 * a.row_len()];
    let row = &mut table[a.row_len()..];
    let mut b = Swarm::new(3, PsoParams::default());
    assert!(a.best().is_none() && b.best().is_none());
    let mut ra = Xoshiro256pp::seeded(9);
    let mut rb = Xoshiro256pp::seeded(9);
    assert_eq!(
        a.emigrate(row, &mut ra).is_none(),
        b.emigrate(&mut rb).is_none(),
        "no emigrant before init on either side"
    );
    let p = BestPoint {
        x: vec![1.0; 4],
        f: 4.0,
    };
    a.tell_best(p.clone());
    b.tell_best(p);
    assert_same_best(&a, &b, "pre-init tell_best");
    a.step(row, f.as_ref(), &mut ra);
    b.step(f.as_ref(), &mut rb);
    assert_eq!(ra.state(), rb.state());
    assert_same_best(&a, &b, "first step after injected best");
}

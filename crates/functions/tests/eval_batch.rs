//! `Objective::eval_batch` must agree with `eval` **bit for bit** for
//! every registered function, every batch size, and through the
//! `&T`/`Arc<T>` forwards and the restriction wrapper.

use gossipopt_functions::{by_name, names, Objective, RestrictedObjective, Sphere};
use gossipopt_util::{Rng64, Xoshiro256pp};
use std::sync::Arc;

fn random_batch(f: &dyn Objective, m: usize, rng: &mut Xoshiro256pp) -> Vec<f64> {
    let k = f.dim();
    let mut xs = Vec::with_capacity(m * k);
    for _ in 0..m {
        for d in 0..k {
            let (lo, hi) = f.bounds(d);
            xs.push(rng.range_f64(lo, hi));
        }
    }
    xs
}

fn assert_batch_matches(f: &dyn Objective, label: &str, rng: &mut Xoshiro256pp) {
    let k = f.dim();
    for m in [1usize, 2, 7, 32] {
        let xs = random_batch(f, m, rng);
        let mut batch = vec![0.0f64; m];
        f.eval_batch(&xs, k, &mut batch);
        for (i, chunk) in xs.chunks_exact(k).enumerate() {
            let pointwise = f.eval(chunk);
            assert_eq!(
                pointwise.to_bits(),
                batch[i].to_bits(),
                "{label}: point {i} of batch {m} diverged ({pointwise} vs {})",
                batch[i]
            );
        }
    }
}

#[test]
fn eval_batch_matches_eval_across_registry() {
    let mut rng = Xoshiro256pp::seeded(2024);
    for name in names() {
        let f = by_name(name, 10).unwrap_or_else(|| panic!("{name} not constructible"));
        assert_batch_matches(f.as_ref(), name, &mut rng);
    }
}

#[test]
fn eval_batch_matches_through_dyn_and_arc() {
    let mut rng = Xoshiro256pp::seeded(2025);
    let arc: Arc<dyn Objective> = Arc::from(by_name("rastrigin", 6).unwrap());
    assert_batch_matches(&arc, "arc<dyn>", &mut rng);
    let reference: &dyn Objective = &Sphere::new(6);
    assert_batch_matches(&reference, "&dyn", &mut rng);
}

#[test]
fn eval_batch_matches_through_wrappers() {
    let mut rng = Xoshiro256pp::seeded(2026);
    let restricted = RestrictedObjective::new(Sphere::new(3), vec![-10.0; 3], vec![10.0; 3]);
    assert_batch_matches(&restricted, "restricted", &mut rng);
}

#[test]
fn eval_batch_rejects_shape_mismatches() {
    let f = Sphere::new(3);
    let xs = vec![0.0f64; 6];
    let mut out = vec![0.0f64; 2];
    f.eval_batch(&xs, 3, &mut out); // fine: 2 points of dim 3
    let bad = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f64; 3];
        f.eval_batch(&xs, 3, &mut out); // 6 floats cannot hold 3 points
    });
    assert!(bad.is_err(), "length mismatch must panic");
    let bad_stride = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f64; 3];
        f.eval_batch(&xs, 2, &mut out); // stride must equal dim
    });
    assert!(bad_stride.is_err(), "stride mismatch must panic");
}

//! Property-based tests for the objective suite.

use gossipopt_functions::{by_name, names, Objective, Sphere};
use gossipopt_util::{Rng64, Xoshiro256pp};
use proptest::prelude::*;

fn random_point(f: &dyn Objective, rng: &mut Xoshiro256pp) -> Vec<f64> {
    (0..f.dim())
        .map(|d| {
            let (lo, hi) = f.bounds(d);
            rng.range_f64(lo, hi)
        })
        .collect()
}

proptest! {
    /// All registered functions: finite, above the optimum, deterministic.
    #[test]
    fn suite_sanity(seed in any::<u64>(), name_idx in any::<usize>()) {
        let name = names()[name_idx % names().len()];
        let f = by_name(name, 10).expect("registered");
        let mut rng = Xoshiro256pp::seeded(seed);
        let x = random_point(f.as_ref(), &mut rng);
        let v1 = f.eval(&x);
        let v2 = f.eval(&x);
        prop_assert!(v1.is_finite(), "{name} not finite at {x:?}");
        prop_assert_eq!(v1.to_bits(), v2.to_bits(), "{} must be pure", name);
        prop_assert!(v1 >= f.optimum_value() - 1e-9, "{name} below optimum");
    }

    /// Sphere is permutation-invariant (fully separable and symmetric).
    #[test]
    fn sphere_permutation_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 5),
        rot in 0usize..5,
    ) {
        let f = Sphere::new(5);
        let v = f.eval(&xs);
        let mut rotated = xs.clone();
        rotated.rotate_left(rot);
        prop_assert!((f.eval(&rotated) - v).abs() < 1e-9);
    }
}

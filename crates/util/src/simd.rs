//! One explicit 4-wide f64 lane type for the PSO update kernel.
//!
//! The PSO update kernel (`gossipopt_solvers`' `lanes` module) processes
//! four dimensions per group. [`V`] is the pack it is written against: a
//! 32-byte-aligned `[f64; 4]` with the operators that kernel uses, every
//! operation applied per lane. **No FMA is used anywhere**, so every packed
//! operation performs the same single IEEE-754 rounding as its scalar
//! counterpart and a lane kernel that replays the scalar loop's op order
//! is bit-identical to it.
//!
//! There is exactly one implementation and nothing to select; why is
//! recorded in ARCHITECTURE.md, "Lane kernels". Objectives have no lane
//! form: they evaluate one point at a time.
//!
//! ## Pinned semantics
//!
//! * `clamp(v, lo, hi)` is the two-step select chain
//!   `t = if v < lo { lo } else { v }; if t > hi { hi } else { t }`,
//!   which reproduces `f64::clamp`'s result for every `lo <= hi`
//!   (including NaN passthrough). Unlike `f64::clamp` it is total: it
//!   does not panic when `lo > hi` (callers in this workspace always
//!   pass ordered bounds).
//! * `neg` flips the sign bit.
//! * Transcendentals are never packed.

/// Four `f64` lanes, 32-byte aligned. Operator expressions must keep the
/// *same associativity* as the scalar kernel they mirror — bit-identity
/// is per operation, so the op sequence must match too.
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy)]
pub struct V([f64; 4]);

impl V {
    /// Pack four lanes.
    #[inline(always)]
    pub fn from_array(lanes: [f64; 4]) -> Self {
        V(lanes)
    }

    /// Broadcast one value to all lanes.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        V([v; 4])
    }

    /// Load the first four elements of `xs` (`xs.len() >= 4`).
    #[inline(always)]
    pub fn load(xs: &[f64]) -> Self {
        V([xs[0], xs[1], xs[2], xs[3]])
    }

    /// Store the four lanes into the first four elements of `out`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn zip(self, rhs: Self, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        V([
            f(self.0[0], rhs.0[0]),
            f(self.0[1], rhs.0[1]),
            f(self.0[2], rhs.0[2]),
            f(self.0[3], rhs.0[3]),
        ])
    }

    /// Lane-wise `clamp` via the select chain documented at module level:
    /// bit-identical to `f64::clamp` for `lo <= hi`, total (non-panicking)
    /// otherwise.
    #[inline(always)]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        // Not a min/max pair: a `<`/`>` select returning the second
        // operand on equal lanes would turn -0.0 into +0.0, while
        // f64::clamp keeps `v` unless strictly out of bounds.
        self.zip(lo, |x, l| if x < l { l } else { x })
            .zip(hi, |x, h| if x > h { h } else { x })
    }
}

macro_rules! v_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for V {
            type Output = V;
            #[inline(always)]
            fn $method(self, rhs: V) -> V {
                self.zip(rhs, |x, y| x $op y)
            }
        }
    };
}
v_binop!(Add, add, +);
v_binop!(Sub, sub, -);
v_binop!(Mul, mul, *);

/// A scalar coefficient times every lane.
impl std::ops::Mul<V> for f64 {
    type Output = V;
    #[inline(always)]
    fn mul(self, rhs: V) -> V {
        V::splat(self).zip(rhs, |x, y| x * y)
    }
}

impl std::ops::Neg for V {
    type Output = V;
    /// Lane-wise flip of the sign bit.
    #[inline(always)]
    fn neg(self) -> V {
        let [a, b, c, d] = self.0;
        V([-a, -b, -c, -d])
    }
}

/// The lane implementation in use. Single-valued; kept, with [`active`],
/// only because the frozen `benchmarks/` harness prints
/// `simd::active().name()` into its host block. Both leave with the next
/// PR licensed to edit `benchmarks/` (ROADMAP item 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// `[f64; 4]` lane arithmetic ([`V`]).
    Scalar,
}

impl SimdPath {
    /// Stable lowercase name (`"scalar"`).
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The lane implementation in use — always [`SimdPath::Scalar`]; see
/// [`SimdPath`] for why this still exists.
pub fn active() -> SimdPath {
    SimdPath::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(v: V) -> [f64; 4] {
        let mut out = [0.0; 4];
        v.store(&mut out);
        out
    }

    #[test]
    fn scalar_ops_match_plain_arithmetic() {
        let a = V::from_array([1.5, -2.0, 0.0, 1.0e300]);
        let b = V::from_array([0.5, 4.0, -0.0, 1.0e-300]);
        assert_eq!(lanes(a + b), [2.0, 2.0, 0.0, 1.0e300 + 1.0e-300]);
        assert_eq!(lanes(a - b)[1], -6.0);
        assert_eq!(lanes(a * b)[1], -8.0);
        assert_eq!(lanes(-a)[0], -1.5);
    }

    #[test]
    fn scalar_clamp_matches_std_for_ordered_bounds() {
        let cases: [(f64, f64, f64); 7] = [
            (0.5, -1.0, 1.0),
            (-3.0, -1.0, 1.0),
            (3.0, -1.0, 1.0),
            (-0.0, 0.0, 1.0),
            (f64::NAN, -1.0, 1.0),
            (f64::NEG_INFINITY, -1.0, 1.0),
            (f64::INFINITY, -1.0, 1.0),
        ];
        for (v, lo, hi) in cases {
            let got = lanes(V::splat(v).clamp(V::splat(lo), V::splat(hi)))[0];
            let want = v.clamp(lo, hi);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "clamp({v}, {lo}, {hi}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn v_operators_preserve_associativity() {
        let x = V::splat(3.0);
        let one = V::splat(1.0);
        let r = 2.0 * x * (x - one) + one;
        assert_eq!(lanes(r), [13.0; 4]);
        assert_eq!(lanes(-x)[2], -3.0);
        assert_eq!(lanes(V::load(&[1.0, 2.0, 3.0, 4.0])), [1.0, 2.0, 3.0, 4.0]);
    }
}

//! One explicit 4-wide f64 lane type for the objective and solver kernels.
//!
//! The objective lane kernels (`gossipopt_functions`) and the solver update
//! kernels (`gossipopt_solvers`) process particles in groups of four. [`V`]
//! is the one pack they are written against: a 32-byte-aligned `[f64; 4]`
//! with ordinary operators, every operation applied per lane. **No FMA is
//! used anywhere**, so every packed operation performs the same single
//! IEEE-754 rounding as its scalar counterpart and a lane kernel that
//! replays the scalar kernel's op order is bit-identical to it.
//!
//! There is exactly one implementation and nothing to select; why is
//! recorded in ARCHITECTURE.md, "Lane kernels".
//!
//! ## Pinned semantics
//!
//! * `min(a, b)` is `if a < b { a } else { b }` (NaN or equal operands
//!   return `b`). Likewise `max` with `>`. These are *not* IEEE `minNum`;
//!   committed fingerprints depend on this select.
//! * `clamp(v, lo, hi)` is the two-step select chain
//!   `t = if v < lo { lo } else { v }; if t > hi { hi } else { t }`,
//!   which reproduces `f64::clamp`'s result for every `lo <= hi`
//!   (including NaN passthrough). Unlike `f64::clamp` it is total: it
//!   does not panic when `lo > hi` (callers in this workspace always
//!   pass ordered bounds).
//! * `abs` clears the sign bit (matching `f64::abs`, even on NaN);
//!   `neg` flips it; `sqrt` and `floor` are IEEE-exact.
//! * Transcendentals (sin/cos/exp/powi/...) are **never** packed: kernels
//!   route them through [`V::map`], which applies the scalar libm call
//!   per lane.

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

    /// Gather coordinate `d` from four points (the lane-kernel access
    /// pattern: one group = four particles, walked dimension-major).
    #[inline(always)]
    pub fn gather(pts: &[&[f64]; 4], d: usize) -> Self {
        V([pts[0][d], pts[1][d], pts[2][d], pts[3][d]])
    }

    /// Store the four lanes into the first four elements of `out`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// Unpack the lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Apply a scalar function to every lane. This is the designated
    /// route for transcendentals: each lane runs the same libm call the
    /// scalar kernel does.
    #[inline(always)]
    pub fn map(self, mut f: impl FnMut(f64) -> f64) -> Self {
        V([f(self.0[0]), f(self.0[1]), f(self.0[2]), f(self.0[3])])
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

    /// Lane-wise IEEE square root.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// Lane-wise clear of the sign bit (matches `f64::abs` on NaN too).
    #[inline(always)]
    pub fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// Lane-wise round toward negative infinity.
    #[inline(always)]
    pub fn floor(self) -> Self {
        self.map(f64::floor)
    }

    /// Lane-wise `if self < rhs { self } else { rhs }` (NaN or equal
    /// operands return `rhs`).
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        self.zip(rhs, |x, y| if x < y { x } else { y })
    }

    /// Lane-wise `if self > rhs { self } else { rhs }` (NaN or equal
    /// operands return `rhs`).
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        self.zip(rhs, |x, y| if x > y { x } else { y })
    }

    /// Lane-wise `clamp` via the select chain documented at module level:
    /// bit-identical to `f64::clamp` for `lo <= hi`, total (non-panicking)
    /// otherwise.
    #[inline(always)]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        // Not expressible via min/max: those return the *second* operand
        // on equal lanes (e.g. -0.0 vs +0.0), while f64::clamp keeps `v`
        // unless strictly out of bounds.
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
        impl std::ops::$trait<f64> for V {
            type Output = V;
            #[inline(always)]
            fn $method(self, rhs: f64) -> V {
                self.zip(V::splat(rhs), |x, y| x $op y)
            }
        }
        impl std::ops::$trait<V> for f64 {
            type Output = V;
            #[inline(always)]
            fn $method(self, rhs: V) -> V {
                V::splat(self).zip(rhs, |x, y| x $op y)
            }
        }
    };
}
v_binop!(Add, add, +);
v_binop!(Sub, sub, -);
v_binop!(Mul, mul, *);
v_binop!(Div, div, /);

impl std::ops::Neg for V {
    type Output = V;
    /// Lane-wise flip of the sign bit.
    #[inline(always)]
    fn neg(self) -> V {
        self.map(|x| -x)
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

    #[test]
    fn scalar_ops_match_plain_arithmetic() {
        let a = V::from_array([1.5, -2.0, 0.0, 1.0e300]);
        let b = V::from_array([0.5, 4.0, -0.0, 1.0e-300]);
        assert_eq!((a + b).to_array(), [2.0, 2.0, 0.0, 1.0e300 + 1.0e-300]);
        assert_eq!((a * b).to_array()[1], -8.0);
        assert_eq!(a.abs().to_array()[1], 2.0);
        assert_eq!((-a).to_array()[0], -1.5);
    }

    #[test]
    fn scalar_min_max_take_second_operand_on_nan() {
        let nan = f64::NAN;
        let a = V::from_array([nan, 1.0, nan, 2.0]);
        let b = V::from_array([3.0, nan, nan, 2.0]);
        let mn = a.min(b).to_array();
        let mx = a.max(b).to_array();
        // Select semantics: NaN (or equality) in the compare yields the
        // second operand.
        assert_eq!(mn[0], 3.0);
        assert!(mn[1].is_nan());
        assert!(mn[2].is_nan());
        assert_eq!(mn[3], 2.0);
        assert_eq!(mx[0], 3.0);
        assert!(mx[1].is_nan());
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
            let got = V::splat(v).clamp(V::splat(lo), V::splat(hi)).to_array()[0];
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
        let r = 2.0 * x * (x - 1.0) + 1.0;
        assert_eq!(r.to_array()[0], 13.0);
        assert_eq!((-x).to_array()[2], -3.0);
        assert_eq!((x / 2.0).to_array()[3], 1.5);
        let mut out = [0.0; 4];
        r.store(&mut out);
        assert_eq!(out, [13.0; 4]);
        assert_eq!(
            V::load(&[1.0, 2.0, 3.0, 4.0]).to_array(),
            [1.0, 2.0, 3.0, 4.0]
        );
    }
}

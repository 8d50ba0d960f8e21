//! Elementwise activation functions.
//!
//! [`Activation::Tanh`] evaluates [`tanh`], this crate's own hyperbolic
//! tangent, rather than the platform libm's `f64::tanh`: libm results are
//! only promised to be faithful, not identical across platforms, while
//! [`tanh`] is a fixed sequence of IEEE-754 additions, multiplications and
//! one division, so a trained checkpoint has the same bytes wherever it is
//! built.

use serde::{Deserialize, Serialize};

/// An elementwise non-linearity applied after a dense layer's affine map.
///
/// The paper's projection layers are tanh-style non-linearities (following the
/// DSSM lineage it cites); ReLU variants are provided for the baselines and
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x` — used for the final embedding layer so cosine scores see an
    /// unsquashed space.
    Identity,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Leaky ReLU with slope `alpha` for negative inputs.
    LeakyRelu {
        /// Negative-side slope (typically 0.01).
        alpha: f64,
    },
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Identity => z,
            Activation::Relu => z.max(0.0),
            Activation::LeakyRelu { alpha } => {
                if z >= 0.0 {
                    z
                } else {
                    alpha * z
                }
            }
            Activation::Tanh => tanh(z),
            Activation::Sigmoid => rll_tensor::ops::sigmoid(z),
        }
    }

    /// True when [`Self::derivative`] reads the pre-activation `z`. The
    /// others are functions of the activation `a = f(z)` alone, so a layer
    /// cache can drop `z`.
    pub fn derivative_reads_z(self) -> bool {
        matches!(self, Activation::Relu | Activation::LeakyRelu { .. })
    }

    /// Derivative with respect to the pre-activation `z`, given both `z` and
    /// the already-computed activation `a = f(z)` (avoids recomputing
    /// transcendental functions in the backward pass).
    #[inline]
    pub fn derivative(self, z: f64, a: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu { alpha } => {
                if z > 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// `ln 2` split Cody–Waite style: `LN2_HI` has its low 32 significand bits
/// clear, so `k · LN2_HI` is exact for every `|k| < 2^20`, and
/// `LN2_HI + LN2_LO` carries `ln 2` to about 2^-85.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `1.5 · 2^52`: adding it to a float of magnitude below `2^51` rounds that
/// float to the nearest integer, which then sits in the low significand
/// bits of the sum.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `1/n!` for `n = 2..=13`: the Taylor coefficients of
/// `(expm1(r) - r) / r^2`. With `|r| ≤ ln2/2` the truncated tail is below
/// `2^-60` relative.
const EXPM1_COEFFS: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `e^y - 1` for `-44 ≤ y ≤ 0`, the range [`tanh`] calls it on.
///
/// Cody–Waite reduction `y = k·ln2 + r` with `|r| ≤ ln2/2`, the fixed
/// degree-13 polynomial above for `expm1(r)` (Estrin's scheme, so the
/// multiplications of one call overlap), then
/// `expm1(y) = 2^k·expm1(r) + (2^k - 1)`. `2^k - 1` is exact down to
/// `k = -53`; below that its rounding is under an ulp of `-1`.
#[inline]
fn expm1_reduced(y: f64) -> f64 {
    let shifted = y * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let c = &EXPM1_COEFFS;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let q01 = (c[0] + r * c[1]) + r2 * (c[2] + r * c[3]);
    let q23 = (c[4] + r * c[5]) + r2 * (c[6] + r * c[7]);
    let q45 = (c[8] + r * c[9]) + r2 * (c[10] + r * c[11]);
    let expm1_r = r + r2 * ((q01 + r4 * q23) + r8 * q45);
    // `k` (an integer in -64..=0) sits two's-complement in the low bits of
    // `shifted`; adding the exponent bias and shifting builds 2^k.
    let two_k = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    two_k * expm1_r + (two_k - 1.0)
}

/// Hyperbolic tangent from IEEE-754 arithmetic alone: no libm call, no
/// fused multiply-add, so the result bits are the same on every platform.
///
/// Computes `em = expm1(-2|x|)` (Cody–Waite reduction and a fixed
/// polynomial, see `expm1_reduced`), then
/// `tanh(|x|) = -em / (em + 2)`, and restores the sign of `x`. Within 3 ulp
/// of glibc's `f64::tanh` over a dense sweep (the tests assert 4); exact
/// at `±0`, subnormals and `±inf`; NaN propagates. `|x|` is clamped to 22
/// first, where `tanh` already rounds to 1, so the reduction never sees
/// more than `k = 64`.
///
/// Branch-free, so the compiler can vectorize a loop of calls.
#[inline]
pub fn tanh(x: f64) -> f64 {
    // `f64::min` returns 22 for a NaN input; the final select puts it back.
    let ax = x.abs().min(22.0);
    let em = expm1_reduced(-2.0 * ax);
    let t = (-em / (em + 2.0)).copysign(x);
    if x.is_nan() {
        x
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 5] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu { alpha: 0.01 },
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn apply_known_values() {
        assert_eq!(Activation::Identity.apply(-3.0), -3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::LeakyRelu { alpha: 0.1 }.apply(-2.0), -0.2);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ACTS {
            for &z in &[-2.0, -0.5, 0.3, 1.7, 4.0] {
                let a = act.apply(z);
                let analytic = act.derivative(z, a);
                let numeric = (act.apply(z + eps) - act.apply(z - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{act:?} at z={z}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn derivative_reads_z_only_where_declared() {
        for act in ACTS {
            if act.derivative_reads_z() {
                continue;
            }
            for &z in &[-2.0, -0.5, 0.3, 1.7] {
                let a = act.apply(z);
                assert_eq!(act.derivative(z, a), act.derivative(f64::NAN, a), "{act:?}");
            }
        }
    }

    #[test]
    fn relu_derivative_zero_on_negative_side() {
        assert_eq!(Activation::Relu.derivative(-1.0, 0.0), 0.0);
        assert_eq!(
            Activation::LeakyRelu { alpha: 0.2 }.derivative(-1.0, -0.2),
            0.2
        );
    }

    #[test]
    fn bounded_activations_stay_bounded() {
        for &z in &[-100.0, -10.0, 0.0, 10.0, 100.0] {
            let t = Activation::Tanh.apply(z);
            assert!((-1.0..=1.0).contains(&t));
            let s = Activation::Sigmoid.apply(z);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    /// Distance in units in the last place, over the ordered bit patterns.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        (ordered(a) - ordered(b)).unsigned_abs()
    }

    /// The ulp bound asserted against the platform's `f64::tanh`. A
    /// 10^8-point sweep of [-25, 25] against glibc peaks at 3.
    const TANH_MAX_ULPS: u64 = 4;

    #[test]
    fn tanh_within_bound_of_libm_on_dense_sweep() {
        let n = 400_000;
        let mut worst = (0, 0.0);
        for i in 0..=n {
            let x = -25.0 + 50.0 * i as f64 / n as f64;
            let err = ulps(tanh(x), x.tanh());
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(
            worst.0 <= TANH_MAX_ULPS,
            "{} ulp at x = {:e}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn tanh_within_bound_of_libm_on_tiny_and_subnormal_inputs() {
        // Mantissas scaled down through every binade, normal and subnormal.
        for e in 0..=1074 {
            for m in [1.0, 1.25, 1.5, 1.999_999_999, std::f64::consts::PI / 2.0] {
                let x = m * 2f64.powi(-e);
                for x in [x, -x] {
                    let err = ulps(tanh(x), x.tanh());
                    assert!(err <= TANH_MAX_ULPS, "{err} ulp at x = {x:e}");
                }
            }
        }
        // Below 2^-28, tanh(x) rounds to x itself.
        for x in [1e-10, 5e-324, -5e-324, f64::MIN_POSITIVE, -1e-300] {
            assert_eq!(tanh(x).to_bits(), x.to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn tanh_special_values() {
        assert!(tanh(f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f64::MAX), 1.0);
        assert_eq!(tanh(-22.0), -1.0);
        assert_eq!(Activation::Tanh.apply(f64::NEG_INFINITY), -1.0);
        assert!(Activation::Tanh.apply(f64::NAN).is_nan());
    }

    #[test]
    fn tanh_is_odd_bitwise() {
        let n = 100_000;
        for i in 0..=n {
            let x = 30.0 * i as f64 / n as f64;
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
        }
    }

    /// Frozen outputs: these bits are what every platform must produce, so
    /// a trained checkpoint stays byte-identical across them. A change here
    /// is a change of every golden checkpoint hash.
    #[test]
    fn tanh_frozen_bits() {
        const FROZEN: [(f64, u64); 8] = [
            (-3.5, 0xbfef_f112_c63a_9078),
            (-0.75, 0xbfe4_5323_e552_f228),
            (-0.2299995, 0xbfcc_ee7b_439d_f987),
            (1e-5, 0x3ee4_f8b5_88e0_6854),
            (0.1, 0x3fb9_83d7_795f_413a),
            (0.5493061443340549, 0x3fe0_0000_0000_0001),
            (1.0, 0x3fe8_5efa_b514_f394),
            (12.0, 0x3fef_ffff_fff5_9f7c),
        ];
        for (x, bits) in FROZEN {
            assert_eq!(tanh(x).to_bits(), bits, "tanh({x:e}) = {:e}", tanh(x));
        }
    }

    #[test]
    fn serde_round_trip() {
        for act in ACTS {
            let json = serde_json::to_string(&act).unwrap();
            let back: Activation = serde_json::from_str(&json).unwrap();
            assert_eq!(act, back);
        }
    }
}

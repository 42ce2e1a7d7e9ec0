//! DoReFa-style uniform quantizers.
//!
//! DoReFa-Net quantizes activations by clipping to a bounded interval and
//! rounding to `2^k` uniform levels, and weights by rescaling to `[-1, 1]`
//! and rounding to `2^k` uniform levels — an **offset-binary** grid
//! `w = s·(n − (2^k−1)/2)`, `n ∈ 0..2^k−1`, with *no* zero level. We keep
//! that coding exactly (it is what makes 2-bit weights usable: a symmetric
//! signed grid collapses most of a Gaussian weight distribution onto the
//! zero code; see [`quantize_weights_symmetric`], kept for the ablation
//! study). The tanh pre-warp of the original DoReFa is omitted — it only
//! reshapes the float distribution before the same uniform rounding and
//! interacts badly with our small synthetic models.

use odq_tensor::Tensor;

use crate::qtensor::{QScheme, QTensor};

/// Quantize activations to unsigned `bits`-wide codes with zero point 0.
///
/// Values are clamped to `[0, clip]` and mapped uniformly onto
/// `0 ..= 2^bits - 1`; `scale = clip / (2^bits - 1)`.
///
/// # Panics
/// Panics if `bits` is 0 or > 15, or `clip <= 0`.
pub fn quantize_activation(x: &Tensor, bits: u8, clip: f32) -> QTensor {
    assert!((1..=15).contains(&bits), "activation bits must be in 1..=15");
    assert!(clip > 0.0, "clip must be positive");
    let scheme = QScheme::activation(bits);
    let max_code = scheme.max_code() as f32;
    let scale = clip / max_code;
    // Compute the forward mapping directly from max_code/clip: deriving it
    // as 1/scale loses a ulp and mis-rounds exact half-steps (e.g. 0.5 at
    // 4 bits must code to 8, not 7).
    let inv = max_code / clip;
    // A plain slice loop over `round_code`, so it vectorizes: `f32::round`
    // is a libm call per element on the baseline x86-64 target. `f32::max`
    // returns 0 for NaN, which then codes to 0 as `round() as i16` did.
    let mut codes = vec![0i16; x.numel()];
    for (c, &v) in codes.iter_mut().zip(x.as_slice()) {
        *c = round_code(v.max(0.0).min(clip) * inv) as i16;
    }
    QTensor { codes: Tensor::from_vec(x.shape().clone(), codes), scale, zero: 0.0, scheme }
}

/// `y.round() as i32` for `y` in `[0, 2^22]`, without a libm call: find
/// `floor(y)`, then add 1 when the dropped fraction is at least one half,
/// so ties round up, away from zero, as `f32::round` does.
///
/// Exact on that domain in every step. Adding and subtracting `2^23`
/// rounds `y` to a nearest integer `r` (every `f32` in `[2^23, 2^24)` is
/// an integer), and `floor(y)` is `r` or `r − 1`. `y − floor(y)` is exact
/// in `f32`, so the comparison sees the true fraction. The code then reads
/// out of the mantissa of `code + 2^23`. The more obvious
/// `y as i32 + ((y − (y as i32) as f32) >= 0.5) as i32` gives the same
/// codes, but Rust's saturating `as` conversion compiles to a scalar
/// conversion with NaN and overflow checks per element; this form is plain
/// float arithmetic, so a loop over it vectorizes on the baseline target.
///
/// `y` must not be NaN: the quantizer's `max(0)` maps NaN to 0 first, as
/// `round() as i16` does. `−0.0` gives 0.
#[inline]
pub(crate) fn round_code(y: f32) -> i32 {
    const TWO_23: f32 = 8_388_608.0;
    let nearest = (y + TWO_23) - TWO_23;
    let floor = nearest - (nearest > y) as i32 as f32;
    let code = floor + (y - floor >= 0.5) as i32 as f32;
    (code + TWO_23).to_bits() as i32 - TWO_23.to_bits() as i32
}

/// Quantize weights to DoReFa-style offset-binary codes (the default
/// weight quantizer throughout this repository).
///
/// `value = scale · (code − zero)` with `zero = (2^bits − 1)/2` and
/// `scale = 2·max|w| / (2^bits − 1)`: a uniform grid over
/// `[-max|w|, +max|w|]` whose levels straddle zero symmetrically.
///
/// An all-zero weight tensor quantizes to all-`zero`-adjacent codes with
/// scale 1 (every level decodes near 0).
pub fn quantize_weights(w: &Tensor, bits: u8) -> QTensor {
    assert!((2..=15).contains(&bits), "weight bits must be in 2..=15");
    let scheme = QScheme::weight(bits);
    let max_code = scheme.max_code() as f32; // 2^bits - 1
    let zero = max_code / 2.0;
    let max_abs = w.max_abs();
    let scale = if max_abs == 0.0 { 1.0 } else { 2.0 * max_abs / max_code };
    let inv = 1.0 / scale;
    let codes = w.map(|v| (v * inv + zero).round().clamp(0.0, max_code) as i16);
    QTensor { codes, scale, zero, scheme }
}

/// Quantize weights to signed-symmetric codes (ablation alternative to
/// [`quantize_weights`]): `scale = max|w| / (2^(bits-1) - 1)`, codes in
/// `-(2^(bits-1)-1) ..= 2^(bits-1)-1`, zero point 0.
///
/// At ≤4 bits this collapses most near-zero weights onto the zero code —
/// exactly the failure mode the `ablate_weight_coding` bench demonstrates.
pub fn quantize_weights_symmetric(w: &Tensor, bits: u8) -> QTensor {
    assert!((2..=16).contains(&bits), "weight bits must be in 2..=16");
    let scheme = QScheme::weight_symmetric(bits);
    let max_code = scheme.max_code() as f32;
    let max_abs = w.max_abs();
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / max_code };
    let inv = if max_abs == 0.0 { 1.0 } else { max_code / max_abs };
    let codes = w.map(|v| (v * inv).round().clamp(-max_code, max_code) as i16);
    QTensor { codes, scale, zero: 0.0, scheme }
}

/// Quantize→dequantize activations ("fake quantization").
///
/// Used in quantization-aware training: the forward pass sees quantized
/// values while the backward pass treats this as identity within the clip
/// range (straight-through estimator).
pub fn fake_quantize_activation(x: &Tensor, bits: u8, clip: f32) -> Tensor {
    quantize_activation(x, bits, clip).dequantize()
}

/// Quantize→dequantize weights onto the offset-binary grid,
/// straight-through in the backward pass.
pub fn fake_quantize_weights(w: &Tensor, bits: u8) -> Tensor {
    quantize_weights(w, bits).dequantize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_codes_cover_range() {
        let x = Tensor::from_vec([5], vec![-0.5, 0.0, 0.5, 1.0, 2.0]);
        let q = quantize_activation(&x, 4, 1.0);
        assert!(q.codes_in_range());
        assert_eq!(q.codes.as_slice(), &[0, 0, 8, 15, 15]); // clamp + round
        assert!((q.scale - 1.0 / 15.0).abs() < 1e-7);
        assert_eq!(q.zero, 0.0);
    }

    /// The quantizer's branch-free rounding agrees with the `f32::round`
    /// expression it replaces at 4 and 8 bits: on every half step and one
    /// ulp either side of it, on a dense sample of the clip range and
    /// beyond it, and on NaN, ±0 and ±∞.
    #[test]
    fn rounding_matches_f32_round() {
        let clip = 1.0f32;
        for bits in [4u8, 8] {
            let max_code = ((1u32 << bits) - 1) as f32;
            let inv = max_code / clip;
            let want = |v: f32| (v.clamp(0.0, clip) * inv).round() as i16;
            let mut xs = vec![f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, clip];
            for k in 0..(1u32 << bits) {
                let half = (k as f32 + 0.5) / inv;
                let below = f32::from_bits(half.to_bits() - 1);
                let above = f32::from_bits(half.to_bits() + 1);
                xs.extend([half, below, above]);
            }
            let mut state = 0x9E37_79B9u32 ^ bits as u32;
            for _ in 0..200_000 {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                xs.push((state >> 8) as f32 / (1u32 << 24) as f32 * 1.5 * clip - 0.25 * clip);
            }
            let q = quantize_activation(&Tensor::from_vec([xs.len()], xs.clone()), bits, clip);
            for (&v, &c) in xs.iter().zip(q.codes.as_slice()) {
                assert_eq!(c, want(v), "bits {bits} input {v:e} ({:#010x})", v.to_bits());
            }
        }
    }

    #[test]
    fn round_code_matches_round_across_its_domain() {
        for y in
            [0.0f32, -0.0, 0.5, 1.5, 2.5, 0.49999997, 7.4999995, 32_767.0, 4_194_303.5, 4_194_304.0]
        {
            assert_eq!(round_code(y), y.round() as i32, "{y:e}");
        }
    }

    #[test]
    fn activation_roundtrip_error_bounded() {
        let xs: Vec<f32> = (0..100).map(|i| i as f32 / 99.0).collect();
        let x = Tensor::from_vec([100], xs);
        for bits in [2u8, 4, 8] {
            let q = quantize_activation(&x, bits, 1.0);
            let err = q.dequantize().max_abs_diff(&x);
            let half_step = 0.5 / ((1 << bits) - 1) as f32;
            assert!(err <= half_step + 1e-6, "bits={bits}: err {err} > {half_step}");
        }
    }

    #[test]
    fn offset_weights_have_no_zero_level_and_bounded_error() {
        let ws: Vec<f32> = (0..101).map(|i| (i as f32 - 50.0) / 50.0).collect();
        let w = Tensor::from_vec([101], ws);
        for bits in [2u8, 4, 8] {
            let q = quantize_weights(&w, bits);
            assert!(q.codes_in_range(), "bits={bits}");
            // Every decoded level is nonzero (offset grid straddles 0).
            let back = q.dequantize();
            assert!(back.as_slice().iter().all(|&v| v != 0.0), "bits={bits}");
            // Roundtrip error bounded by half a step.
            let err = back.max_abs_diff(&w);
            assert!(err <= 0.5 * q.scale + 1e-6, "bits={bits}: err {err}");
        }
    }

    #[test]
    fn offset_weights_2bit_are_informative() {
        // Gaussian-ish small weights: symmetric 2-bit coding zeroes them,
        // offset coding keeps sign information.
        let ws: Vec<f32> = (0..64).map(|i| 0.3 * (((i * 37) % 64) as f32 / 32.0 - 1.0)).collect();
        let mut wmax = ws.clone();
        wmax.push(1.0); // one outlier sets the scale
        let w = Tensor::from_vec([65], wmax);
        let off = quantize_weights(&w, 2).dequantize();
        let sym = quantize_weights_symmetric(&w, 2).dequantize();
        let sym_zeroed = sym.as_slice().iter().filter(|&&v| v == 0.0).count();
        let off_zeroed = off.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(sym_zeroed > 40, "symmetric grid zeroes small weights: {sym_zeroed}");
        assert_eq!(off_zeroed, 0, "offset grid never zeroes");
        // Offset coding preserves the sign of most weights.
        let sign_ok = off
            .as_slice()
            .iter()
            .zip(w.as_slice())
            .filter(|(&q, &v)| q != 0.0 && v != 0.0 && q.signum() == v.signum())
            .count();
        assert!(sign_ok > 55, "offset coding should preserve signs: {sign_ok}");
    }

    #[test]
    fn symmetric_weights_codes() {
        let w = Tensor::from_vec([4], vec![-1.0, -0.5, 0.5, 1.0]);
        let q = quantize_weights_symmetric(&w, 4);
        assert!(q.codes_in_range());
        assert_eq!(q.codes.as_slice(), &[-7, -4, 4, 7]);
        assert_eq!(q.zero, 0.0);
    }

    #[test]
    fn zero_weights_do_not_divide_by_zero() {
        let w = Tensor::<f32>::zeros([8]);
        let q = quantize_weights(&w, 4);
        assert!(q.codes_in_range());
        // decoded values are all within half a (unit-scale) step of zero.
        assert!(q.dequantize().max_abs() <= 0.5 + 1e-6);
        let qs = quantize_weights_symmetric(&w, 4);
        assert!(qs.codes.as_slice().iter().all(|&c| c == 0));
    }

    #[test]
    fn fake_quant_matches_quant_dequant() {
        let x = Tensor::from_vec([3], vec![0.1, 0.6, 0.9]);
        let fq = fake_quantize_activation(&x, 4, 1.0);
        let qd = quantize_activation(&x, 4, 1.0).dequantize();
        assert_eq!(fq.as_slice(), qd.as_slice());

        let w = Tensor::from_vec([3], vec![-0.3, 0.2, 0.7]);
        let fw = fake_quantize_weights(&w, 4);
        let wd = quantize_weights(&w, 4).dequantize();
        assert_eq!(fw.as_slice(), wd.as_slice());
    }

    #[test]
    fn int16_symmetric_weights() {
        let w = Tensor::from_vec([3], vec![-2.0, 0.25, 2.0]);
        let q = quantize_weights_symmetric(&w, 16);
        assert_eq!(q.codes.as_slice()[0], -32767);
        assert_eq!(q.codes.as_slice()[2], 32767);
        assert!(q.dequantize().max_abs_diff(&w) < 1e-3);
    }

    #[test]
    fn finer_bits_never_increase_error() {
        let xs: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32 / 63.0).collect();
        let x = Tensor::from_vec([64], xs);
        let e2 = quantize_activation(&x, 2, 1.0).dequantize().mean_abs_diff(&x);
        let e4 = quantize_activation(&x, 4, 1.0).dequantize().mean_abs_diff(&x);
        let e8 = quantize_activation(&x, 8, 1.0).dequantize().mean_abs_diff(&x);
        assert!(e8 <= e4 && e4 <= e2, "{e8} <= {e4} <= {e2} violated");

        let ws: Vec<f32> = (0..64).map(|i| ((i * 53) % 64) as f32 / 32.0 - 1.0).collect();
        let w = Tensor::from_vec([64], ws);
        let w2 = quantize_weights(&w, 2).dequantize().mean_abs_diff(&w);
        let w4 = quantize_weights(&w, 4).dequantize().mean_abs_diff(&w);
        let w8 = quantize_weights(&w, 8).dequantize().mean_abs_diff(&w);
        assert!(w8 <= w4 && w4 <= w2, "{w8} <= {w4} <= {w2} violated");
    }
}

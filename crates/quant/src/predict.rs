//! The ODQ sensitivity predictor's output estimate.
//!
//! The predictor sees only the high-order activation plane `a_H` and the
//! high-order weight plane `n_H` (the paper's `I_HBS`, `W_HBS`). Writing
//! the full code-domain product as (Eq. 3, with `d = low_bits`,
//! `pow = 2^d`):
//!
//! ```text
//! Σ a·n = pow²·Σ a_H n_H + pow·Σ a_H n_L + pow·Σ a_L n_H + Σ a_L n_L
//! y     = s · (Σ a·n − z_w · Σ a),   Σ a = pow·Σ a_H + Σ a_L
//! ```
//!
//! the predictor computes `HH = Σ a_H n_H` exactly (its INT2 MACs) and,
//! at near-zero hardware cost, the running sum `SaH = Σ a_H` (one extra
//! accumulator on the same operand stream). The unseen low-plane terms
//! are replaced by their expectations, using offline per-filter constants
//! (`Σ n_H`, `Σ n_L`) and the mean low-plane activation `m = (pow−1)/2`:
//!
//! ```text
//! Σ a_H n_L ≈ (SaH / valid) · Σ n_L · valid / K   (per-output mean a_H)
//! Σ a_L n_H ≈ m · Σ n_H · valid / K
//! Σ a_L n_L ≈ m · Σ n_L · valid / K
//! Σ a       ≈ pow·SaH + m·valid
//! ```
//!
//! where `valid` is the output's in-bounds tap count and `K = col_len`.
//! The paper does not spell these corrections out; without them the raw
//! `HH` term is a *biased* estimator (the dropped planes are non-negative)
//! and the threshold comparison misfires — documented in DESIGN.md as an
//! implementation refinement.

use odq_tensor::{ConvGeom, Tensor};

use crate::bitsplit::BitPlanes;
use crate::qconv::{filter_code_sums, qconv2d_codes, receptive_sums, valid_tap_counts};

/// Predictor outputs for one layer.
pub struct OdqPrediction {
    /// Raw high×high partial sums `HH`, code domain, `[N, Co, OH, OW]`.
    pub hh: Tensor<i32>,
    /// High-plane receptive sums `SaH`, `[N, OH, OW]`.
    pub sa_h: Tensor<i32>,
    /// Value-domain output estimates `p̂` (scale applied),
    /// `[N, Co, OH, OW]` — what the hardware thresholds against and emits
    /// for insensitive outputs.
    pub estimate: Tensor,
}

/// Run the predictor: INT2 MACs over the high planes plus the expectation
/// corrections described in the module docs.
///
/// * `x_high` — high-order activation plane codes `[N, Ci, H, W]`;
/// * `w_planes` — weight bit planes;
/// * `w_zero` — the weight zero point `z_w`;
/// * `scale` — `s_a · s_w`.
pub fn odq_predict(
    x_high: &Tensor<i16>,
    w_planes: &BitPlanes,
    w_zero: f32,
    scale: f32,
    g: &ConvGeom,
) -> OdqPrediction {
    let hh = qconv2d_codes(x_high, &w_planes.high, g);
    let sa_h = receptive_sums(x_high, g);
    let valid = valid_tap_counts(g);
    let sum_nh = filter_code_sums(&w_planes.high, g.out_channels);
    let sum_nl = filter_code_sums(&w_planes.low, g.out_channels);
    let mut estimate = Tensor::zeros(hh.shape().clone());
    odq_estimate_precomputed(
        hh.as_slice(),
        sa_h.as_slice(),
        &sum_nh,
        &sum_nl,
        &valid,
        w_planes.low_bits,
        w_zero,
        scale,
        g,
        &mut Vec::new(),
        estimate.as_mut_slice(),
    );
    OdqPrediction { hh, sa_h, estimate }
}

/// The predictor's estimate when every input is already in hand: the `HH`
/// partial sums and `SaH` receptive sums from the lowered activations, and
/// the per-filter code sums / valid-tap counts prepacked in a layer plan.
/// This is the pure arithmetic core of [`odq_predict`], shared with the
/// planned ODQ kernel, so both produce bit-identical estimates.
///
/// `hh` and `est` are `[N, Co, OH, OW]`, `sa_h` is `[N, OH, OW]`. The
/// estimate is written into `est`, and `pixel_terms` is scratch for the
/// per-pixel terms (`pow·mean(a_H)`, the in-bounds fraction and the
/// zero-point correction), hoisted out of the per-output loop with the
/// oracle's f32 operation order kept, so a caller that keeps both buffers
/// estimates without allocating.
///
/// # Panics
/// Panics if a slice length does not match `g` and the batch `hh` implies.
#[allow(clippy::too_many_arguments)]
pub fn odq_estimate_precomputed(
    hh: &[i32],
    sa_h: &[i32],
    sum_nh: &[i32],
    sum_nl: &[i32],
    valid: &[u32],
    low_bits: u8,
    w_zero: f32,
    scale: f32,
    g: &ConvGeom,
    pixel_terms: &mut Vec<f32>,
    est: &mut [f32],
) {
    let pow = (1u32 << low_bits as u32) as f32;
    let mean_low = (pow - 1.0) / 2.0;
    let k = g.col_len() as f32;

    let co = g.out_channels;
    let spatial = g.out_spatial();
    let per_img = co * spatial;
    let n = hh.len() / per_img.max(1);
    assert_eq!(hh.len(), n * per_img, "hh length mismatch");
    assert_eq!(est.len(), hh.len(), "estimate length mismatch");
    assert_eq!(sa_h.len(), n * spatial, "sa_h length mismatch");
    assert_eq!(valid.len(), spatial, "valid-tap count length mismatch");
    assert!(sum_nh.len() == co && sum_nl.len() == co, "filter sum length mismatch");

    pixel_terms.resize(3 * spatial, 0.0);
    let (pow_mean_ah, rest) = pixel_terms.split_at_mut(spatial);
    let (frac, zero_corr) = rest.split_at_mut(spatial);
    let images = hh.chunks_exact(per_img.max(1)).zip(est.chunks_exact_mut(per_img.max(1)));
    for ((hh, est), sahs) in images.zip(sa_h.chunks_exact(spatial)) {
        for sp in 0..spatial {
            let v = valid[sp] as f32;
            let sah = sahs[sp] as f32;
            let mean_ah = if v > 0.0 { sah / v } else { 0.0 };
            pow_mean_ah[sp] = pow * mean_ah;
            frac[sp] = v / k;
            zero_corr[sp] = w_zero * (pow * sah + mean_low * v);
        }
        let filters = hh.chunks_exact(spatial).zip(est.chunks_exact_mut(spatial));
        for ((hh_f, est_f), (&snh, &snl)) in filters.zip(sum_nh.iter().zip(sum_nl)) {
            let (snh, snl) = (snh as f32, snl as f32);
            let (high_low, low_low) = (pow * mean_low * snh, mean_low * snl);
            let pixels = pow_mean_ah.iter().zip(&*frac).zip(&*zero_corr);
            for ((e, &hh_v), ((&pm, &frac), &z)) in est_f.iter_mut().zip(hh_f).zip(pixels) {
                // Each of the K weights pairs with a tap that is only
                // `valid/K` likely to be in bounds at this output, so every
                // expectation term carries `frac`. Same operation order as
                // the un-hoisted expression, term by term.
                let code_est =
                    pow * pow * hh_v as f32 + pm * snl * frac + high_low * frac + low_low * frac
                        - z;
                *e = scale * code_est;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsplit::split_qtensor;
    use crate::dorefa::{quantize_activation, quantize_weights};
    use crate::qconv::qconv2d;

    fn pseudo(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 2654435761 + seed * 97) % 1000) as f32 / 1000.0).collect()
    }

    fn pseudo_signed(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 40503 + seed * 31) % 1000) as f32 / 500.0 - 1.0).collect()
    }

    fn setup() -> (Tensor, Tensor, ConvGeom) {
        let g = ConvGeom::new(4, 6, 10, 10, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(2), pseudo(2 * 4 * 100, 3));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(6 * 4 * 9, 4));
        (x, w, g)
    }

    #[test]
    fn estimate_is_nearly_unbiased() {
        let (x, w, g) = setup();
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let full = qconv2d(&qx, &qw, &g);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);

        let mut bias = 0.0f64;
        for (e, f) in pred.estimate.as_slice().iter().zip(full.as_slice()) {
            bias += (*e - *f) as f64;
        }
        bias /= full.numel() as f64;
        let spread = odq_tensor::stats::std_dev(full.as_slice()) as f64;
        assert!(
            bias.abs() < 0.15 * spread,
            "estimate bias {bias:.4} too large vs output spread {spread:.4}"
        );
    }

    #[test]
    fn estimate_correlates_with_full_output() {
        let (x, w, g) = setup();
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let full = qconv2d(&qx, &qw, &g);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);

        // Pearson correlation between estimate and full output.
        let e = pred.estimate.as_slice();
        let f = full.as_slice();
        let n = e.len() as f64;
        let me = e.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mf = f.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut ve = 0.0;
        let mut vf = 0.0;
        for (&a, &b) in e.iter().zip(f) {
            cov += (a as f64 - me) * (b as f64 - mf);
            ve += (a as f64 - me).powi(2);
            vf += (b as f64 - mf).powi(2);
        }
        let r = cov / (ve.sqrt() * vf.sqrt()).max(1e-12);
        assert!(r > 0.9, "predictor estimate should track the output: r = {r:.3}");
    }

    #[test]
    fn prediction_masks_agree_with_truth() {
        let (x, w, g) = setup();
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let full = qconv2d(&qx, &qw, &g);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);

        // Threshold at the 70th percentile of |full|.
        let abs: Vec<f32> = full.as_slice().iter().map(|v| v.abs()).collect();
        let thr = odq_tensor::stats::quantile(&abs, 0.7);
        let (mut agree, mut hit, mut truth_count) = (0usize, 0usize, 0usize);
        for (e, f) in pred.estimate.as_slice().iter().zip(full.as_slice()) {
            let p = e.abs() >= thr;
            let t = f.abs() >= thr;
            agree += (p == t) as usize;
            if t {
                truth_count += 1;
                hit += p as usize;
            }
        }
        let n = full.numel();
        let agree_frac = agree as f64 / n as f64;
        let recall = hit as f64 / truth_count.max(1) as f64;
        assert!(agree_frac > 0.85, "agreement {agree_frac:.3}");
        assert!(recall > 0.7, "sensitive recall {recall:.3}");
    }

    /// All-zero filter bank: `max|w| == 0` degenerates the weight scale to
    /// 1.0 and every code to the (rounded) zero point. The predictor must
    /// produce finite estimates — the per-filter code sums are constants,
    /// not zeros, and nothing divides by them.
    #[test]
    fn all_zero_filter_predicts_finite_estimates() {
        let g = ConvGeom::new(3, 2, 6, 6, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(1), pseudo(3 * 36, 5));
        let w = Tensor::<f32>::zeros(g.weight_shape());
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);
        assert!(pred.estimate.as_slice().iter().all(|v| v.is_finite()));
        // Dequantized all-zero weights are a constant (code − zero)·scale
        // per tap, so the exact code-domain output is that constant times
        // Σa — and the estimate must track the same near-zero magnitude.
        let full = qconv2d(&qx, &qw, &g);
        let worst = pred
            .estimate
            .as_slice()
            .iter()
            .zip(full.as_slice())
            .map(|(e, f)| (e - f).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 1.0, "estimate should stay near the exact output, worst gap {worst}");
    }

    /// Saturating INT2: inputs far above the clip all quantize to the top
    /// code (3 = 0b11), so with a 1-bit split the high plane is all-ones
    /// and `HH` at a fully-valid output equals the filter's high-plane
    /// code sum exactly.
    #[test]
    fn saturating_int2_high_plane_sums_are_exact() {
        let g = ConvGeom::new(2, 3, 4, 4, 3, 1, 0);
        let x = Tensor::from_vec(g.input_shape(1), vec![7.5f32; 2 * 16]);
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(3 * 2 * 9, 9));
        let qx = quantize_activation(&x, 2, 1.0);
        assert!(qx.codes.as_slice().iter().all(|&c| c == 3), "all inputs must saturate");
        let qw = quantize_weights(&w, 2);
        let xp = split_qtensor(&qx, 1);
        let wp = split_qtensor(&qw, 1);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);
        let snh = filter_code_sums(&wp.high, g.out_channels);
        let spatial = g.out_spatial();
        for (f, &expected) in snh.iter().enumerate() {
            for sp in 0..spatial {
                assert_eq!(
                    pred.hh.as_slice()[f * spatial + sp],
                    expected,
                    "filter {f} output {sp}: HH must equal Σ n_H when a_H ≡ 1"
                );
            }
        }
        assert!(pred.estimate.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Single-pixel feature map with padding: a 1×1 input under a 1×1
    /// kernel and padding 1 yields a 3×3 output where all eight border
    /// outputs see *zero* in-bounds taps. Those outputs must take the
    /// `valid == 0` guard (mean a_H is 0, not 0/0) and come out exactly
    /// 0.0; only the centre carries signal.
    #[test]
    fn single_pixel_feature_map_padding_only_outputs_are_zero() {
        let g = ConvGeom::new(2, 2, 1, 1, 1, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
        let x = Tensor::from_vec(g.input_shape(1), vec![0.9f32, 0.4]);
        let w = Tensor::from_vec(g.weight_shape(), vec![0.7f32, -0.3, 0.5, 0.2]);
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);
        let est = pred.estimate.as_slice();
        let spatial = g.out_spatial();
        for f in 0..g.out_channels {
            for sp in 0..spatial {
                let v = est[f * spatial + sp];
                if sp == 4 {
                    assert!(v.is_finite(), "centre estimate must be finite, got {v}");
                } else {
                    assert_eq!(v, 0.0, "filter {f} border output {sp} sees only padding");
                }
            }
        }
    }

    #[test]
    fn shapes() {
        let (x, w, g) = setup();
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let pred = odq_predict(&xp.high, &wp, qw.zero, qx.scale * qw.scale, &g);
        assert_eq!(pred.estimate.dims(), g.output_shape(2).0.as_slice());
        assert_eq!(pred.hh.dims(), g.output_shape(2).0.as_slice());
        assert_eq!(pred.sa_h.dims(), &[2, g.out_h(), g.out_w()]);
    }
}

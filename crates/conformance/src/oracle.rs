//! Scalar golden-oracle kernels.
//!
//! Every function here is a deliberately slow, obviously-correct
//! transcription of one piece of the quantized-convolution pipeline —
//! plain nested loops over `(image, filter, output y, output x, channel,
//! kernel y, kernel x)`, no im2col, no rayon, no GEMM, no fusion. They
//! exist so the production engines (per-call kernels, planned drivers,
//! the ODQ kernel's sensitive-only executor, the serving fleet) can all be pinned
//! to one independent reference instead of only to each other.
//!
//! Numerical contract (asserted by `tests/conformance.rs`):
//!
//! * **Integer paths are bit-exact.** Integer accumulation is associative,
//!   so the naive loops here must agree with the GEMM paths to the last
//!   bit, as must every f32 expression computed *from* those integers —
//!   the oracle transcribes the engines' dequantization / estimate
//!   operation orders exactly (see the doc comments on each function).
//! * **The float path is bit-exact too**, because the oracle accumulates
//!   each output's taps in the same `(channel, ky, kx)` order as the
//!   im2col rows, and `gemm_f32` reduces every output element
//!   sequentially over exactly that order. The ≤1-ulp allowance in the
//!   conformance tests is headroom for future reduction-order changes,
//!   not something the current kernels need.
//!
//! Paper references: Eq. 2 (convolution), Eq. 3 (bit-plane split
//! `Σ a·n = 2^2d·HH + 2^d·(HL+LH) + LL`), Sec. 3 step 1 (predictor =
//! `HH` + receptive sums + offline per-filter constants), Sec. 3 step 2
//! (executor computes the three cross terms for sensitive outputs only).

use odq_core::odq_conv::OdqCfg;
use odq_drq::drq_conv::DrqCfg;
use odq_tensor::ConvGeom;

/// A scalar quantization result: codes plus the affine decode parameters
/// (`value = scale · (code − zero)`).
#[derive(Clone, Debug)]
pub struct RefQuant {
    /// Quantized codes, same layout as the input slice.
    pub codes: Vec<i16>,
    /// Decode scale.
    pub scale: f32,
    /// Decode zero point (offset-binary weights; 0 for activations).
    pub zero: f32,
}

fn max_abs(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// DoReFa activation quantizer (scalar transcription of
/// `odq_quant::dorefa::quantize_activation`): clamp to `[0, clip]`, then
/// `code = round(v · (2^bits − 1)/clip)`.
///
/// The forward mapping multiplies by `max_code/clip` directly — deriving
/// it as `1/scale` would lose a ulp and mis-round exact half-steps.
pub fn ref_quantize_activation(x: &[f32], bits: u8, clip: f32) -> RefQuant {
    assert!((1..=15).contains(&bits), "activation bits must be in 1..=15");
    assert!(clip > 0.0, "clip must be positive");
    let max_code = ((1i32 << bits) - 1) as f32;
    let scale = clip / max_code;
    let inv = max_code / clip;
    let codes = x.iter().map(|&v| (v.clamp(0.0, clip) * inv).round() as i16).collect();
    RefQuant { codes, scale, zero: 0.0 }
}

/// DoReFa offset-binary weight quantizer (scalar transcription of
/// `odq_quant::dorefa::quantize_weights`): a uniform grid over
/// `[-max|w|, +max|w|]` with zero point `(2^bits − 1)/2` and no zero
/// level.
pub fn ref_quantize_weights(w: &[f32], bits: u8) -> RefQuant {
    assert!((2..=15).contains(&bits), "weight bits must be in 2..=15");
    let max_code = ((1i32 << bits) - 1) as f32;
    let zero = max_code / 2.0;
    let ma = max_abs(w);
    let scale = if ma == 0.0 { 1.0 } else { 2.0 * ma / max_code };
    let inv = 1.0 / scale;
    let codes = w.iter().map(|&v| (v * inv + zero).round().clamp(0.0, max_code) as i16).collect();
    RefQuant { codes, scale, zero }
}

/// Signed-symmetric weight quantizer (scalar transcription of
/// `odq_quant::dorefa::quantize_weights_symmetric`, the ablation coding
/// used by 16-bit static quantization).
pub fn ref_quantize_weights_symmetric(w: &[f32], bits: u8) -> RefQuant {
    assert!((2..=16).contains(&bits), "weight bits must be in 2..=16");
    let max_code = ((1i32 << (bits - 1)) - 1) as f32;
    let ma = max_abs(w);
    let scale = if ma == 0.0 { 1.0 } else { ma / max_code };
    let inv = if ma == 0.0 { 1.0 } else { max_code / ma };
    let codes = w.iter().map(|&v| (v * inv).round().clamp(-max_code, max_code) as i16).collect();
    RefQuant { codes, scale, zero: 0.0 }
}

/// Eq. 3 bit-plane split: `high = c >> low_bits`, `low = c & (2^low_bits − 1)`.
pub fn ref_split_codes(codes: &[i16], low_bits: u8) -> (Vec<i16>, Vec<i16>) {
    assert!(low_bits > 0 && low_bits < 15, "low_bits must be in 1..15");
    let mask = (1i16 << low_bits) - 1;
    (codes.iter().map(|&c| c >> low_bits).collect(), codes.iter().map(|&c| c & mask).collect())
}

/// Iterate one output's receptive field in im2col row order
/// `(channel, ky, kx)`, yielding the flat input index (`None` for padded
/// taps). This single helper fixes the tap order for every oracle kernel.
fn for_each_tap(g: &ConvGeom, oy: usize, ox: usize, mut f: impl FnMut(Option<usize>)) {
    let (h, w, k) = (g.in_h as isize, g.in_w as isize, g.kernel);
    for ci in 0..g.in_channels {
        for ki in 0..k {
            let iy = (oy * g.stride + ki) as isize - g.padding as isize;
            for kj in 0..k {
                let ix = (ox * g.stride + kj) as isize - g.padding as isize;
                if iy < 0 || iy >= h || ix < 0 || ix >= w {
                    f(None);
                } else {
                    f(Some((ci as isize * h * w + iy * w + ix) as usize));
                }
            }
        }
    }
}

/// Naive f32 convolution (Eq. 2): `x: [n, Ci, H, W]` flat, `w: [Co, Ci,
/// K, K]` flat, optional per-channel bias, output `[n, Co, OH, OW]` flat.
///
/// The accumulation visits taps in im2col row order and skips zero
/// *weights* (padded inputs still contribute a literal `w·0.0` add) —
/// exactly the reduction `gemm_f32` performs — so this matches
/// `odq_tensor::conv::conv2d` bit for bit.
pub fn ref_conv2d(x: &[f32], w: &[f32], bias: Option<&[f32]>, n: usize, g: &ConvGeom) -> Vec<f32> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let in_sz = g.in_channels * g.in_h * g.in_w;
    let kk = g.in_channels * g.kernel * g.kernel;
    assert_eq!(x.len(), n * in_sz, "input length mismatch");
    assert_eq!(w.len(), g.out_channels * kk, "weight length mismatch");
    let mut out = vec![0.0f32; n * g.out_channels * oh * ow];
    for img in 0..n {
        let xi = &x[img * in_sz..(img + 1) * in_sz];
        for co in 0..g.out_channels {
            let wf = &w[co * kk..(co + 1) * kk];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    let mut t = 0usize;
                    for_each_tap(g, oy, ox, |src| {
                        let wv = wf[t];
                        t += 1;
                        if wv == 0.0 {
                            return;
                        }
                        let xv = src.map_or(0.0, |i| xi[i]);
                        acc += wv * xv;
                    });
                    let mut v = acc;
                    if let Some(b) = bias {
                        v += b[co];
                    }
                    out[((img * g.out_channels + co) * oh + oy) * ow + ox] = v;
                }
            }
        }
    }
    out
}

/// Naive integer convolution `Σ a·n` with `i64` accumulation (exact for
/// every bit-width pairing in the workspace; narrower engine paths that
/// accumulate in `i32` agree exactly because they are asserted not to
/// overflow).
pub fn ref_qconv2d_codes(x: &[i16], w: &[i16], n: usize, g: &ConvGeom) -> Vec<i64> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let in_sz = g.in_channels * g.in_h * g.in_w;
    let kk = g.in_channels * g.kernel * g.kernel;
    assert_eq!(x.len(), n * in_sz, "input length mismatch");
    assert_eq!(w.len(), g.out_channels * kk, "weight length mismatch");
    let mut out = vec![0i64; n * g.out_channels * oh * ow];
    for img in 0..n {
        let xi = &x[img * in_sz..(img + 1) * in_sz];
        for co in 0..g.out_channels {
            let wf = &w[co * kk..(co + 1) * kk];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i64;
                    let mut t = 0usize;
                    for_each_tap(g, oy, ox, |src| {
                        if let Some(i) = src {
                            acc += wf[t] as i64 * xi[i] as i64;
                        }
                        t += 1;
                    });
                    out[((img * g.out_channels + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Receptive sums `Σ a`: per output *position* (shared by all filters),
/// the sum of in-bounds input codes in its receptive field. `[n, OH, OW]`
/// flat.
pub fn ref_receptive_sums(x: &[i16], n: usize, g: &ConvGeom) -> Vec<i32> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let in_sz = g.in_channels * g.in_h * g.in_w;
    assert_eq!(x.len(), n * in_sz, "input length mismatch");
    let mut out = vec![0i32; n * oh * ow];
    for img in 0..n {
        let xi = &x[img * in_sz..(img + 1) * in_sz];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
                for_each_tap(g, oy, ox, |src| {
                    if let Some(i) = src {
                        acc += xi[i] as i32;
                    }
                });
                out[(img * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

/// Per-output-position count of in-bounds taps (spatial taps × input
/// channels), `[OH, OW]` flat — the predictor's `valid` constants.
pub fn ref_valid_tap_counts(g: &ConvGeom) -> Vec<u32> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = vec![0u32; oh * ow];
    for oy in 0..oh {
        for ox in 0..ow {
            let mut c = 0u32;
            for_each_tap(g, oy, ox, |src| {
                if src.is_some() {
                    c += 1;
                }
            });
            out[oy * ow + ox] = c;
        }
    }
    out
}

/// Per-filter code sums `Σ n` over one filter's weights, `[Co]`.
pub fn ref_filter_code_sums(w: &[i16], out_channels: usize) -> Vec<i32> {
    let kk = w.len() / out_channels;
    (0..out_channels).map(|co| w[co * kk..(co + 1) * kk].iter().map(|&c| c as i32).sum()).collect()
}

/// Affine-dequantized integer convolution
/// `y = s_a·s_w · (Σ a·n − z_w · Σ a)` — the scalar counterpart of
/// `odq_quant::qconv::qconv2d`. The f32 expression matches the engine's
/// operation order (`s · (p − z_w·Σa)` with the integer product converted
/// to f32 first; with `z_w = 0` the correction is `+0.0`), so results are
/// bit-exact.
pub fn ref_qconv2d_affine(x: &RefQuant, w: &RefQuant, n: usize, g: &ConvGeom) -> Vec<f32> {
    let s = x.scale * w.scale;
    let zw = w.zero;
    let p = ref_qconv2d_codes(&x.codes, &w.codes, n, g);
    let spatial = g.out_spatial();
    let co = g.out_channels;
    let mut out = vec![0.0f32; n * co * spatial];
    if zw != 0.0 {
        let sa = ref_receptive_sums(&x.codes, n, g);
        for img in 0..n {
            for f in 0..co {
                let base = (img * co + f) * spatial;
                for sp in 0..spatial {
                    let a_sum = sa[img * spatial + sp] as f32;
                    out[base + sp] = s * (p[base + sp] as f32 - zw * a_sum);
                }
            }
        }
    } else {
        for (o, &pv) in out.iter_mut().zip(&p) {
            *o = s * pv as f32;
        }
    }
    out
}

/// The predictor's estimate (Sec. 3 step 1 / DESIGN.md §6.2): `HH` plus
/// expectation corrections for the unseen low planes. A term-for-term
/// transcription of `odq_quant::predict::odq_estimate_precomputed`'s f32
/// operation order, so results are bit-identical given identical integer
/// inputs.
#[allow(clippy::too_many_arguments)]
pub fn ref_odq_estimate(
    hh: &[i64],
    sa_h: &[i32],
    sum_nh: &[i32],
    sum_nl: &[i32],
    valid: &[u32],
    low_bits: u8,
    w_zero: f32,
    scale: f32,
    n: usize,
    g: &ConvGeom,
) -> Vec<f32> {
    let pow = (1u32 << low_bits as u32) as f32;
    let mean_low = (pow - 1.0) / 2.0;
    let k = g.col_len() as f32;
    let co = g.out_channels;
    let spatial = g.out_spatial();
    let mut est = vec![0.0f32; n * co * spatial];
    for img in 0..n {
        for f in 0..co {
            let snh = sum_nh[f] as f32;
            let snl = sum_nl[f] as f32;
            let base = (img * co + f) * spatial;
            for sp in 0..spatial {
                let v = valid[sp] as f32;
                let sah = sa_h[img * spatial + sp] as f32;
                let hh_v = hh[base + sp] as f32;
                let mean_ah = if v > 0.0 { sah / v } else { 0.0 };
                let frac = v / k;
                let code_est = pow * pow * hh_v
                    + pow * mean_ah * snl * frac
                    + pow * mean_low * snh * frac
                    + mean_low * snl * frac
                    - w_zero * (pow * sah + mean_low * v);
                est[base + sp] = scale * code_est;
            }
        }
    }
    est
}

/// Scalar ODQ convolution output: the composed result, the predictor's
/// sensitivity mask, and the exact-INT reference (Eq. 3 fully evaluated
/// everywhere).
pub struct RefOdqOutput {
    /// Composed outputs (`sensitive ? exact : estimate`), `[n, Co, OH, OW]`.
    pub output: Vec<f32>,
    /// Predictor mask (`|p̂| ≥ threshold`), same layout.
    pub mask: Vec<bool>,
    /// Exact reference (both planes everywhere), same layout.
    pub reference: Vec<f32>,
}

/// Two-step ODQ convolution, scalar form (Sec. 3 / Eq. 3): quantize,
/// split planes, compute `HH` (predictor) and the three cross terms
/// `HL`, `LH`, `LL` (executor) with naive loops, estimate, threshold,
/// compose. The composition's f32 expressions transcribe
/// `odq_core::odq_conv::odq_conv2d_planned` operation for operation.
pub fn ref_odq_conv2d(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    n: usize,
    g: &ConvGeom,
    cfg: &OdqCfg,
) -> RefOdqOutput {
    let qx = ref_quantize_activation(x, cfg.a_bits, cfg.a_clip);
    let qw = ref_quantize_weights(w, cfg.w_bits);
    let scale = qx.scale * qw.scale;
    let d = cfg.low_bits;

    let (xh, xl) = ref_split_codes(&qx.codes, d);
    let (wh, wl) = ref_split_codes(&qw.codes, d);

    // Eq. 3's four partial products, each a naive integer conv.
    let hh = ref_qconv2d_codes(&xh, &wh, n, g);
    let hl = ref_qconv2d_codes(&xh, &wl, n, g);
    let lh = ref_qconv2d_codes(&xl, &wh, n, g);
    let ll = ref_qconv2d_codes(&xl, &wl, n, g);

    // Predictor inputs (Sec. 3 step 1).
    let sa_h = ref_receptive_sums(&xh, n, g);
    let sum_nh = ref_filter_code_sums(&wh, g.out_channels);
    let sum_nl = ref_filter_code_sums(&wl, g.out_channels);
    let valid = ref_valid_tap_counts(g);
    let est = ref_odq_estimate(&hh, &sa_h, &sum_nh, &sum_nl, &valid, d, qw.zero, scale, n, g);

    // Eq. 3 recombination: Σ a·n = 2^2d·HH + 2^d·(HL+LH) + LL.
    let full_codes: Vec<i64> =
        (0..hh.len()).map(|i| (hh[i] << (2 * d)) + ((hl[i] + lh[i]) << d) + ll[i]).collect();
    let sa = ref_receptive_sums(&qx.codes, n, g);

    let spatial = g.out_spatial();
    let co = g.out_channels;
    let total = n * co * spatial;
    let mut mask = vec![false; total];
    let mut out = vec![0.0f32; total];
    let mut reference = vec![0.0f32; total];
    for img in 0..n {
        for f in 0..co {
            let base = (img * co + f) * spatial;
            for sp in 0..spatial {
                let i = base + sp;
                let full = scale * (full_codes[i] as f32 - qw.zero * sa[img * spatial + sp] as f32);
                let p_hat = est[i];
                let sensitive = p_hat.abs() >= cfg.threshold;
                mask[i] = sensitive;
                out[i] = if sensitive { full } else { p_hat };
                reference[i] = full;
            }
        }
    }
    if let Some(b) = bias {
        ref_add_bias(&mut out, b, n, g);
        ref_add_bias(&mut reference, b, n, g);
    }
    RefOdqOutput { output: out, mask, reference }
}

/// Scalar DRQ convolution output.
pub struct RefDrqOutput {
    /// Mixed-precision outputs, `[n, Co, OH, OW]` flat.
    pub output: Vec<f32>,
    /// Per-input-feature sensitivity (true = high precision), `[n, Ci, H, W]`.
    pub input_mask: Vec<bool>,
}

/// DRQ's input-region sensitivity mask, scalar transcription of
/// `odq_drq::drq_conv::region_sensitivity_mask`: each `region × region`
/// tile (clipped at borders) of each channel is sensitive iff its mean
/// `|value|` meets the threshold.
pub fn ref_region_mask(
    x: &[f32],
    n: usize,
    g: &ConvGeom,
    region: usize,
    threshold: f32,
) -> Vec<bool> {
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let r = region.max(1);
    let mut mask = vec![false; x.len()];
    for img_ch in 0..n * c {
        let base = img_ch * h * w;
        let mut y0 = 0;
        while y0 < h {
            let y1 = (y0 + r).min(h);
            let mut x0 = 0;
            while x0 < w {
                let x1 = (x0 + r).min(w);
                let mut sum = 0.0f32;
                for y in y0..y1 {
                    for xx in x0..x1 {
                        sum += x[base + y * w + xx].abs();
                    }
                }
                let mean = sum / ((y1 - y0) * (x1 - x0)) as f32;
                if mean >= threshold {
                    for y in y0..y1 {
                        for xx in x0..x1 {
                            mask[base + y * w + xx] = true;
                        }
                    }
                }
                x0 = x1;
            }
            y0 = y1;
        }
    }
    mask
}

/// Requantize codes onto the coarse grid: `c' = round(c/step)·step`
/// (scalar transcription of `odq_quant::qconv::requantize_codes`).
pub fn ref_requantize(codes: &[i16], step: i16) -> Vec<i16> {
    assert!(step > 0, "step must be positive");
    codes.iter().map(|&c| ((c as f32 / step as f32).round() as i16) * step).collect()
}

/// Input-directed DRQ convolution, scalar form — transcribes
/// `odq_drq::drq_conv::drq_conv2d`'s mixed path: split input codes by
/// region sensitivity, requantize the insensitive inputs *and* the
/// weights onto the coarse grid, sum both branches' products and
/// receptive sums in code domain, and dequantize once.
pub fn ref_drq_conv2d(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    n: usize,
    g: &ConvGeom,
    cfg: &DrqCfg,
) -> RefDrqOutput {
    let qx = ref_quantize_activation(x, cfg.hi_bits, cfg.a_clip);
    let qw = ref_quantize_weights(w, cfg.hi_bits);
    let scale = qx.scale * qw.scale;
    let zw = qw.zero;
    let step = cfg.step();

    let input_mask = ref_region_mask(x, n, g, cfg.region, cfg.input_threshold);

    let mut x_hi = vec![0i16; qx.codes.len()];
    let mut x_lo = vec![0i16; qx.codes.len()];
    for (i, (&c, &m)) in qx.codes.iter().zip(&input_mask).enumerate() {
        if m {
            x_hi[i] = c;
        } else {
            x_lo[i] = ((c as f32 / step as f32).round() as i16) * step;
        }
    }
    let w_lo = ref_requantize(&qw.codes, step);

    let y_hi = ref_qconv2d_codes(&x_hi, &qw.codes, n, g);
    let y_lo = ref_qconv2d_codes(&x_lo, &w_lo, n, g);
    let sa_hi = ref_receptive_sums(&x_hi, n, g);
    let sa_lo = ref_receptive_sums(&x_lo, n, g);

    let spatial = g.out_spatial();
    let co = g.out_channels;
    let mut out = vec![0.0f32; n * co * spatial];
    for img in 0..n {
        for f in 0..co {
            let base = (img * co + f) * spatial;
            for sp in 0..spatial {
                let code = (y_hi[base + sp] + y_lo[base + sp]) as f32;
                let sa = (sa_hi[img * spatial + sp] + sa_lo[img * spatial + sp]) as f32;
                out[base + sp] = scale * (code - zw * sa);
            }
        }
    }
    if let Some(b) = bias {
        ref_add_bias(&mut out, b, n, g);
    }
    RefDrqOutput { output: out, input_mask }
}

/// Add a per-output-channel bias to a flat `[n, Co, OH, OW]` buffer.
pub fn ref_add_bias(y: &mut [f32], bias: &[f32], n: usize, g: &ConvGeom) {
    let spatial = g.out_spatial();
    let co = g.out_channels;
    for img in 0..n {
        for (f, &b) in bias.iter().enumerate().take(co) {
            let base = (img * co + f) * spatial;
            for v in &mut y[base..base + spatial] {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_recombines() {
        for c in 0i16..=15 {
            let (h, l) = ref_split_codes(&[c], 2);
            assert_eq!((h[0] << 2) + l[0], c);
        }
    }

    #[test]
    fn activation_quantizer_matches_known_codes() {
        let q = ref_quantize_activation(&[-0.5, 0.0, 0.5, 1.0, 2.0], 4, 1.0);
        assert_eq!(q.codes, vec![0, 0, 8, 15, 15]);
    }

    #[test]
    fn conv_identity_kernel_copies_input() {
        let g = ConvGeom::new(1, 1, 3, 3, 1, 1, 0);
        let x: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let y = ref_conv2d(&x, &[1.0], None, 1, &g);
        assert_eq!(x, y);
    }

    #[test]
    fn valid_taps_full_inside_padded_border() {
        let g = ConvGeom::new(2, 1, 4, 4, 3, 1, 1);
        let v = ref_valid_tap_counts(&g);
        // Interior outputs see all 2*3*3 taps; the corner sees 2*2*2.
        assert_eq!(v[5], 18);
        assert_eq!(v[0], 8);
    }
}

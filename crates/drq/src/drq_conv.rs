//! The DRQ mixed-precision convolution.

use odq_nn::executor::add_bias;
use odq_quant::plan::{PlanSpec, QConvPlan};
use odq_quant::qconv::{
    needs_i64, qconv2d, qconv2d_products, requant_step, requantize_code, requantize_codes, CodeAcc,
};
use odq_quant::{quantize_activation, QTensor};
use odq_tensor::gemm::Kernel;
use odq_tensor::workspace::WorkspacePool;
use odq_tensor::{ConvGeom, Tensor};

/// DRQ configuration.
#[derive(Clone, Copy, Debug)]
pub struct DrqCfg {
    /// High-precision bit width (sensitive regions).
    pub hi_bits: u8,
    /// Low-precision bit width (insensitive regions): inputs and weights
    /// are requantized onto the coarser `lo_bits` grid (which embeds
    /// exactly into the `hi_bits` grid, see
    /// [`odq_quant::qconv::requantize_codes`]).
    pub lo_bits: u8,
    /// Activation clip for quantization.
    pub a_clip: f32,
    /// Square region edge for the input sensitivity test (the paper's DRQ
    /// uses small square regions per channel).
    pub region: usize,
    /// Input sensitivity threshold: a region is sensitive iff its mean
    /// |value| (pre-quantization, in input units) meets this.
    pub input_threshold: f32,
}

impl DrqCfg {
    /// The INT8-INT4 configuration of the paper's comparison.
    pub fn int8_int4(input_threshold: f32) -> Self {
        Self { hi_bits: 8, lo_bits: 4, a_clip: 1.0, region: 2, input_threshold }
    }

    /// The INT4-INT2 configuration (where DRQ's accuracy collapses,
    /// Fig. 18).
    pub fn int4_int2(input_threshold: f32) -> Self {
        Self { hi_bits: 4, lo_bits: 2, a_clip: 1.0, region: 2, input_threshold }
    }

    /// Requantization step between the two grids.
    pub fn step(&self) -> i16 {
        requant_step(self.hi_bits, self.lo_bits)
    }
}

/// Result of a DRQ convolution.
pub struct DrqConvOutput {
    /// Mixed-precision outputs, dequantized, `[N, Co, OH, OW]`.
    pub output: Tensor,
    /// Per-input-feature sensitivity (true = high precision),
    /// `[N, Ci, H, W]` flattened.
    pub input_mask: Vec<bool>,
    /// Fraction of low-precision inputs in each output's receptive field,
    /// `[N, OH, OW]` flattened (identical across output channels, which all
    /// read the same window).
    pub lp_share: Vec<f32>,
    /// Reference output with *all* inputs at high precision.
    pub reference_hp: Tensor,
    /// Reference output with *all* inputs at low precision.
    pub reference_lp: Tensor,
}

/// Compute the per-input-feature sensitivity mask: each `region × region`
/// tile of each channel is sensitive iff its mean |value| ≥ threshold.
pub fn region_sensitivity_mask(x: &Tensor, region: usize, threshold: f32) -> Vec<bool> {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let r = region.max(1);
    let xs = x.as_slice();
    let mut mask = vec![false; xs.len()];
    for img_ch in 0..n * c {
        let base = img_ch * h * w;
        let mut y0 = 0;
        while y0 < h {
            let mut x0 = 0;
            let y1 = (y0 + r).min(h);
            while x0 < w {
                let x1 = (x0 + r).min(w);
                let mut sum = 0.0f32;
                for y in y0..y1 {
                    for x in x0..x1 {
                        sum += xs[base + y * w + x].abs();
                    }
                }
                let mean = sum / ((y1 - y0) * (x1 - x0)) as f32;
                let sensitive = mean >= threshold;
                if sensitive {
                    for y in y0..y1 {
                        for x in x0..x1 {
                            mask[base + y * w + x] = true;
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

/// Per-call DRQ convolution over float weights: builds a throwaway
/// [`QConvPlan`], runs [`drq_conv2d_planned`], and adds the instrumentation
/// the motivation study reads — each output's low-precision share and the
/// all-HP / all-LP reference convolutions.
pub fn drq_conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &ConvGeom,
    cfg: &DrqCfg,
) -> DrqConvOutput {
    let plan = QConvPlan::build(w, PlanSpec::drq(cfg.hi_bits, cfg.lo_bits));
    let DrqPlanned { output, input_mask } =
        drq_conv2d_planned(x, &plan, bias, g, cfg, &WorkspacePool::new());

    // References: everything high precision / everything low precision,
    // the latter on the coarse grid with the same scale and zero point.
    let qx = quantize_activation(x, cfg.hi_bits, cfg.a_clip);
    let coarse = |codes: Tensor<i16>, like: &QTensor| QTensor { codes, ..*like };
    let qx_lo = coarse(requantize_codes(&qx.codes, cfg.step()), &qx);
    let qw_lo = coarse(requantize_codes(&plan.qw.codes, cfg.step()), &plan.qw);
    let mut reference_hp = qconv2d(&qx, &plan.qw, g);
    let mut reference_lp = qconv2d(&qx_lo, &qw_lo, g);
    if let Some(b) = bias {
        add_bias(&mut reference_hp, b, g);
        add_bias(&mut reference_lp, b, g);
    }

    let lp_share = lp_share_per_output(&input_mask, g, x.dims()[0]);
    DrqConvOutput { output, input_mask, lp_share, reference_hp, reference_lp }
}

/// The planned DRQ kernel's result: what the engine's serving path
/// consumes. The instrumented references ([`DrqConvOutput::reference_hp`]
/// etc.) are added by the per-call [`drq_conv2d`].
pub struct DrqPlanned {
    /// Mixed-precision outputs, dequantized, `[N, Co, OH, OW]`.
    pub output: Tensor,
    /// Per-input-feature sensitivity (true = high precision).
    pub input_mask: Vec<bool>,
}

/// The DRQ mixed-precision convolution over a prepacked plan (quantized and
/// requantized weights built once per weight version) and a shared
/// workspace pool.
///
/// Decomposition: quantize the input at `hi_bits` (the plan holds the
/// offset-binary weights, zero point `z_w`); requantize codes onto the
/// `lo_bits` grid on the insensitive path (input *and* weight, per the
/// paper's description of low-precision computation); then
///
/// ```text
/// out = s · [ conv(x_sens, n) + conv(x_insens_lo, n_lo) − z_w · Σa ]
/// ```
///
/// where `x_sens` holds codes only at sensitive positions (zeros
/// elsewhere) and vice versa. The coarse grid embeds exactly into the fine
/// one (same scale and zero point), so the mixed sum needs no rescaling.
/// Each precision path lowers each image once and computes its products
/// and receptive sums from that lowering, on the [`Kernel`] tiles against
/// the plan's padded fine and coarse weight rows.
///
/// # Panics
/// Panics if the plan lacks requantized low-precision weights or its bit
/// width disagrees with `cfg.hi_bits`.
pub fn drq_conv2d_planned(
    x: &Tensor,
    plan: &QConvPlan,
    bias: Option<&[f32]>,
    g: &ConvGeom,
    cfg: &DrqCfg,
    pool: &WorkspacePool,
) -> DrqPlanned {
    drq_conv2d_planned_on(x, plan, bias, g, cfg, pool, Kernel::detected())
}

/// [`drq_conv2d_planned`] on a given kernel body, so tests and the
/// conformance runner can run every body the CPU supports.
pub fn drq_conv2d_planned_on(
    x: &Tensor,
    plan: &QConvPlan,
    bias: Option<&[f32]>,
    g: &ConvGeom,
    cfg: &DrqCfg,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> DrqPlanned {
    assert_eq!(plan.spec.w_bits, cfg.hi_bits, "plan bit width mismatch");
    let qx = quantize_activation(x, cfg.hi_bits, cfg.a_clip);
    let step = cfg.step();

    let input_mask = region_sensitivity_mask(x, cfg.region, cfg.input_threshold);

    let codes = qx.codes.as_slice();
    let mut x_hi = vec![0i16; codes.len()];
    let mut x_lo = vec![0i16; codes.len()];
    for (i, (&c, &m)) in codes.iter().zip(&input_mask).enumerate() {
        if m {
            x_hi[i] = c;
        } else {
            x_lo[i] = requantize_code(c, step);
        }
    }
    let x_hi = Tensor::from_vec(qx.codes.shape().clone(), x_hi);
    let x_lo = Tensor::from_vec(qx.codes.shape().clone(), x_lo);

    let scale = qx.scale * plan.qw.scale;
    let mut out = if needs_i64(cfg.hi_bits, cfg.hi_bits) {
        mix_paths::<i64>(&x_hi, &x_lo, plan, scale, g, pool, kernel)
    } else {
        mix_paths::<i32>(&x_hi, &x_lo, plan, scale, g, pool, kernel)
    };
    if let Some(b) = bias {
        add_bias(&mut out, b, g);
    }
    DrqPlanned { output: out, input_mask }
}

/// `s · (Σ a_hi·n + Σ a_lo·n_lo − z_w · (Σ a_hi + Σ a_lo))`: the two
/// precision paths' products against the plan's fine and coarse weights.
fn mix_paths<T: CodeAcc>(
    x_hi: &Tensor<i16>,
    x_lo: &Tensor<i16>,
    plan: &QConvPlan,
    scale: f32,
    g: &ConvGeom,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> Tensor {
    let w_lo = plan.lo_rows.as_ref().expect("plan lacks DRQ low-precision weights");
    let (y_hi, sa_hi) = qconv2d_products::<T>(x_hi, plan.rows.view(), g, pool, kernel);
    let (y_lo, sa_lo) = qconv2d_products::<T>(x_lo, w_lo.view(), g, pool, kernel);
    let (spatial, co, zw) = (g.out_spatial(), g.out_channels, plan.qw.zero);
    let mut out = Tensor::zeros(y_hi.shape().clone());
    let (sh, sl) = (sa_hi.as_slice(), sa_lo.as_slice());
    let planes = out.as_mut_slice().chunks_exact_mut(spatial);
    let products = y_hi.as_slice().chunks_exact(spatial).zip(y_lo.as_slice().chunks_exact(spatial));
    for (plane, (o_f, (yh, yl))) in planes.zip(products).enumerate() {
        let sums = sh[plane / co * spatial..].iter().zip(&sl[plane / co * spatial..]);
        for (((o, &yh), &yl), (&sh, &sl)) in o_f.iter_mut().zip(yh).zip(yl).zip(sums) {
            let code = (yh.into() + yl.into()) as f32;
            *o = scale * (code - zw * (sh + sl) as f32);
        }
    }
    out
}

/// For every output spatial position, the fraction of its receptive-field
/// inputs (including zero padding, which is precision-neutral and counted
/// as high precision) that are low precision.
fn lp_share_per_output(input_mask: &[bool], g: &ConvGeom, n: usize) -> Vec<f32> {
    let (c, h, w, k) = (g.in_channels, g.in_h, g.in_w, g.kernel);
    let (oh, ow) = (g.out_h(), g.out_w());
    let col_len = g.col_len();
    let mut out = vec![0.0f32; n * oh * ow];
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut lp = 0usize;
                for ci in 0..c {
                    for ki in 0..k {
                        let iy = (oy * g.stride + ki) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kj in 0..k {
                            let ix = (ox * g.stride + kj) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = ((img * c + ci) * h + iy as usize) * w + ix as usize;
                            if !input_mask[idx] {
                                lp += 1;
                            }
                        }
                    }
                }
                out[(img * oh + oy) * ow + ox] = lp as f32 / col_len as f32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 2654435761 + seed * 13) % 1000) as f32 / 1000.0).collect()
    }

    fn pseudo_signed(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 40503 + seed * 7) % 1000) as f32 / 500.0 - 1.0).collect()
    }

    fn setup() -> (Tensor, Tensor, ConvGeom) {
        let g = ConvGeom::new(3, 4, 8, 8, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(2), pseudo(2 * 3 * 64, 1));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(4 * 27, 2));
        (x, w, g)
    }

    #[test]
    fn region_mask_marks_bright_regions() {
        let mut data = vec![0.0f32; 16];
        // one bright 2x2 tile in a 4x4 single-channel image
        data[0] = 0.9;
        data[1] = 0.9;
        data[4] = 0.9;
        data[5] = 0.9;
        let x = Tensor::from_vec([1, 1, 4, 4], data);
        let m = region_sensitivity_mask(&x, 2, 0.5);
        assert!(m[0] && m[1] && m[4] && m[5]);
        assert_eq!(m.iter().filter(|&&b| b).count(), 4);
    }

    #[test]
    fn zero_threshold_equals_full_high_precision() {
        let (x, w, g) = setup();
        let r = drq_conv2d(&x, &w, None, &g, &DrqCfg::int8_int4(0.0));
        assert!(r.input_mask.iter().all(|&b| b), "all inputs sensitive at thr 0");
        assert!(r.output.max_abs_diff(&r.reference_hp) < 1e-5);
        assert!(r.lp_share.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn infinite_threshold_equals_all_low_precision() {
        let (x, w, g) = setup();
        let r = drq_conv2d(&x, &w, None, &g, &DrqCfg::int8_int4(f32::INFINITY));
        assert!(r.input_mask.iter().all(|&b| !b));
        assert!(r.output.max_abs_diff(&r.reference_lp) < 1e-5);
    }

    #[test]
    fn mixed_threshold_interpolates() {
        let (x, w, g) = setup();
        let cfg = DrqCfg::int8_int4(0.45);
        let r = drq_conv2d(&x, &w, None, &g, &cfg);
        let frac_hi =
            r.input_mask.iter().filter(|&&b| b).count() as f32 / r.input_mask.len() as f32;
        assert!(frac_hi > 0.05 && frac_hi < 0.95, "got {frac_hi}");
        // DRQ error vs full HP is between zero and the all-LP error.
        let e_mixed = r.output.mean_abs_diff(&r.reference_hp);
        let e_lp = r.reference_lp.mean_abs_diff(&r.reference_hp);
        assert!(e_mixed > 0.0);
        assert!(e_mixed < e_lp, "mixed {e_mixed} must beat all-LP {e_lp}");
    }

    #[test]
    fn lp_share_bounds_and_consistency() {
        let (x, w, g) = setup();
        let r = drq_conv2d(&x, &w, None, &g, &DrqCfg::int4_int2(0.4));
        assert_eq!(r.lp_share.len(), 2 * g.out_spatial());
        assert!(r.lp_share.iter().all(|&f| (0.0..=1.0).contains(&f)));
        let frac_lp_inputs =
            r.input_mask.iter().filter(|&&b| !b).count() as f32 / r.input_mask.len() as f32;
        let mean_share: f32 = r.lp_share.iter().sum::<f32>() / r.lp_share.len() as f32;
        // Receptive-field average ≈ global LP fraction (padding skews a bit).
        assert!((mean_share - frac_lp_inputs).abs() < 0.2, "{mean_share} vs {frac_lp_inputs}");
    }

    #[test]
    fn int8_int4_more_accurate_than_int4_int2() {
        let (x, w, g) = setup();
        let hi = drq_conv2d(&x, &w, None, &g, &DrqCfg::int8_int4(0.45));
        let lo = drq_conv2d(&x, &w, None, &g, &DrqCfg::int4_int2(0.45));
        // compare each against its own hi-precision reference, normalized
        // by reference magnitude.
        let e_hi = hi.output.mean_abs_diff(&hi.reference_hp) / hi.reference_hp.max_abs();
        let e_lo = lo.output.mean_abs_diff(&lo.reference_hp) / lo.reference_hp.max_abs();
        assert!(e_hi < e_lo, "8-4 error {e_hi} should beat 4-2 error {e_lo}");
    }

    #[test]
    fn planned_kernel_lowers_once_per_path_and_image() {
        let (x, w, g) = setup();
        for cfg in [DrqCfg::int8_int4(0.45), DrqCfg::int4_int2(0.4)] {
            let plan = QConvPlan::build(&w, PlanSpec::drq(cfg.hi_bits, cfg.lo_bits));
            let pool = WorkspacePool::new();
            drq_conv2d_planned(&x, &plan, None, &g, &cfg, &pool);
            // One lowering per (precision path, image) for a batch of 2.
            assert_eq!(pool.lowerings(), 4);
        }
    }

    #[test]
    fn references_are_dequantized_code_convs() {
        use odq_quant::qconv::{qconv2d_codes, receptive_sums};
        use odq_quant::quantize_weights;
        let (x, w, g) = setup();
        let bias = vec![0.5f32, -0.25, 0.0, 1.0];
        for cfg in [DrqCfg::int8_int4(0.45), DrqCfg::int4_int2(0.4)] {
            let r = drq_conv2d(&x, &w, Some(&bias), &g, &cfg);
            let qx = quantize_activation(&x, cfg.hi_bits, cfg.a_clip);
            let qw = quantize_weights(&w, cfg.hi_bits);
            let s = qx.scale * qw.scale;
            let lo = |c: &Tensor<i16>| requantize_codes(c, cfg.step());
            for (xc, wc, got) in [
                (qx.codes.clone(), qw.codes.clone(), &r.reference_hp),
                (lo(&qx.codes), lo(&qw.codes), &r.reference_lp),
            ] {
                let (p, sa) = (qconv2d_codes(&xc, &wc, &g), receptive_sums(&xc, &g));
                let spatial = g.out_spatial();
                let want: Vec<f32> = (0..p.numel())
                    .map(|i| {
                        let (img, f, sp) = (i / (4 * spatial), i / spatial % 4, i % spatial);
                        let a_sum = sa.as_slice()[img * spatial + sp] as f32;
                        s * (p.as_slice()[i] as f32 - qw.zero * a_sum) + bias[f]
                    })
                    .collect();
                assert_eq!(got.as_slice(), want.as_slice());
            }
        }
    }

    #[test]
    fn wide_pair_accumulates_exactly() {
        // 15-bit codes overflow i32 within a few taps; at threshold 0 the
        // mixed output is the all-HP reference, bit for bit.
        let (x, w, g) = setup();
        let cfg = DrqCfg { hi_bits: 15, lo_bits: 5, ..DrqCfg::int8_int4(0.0) };
        let r = drq_conv2d(&x, &w, None, &g, &cfg);
        assert_eq!(r.output.as_slice(), r.reference_hp.as_slice());
        let float = odq_tensor::conv::conv2d(&x, &w, None, &g);
        assert!(r.output.max_abs_diff(&float) < 1e-2);
    }

    #[test]
    fn bias_applied() {
        let (x, w, g) = setup();
        let bias = vec![1.0f32, 0.0, -1.0, 0.5];
        let with = drq_conv2d(&x, &w, Some(&bias), &g, &DrqCfg::int8_int4(0.45));
        let without = drq_conv2d(&x, &w, None, &g, &DrqCfg::int8_int4(0.45));
        let spatial = g.out_spatial();
        let d = with.output.as_slice()[0] - without.output.as_slice()[0];
        assert!((d - 1.0).abs() < 1e-6);
        let d2 = with.output.as_slice()[2 * spatial] - without.output.as_slice()[2 * spatial];
        assert!((d2 + 1.0).abs() < 1e-6);
    }
}

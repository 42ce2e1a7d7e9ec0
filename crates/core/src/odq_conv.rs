//! The masked two-step ODQ convolution.

use odq_quant::plan::{PlanSpec, QConvPlan};
use odq_quant::predict::odq_estimate_precomputed;
use odq_quant::qconv::qconv2d;
use odq_quant::{quantize_activation, QTensor};
use odq_tensor::gemm::Kernel;
use odq_tensor::workspace::WorkspacePool;
use odq_tensor::{ConvGeom, Tensor};
use rayon::prelude::*;

use odq_nn::executor::add_bias;

use crate::mask::SensitivityMask;

/// ODQ configuration (the paper's default is 4-bit operands split 2/2).
#[derive(Clone, Copy, Debug)]
pub struct OdqCfg {
    /// Activation bit width (high + low planes).
    pub a_bits: u8,
    /// Weight bit width.
    pub w_bits: u8,
    /// Activation clip bound for quantization.
    pub a_clip: f32,
    /// Bit width of the low-order planes (`N_LBS`): the predictor uses the
    /// remaining `a_bits - low_bits` high-order bits.
    pub low_bits: u8,
    /// Sensitivity threshold in the dequantized output domain: predictor
    /// estimates with `|p̂| >= threshold` are sensitive.
    pub threshold: f32,
}

impl OdqCfg {
    /// The paper's 4/2-bit configuration with a given threshold.
    pub fn int4(threshold: f32) -> Self {
        Self { a_bits: 4, w_bits: 4, a_clip: 1.0, low_bits: 2, threshold }
    }
}

/// Result of the planned ODQ kernel.
pub struct OdqConvOutput {
    /// Final outputs (dequantized f32), `[N, Co, OH, OW]`.
    pub output: Tensor,
    /// The predictor's sensitivity mask.
    pub mask: SensitivityMask,
}

/// Result of the per-call [`odq_conv2d`]: the kernel's output and mask
/// plus the exact INT4 reference.
pub struct OdqConvReport {
    /// Final outputs (dequantized f32), `[N, Co, OH, OW]`.
    pub output: Tensor,
    /// The predictor's sensitivity mask.
    pub mask: SensitivityMask,
    /// The exact INT4 reference output (both planes everywhere) — what a
    /// non-dynamic INT4 conv would produce; see [`odq_int4_reference`].
    pub reference: Tensor,
}

/// Per-call ODQ convolution over float operands: quantizes both sides,
/// builds a throwaway [`QConvPlan`], runs [`odq_conv2d_planned`] and also
/// computes the INT4 reference for precision-loss accounting.
pub fn odq_conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &ConvGeom,
    cfg: &OdqCfg,
) -> OdqConvReport {
    let qx = quantize_activation(x, cfg.a_bits, cfg.a_clip);
    let plan = QConvPlan::build(w, PlanSpec::odq(cfg.w_bits, cfg.low_bits));
    let pool = WorkspacePool::new();
    let OdqConvOutput { output, mask } = odq_conv2d_planned(&qx, &plan, bias, g, cfg, &pool);
    let reference = odq_int4_reference(&qx, &plan, bias, g);
    OdqConvReport { output, mask, reference }
}

/// The exact reference of an ODQ layer (INT4 in the paper's
/// configuration): the static quantized conv over the plan's weights, plus
/// bias. It equals Eq. 3 evaluated with both planes at every output, bit
/// for bit, so a sensitive ODQ output always equals its reference. It
/// lowers through its own scratch, so a plan cache's pool keeps counting
/// only the kernel's lowerings.
pub fn odq_int4_reference(
    qx: &QTensor,
    plan: &QConvPlan,
    bias: Option<&[f32]>,
    g: &ConvGeom,
) -> Tensor {
    let mut reference = qconv2d(qx, &plan.qw, g);
    if let Some(b) = bias {
        add_bias(&mut reference, b, g);
    }
    reference
}

/// The ODQ convolution over a prepacked layer plan: a dense predictor and
/// an executor that runs only on sensitive outputs, as the accelerator
/// does.
///
/// Each image is lowered once into padded pixel-major code rows (see
/// [`odq_tensor::workspace`]). The predictor computes `HH = Σ a_H·n_H` for
/// every output on the [`Kernel`] tiles, shifting the activations' high
/// bit plane out of the full codes in-register against the plan's padded
/// high weight rows; the same rows give `Σ a_H` and `Σ a` per pixel. It
/// thresholds the [`odq_estimate_precomputed`] estimate into the mask and
/// keeps the estimate for insensitive outputs. The executor walks the
/// outputs channel by channel and computes each sensitive one as a single
/// per-pair [`Kernel::dot`] of the pixel's code row against the filter's
/// row in `plan.rows`, corrected by `Σ a`. Executor work is therefore
/// proportional to the sensitive fraction. Every per-image buffer lives in
/// the pool's workspaces.
///
/// All accumulation is exact `i32` and the f32 expressions are those of
/// the scalar oracle, so outputs and masks are bit-identical to it.
///
/// # Panics
/// Panics if the plan was not built for an ODQ spec matching `cfg`
/// (`w_bits` and `low_bits` must agree).
pub fn odq_conv2d_planned(
    qx: &QTensor,
    plan: &QConvPlan,
    bias: Option<&[f32]>,
    g: &ConvGeom,
    cfg: &OdqCfg,
    pool: &WorkspacePool,
) -> OdqConvOutput {
    odq_conv2d_planned_on(qx, plan, bias, g, cfg, pool, Kernel::detected())
}

/// [`odq_conv2d_planned`] on a given kernel body, so tests and the
/// conformance runner can run every body the CPU supports.
pub fn odq_conv2d_planned_on(
    qx: &QTensor,
    plan: &QConvPlan,
    bias: Option<&[f32]>,
    g: &ConvGeom,
    cfg: &OdqCfg,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> OdqConvOutput {
    let high_rows = plan.high_rows.as_ref().expect("plan lacks ODQ bit planes").view();
    assert_eq!(plan.spec.low_bits, Some(cfg.low_bits), "plan low_bits mismatch");
    assert_eq!(plan.spec.w_bits, cfg.w_bits, "plan w_bits mismatch");
    let qw = &plan.qw;
    let w_rows = plan.rows.view();
    let scale = qx.scale * qw.scale;
    let shr = cfg.low_bits as u32;

    let n = qx.codes.dims()[0];
    let spatial = g.out_spatial();
    let co = g.out_channels;
    let per_img = co * spatial;
    let valid = plan.valid_taps(g);

    let mut out = vec![0.0f32; n * per_img];
    let mut bits = vec![false; n * per_img];
    let chunk = per_img.max(1);
    let images = out.par_chunks_mut(chunk).zip(bits.par_chunks_mut(chunk)).enumerate();
    images.for_each(|(img, (out, bits))| {
        pool.with(|wk| {
            let (rows, s) = wk.lower_i16_rows(qx.codes.outer(img), g);
            // Predictor: `HH` for every output, `Σ a_H` and `Σ a` per pixel.
            s.products.resize(per_img, 0);
            s.sums.resize(spatial, 0);
            s.high_sums.resize(spatial, 0);
            s.values.resize(per_img, 0.0);
            kernel.products(rows, high_rows, shr, &mut s.products);
            kernel.row_sums(rows, shr, &mut s.sums, Some(&mut s.high_sums));
            odq_estimate_precomputed(
                &s.products,
                &s.high_sums,
                &plan.sum_nh,
                &plan.sum_nl,
                &valid,
                cfg.low_bits,
                qw.zero,
                scale,
                g,
                &mut s.pixel_terms,
                &mut s.values,
            );

            // Executor: sensitive outputs only, one filter row at a time.
            let filters = s.values.chunks_exact(spatial).enumerate();
            let channels = out.chunks_exact_mut(spatial).zip(bits.chunks_exact_mut(spatial));
            for ((f, est_f), (out_f, bits_f)) in filters.zip(channels) {
                let w_f = w_rows.row(f);
                for (p, (((o, bit), &p_hat), &sa)) in
                    out_f.iter_mut().zip(bits_f).zip(est_f).zip(&s.sums).enumerate()
                {
                    *bit = p_hat.abs() >= cfg.threshold;
                    *o = if *bit {
                        scale * (kernel.dot(rows.row(p), w_f) as f32 - qw.zero * sa as f32)
                    } else {
                        p_hat
                    };
                }
            }
        })
    });

    let mut output = Tensor::from_vec(g.output_shape(n), out);
    if let Some(b) = bias {
        add_bias(&mut output, b, g);
    }
    OdqConvOutput { output, mask: SensitivityMask::new(n, co, spatial, bits) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odq_quant::quantize_weights;

    fn pseudo(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 2654435761 + seed * 101) % 1000) as f32 / 1000.0).collect()
    }

    fn pseudo_signed(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 40503 + seed * 77) % 1000) as f32 / 500.0 - 1.0).collect()
    }

    fn setup() -> (Tensor, Tensor, ConvGeom) {
        let g = ConvGeom::new(3, 4, 8, 8, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(2), pseudo(2 * 3 * 64, 1));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(4 * 3 * 9, 2));
        (x, w, g)
    }

    #[test]
    fn zero_threshold_reproduces_full_int4_conv() {
        let (x, w, g) = setup();
        let cfg = OdqCfg::int4(0.0);
        let r = odq_conv2d(&x, &w, None, &g, &cfg);
        assert_eq!(r.mask.sensitive_count(), r.mask.len(), "all sensitive at thr=0");

        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let full = qconv2d(&qx, &qw, &g);
        assert_eq!(r.output.as_slice(), full.as_slice());
        assert_eq!(r.reference.as_slice(), full.as_slice());
    }

    #[test]
    fn infinite_threshold_gives_predictor_only() {
        let (x, w, g) = setup();
        let cfg = OdqCfg::int4(f32::INFINITY);
        let r = odq_conv2d(&x, &w, None, &g, &cfg);
        assert_eq!(r.mask.sensitive_count(), 0);
        // Output must differ from the full INT4 conv (low planes dropped)…
        assert!(r.output.max_abs_diff(&r.reference) > 1e-4);
        // …but the estimate error stays well below the output spread.
        let spread = odq_tensor::stats::std_dev(r.reference.as_slice());
        let err = r.output.mean_abs_diff(&r.reference);
        assert!(err < 0.5 * spread, "estimate error {err} vs spread {spread}");
    }

    #[test]
    fn moderate_threshold_mixes_paths() {
        let (x, w, g) = setup();
        let abs: Vec<f32> = {
            let full = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(0.0));
            full.reference.as_slice().iter().map(|v| v.abs()).collect()
        };
        let thr = odq_tensor::stats::quantile(&abs, 0.6);
        let cfg = OdqCfg::int4(thr);
        let r = odq_conv2d(&x, &w, None, &g, &cfg);
        let frac = r.mask.sensitive_fraction();
        assert!(frac > 0.05 && frac < 0.95, "got fraction {frac}");
        // Sensitive outputs equal the reference exactly.
        for i in 0..r.mask.len() {
            if r.mask.bits()[i] {
                assert_eq!(
                    r.output.as_slice()[i],
                    r.reference.as_slice()[i],
                    "sensitive output {i} must be exact"
                );
            }
        }
    }

    #[test]
    fn higher_threshold_means_fewer_sensitive_outputs() {
        let (x, w, g) = setup();
        let mut last = usize::MAX;
        for thr in [0.0f32, 0.1, 0.3, 0.6, 1.2] {
            let r = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(thr));
            let c = r.mask.sensitive_count();
            assert!(c <= last, "monotonicity violated at thr={thr}");
            last = c;
        }
    }

    #[test]
    fn bias_applied_to_both_paths() {
        let (x, w, g) = setup();
        let bias = vec![0.5f32, -0.5, 0.25, 0.0];
        let cfg = OdqCfg::int4(0.3);
        let with = odq_conv2d(&x, &w, Some(&bias), &g, &cfg);
        let without = odq_conv2d(&x, &w, None, &g, &cfg);
        let spatial = g.out_spatial();
        for img in 0..2 {
            for (ch, &b) in bias.iter().enumerate() {
                let idx = (img * 4 + ch) * spatial;
                let d = with.output.as_slice()[idx] - without.output.as_slice()[idx];
                assert!((d - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn int8_extension_splits_into_4bit_planes() {
        // The paper: "ODQ … can be easily extended to support other types
        // of precision, e.g., INT8". 8-bit operands split 4/4: predictor
        // runs INT4 MACs; everything else generalizes.
        let (x, w, g) = setup();
        let cfg = OdqCfg { a_bits: 8, w_bits: 8, a_clip: 1.0, low_bits: 4, threshold: 0.0 };
        let r = odq_conv2d(&x, &w, None, &g, &cfg);
        // thr=0: exact INT8 conv.
        let qx = quantize_activation(&x, 8, 1.0);
        let qw = quantize_weights(&w, 8);
        let full = qconv2d(&qx, &qw, &g);
        assert_eq!(r.output.as_slice(), full.as_slice());

        // Predictor-only at 8/4 is *more* accurate than at 4/2 (its high
        // plane is the whole INT4 representation).
        let r84 = odq_conv2d(
            &x,
            &w,
            None,
            &g,
            &OdqCfg { a_bits: 8, w_bits: 8, a_clip: 1.0, low_bits: 4, threshold: f32::INFINITY },
        );
        let r42 = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(f32::INFINITY));
        let e84 = r84.output.mean_abs_diff(&full);
        let full4 = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(0.0)).output;
        let e42 = r42.output.mean_abs_diff(&full4);
        assert!(e84 < e42, "8/4 predictor error {e84} should beat 4/2 {e42}");
    }

    #[test]
    fn planned_kernel_matches_per_call_with_one_lowering_per_image() {
        let (x, w, g) = setup();
        let bias = vec![0.5f32, -0.5, 0.25, 0.0];
        let plan = QConvPlan::build(&w, PlanSpec::odq(4, 2));
        let pool = WorkspacePool::new();
        // Density 1, mixed, and 0; the pool's scratch is reused throughout.
        for thr in [0.0f32, 0.25, 0.5, f32::INFINITY] {
            let cfg = OdqCfg::int4(thr);
            let per_call = odq_conv2d(&x, &w, Some(&bias), &g, &cfg);
            let qx = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
            pool.reset_lowerings();
            let planned = odq_conv2d_planned(&qx, &plan, Some(&bias), &g, &cfg, &pool);
            assert_eq!(planned.output.as_slice(), per_call.output.as_slice(), "thr={thr}");
            assert_eq!(planned.mask, per_call.mask, "thr={thr}");
            assert_eq!(pool.lowerings(), 2, "one lowering per image for a batch of 2");

            let qw = quantize_weights(&w, 4);
            let mut reference = qconv2d(&qx, &qw, &g);
            add_bias(&mut reference, &bias, &g);
            assert_eq!(per_call.reference.as_slice(), reference.as_slice(), "thr={thr}");
        }
    }

    #[test]
    fn odq_error_concentrated_on_insensitive_outputs() {
        // The design goal: sensitive outputs keep full precision; error
        // lives only on insensitive (small) outputs.
        let (x, w, g) = setup();
        let cfg = OdqCfg::int4(0.4);
        let r = odq_conv2d(&x, &w, None, &g, &cfg);
        let mut max_sens_err = 0.0f32;
        let mut max_insens_err = 0.0f32;
        for i in 0..r.mask.len() {
            let e = (r.output.as_slice()[i] - r.reference.as_slice()[i]).abs();
            if r.mask.bits()[i] {
                max_sens_err = max_sens_err.max(e);
            } else {
                max_insens_err = max_insens_err.max(e);
            }
        }
        assert_eq!(max_sens_err, 0.0);
        assert!(max_insens_err > 0.0);
    }
}

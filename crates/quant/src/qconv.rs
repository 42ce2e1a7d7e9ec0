//! Integer convolution over quantized tensors.
//!
//! This is the arithmetic every accelerator path in the paper reduces to:
//! each image is lowered once, pixel-major (one padded code row per output
//! pixel, see [`odq_tensor::workspace`]), and every output is one exact
//! integer product of a pixel's row against a filter's row — `i32`
//! accumulation on the [`Kernel`] tiles for narrow schemes, per-pair
//! [`dot_i16_i64`] beyond — plus the affine correction terms required by
//! offset-binary weight coding. The ODQ kernel runs on the same lowering
//! and the same kernel.
//!
//! With activations `value_a = s_a · a` (zero point 0) and weights
//! `value_w = s_w · (n − z_w)`, a convolution output is
//!
//! ```text
//! y = s_a · s_w · ( Σ a·n  −  z_w · Σ a )
//! ```
//!
//! `Σ a·n` is the integer code convolution ([`qconv2d_codes`]); `Σ a` is
//! the *receptive sum* of the activation codes ([`receptive_sums`]) — in
//! hardware a single extra accumulator fed by the same operand stream.
//! [`qconv2d_products`] computes both from one lowering per image.

use odq_tensor::gemm::{dot_i16_i64, Kernel, PaddedRows, Rows};
use odq_tensor::workspace::WorkspacePool;
use odq_tensor::{ConvGeom, Tensor};
use rayon::prelude::*;

use crate::dorefa::round_code;
use crate::plan::QConvPlan;
use crate::qtensor::QTensor;

/// An exact accumulator for code products: `i32` while
/// `a_bits + w_bits ≤ 16` (see [`needs_i64`]), `i64` beyond.
pub trait CodeAcc: Copy + Default + Send + Into<i64> {
    /// `out[f · a.count() + p] = Σ a_p·w_f` for every pixel row `p` and
    /// filter row `f`. `i32` runs on `kernel`; `i64` stays on per-pair
    /// [`dot_i16_i64`], which no kernel body covers.
    fn products(kernel: Kernel, a: Rows<'_>, w: Rows<'_>, out: &mut [Self]);
}

impl CodeAcc for i32 {
    #[inline]
    fn products(kernel: Kernel, a: Rows<'_>, w: Rows<'_>, out: &mut [i32]) {
        kernel.products(a, w, 0, out);
    }
}

impl CodeAcc for i64 {
    fn products(_: Kernel, a: Rows<'_>, w: Rows<'_>, out: &mut [i64]) {
        assert_eq!(a.stride(), w.stride(), "activation and weight row strides differ");
        let np = a.count();
        for (f, o_f) in out.chunks_exact_mut(np.max(1)).enumerate() {
            for (p, o) in o_f.iter_mut().enumerate() {
                *o = dot_i16_i64(a.row(p), w.row(f));
            }
        }
    }
}

/// Whether `a_bits`-bit activations against `w_bits`-bit weights need
/// `i64` accumulation: a conservative bound — products of `b` total bits
/// summed over up to 2^14 taps stay within `i32` only while `b + 14 < 31`.
pub fn needs_i64(a_bits: u8, w_bits: u8) -> bool {
    a_bits as u32 + w_bits as u32 > 16
}

/// The integer conv driver: batch-parallel over images, each lowered once
/// through `pool` into padded code rows. Returns `Σ a·n` for every
/// (image, filter, pixel), `[N, F, OH, OW]`, and `Σ a` for every
/// (image, pixel), `[N, OH, OW]`, both computed by `kernel` from the same
/// rows and written straight into the returned tensors.
///
/// `x`: activation codes `[N, Ci, H, W]`; `w`: the `F ≥ 1` filters' code
/// rows at `g.col_len()`'s padded stride ([`receptive_sums`] computes the
/// sums alone). Padded taps contribute 0 to both.
///
/// # Panics
/// Panics if `x` does not match `g`, or `w` is empty or not at `g`'s
/// padded stride.
pub fn qconv2d_products<T: CodeAcc>(
    x: &Tensor<i16>,
    w: Rows<'_>,
    g: &ConvGeom,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> (Tensor<T>, Tensor<i32>) {
    let n = x.dims()[0];
    assert_eq!(x.dims(), g.input_shape(n).0.as_slice(), "input shape mismatch");
    assert!(w.count() > 0, "no filter rows");
    let (spatial, filters) = (g.out_spatial(), w.count());
    let mut p = Tensor::<T>::zeros([n, filters, g.out_h(), g.out_w()]);
    let mut sa = Tensor::<i32>::zeros([n, g.out_h(), g.out_w()]);
    let images = p.as_mut_slice().par_chunks_mut(filters * spatial);
    images.zip(sa.as_mut_slice().par_chunks_mut(spatial)).enumerate().for_each(|(img, (p, sa))| {
        pool.with(|wk| {
            let (rows, _) = wk.lower_i16_rows(x.outer(img), g);
            T::products(kernel, rows, w, p);
            kernel.row_sums(rows, 0, sa, None);
        })
    });
    (p, sa)
}

/// Integer convolution returning raw `i32` accumulators (`Σ a·n`).
///
/// `x`: quantized activations `[N, Ci, H, W]`; `w`: quantized weights
/// `[Co, Ci, K, K]`. Output `[N, Co, OH, OW]` of code-domain products.
pub fn qconv2d_codes(x: &Tensor<i16>, w: &Tensor<i16>, g: &ConvGeom) -> Tensor<i32> {
    assert_eq!(w.dims(), g.weight_shape().0.as_slice(), "weight shape mismatch");
    let w = PaddedRows::from_filters(w.as_slice(), g.in_channels, g.kernel);
    qconv2d_products(x, w.view(), g, &WorkspacePool::new(), Kernel::detected()).0
}

/// Receptive sums: `Σ a` over each output position's receptive field,
/// `[N, OH, OW]` (identical for every output channel, which all read the
/// same window). Padded taps contribute 0.
pub fn receptive_sums(x: &Tensor<i16>, g: &ConvGeom) -> Tensor<i32> {
    let n = x.dims()[0];
    assert_eq!(x.dims(), g.input_shape(n).0.as_slice(), "input shape mismatch");
    let pool = WorkspacePool::new();
    let kernel = Kernel::detected();
    let mut sa = Tensor::<i32>::zeros([n, g.out_h(), g.out_w()]);
    for (img, sa) in sa.as_mut_slice().chunks_exact_mut(g.out_spatial()).enumerate() {
        pool.with(|wk| kernel.row_sums(wk.lower_i16_rows(x.outer(img), g).0, 0, sa, None));
    }
    sa
}

/// Number of in-bounds (non-padding) taps in each output position's
/// receptive field, `[OH * OW]`. Interior outputs see `col_len`; border
/// outputs see fewer when padding > 0.
pub fn valid_tap_counts(g: &ConvGeom) -> Vec<u32> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = vec![0u32; oh * ow];
    for oy in 0..oh {
        for ox in 0..ow {
            let mut count = 0u32;
            for ki in 0..g.kernel {
                let iy = (oy * g.stride + ki) as isize - g.padding as isize;
                if iy < 0 || iy >= g.in_h as isize {
                    continue;
                }
                for kj in 0..g.kernel {
                    let ix = (ox * g.stride + kj) as isize - g.padding as isize;
                    if ix < 0 || ix >= g.in_w as isize {
                        continue;
                    }
                    count += 1;
                }
            }
            out[oy * ow + ox] = count * g.in_channels as u32;
        }
    }
    out
}

/// Per-filter sums of weight codes, `[Co]`.
pub fn filter_code_sums(w: &Tensor<i16>, out_channels: usize) -> Vec<i32> {
    let total = w.numel();
    assert_eq!(total % out_channels, 0, "weight size not divisible by filters");
    let col_len = total / out_channels;
    let ws = w.as_slice();
    (0..out_channels)
        .map(|f| ws[f * col_len..(f + 1) * col_len].iter().map(|&v| v as i32).sum())
        .collect()
}

/// Quantized convolution returning dequantized `f32` outputs, handling the
/// offset-binary weight zero point:
/// `y = s_a·s_w·(Σ a·n − z_w·Σ a)`.
///
/// Accumulates in `i32` for narrow schemes and transparently switches to
/// `i64` when `a_bits + w_bits > 16` ([`needs_i64`]).
///
/// # Panics
/// Panics if the activation tensor has a nonzero zero point (zero padding
/// is only value-correct for `z_a = 0`).
pub fn qconv2d(x: &QTensor, w: &QTensor, g: &ConvGeom) -> Tensor {
    qconv2d_with(x, w, g, &WorkspacePool::new())
}

/// [`qconv2d`] lowering through a caller-owned pool: one lowering per
/// image feeds both the products and the receptive sums. The weights are
/// padded per call; [`qconv2d_planned`] reads a plan's prepacked rows.
pub fn qconv2d_with(x: &QTensor, w: &QTensor, g: &ConvGeom, pool: &WorkspacePool) -> Tensor {
    assert_eq!(w.codes.dims(), g.weight_shape().0.as_slice(), "weight shape mismatch");
    let rows = PaddedRows::from_filters(w.codes.as_slice(), g.in_channels, g.kernel);
    dequantize_products(x, w, rows.view(), g, pool, Kernel::detected())
}

/// Static INT-k's planned entry point: [`qconv2d_with`] over the plan's
/// quantized weights, read from its prepacked padded rows.
pub fn qconv2d_planned(
    x: &QTensor,
    plan: &QConvPlan,
    g: &ConvGeom,
    pool: &WorkspacePool,
) -> Tensor {
    qconv2d_planned_on(x, plan, g, pool, Kernel::detected())
}

/// [`qconv2d_planned`] on a given kernel body, so tests and the
/// conformance runner can run every body the CPU supports.
pub fn qconv2d_planned_on(
    x: &QTensor,
    plan: &QConvPlan,
    g: &ConvGeom,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> Tensor {
    assert_eq!(plan.qw.codes.dims(), g.weight_shape().0.as_slice(), "weight shape mismatch");
    dequantize_products(x, &plan.qw, plan.rows.view(), g, pool, kernel)
}

/// `s · (Σ a·n − z_w · Σ a)` per output, with `w_rows` holding `w`'s
/// codes. With `z_w = 0` the correction is `+0.0`, which leaves every
/// product's f32 value unchanged.
fn dequantize_products(
    x: &QTensor,
    w: &QTensor,
    w_rows: Rows<'_>,
    g: &ConvGeom,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> Tensor {
    assert_eq!(x.zero, 0.0, "activation zero point must be 0 (zero padding)");
    if needs_i64(x.scheme.bits, w.scheme.bits) {
        dequantize::<i64>(x, w, w_rows, g, pool, kernel)
    } else {
        dequantize::<i32>(x, w, w_rows, g, pool, kernel)
    }
}

fn dequantize<T: CodeAcc>(
    x: &QTensor,
    w: &QTensor,
    w_rows: Rows<'_>,
    g: &ConvGeom,
    pool: &WorkspacePool,
    kernel: Kernel,
) -> Tensor {
    let (p, sa) = qconv2d_products::<T>(&x.codes, w_rows, g, pool, kernel);
    let (s, zw) = (x.scale * w.scale, w.zero);
    let spatial = g.out_spatial();
    let per_img = g.out_channels * spatial;
    let mut out = Tensor::zeros(p.shape().clone());
    let images = out.as_mut_slice().chunks_exact_mut(per_img.max(1));
    let products = p.as_slice().chunks_exact(per_img.max(1));
    for ((o, p), sa) in images.zip(products).zip(sa.as_slice().chunks_exact(spatial)) {
        for (o_f, p_f) in o.chunks_exact_mut(spatial).zip(p.chunks_exact(spatial)) {
            for ((o, &pv), &a_sum) in o_f.iter_mut().zip(p_f).zip(sa) {
                let pv: i64 = pv.into();
                *o = s * (pv as f32 - zw * a_sum as f32);
            }
        }
    }
    out
}

/// Requantize codes to a coarser grid that shares the same scale and zero
/// point: `c' = round(c / step) · step`, where
/// `step = (2^hi_bits − 1) / (2^lo_bits − 1)` (integer for the paper's
/// 8→4 and 4→2 pairs: 17 and 5).
///
/// This is DRQ's "low-precision" representation: the coarse levels embed
/// exactly into the fine grid, so mixed-precision sums need no rescaling.
///
/// Codes must be non-negative (activation and offset-binary weight codes
/// are): the rounding is the activation quantizer's libm-free one, exact
/// for non-negative values.
pub fn requantize_codes(codes: &Tensor<i16>, step: i16) -> Tensor<i16> {
    assert!(step > 0, "step must be positive");
    codes.map(|c| requantize_code(c, step))
}

/// One code of [`requantize_codes`]: `round(c / step) · step`.
#[inline]
pub fn requantize_code(c: i16, step: i16) -> i16 {
    debug_assert!(c >= 0, "requantized codes must be non-negative");
    round_code(c as f32 / step as f32) as i16 * step
}

/// The requantization step between two bit widths
/// (`(2^hi − 1)/(2^lo − 1)`), when integral.
///
/// # Panics
/// Panics when the step is not an integer (the paper's pairs 8→4 and 4→2
/// both are).
pub fn requant_step(hi_bits: u8, lo_bits: u8) -> i16 {
    let hi = (1i32 << hi_bits) - 1;
    let lo = (1i32 << lo_bits) - 1;
    assert_eq!(hi % lo, 0, "no integral requantization step for {hi_bits}->{lo_bits}");
    (hi / lo) as i16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsplit::split_qtensor;
    use crate::dorefa::{quantize_activation, quantize_weights};
    use odq_tensor::conv::conv2d;

    fn pseudo(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 2654435761 + seed * 97) % 1000) as f32 / 1000.0).collect()
    }

    fn pseudo_signed(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 40503 + seed * 31) % 1000) as f32 / 500.0 - 1.0).collect()
    }

    #[test]
    fn qconv_matches_dequantized_float_conv() {
        let g = ConvGeom::new(3, 4, 6, 6, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(2), pseudo(2 * 3 * 36, 1));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(4 * 3 * 9, 2));

        let qx = quantize_activation(&x, 8, 1.0);
        let qw = quantize_weights(&w, 8);
        let yq = qconv2d(&qx, &qw, &g);

        // The integer path must match the float conv over *dequantized*
        // operands (same sum, different order).
        let yf = conv2d(&qx.dequantize(), &qw.dequantize(), None, &g);
        assert!(yq.max_abs_diff(&yf) < 1e-3, "diff {}", yq.max_abs_diff(&yf));

        // And at 8 bits it approximates the true float conv well.
        let ytrue = conv2d(&x, &w, None, &g);
        assert!(yq.mean_abs_diff(&ytrue) < 0.05);
    }

    #[test]
    fn qconv_handles_padding_with_offset_weights() {
        // Zero-padded taps must contribute exactly zero even though the
        // offset grid has no zero weight level.
        let g = ConvGeom::new(1, 1, 3, 3, 3, 1, 1);
        let x = Tensor::full(g.input_shape(1), 1.0f32);
        let w = Tensor::full(g.weight_shape(), 0.5f32);
        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let y = qconv2d(&qx, &qw, &g);
        // Center output sees 9 taps, corner outputs 4.
        let center = y.at(&[0, 0, 1, 1]);
        let corner = y.at(&[0, 0, 0, 0]);
        assert!((center / corner - 9.0 / 4.0).abs() < 0.05, "{center} vs {corner}");
    }

    #[test]
    fn receptive_sums_counts_window() {
        let g = ConvGeom::new(1, 1, 3, 3, 2, 1, 0);
        let x = Tensor::from_vec(g.input_shape(1), (1..=9).map(|v| v as i16).collect::<Vec<_>>());
        let s = receptive_sums(&x, &g);
        // windows: (1+2+4+5, 2+3+5+6, 4+5+7+8, 5+6+8+9)
        assert_eq!(s.as_slice(), &[12, 16, 24, 28]);
    }

    #[test]
    fn valid_tap_counts_border_vs_interior() {
        let g = ConvGeom::new(2, 1, 4, 4, 3, 1, 1);
        let v = valid_tap_counts(&g);
        assert_eq!(v.len(), 16);
        // corner: 2x2 spatial taps x 2 channels = 8; interior: 9x2 = 18.
        assert_eq!(v[0], 8);
        assert_eq!(v[5], 18);
        // no padding: all equal col_len.
        let g2 = ConvGeom::new(3, 1, 4, 4, 2, 1, 0);
        assert!(valid_tap_counts(&g2).iter().all(|&c| c as usize == g2.col_len()));
    }

    #[test]
    fn filter_sums() {
        let w = Tensor::from_vec([2, 1, 1, 3], vec![1i16, 2, 3, 10, 20, 30]);
        assert_eq!(filter_code_sums(&w, 2), vec![6, 60]);
    }

    #[test]
    fn plane_decomposition_reconstructs_full_product() {
        let g = ConvGeom::new(2, 3, 5, 5, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(1), pseudo(2 * 25, 7));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(3 * 2 * 9, 8));

        let qx = quantize_activation(&x, 4, 1.0);
        let qw = quantize_weights(&w, 4);
        let full = qconv2d_codes(&qx.codes, &qw.codes, &g);

        // Eq. 3: Σ a·n = 2^2d·HH + 2^d·(HL + LH) + LL, each term a plane conv.
        let (xp, wp) = (split_qtensor(&qx, 2), split_qtensor(&qw, 2));
        let hh = qconv2d_codes(&xp.high, &wp.high, &g);
        let hl = qconv2d_codes(&xp.high, &wp.low, &g);
        let lh = qconv2d_codes(&xp.low, &wp.high, &g);
        let ll = qconv2d_codes(&xp.low, &wp.low, &g);
        for i in 0..full.numel() {
            let (hh, hl, lh, ll) =
                (hh.as_slice()[i], hl.as_slice()[i], lh.as_slice()[i], ll.as_slice()[i]);
            assert_eq!(
                full.as_slice()[i],
                (hh << 4) + ((hl + lh) << 2) + ll,
                "Eq. 3 must be exact"
            );
        }
    }

    #[test]
    fn wide_qconv_matches_narrow_on_shared_range() {
        let g = ConvGeom::new(2, 3, 5, 5, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(1), pseudo(2 * 25, 31));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(3 * 2 * 9, 32));
        let qx = quantize_activation(&x, 8, 1.0);
        let qw = quantize_weights(&w, 8);
        let pool = WorkspacePool::new();
        let narrow = qconv2d_codes(&qx.codes, &qw.codes, &g);
        let rows = PaddedRows::from_filters(qw.codes.as_slice(), g.in_channels, g.kernel);
        let (wide, _) =
            qconv2d_products::<i64>(&qx.codes, rows.view(), &g, &pool, Kernel::detected());
        for (a, b) in narrow.as_slice().iter().zip(wide.as_slice()) {
            assert_eq!(*a as i64, *b);
        }
    }

    #[test]
    fn int15_qconv_does_not_overflow() {
        // Deep reduction with near-max wide codes must use the i64 path.
        let g = ConvGeom::new(64, 2, 4, 4, 3, 1, 1);
        let x = Tensor::full(g.input_shape(1), 1.0f32);
        let w = Tensor::full(g.weight_shape(), 1.0f32);
        let qx = quantize_activation(&x, 15, 1.0);
        let qw = quantize_weights(&w, 15);
        let y = qconv2d(&qx, &qw, &g);
        // All values 1.0: interior outputs sum 64*9 products of ~1.0.
        let max = y.max_abs();
        assert!((max - 576.0).abs() < 2.0, "got {max}");
        assert!(y.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn requantize_grid_embedding() {
        assert_eq!(requant_step(8, 4), 17);
        assert_eq!(requant_step(4, 2), 5);
        let codes = Tensor::from_vec([6], vec![0i16, 3, 7, 8, 14, 15]);
        let rq = requantize_codes(&codes, 5);
        assert_eq!(rq.as_slice(), &[0, 5, 5, 10, 15, 15]);
        // idempotent
        let rq2 = requantize_codes(&rq, 5);
        assert_eq!(rq.as_slice(), rq2.as_slice());
    }

    #[test]
    fn qconv_codes_shapes() {
        let g = ConvGeom::new(2, 5, 6, 4, 3, 2, 1);
        let x = Tensor::<i16>::zeros(g.input_shape(3));
        let w = Tensor::<i16>::zeros(g.weight_shape());
        let y = qconv2d_codes(&x, &w, &g);
        assert_eq!(y.dims(), g.output_shape(3).0.as_slice());
        assert!(y.as_slice().iter().all(|&v| v == 0));
    }
}

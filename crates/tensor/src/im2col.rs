//! Image-to-column lowering and its transpose.
//!
//! `im2col` rewrites a single `[C, H, W]` image into a matrix whose columns
//! are the receptive fields of each output feature. Convolution then becomes
//! a GEMM between the `[C_out, C*K*K]` weight matrix and the
//! `[C*K*K, OH*OW]` column matrix. This mirrors the paper's accelerator,
//! whose "Im2col/Pack Engine" (Fig. 12, Fig. 17) performs the same lowering
//! before packing rows into line buffers.

use crate::shape::ConvGeom;

/// Lower a single image (flat `[C, H, W]` slice) into a column matrix.
///
/// The output is row-major `[col_len, out_spatial]` where
/// `col_len = C * K * K` and `out_spatial = OH * OW`. Padded positions are
/// filled with `T::default()` (zero).
pub fn im2col<T: Copy + Default>(input: &[T], g: &ConvGeom) -> Vec<T> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let out_spatial = oh * ow;
    let mut col = vec![T::default(); g.col_len() * out_spatial];
    im2col_into(input, g, &mut col);
    col
}

/// [`im2col`] writing into a caller-provided buffer of length
/// `col_len * out_spatial` (a reusable "workhorse" buffer in hot loops).
///
/// # Panics
/// Panics if `input` or `col` have the wrong length.
pub fn im2col_into<T: Copy + Default>(input: &[T], g: &ConvGeom, col: &mut [T]) {
    let (c, h, w, k) = (g.in_channels, g.in_h, g.in_w, g.kernel);
    let (oh, ow) = (g.out_h(), g.out_w());
    let out_spatial = oh * ow;
    assert_eq!(input.len(), c * h * w, "input length mismatch");
    assert_eq!(col.len(), g.col_len() * out_spatial, "col buffer length mismatch");

    for ci in 0..c {
        let in_ch = &input[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let out_row = &mut col[row * out_spatial..(row + 1) * out_spatial];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ki) as isize - g.padding as isize;
                    let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        for d in dst.iter_mut() {
                            *d = T::default();
                        }
                        continue;
                    }
                    let src_row = &in_ch[iy as usize * w..(iy as usize + 1) * w];
                    #[allow(clippy::needless_range_loop)] // index math mirrors col2im
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kj) as isize - g.padding as isize;
                        dst[ox] = if ix < 0 || ix >= w as isize {
                            T::default()
                        } else {
                            src_row[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Pixel-major lowering: the transpose of [`im2col`]'s layout.
///
/// Writes a row-major `[out_spatial, col_len]` matrix into `rows`: row `p`
/// holds output pixel `p`'s receptive field in the same tap order as
/// column `p` of [`im2col`], so a per-output reduction is one contiguous
/// dot product against a `[C, K, K]` filter. Padded taps are
/// `T::default()`.
///
/// # Panics
/// Panics if `input` or `rows` have the wrong length.
pub fn im2row_into<T: Copy + Default>(input: &[T], g: &ConvGeom, rows: &mut [T]) {
    let (c, h, w, k, s, p) = (g.in_channels, g.in_h, g.in_w, g.kernel, g.stride, g.padding);
    let (oh, ow) = (g.out_h(), g.out_w());
    let col_len = g.col_len();
    assert_eq!(input.len(), c * h * w, "input length mismatch");
    assert_eq!(rows.len(), col_len * oh * ow, "rows buffer length mismatch");

    // Zero-pad once so every tap read below is in bounds.
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    let mut padded = vec![T::default(); c * hp * wp];
    for (ci, src) in input.chunks_exact(h * w).enumerate() {
        for (y, src_row) in src.chunks_exact(w).enumerate() {
            let at = (ci * hp + y + p) * wp + p;
            padded[at..at + w].copy_from_slice(src_row);
        }
    }
    // One run of `k` taps per (pixel, channel, kernel row); fixed-size
    // runs for the common kernels copy without a `memcpy` call per run.
    for oy in 0..oh {
        for ci in 0..c {
            for ki in 0..k {
                let src = &padded[(ci * hp + oy * s + ki) * wp..][..wp];
                let dst = &mut rows[oy * ow * col_len + (ci * k + ki) * k..];
                match k {
                    1 => copy_runs::<T, 1>(src, dst, ow, s, col_len),
                    3 => copy_runs::<T, 3>(src, dst, ow, s, col_len),
                    5 => copy_runs::<T, 5>(src, dst, ow, s, col_len),
                    _ => {
                        for ox in 0..ow {
                            dst[ox * col_len..][..k].copy_from_slice(&src[ox * s..][..k]);
                        }
                    }
                }
            }
        }
    }
}

/// Copy `count` runs of `K` elements, read `stride` apart and written
/// `pitch` apart.
fn copy_runs<T: Copy, const K: usize>(
    src: &[T],
    dst: &mut [T],
    count: usize,
    stride: usize,
    pitch: usize,
) {
    for i in 0..count {
        let run: &[T; K] = src[i * stride..][..K].try_into().expect("run length is K");
        let out: &mut [T; K] = (&mut dst[i * pitch..][..K]).try_into().expect("run length is K");
        *out = *run;
    }
}

/// Transpose of [`im2col`]: scatter-add a column matrix back into an image.
///
/// Used by the convolution backward pass to turn the gradient w.r.t. the
/// column matrix into the gradient w.r.t. the input image. Overlapping
/// receptive fields accumulate.
pub fn col2im(col: &[f32], g: &ConvGeom) -> Vec<f32> {
    let (c, h, w, k) = (g.in_channels, g.in_h, g.in_w, g.kernel);
    let (oh, ow) = (g.out_h(), g.out_w());
    let out_spatial = oh * ow;
    assert_eq!(col.len(), g.col_len() * out_spatial, "col length mismatch");
    let mut img = vec![0.0f32; c * h * w];

    for ci in 0..c {
        let img_ch = &mut img[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let src_row = &col[row * out_spatial..(row + 1) * out_spatial];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ki) as isize - g.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kj) as isize - g.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        img_ch[iy as usize * w + ix as usize] += src_row[oy * ow + ox];
                    }
                }
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_3x3() -> ConvGeom {
        ConvGeom::new(1, 1, 3, 3, 2, 1, 0)
    }

    #[test]
    fn im2col_identity_kernel1() {
        // 1x1 kernel: col matrix equals the flattened image.
        let g = ConvGeom::new(2, 4, 2, 2, 1, 1, 0);
        let input: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let col = im2col(&input, &g);
        assert_eq!(col, input);
    }

    #[test]
    fn im2col_2x2_no_pad() {
        let g = geom_3x3();
        // image: 0 1 2 / 3 4 5 / 6 7 8
        let input: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let col = im2col(&input, &g);
        // rows correspond to kernel offsets (0,0),(0,1),(1,0),(1,1);
        // columns to outputs (0,0),(0,1),(1,0),(1,1).
        assert_eq!(col.len(), 4 * 4);
        assert_eq!(&col[0..4], &[0., 1., 3., 4.]); // k=(0,0)
        assert_eq!(&col[4..8], &[1., 2., 4., 5.]); // k=(0,1)
        assert_eq!(&col[8..12], &[3., 4., 6., 7.]); // k=(1,0)
        assert_eq!(&col[12..16], &[4., 5., 7., 8.]); // k=(1,1)
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = ConvGeom::new(1, 1, 2, 2, 3, 1, 1);
        let input = vec![1.0f32, 2.0, 3.0, 4.0];
        let col = im2col(&input, &g);
        assert_eq!(g.out_h(), 2);
        // Kernel offset (0,0) with pad 1: top-left output reads the padded
        // corner => zero; bottom-right output reads input (1,1)=... wait the
        // (0,0) tap of output (1,1) reads input (0,0)=1.
        let out_spatial = 4;
        let row00 = &col[0..out_spatial];
        assert_eq!(row00, &[0., 0., 0., 1.]);
        // Center tap (1,1) reads the input directly.
        let row11 = &col[(3 + 1) * out_spatial..(3 + 1) * out_spatial + 4];
        assert_eq!(row11, &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_into_matches_alloc() {
        let g = ConvGeom::new(2, 3, 5, 4, 3, 2, 1);
        let input: Vec<f32> = (0..40).map(|x| (x as f32).sin()).collect();
        let a = im2col(&input, &g);
        let mut b = vec![7.0f32; a.len()];
        im2col_into(&input, &g, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the transpose, checked on a fixed pseudo-random pair.
        let g = ConvGeom::new(2, 1, 4, 4, 3, 1, 1);
        let n_in = 2 * 4 * 4;
        let n_col = g.col_len() * g.out_spatial();
        let x: Vec<f32> = (0..n_in).map(|i| ((i * 37 + 11) % 17) as f32 - 8.0).collect();
        let y: Vec<f32> = (0..n_col).map(|i| ((i * 53 + 29) % 23) as f32 - 11.0).collect();
        let ax = im2col(&x, &g);
        let aty = col2im(&y, &g);
        let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn im2row_is_the_transpose_of_im2col() {
        // Strides, padding wider than the kernel reach, 1x1 and non-square.
        for g in [
            ConvGeom::new(2, 1, 5, 4, 3, 2, 1),
            ConvGeom::new(3, 1, 4, 4, 3, 1, 1),
            ConvGeom::new(2, 1, 3, 5, 2, 3, 2),
            ConvGeom::new(1, 1, 2, 2, 1, 1, 1),
            ConvGeom::new(2, 1, 6, 6, 5, 1, 2),
        ] {
            let input: Vec<i16> =
                (0..g.in_channels * g.in_h * g.in_w).map(|i| i as i16 + 1).collect();
            let col = im2col(&input, &g);
            let (len, spatial) = (g.col_len(), g.out_spatial());
            let mut rows = vec![-1i16; len * spatial];
            im2row_into(&input, &g, &mut rows);
            for p in 0..spatial {
                for t in 0..len {
                    assert_eq!(rows[p * len + t], col[t * spatial + p], "{g:?} pixel {p} tap {t}");
                }
            }
        }
    }

    #[test]
    fn im2col_integer_elements() {
        let g = ConvGeom::new(1, 1, 3, 3, 2, 1, 0);
        let input: Vec<i8> = (0..9).collect();
        let col = im2col(&input, &g);
        assert_eq!(&col[0..4], &[0, 1, 3, 4]);
    }
}

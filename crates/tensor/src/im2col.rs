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

/// Elements a lowering copies per move; [`im2row_into`]'s buffers carry
/// this much slack past their last row.
pub const ROW_SLACK: usize = 16;

/// Pixel-major lowering into padded rows, one row per output pixel.
///
/// Row `p` holds output pixel `p`'s receptive field in *(kernel row,
/// kernel column, channel)* order, the window order of a channel-last
/// image; [`crate::gemm::PaddedRows::from_filters`] lays filters out in
/// the same order, so a per-output reduction is one contiguous dot
/// product. Row `p` starts at `p · stride`, and its last
/// `stride − col_len` elements are `T::default()`, as are padded taps.
///
/// `padded` is scratch for the zero-padded image, transposed channel-last
/// so that each kernel row of a window is one contiguous run of
/// `kernel · channels` elements; a caller that keeps it lowers without
/// allocating. Runs are copied [`ROW_SLACK`] elements at a time, so a
/// copy may run up to `ROW_SLACK − 1` elements past its row into the next
/// one, which is written after it; `rows` therefore holds
/// `stride · out_spatial + ROW_SLACK` elements, and the slack's contents
/// are unspecified.
///
/// # Panics
/// Panics if `input` or `rows` have the wrong length or
/// `stride < col_len`.
pub fn im2row_into<T: Copy + Default>(
    input: &[T],
    g: &ConvGeom,
    padded: &mut Vec<T>,
    rows: &mut [T],
    stride: usize,
) {
    let (c, h, w, k, s, p) = (g.in_channels, g.in_h, g.in_w, g.kernel, g.stride, g.padding);
    let (oh, ow) = (g.out_h(), g.out_w());
    let col_len = g.col_len();
    assert_eq!(input.len(), c * h * w, "input length mismatch");
    assert!(stride >= col_len, "row stride {stride} below col_len {col_len}");
    assert_eq!(rows.len(), stride * oh * ow + ROW_SLACK, "rows buffer length mismatch");

    // Zero-pad and transpose to `[H + 2p, W + 2p, C]` once, so every run
    // read below is in bounds; the slack covers the last move's over-read.
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    padded.clear();
    padded.resize(hp * wp * c + ROW_SLACK, T::default());
    for (ci, src) in input.chunks_exact(h * w).enumerate() {
        for (y, src_row) in src.chunks_exact(w).enumerate() {
            let dst = padded[((y + p) * wp + p) * c + ci..].iter_mut().step_by(c);
            for (d, &v) in dst.zip(src_row) {
                *d = v;
            }
        }
    }
    // Per pixel, `k` runs of `k · c` taps, each copied in fixed-size moves.
    // A move past the end of a run lands where the next run (or the next
    // row) starts, which is written later; the tail's zeros go in last.
    let run = k * c;
    let tail = stride - col_len;
    for oy in 0..oh {
        for ox in 0..ow {
            let at = (oy * ow + ox) * stride;
            for ki in 0..k {
                let src = &padded[((oy * s + ki) * wp + ox * s) * c..];
                let dst = &mut rows[at + ki * run..];
                for j in (0..run).step_by(ROW_SLACK) {
                    let from: &[T; ROW_SLACK] = src[j..][..ROW_SLACK].try_into().expect("move");
                    let to: &mut [T; ROW_SLACK] =
                        (&mut dst[j..][..ROW_SLACK]).try_into().expect("move");
                    *to = *from;
                }
            }
            if tail >= ROW_SLACK {
                rows[at + col_len..][..tail].fill(T::default());
            } else if tail > 0 {
                rows[at + col_len..][..ROW_SLACK].fill(T::default());
            }
        }
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
    use crate::gemm::PaddedRows;

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
    fn im2row_rows_are_im2col_columns_in_filter_tap_order() {
        // Strides, padding wider than the kernel reach, 1x1 and non-square.
        // Row p must be column p of im2col, reordered exactly as
        // `PaddedRows::from_filters` reorders a filter, so filter rows and
        // pixel rows line up tap for tap.
        for g in [
            ConvGeom::new(2, 1, 5, 4, 3, 2, 1),
            ConvGeom::new(3, 1, 4, 4, 3, 1, 1),
            ConvGeom::new(2, 1, 3, 5, 2, 3, 2),
            ConvGeom::new(1, 1, 2, 2, 1, 1, 1),
            ConvGeom::new(2, 1, 6, 6, 5, 1, 2),
            ConvGeom::new(9, 1, 4, 3, 3, 1, 1),
        ] {
            let input: Vec<i16> =
                (0..g.in_channels * g.in_h * g.in_w).map(|i| i as i16 + 1).collect();
            let col = im2col(&input, &g);
            let (len, spatial) = (g.col_len(), g.out_spatial());
            let columns: Vec<i16> = (0..spatial)
                .flat_map(|p| (0..len).map(move |t| (p, t)))
                .map(|(p, t)| col[t * spatial + p])
                .collect();
            let want = PaddedRows::from_filters(&columns, g.in_channels, g.kernel);
            // Dense rows, padded rows and rows with a long tail, over stale
            // scratch: the tails must come out zero.
            let mut padded = vec![-1i16; 3];
            for stride in [len, len.div_ceil(16) * 16, len.div_ceil(16) * 16 + 16] {
                let mut rows = vec![-1i16; stride * spatial + ROW_SLACK];
                im2row_into(&input, &g, &mut padded, &mut rows, stride);
                for p in 0..spatial {
                    let (taps, tail) = rows[p * stride..][..stride].split_at(len);
                    assert_eq!(taps, &want.view().row(p)[..len], "{g:?} stride {stride} pixel {p}");
                    assert!(tail.iter().all(|&v| v == 0), "{g:?} stride {stride} pixel {p}");
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

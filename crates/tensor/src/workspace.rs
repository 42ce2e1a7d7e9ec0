//! Reusable convolution scratch space.
//!
//! Every conv driver in this workspace lowers each image before its
//! multiply-accumulates: the float conv to column matrices (im2col), the
//! integer convs to pixel-major code rows ([`im2row_into`]). Allocating
//! those buffers per call dominated the hot path; a [`ConvWorkspace`] owns
//! them and re-sizes them to the current [`ConvGeom`], so a long-lived
//! engine lowers into the same memory pass after pass.
//!
//! **Padded code rows.** An image lowers to one row per output pixel. Each
//! row holds the pixel's `col_len` receptive-field codes, then zeros up to
//! the [padded stride](crate::gemm::padded_stride) (`col_len` rounded up to
//! 16), the layout every [`Kernel`](crate::gemm::Kernel) body reads. A layer
//! plan stores its weight rows at the same stride, so a 256-bit body never
//! needs a tail loop and the zero tails add nothing to any sum. One
//! lowering per (layer, image) feeds the ODQ predictor (which shifts the
//! high bit plane out of the full codes in-register), the executor and
//! both receptive sums, mirroring the paper's accelerator where a single
//! operand fetch drives every engine (Sec. 4).
//!
//! Beside the rows, a workspace keeps the zero-padded image the lowering
//! copies from and a [`Scratch`] of per-image accumulators (products,
//! receptive sums, estimates), so a steady-state integer conv allocates
//! nothing per image.
//!
//! A [`WorkspacePool`] hands workspaces to batch-parallel drivers: each
//! rayon task acquires one for the duration of an image and returns it, so
//! the number of live lowering buffers equals the number of worker
//! threads, not the batch size. The pool also aggregates each workspace's
//! lowering counter — the hook tests use to prove the "exactly one
//! lowering per (layer, image)" property.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::gemm::{padded_stride, Rows};
use crate::im2col::{im2col_into, im2row_into, ROW_SLACK};
use crate::shape::ConvGeom;

/// Scratch buffers for one in-flight image: the float column matrix, the
/// padded code rows with the zero-padded image they are copied from, and
/// the per-image accumulators.
#[derive(Default)]
pub struct ConvWorkspace {
    col_f: Vec<f32>,
    padded: Vec<i16>,
    rows: Vec<i16>,
    scratch: Scratch,
    lowerings: u64,
}

/// Per-image accumulators a kernel fills beside the lowered rows. They keep
/// their capacity across images and layers; a kernel resizes each one it
/// uses and overwrites every element it reads.
#[derive(Default)]
pub struct Scratch {
    /// Integer products, filter-major `[filters, pixels]`.
    pub products: Vec<i32>,
    /// Receptive sums `Σ a` per pixel.
    pub sums: Vec<i32>,
    /// High-plane receptive sums `Σ a_H` per pixel.
    pub high_sums: Vec<i32>,
    /// Per-pixel `f32` terms hoisted out of a per-output expression.
    pub pixel_terms: Vec<f32>,
    /// Per-output `f32` values, filter-major `[filters, pixels]`.
    pub values: Vec<f32>,
}

impl ConvWorkspace {
    /// Fresh workspace with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Lower a float image into the reused column buffer.
    pub fn lower_f32(&mut self, input: &[f32], g: &ConvGeom) -> &[f32] {
        let len = g.col_len() * g.out_spatial();
        self.col_f.resize(len, 0.0);
        im2col_into(input, g, &mut self.col_f);
        self.lowerings += 1;
        &self.col_f
    }

    /// Lower an integer-code image into padded pixel-major rows
    /// ([`im2row_into`] at [`padded_stride`]`(col_len)`), and hand out the
    /// per-image [`Scratch`] beside them.
    pub fn lower_i16_rows(&mut self, input: &[i16], g: &ConvGeom) -> (Rows<'_>, &mut Scratch) {
        let stride = padded_stride(g.col_len());
        let len = stride * g.out_spatial();
        self.rows.resize(len + ROW_SLACK, 0);
        im2row_into(input, g, &mut self.padded, &mut self.rows, stride);
        self.lowerings += 1;
        (Rows::new(&self.rows[..len], stride), &mut self.scratch)
    }

    /// Lowerings performed since construction or the last take.
    pub fn lowerings(&self) -> u64 {
        self.lowerings
    }

    fn take_lowerings(&mut self) -> u64 {
        std::mem::take(&mut self.lowerings)
    }
}

/// A shared pool of [`ConvWorkspace`]s for batch-parallel drivers.
///
/// `with` pops a free workspace (or creates one), runs the closure, and
/// returns the workspace to the pool — so concurrent rayon tasks each get
/// exclusive scratch while sequential callers keep reusing a single
/// buffer. The pool accumulates every returned workspace's lowering count.
#[derive(Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<ConvWorkspace>>,
    lowerings: AtomicU64,
}

impl WorkspacePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with exclusive access to a pooled workspace.
    pub fn with<R>(&self, f: impl FnOnce(&mut ConvWorkspace) -> R) -> R {
        let mut ws = self.free.lock().expect("workspace pool poisoned").pop().unwrap_or_default();
        let r = f(&mut ws);
        self.lowerings.fetch_add(ws.take_lowerings(), Ordering::Relaxed);
        self.free.lock().expect("workspace pool poisoned").push(ws);
        r
    }

    /// Total lowerings (im2col or im2row) performed through this pool.
    pub fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
    }

    /// Reset the lowering counter (tests bracket a region of interest).
    pub fn reset_lowerings(&self) {
        self.lowerings.store(0, Ordering::Relaxed);
    }

    /// Number of idle workspaces currently held.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::PaddedRows;
    use crate::im2col::im2col;

    #[test]
    fn lower_f32_matches_im2col_across_geometries() {
        let mut ws = ConvWorkspace::new();
        for g in [ConvGeom::new(2, 3, 5, 4, 3, 2, 1), ConvGeom::new(1, 2, 3, 3, 2, 1, 0)] {
            let input: Vec<f32> =
                (0..g.in_channels * g.in_h * g.in_w).map(|i| (i as f32).sin()).collect();
            assert_eq!(ws.lower_f32(&input, &g), im2col(&input, &g).as_slice());
        }
        assert_eq!(ws.lowerings(), 2);
    }

    #[test]
    fn code_rows_are_padded_with_zero_tails_across_geometries() {
        // A wide geometry, then a narrow one through the same workspace:
        // the second lowering's tails must not keep the first one's codes.
        let mut ws = ConvWorkspace::new();
        for g in [ConvGeom::new(3, 1, 5, 5, 3, 1, 1), ConvGeom::new(2, 1, 4, 4, 3, 2, 1)] {
            let input: Vec<i16> =
                (0..g.in_channels * g.in_h * g.in_w).map(|i| i as i16 + 1).collect();
            let col = crate::im2col::im2col(&input, &g);
            let (len, spatial) = (g.col_len(), g.out_spatial());
            let columns: Vec<i16> = (0..spatial)
                .flat_map(|p| (0..len).map(move |t| (p, t)))
                .map(|(p, t)| col[t * spatial + p])
                .collect();
            let want = PaddedRows::from_filters(&columns, g.in_channels, g.kernel);
            let (rows, _) = ws.lower_i16_rows(&input, &g);
            assert_eq!((rows.count(), rows.stride()), (spatial, padded_stride(len)));
            for p in 0..spatial {
                assert_eq!(rows.row(p), want.view().row(p), "{g:?} pixel {p}");
            }
        }
        assert_eq!(ws.lowerings(), 2);
    }

    #[test]
    fn pool_reuses_and_counts() {
        let pool = WorkspacePool::new();
        let g = ConvGeom::new(1, 1, 3, 3, 2, 1, 0);
        let input = vec![1i16; 9];
        for _ in 0..3 {
            pool.with(|ws| {
                ws.lower_i16_rows(&input, &g);
            });
        }
        assert_eq!(pool.lowerings(), 3);
        assert_eq!(pool.idle(), 1, "sequential use keeps a single workspace");
        pool.reset_lowerings();
        assert_eq!(pool.lowerings(), 0);
    }
}

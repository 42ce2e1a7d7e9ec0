//! Reusable convolution scratch space.
//!
//! Every conv driver in this workspace lowers each image before its
//! multiply-accumulates: the float conv to column matrices (im2col), the
//! integer convs to pixel-major code rows (one contiguous `col_len` row per
//! output pixel, [`im2row_into`]). Allocating those buffers per call
//! dominated the hot path; a [`ConvWorkspace`] owns them and re-sizes them
//! to the current [`ConvGeom`], so a long-lived engine lowers into the same
//! memory pass after pass. The ODQ kernel also derives the high bit plane
//! of the lowered codes in place — one lowering per (layer, image) feeds
//! the predictor, the executor and both receptive-sum accumulators,
//! mirroring the paper's accelerator where a single operand fetch drives
//! every engine (Sec. 4).
//!
//! A [`WorkspacePool`] hands workspaces to batch-parallel drivers: each
//! rayon task acquires one for the duration of an image and returns it, so
//! the number of live lowering buffers equals the number of worker
//! threads, not the batch size. The pool also aggregates each workspace's
//! lowering counter — the hook tests use to prove the "exactly one
//! lowering per (layer, image)" property.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::im2col::{im2col_into, im2row_into};
use crate::shape::ConvGeom;

/// Scratch buffers for one in-flight image: the float column matrix, plus
/// the pixel-major code rows and their high bit plane.
#[derive(Default)]
pub struct ConvWorkspace {
    col_f: Vec<f32>,
    rows_i: Vec<i16>,
    rows_hi: Vec<i16>,
    lowerings: u64,
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

    /// Lower an integer-code image pixel-major ([`im2row_into`]: one
    /// contiguous `col_len` row per output pixel) into the reused buffer.
    pub fn lower_i16_rows(&mut self, input: &[i16], g: &ConvGeom) -> &[i16] {
        self.rows_i.resize(g.col_len() * g.out_spatial(), 0);
        im2row_into(input, g, &mut self.rows_i);
        self.lowerings += 1;
        &self.rows_i
    }

    /// [`lower_i16_rows`](Self::lower_i16_rows), then derive the high bit
    /// plane of every tap, `c >> low_bits` (arithmetic).
    ///
    /// Exact: zero-padded taps shift to 0, so the high rows equal what
    /// lowering a pre-split high-plane tensor would produce. Returns
    /// `(codes, high)` row matrices; only one lowering is counted.
    pub fn lower_i16_planes(
        &mut self,
        input: &[i16],
        g: &ConvGeom,
        low_bits: u8,
    ) -> (&[i16], &[i16]) {
        self.lower_i16_rows(input, g);
        self.rows_hi.resize(self.rows_i.len(), 0);
        for (h, &c) in self.rows_hi.iter_mut().zip(&self.rows_i) {
            *h = c >> low_bits;
        }
        (&self.rows_i, &self.rows_hi)
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
    fn high_rows_match_splitting_before_lowering() {
        let g = ConvGeom::new(2, 2, 4, 4, 3, 1, 1);
        let input: Vec<i16> = (0..2 * 16).map(|i| (i as i16 % 31) - 15).collect();
        let mut ws = ConvWorkspace::new();
        let (codes, hi) = ws.lower_i16_planes(&input, &g, 2);

        let pre_hi: Vec<i16> = input.iter().map(|&c| c >> 2).collect();
        let mut expect = vec![0i16; codes.len()];
        im2row_into(&input, &g, &mut expect);
        assert_eq!(codes, expect.as_slice());
        im2row_into(&pre_hi, &g, &mut expect);
        assert_eq!(hi, expect.as_slice());
        assert_eq!(ws.lowerings(), 1, "plane derivation must not count as a lowering");
    }

    #[test]
    fn pool_reuses_and_counts() {
        let pool = WorkspacePool::new();
        let g = ConvGeom::new(1, 1, 3, 3, 2, 1, 0);
        let input = vec![1i16; 9];
        for _ in 0..3 {
            pool.with(|ws| {
                let _ = ws.lower_i16_rows(&input, &g);
            });
        }
        assert_eq!(pool.lowerings(), 3);
        assert_eq!(pool.idle(), 1, "sequential use keeps a single workspace");
        pool.reset_lowerings();
        assert_eq!(pool.lowerings(), 0);
    }
}

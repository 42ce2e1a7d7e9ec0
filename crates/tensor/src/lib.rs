//! # odq-tensor
//!
//! Minimal, dependency-light tensor substrate used by the ODQ reproduction.
//!
//! The crate provides:
//!
//! * [`Tensor`] — a generic, contiguous, row-major N-dimensional array.
//!   Convolutional code uses the NCHW layout convention throughout.
//! * [`shape::ConvGeom`] — convolution geometry (kernel/stride/padding and
//!   derived output sizes) shared by the float, integer and simulated-hardware
//!   convolution paths.
//! * [`im2col`] — image-to-column lowering (and its transpose `col2im`),
//!   the lowering the paper's accelerator performs in its "Im2col/Pack engine"
//!   (Fig. 12/17), plus the pixel-major `im2row_into` every integer conv
//!   (static, DRQ, ODQ) lowers its codes with, into padded rows.
//! * [`gemm`] — rayon-parallel `f32` GEMM kernels, and the integer kernel
//!   ([`gemm::Kernel`]: portable and AVX2 bodies, picked once per process)
//!   every integer convolution computes its outputs with.
//! * [`conv`] — float convolution / pooling forward and backward passes
//!   built on im2col + GEMM.
//! * [`stats`] — summary statistics (quantiles, moments) used for threshold
//!   calibration.
//! * [`workspace`] — reusable lowering scratch ([`ConvWorkspace`]: padded
//!   code rows and per-image accumulators) and the [`WorkspacePool`] that
//!   batch-parallel conv drivers draw per-task scratch from, replacing
//!   per-call and per-image allocations.
//!
//! Everything is deterministic: no global state, no hidden threading beyond
//! rayon's data-parallel iterators (which preserve results bit-for-bit for the
//! reductions used here because each output element is reduced sequentially).

pub mod conv;
pub mod gemm;
pub mod im2col;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod workspace;

pub use shape::{ConvGeom, Shape};
pub use tensor::Tensor;
pub use workspace::{ConvWorkspace, WorkspacePool};

/// Crate-wide floating point element type for model data.
pub type Elem = f32;

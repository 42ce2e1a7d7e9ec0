//! # odq-core
//!
//! **Output-Directed Dynamic Quantization (ODQ)** — the paper's primary
//! contribution (Sec. 3).
//!
//! ODQ computes each convolution in two pipelined steps over INT4 operands:
//!
//! 1. **Sensitivity prediction** — only the high-order 2 bits of inputs and
//!    weights (`I_HBS`, `W_HBS`) are multiplied, producing a cheap partial
//!    sum per output feature. Features whose partial magnitude meets a
//!    threshold are predicted *sensitive* and recorded in a bit mask.
//! 2. **Result generation** — for sensitive outputs only, the remaining
//!    three cross terms of Eq. 3 are computed and added; insensitive
//!    outputs keep the predictor-only (low-precision) value.
//!
//! Modules:
//!
//! * [`odq_conv`] — the masked two-step convolution: one planned kernel
//!   whose dense predictor builds the mask and whose executor computes
//!   only the sensitive outputs (what the accelerator does), plus a
//!   per-call wrapper that also returns the exact INT4 reference.
//! * [`mask`] — sensitivity bit masks and per-channel workload summaries
//!   consumed by the accelerator simulator.
//! * [`engine`] — [`OdqEngine`], a `ConvExecutor` that runs entire models
//!   under ODQ while recording per-layer statistics (Figs. 9/10, Sec. 6.1).
//! * [`threshold`] — the adaptive threshold search of Sec. 3 (quantile
//!   initialization, retrain with the threshold in the loop, halve until
//!   accuracy is acceptable) and the sweep for Fig. 22 / Table 3.
//! * [`stats`] — per-layer statistics records.

pub mod engine;
pub mod mask;
pub mod odq_conv;
pub mod stats;
pub mod threshold;

pub use engine::OdqEngine;
pub use mask::SensitivityMask;
pub use odq_conv::{
    odq_conv2d, odq_conv2d_planned, odq_int4_reference, OdqCfg, OdqConvOutput, OdqConvReport,
};
pub use stats::{LayerStats, OdqStats};
pub use threshold::{
    search_per_layer_thresholds, search_threshold, threshold_sweep, SearchCfg, SweepPoint,
};

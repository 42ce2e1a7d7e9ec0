//! # odq-quant
//!
//! Quantization substrate for the ODQ reproduction, modeled on
//! DoReFa-Net-style uniform quantization (Zhou et al., 2016 — the scheme the
//! paper's INT16/INT8 static baselines and its own INT4 front end use):
//!
//! * [`dorefa`] — k-bit uniform quantizers. Activations are clipped to
//!   `[0, clip]` and coded unsigned; weights are scaled symmetrically and
//!   coded signed. "Fake-quantize" (quantize→dequantize) variants support
//!   quantization-aware training with a straight-through estimator.
//! * [`qtensor`] — a quantized tensor: integer codes + scale + scheme.
//! * [`bitsplit`] — two's-complement bit-plane splitting of integer codes
//!   into high-order and low-order parts (`I_HBS`/`I_LBS`, `W_HBS`/`W_LBS`
//!   in the paper's Eq. 3). The identity `code = (high << low_bits) + low`
//!   holds exactly, with `high` carrying the sign.
//! * [`qconv`] — integer convolution over quantized tensors (pixel-major
//!   lowering into padded code rows + exact `i16`×`i16`→`i32` products on
//!   odq-tensor's integer kernel, `i64` per pair for wide schemes) with
//!   offset-binary affine corrections. Applied to bit planes, the same code convolution gives
//!   the partial products of Eq. 3.
//! * [`plan`] — per-layer convolution plans ([`plan::QConvPlan`]):
//!   quantized weights, every weight matrix a kernel reads as padded rows,
//!   and the predictor's per-filter constants, prepacked once per weight
//!   version and cached in a [`plan::PlanCache`] keyed by a full-content
//!   fingerprint.

//! # Example
//!
//! ```
//! use odq_quant::{quantize_activation, quantize_weights, split_qtensor};
//! use odq_quant::qconv::{qconv2d, qconv2d_codes};
//! use odq_tensor::{ConvGeom, Tensor};
//!
//! let g = ConvGeom::new(2, 3, 4, 4, 3, 1, 1);
//! let x = Tensor::from_vec(g.input_shape(1), vec![0.5; 32]);
//! let w = Tensor::from_vec(g.weight_shape(), vec![0.25; 54]);
//!
//! // Quantize to INT4 (offset-binary weights), split into 2-bit planes,
//! // and verify the Eq. 3 decomposition reconstructs the full product.
//! let qx = quantize_activation(&x, 4, 1.0);
//! let qw = quantize_weights(&w, 4);
//! let (xp, wp) = (split_qtensor(&qx, 2), split_qtensor(&qw, 2));
//! let full = qconv2d_codes(&qx.codes, &qw.codes, &g);
//! let hh = qconv2d_codes(&xp.high, &wp.high, &g);
//! let hl = qconv2d_codes(&xp.high, &wp.low, &g);
//! let lh = qconv2d_codes(&xp.low, &wp.high, &g);
//! let ll = qconv2d_codes(&xp.low, &wp.low, &g);
//! for i in 0..g.out_features() {
//!     let planes = (hh.as_slice()[i] << 4)
//!         + ((hl.as_slice()[i] + lh.as_slice()[i]) << 2)
//!         + ll.as_slice()[i];
//!     assert_eq!(full.as_slice()[i], planes);
//! }
//!
//! // The affine-aware convolution dequantizes exactly: 0.5 codes to 8/15
//! // and 0.25 is on the weight grid, so the center output (all 18 taps
//! // in bounds) is 18 · (8/15) · 0.25.
//! let y = qconv2d(&qx, &qw, &g);
//! let center = y.at(&[0, 0, 1, 1]);
//! assert!((center - 18.0 * (8.0 / 15.0) * 0.25).abs() < 1e-3);
//! ```

pub mod bitsplit;
pub mod dorefa;
pub mod plan;
pub mod predict;
pub mod qconv;
pub mod qtensor;
pub mod sqnr;

pub use bitsplit::{join_planes, split_codes, split_qtensor, BitPlanes};
pub use dorefa::{
    fake_quantize_activation, fake_quantize_weights, quantize_activation, quantize_weights,
    quantize_weights_symmetric,
};
pub use plan::{weight_fingerprint, PlanCache, PlanSpec, QConvPlan};
pub use predict::{odq_estimate_precomputed, odq_predict, OdqPrediction};
pub use qtensor::{QScheme, QTensor};

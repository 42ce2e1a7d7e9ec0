//! odq-conformance — scalar golden oracle and cross-engine differential
//! harness.
//!
//! The workspace executes every convolution three ways: per-call kernels
//! (`odq_quant::qconv`, `odq_core::odq_conv`, `odq_drq::drq_conv`),
//! planned drivers (among them the ODQ kernel with its sensitive-only
//! executor), and the `odq-serve` worker fleet. Their correctness anchors elsewhere are
//! *pairwise* property tests — which cannot see a bug shared by both
//! sides of a pair. This crate pins all of them to an independent,
//! deliberately slow scalar reference instead, in the style of
//! exact-emulation quantized-DNN libraries (Kiyama et al.) and AdaPT's
//! reference-vs-accelerated differential testing:
//!
//! * [`oracle`] — naive nested-loop transcriptions of every kernel:
//!   f32 conv (Eq. 2), DoReFa quantizers, the Eq. 3 HBS/LBS bit-plane
//!   split, integer conv with offset-binary affine correction, the
//!   predictor's partial sums and estimate, the ODQ executor's three
//!   cross terms, and DRQ's region-masked mixed-precision path.
//! * [`runner`] — given a [`runner::LayerSpec`], executes every engine
//!   path against the oracle and reports per-element max ulp/abs
//!   divergence, with greedy shrinking of failing specs
//!   ([`runner::minimize`]) and an oracle-backed `ConvExecutor`
//!   ([`runner::OracleExecutor`]) for pinning whole-model forwards (the
//!   serve round-trip) to the oracle.
//! * [`policy`] — per-layer precision-policy conformance: a routed
//!   scalar oracle ([`PolicyOracleExecutor`]), a routed real-engine
//!   executor mirroring serving's `PolicyExecutor` ([`RoutedEngine`]),
//!   and the policy-aware publish gate ([`PolicyOracleGate`]).
//! * [`fixtures`] — small deterministic golden tensors committed under
//!   `tests/fixtures/` (ODQT files written by `odq_nn::serialize`), so a
//!   refactor that changes kernel *and* reference together is still
//!   caught.
//! * [`strategies`] — shared proptest strategies over layer geometry.
//!
//! Driven by `tests/conformance.rs` (CI) and the `conformance_check` bin
//! (manual triage, `--regen`, `--verify-fixtures`).

pub mod fixtures;
pub mod gate;
pub mod oracle;
pub mod policy;
pub mod runner;
pub mod strategies;

pub use gate::OracleGate;
pub use policy::{PolicyOracleExecutor, PolicyOracleGate, RoutedEngine};
pub use runner::{
    compare, minimize, run_layer_diff, ulp_diff, DiffReport, Divergence, LayerSpec, OracleExecutor,
    OracleKind, PathClass, PathReport,
};
pub use strategies::{GeomStrategy, LayerSpecStrategy};

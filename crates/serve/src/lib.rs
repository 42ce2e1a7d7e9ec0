//! odq-serve — batched, backpressured inference serving.
//!
//! The paper evaluates ODQ on single-image latency and energy; this crate
//! turns the engines into a small *serving system*, the deployment shape
//! the paper motivates ("real-time inference ... on resource-constrained
//! systems", Sec. 1):
//!
//! ```text
//!   submit() ──► bounded queue ──► micro-batcher ──► worker pool ──► responses
//!   (admission     (capacity =      (dispatch at once  (each worker
//!    control:       queue_depth,     to an idle worker; owns long-lived
//!    reject when    try_send)        while all busy,    engines; weight
//!    full)                           coalesce same      caches amortize;
//!                                    model+shape until  a freed worker
//!                                    a worker frees up, takes the oldest
//!                                    max_batch or       forming group)
//!                                    max_wait)             │
//!                                                          ▼
//!                                                  streaming stats ledger
//!                                              (log-bucketed latency
//!                                               histograms, outcome
//!                                               counters, queue/batch
//!                                               gauges, simulated
//!                                               accelerator cycles/energy
//!                                               — O(1) memory in requests)
//! ```
//!
//! Requests carry one `[1, C, H, W]` image for a named model and an
//! optional deadline. The batcher coalesces *compatible* requests (same
//! model, same input shape) into one `[N, C, H, W]` tensor; a worker runs
//! one forward pass through its engine ([`EngineKind`] selects float,
//! static INT-k, DRQ, ODQ, or a per-layer mixed-precision
//! [`odq_nn::policy::PrecisionPolicy`] routed by [`PolicyExecutor`] —
//! anything behind `odq_nn`'s `ConvExecutor` seam) and scatters the
//! `[N, classes]` output back to the per-request response channels.
//! Batching is exact: per-sample im2col/GEMM and batch-independent
//! quantization scales make the batched outputs element-wise identical to
//! solo runs (asserted by this crate's tests).
//!
//! Per batch, the worker also feeds the measured sensitivity profile (for
//! ODQ, the engine's per-channel counts; for others, uniform workloads)
//! through `odq_accel`'s cycle-level simulator, so the ledger reports what
//! each served batch *would* cost on the paper's accelerator. Under a
//! precision policy, each route is costed on its own accelerator
//! configuration and the ledger splits cycles and energy per route
//! ([`RouteStats`] / the `simulated_accel.routes` section of
//! [`Server::stats_json`]).
//!
//! [`Server::shutdown`] is graceful: admission closes first, then the
//! batcher drains and flushes every admitted request, then workers finish
//! in-flight batches — no response is lost or duplicated.
//!
//! Models are *versioned*: every server is backed by an
//! `odq_registry::ModelRegistry`, admission resolves each request to an
//! immutable [`Deployment`] snapshot (weights + per-version plan cache)
//! exactly once, and [`Server::deploy`] / [`Server::rollback`] swap the
//! route atomically with zero downtime — in-flight requests finish on the
//! version they were admitted under, batches never mix versions, and the
//! incoming plan cache is seeded from the outgoing one so a swap costs
//! only the plan rebuilds of layers whose weights changed.
//! [`Server::canary`] routes a deterministic, seeded fraction of request
//! ids ([`TrafficSplit`]) to a candidate version, with per-version
//! completions and service latency split out in the stats ledger.
//!
//! The server itself is transport-agnostic — everything enters through
//! [`Server::submit`], which returns a per-request [`ResponseHandle`], or
//! [`Server::submit_tagged`], which pushes `(tag, result)` into a caller's
//! [`CompletionQueue`] so one thread can block on many requests at once.
//! The `odq-net` crate puts a TCP front-end on top
//! (the `ODQ1` length-prefixed wire protocol), streaming its
//! connection/byte/frame counters into this crate's ledger through
//! [`NetTap`], and its load generators drive either side of the wire via
//! [`LoadTarget`].
//!
//! Workers are *supervised*: a panic during batch execution is caught,
//! every request in the panicked batch is answered with
//! [`ServeError::Internal`], the panic and restart are counted in the
//! ledger, and the worker restarts with fresh engines so capacity
//! recovers. The [`fault`] module injects such panics on demand — a
//! [`FaultHook`] consulted at the top of every batch, with deterministic
//! nth-batch, per-model, and seeded-probability triggers — so the
//! recovery path stays tested, and the chaos harness
//! (`odq-chaos`) can drive it under schedule. Requests whose deadline
//! is shorter than the batching window are dispatched early by the
//! deadline-aware batcher instead of expiring in it.
//!
//! The ledger's counters obey a checkable conservation law — every
//! admitted request reaches exactly one terminal outcome —
//! and [`Server::reconcile`] / [`StatsSummary::reconcile`] audit it,
//! returning a typed [`ReconcileReport`] that also cross-checks the
//! streaming aggregates against each other.

#![warn(missing_docs)]

pub mod config;
pub mod deploy;
pub mod engine;
pub mod fault;
pub mod loadgen;
pub mod request;
pub mod server;
pub mod stats;
pub mod trace;

mod batcher;
mod worker;

pub use config::ServeConfig;
pub use deploy::{DeployError, Deployment, TrafficSplit};
pub use engine::{EngineKind, PolicyExecutor};
pub use fault::{FaultHook, NthBatchFault, PerModelNthFault, SeededProbFault};
pub use loadgen::{run_closed_loop, run_open_loop, LoadReport, LoadSpec, LoadTarget};
pub use request::{
    Completion, CompletionQueue, InferRequest, InferResponse, RequestTiming, ResponseHandle,
    ResponseSender, ServeError,
};
pub use server::{Server, ServerBuilder};
pub use stats::{
    BatchRecord, BatchSim, LatencyStats, LayerProfile, LayerRuntimeStats, LogHistogram,
    ModelVersionStats, NetStats, NetTap, ReconcileReport, RouteSim, RouteStats, StatsHandle,
    StatsSummary,
};
pub use trace::{SpanRecord, SpanStage, TraceSink};

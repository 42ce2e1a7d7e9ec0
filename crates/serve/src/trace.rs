//! Per-request span tracing: the hook seam the serving pipeline reports
//! through.
//!
//! Every request gets a trace id at admission — the caller's own
//! ([`crate::InferRequest::with_trace`], carried over the wire by the
//! `odq-net` `FLAG_TRACE` request flag and echoed in responses) or, by
//! default, a fresh server-unique sequence number. (Not the request id:
//! callers may reuse request ids across connections, and two requests
//! sharing a trace id would interleave their spans.) A [`TraceSink`] installed in
//! [`crate::ServeConfig::trace`] decides *once per request* whether that
//! trace is sampled ([`TraceSink::sample`] — required to be a pure
//! function of the trace id so chaos replay determinism survives), and
//! sampled requests then report a [`SpanRecord`] at each of the five
//! pipeline stages ([`SpanStage`]):
//!
//! ```text
//!   Submit ──► BatchForm ──► WorkerDequeue ──► EngineExecute ──► ResponseScatter
//! ```
//!
//! The sink implementation lives in `odq-obs` (a sharded ring buffer with
//! seeded sampling); this module only defines the contract, so the serve
//! crate stays dependency-free and the hooks cost one virtual call per
//! stage per *sampled* request — and nothing at all when no sink is
//! installed.

use std::fmt;
use std::time::{Duration, Instant};

/// The five pipeline stages a sampled request reports, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanStage {
    /// Admission accepted the request into the bounded queue.
    Submit,
    /// The micro-batcher flushed the batch this request rode in.
    BatchForm,
    /// A worker dequeued the batch for execution.
    WorkerDequeue,
    /// The forward pass ran (the span's `dur` is the service time).
    EngineExecute,
    /// The response was scattered back to the request's channel.
    ResponseScatter,
}

impl SpanStage {
    /// All five stages, in pipeline order.
    pub const ALL: [SpanStage; 5] = [
        SpanStage::Submit,
        SpanStage::BatchForm,
        SpanStage::WorkerDequeue,
        SpanStage::EngineExecute,
        SpanStage::ResponseScatter,
    ];

    /// Stable lowercase label (used as the Prometheus `stage` label).
    pub fn label(self) -> &'static str {
        match self {
            SpanStage::Submit => "submit",
            SpanStage::BatchForm => "batch_form",
            SpanStage::WorkerDequeue => "worker_dequeue",
            SpanStage::EngineExecute => "engine_execute",
            SpanStage::ResponseScatter => "response_scatter",
        }
    }
}

impl fmt::Display for SpanStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage of one sampled request's journey through the pipeline.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The request's trace id (caller-supplied or a fresh server-unique id).
    pub trace: u64,
    /// The request id the span belongs to.
    pub request: u64,
    /// Model the request targeted.
    pub model: String,
    /// Deployment version the request was admitted under (0 at stages
    /// where the version is not yet resolved).
    pub version: u64,
    /// Which pipeline stage this span marks.
    pub stage: SpanStage,
    /// When the stage happened. Stages of one request are monotone
    /// non-decreasing in pipeline order.
    pub at: Instant,
    /// Stage duration, when the stage has a natural extent (currently
    /// only [`SpanStage::EngineExecute`], whose `dur` is the forward-pass
    /// service time).
    pub dur: Option<Duration>,
}

/// Where sampled spans go. Implemented by `odq-obs`'s sharded trace
/// buffer; anything `Send + Sync` works.
///
/// `sample` is consulted exactly once per request, at admission, and MUST
/// be a pure function of the trace id (never time or ambient randomness):
/// the chaos harness replays schedules by seed and asserts bit-identical
/// event logs, so the *set* of sampled traces has to be reproducible even
/// though the span timestamps inside are not.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Should this trace id's spans be recorded? Pure; called once per
    /// request at admission.
    fn sample(&self, trace: u64) -> bool;

    /// Record one span of a sampled request. Called from admission,
    /// batcher, and worker threads; implementations must be lock-cheap.
    fn record(&self, span: SpanRecord);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_are_stable_and_ordered() {
        let labels: Vec<_> = SpanStage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["submit", "batch_form", "worker_dequeue", "engine_execute", "response_scatter"]
        );
        for w in SpanStage::ALL.windows(2) {
            assert!(w[0] < w[1], "ALL must be in pipeline order");
        }
        assert_eq!(SpanStage::EngineExecute.to_string(), "engine_execute");
    }
}

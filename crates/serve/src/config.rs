//! Server configuration knobs.

use std::sync::Arc;
use std::time::Duration;

use crate::fault::FaultHook;
use crate::trace::TraceSink;

/// Tunables for [`crate::Server`].
///
/// Defaults favor the test/bench workloads in this repository (small
/// models, a handful of workers); production-shaped deployments would
/// raise `queue_depth` and `max_batch`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Capacity of the bounded submission queue. When the queue is full,
    /// [`crate::Server::submit`] rejects with
    /// [`crate::ServeError::QueueFull`] instead of blocking — admission
    /// control backpressures the client, not the server.
    pub queue_depth: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Maximum time the *oldest* request of a forming batch waits for
    /// co-batching company before the batch is flushed anyway. A batch
    /// forms only while every worker is busy: an idle worker is handed
    /// the oldest forming group at once, so this bounds waiting only
    /// while the pool is saturated.
    pub max_wait: Duration,
    /// Worker threads. Each owns one long-lived engine per model, so the
    /// ODQ engine's quantized-weight cache amortizes across batches.
    pub workers: usize,
    /// Deadline applied to requests that do not carry their own. `None`
    /// means no deadline.
    pub default_deadline: Option<Duration>,
    /// Run the cycle-level accelerator simulator on every batch's measured
    /// sensitivity profile and record cycles/energy in the ledger.
    pub simulate_accel: bool,
    /// Fault injection (tests only): a [`FaultHook`] the worker consults
    /// as each batch starts executing. A tripped hook panics the worker,
    /// exercising the supervision path: the batch's requests are answered
    /// with [`crate::ServeError::Internal`] and the worker restarts with a
    /// fresh engine. `None` (the default) injects nothing. See
    /// [`crate::fault`] for the bundled deterministic triggers (nth-batch,
    /// per-model, seeded-probability).
    pub fault_hook: Option<Arc<dyn FaultHook>>,
    /// Per-request span tracing sink ([`crate::trace`]). Requests whose
    /// trace id the sink samples report a span at each of the five
    /// pipeline stages. `None` (the default) traces nothing and costs
    /// nothing on the hot path.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Record per-layer wall time, route, mask density, and simulated
    /// cycles into the ledger's per-(model, version, layer) aggregates on
    /// every batch. On by default; the cost is one `Instant::now` pair
    /// per conv layer plus O(layers) ledger work per batch.
    pub layer_profiling: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            workers: 2,
            default_deadline: None,
            simulate_accel: true,
            fault_hook: None,
            trace: None,
            layer_profiling: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_depth >= c.max_batch);
        assert!(c.workers >= 1);
        assert!(c.max_wait > Duration::ZERO);
    }
}

//! Request/response types and the submission error taxonomy.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use odq_tensor::Tensor;

/// One inference request: a single `[1, C, H, W]` image for a named model.
#[derive(Clone, Debug)]
pub struct InferRequest {
    /// Name the model was registered under ([`crate::ServerBuilder::model`]).
    pub model: String,
    /// Input image, shape `[1, C, H, W]` matching the model's configured
    /// input channels and spatial size.
    pub input: Tensor,
    /// Optional deadline, relative to submission. A request still queued
    /// or batched when its deadline passes is answered with
    /// [`ServeError::DeadlineExceeded`] instead of being run.
    pub deadline: Option<Duration>,
    /// Optional caller-chosen request id. Canary routing hashes this id
    /// (deterministically, see [`crate::TrafficSplit`]), so resubmitting
    /// with the same id lands on the same version. When `None` the server
    /// assigns the next value of an internal sequence.
    pub id: Option<u64>,
    /// Optional caller-chosen trace id for distributed tracing
    /// ([`crate::trace`]). Carried over the wire by `odq-net`'s
    /// `FLAG_TRACE` and echoed back in [`InferResponse::trace`]. When
    /// `None` the server assigns a fresh server-unique trace id (not the
    /// request id, which callers may reuse across connections).
    pub trace: Option<u64>,
}

impl InferRequest {
    /// Request without a deadline.
    pub fn new(model: impl Into<String>, input: Tensor) -> Self {
        Self { model: model.into(), input, deadline: None, id: None, trace: None }
    }

    /// Attach a deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach an explicit request id (the canary-routing key).
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Attach an explicit trace id (propagated and echoed end to end).
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Timing observed for one request.
#[derive(Clone, Copy, Debug)]
pub struct RequestTiming {
    /// Submission → start of the forward pass that served it.
    pub queue_wait: Duration,
    /// Duration of that forward pass (shared by the whole batch).
    pub service: Duration,
    /// Submission → response ready.
    pub total: Duration,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
}

/// Successful response: the request's row of the model output.
#[derive(Clone, Debug)]
pub struct InferResponse {
    /// Output logits, shape `[1, num_classes]`.
    pub output: Tensor,
    /// Timing breakdown.
    pub timing: RequestTiming,
    /// The request's trace id, echoed back: the id the caller attached
    /// ([`InferRequest::with_trace`]), or the server-assigned one. `None`
    /// only when an older transport did not echo it.
    pub trace: Option<u64>,
}

/// Why a request was rejected or failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded submission queue is full — backpressure; retry later.
    QueueFull,
    /// No model registered under this name.
    UnknownModel(String),
    /// Input tensor shape does not match the model's expected
    /// `[1, C, H, W]`.
    BadInput(String),
    /// The deadline passed before the request reached a worker.
    DeadlineExceeded,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The serving pipeline dropped the response channel (worker panic).
    WorkerLost,
    /// A worker panicked while executing the batch this request rode in.
    /// The worker was restarted with a fresh engine; retrying is safe.
    Internal,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "submission queue full"),
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::BadInput(why) => write!(f, "bad input: {why}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerLost => write!(f, "serving pipeline dropped the response"),
            ServeError::Internal => {
                write!(f, "internal error: worker panicked while serving the batch")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Handle to a submitted request's eventual response.
///
/// The response arrives on a dedicated single-slot channel, so a handle
/// can be waited on from any thread, at any time after submission.
#[derive(Debug)]
pub struct ResponseHandle {
    pub(crate) rx: Receiver<Result<InferResponse, ServeError>>,
}

impl ResponseHandle {
    /// A fresh single-slot response channel: the sending half resolves the
    /// handle exactly once. This is how an out-of-process front-end (the
    /// `odq-net` client) hands out the same handle type the in-process
    /// [`crate::Server::submit`] does — a dropped sender resolves the
    /// handle to [`ServeError::WorkerLost`], exactly like a dropped
    /// pipeline.
    pub fn channel() -> (ResponseSender, ResponseHandle) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        (ResponseSender { tx }, ResponseHandle { rx })
    }

    /// Block until the response is ready.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<InferResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(crossbeam::channel::TryRecvError::Empty) => None,
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Some(Err(ServeError::WorkerLost))
            }
        }
    }

    /// Block for at most `timeout`: `None` if the request is still in
    /// flight when it runs out.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<InferResponse, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// One entry of a [`CompletionQueue`]: the caller's tag and the
/// request's terminal outcome.
pub type Completion = (u64, Result<InferResponse, ServeError>);

/// A caller-owned completion queue for [`crate::Server::submit_tagged`].
///
/// Every admitted request pushes exactly one [`Completion`] into it, from
/// whichever pipeline thread reaches the request's terminal outcome, so
/// one thread can block on a single channel for many requests instead of
/// polling a handle each. The queue is a delivery function rather than a
/// channel so a caller can wrap completions into its own event type.
#[derive(Clone)]
pub struct CompletionQueue(Arc<dyn Fn(Completion) + Send + Sync>);

impl CompletionQueue {
    /// A queue that hands each completion to `deliver`. `deliver` runs on
    /// a serving thread (a worker or the batcher): it must not block.
    pub fn new(deliver: impl Fn(Completion) + Send + Sync + 'static) -> Self {
        Self(Arc::new(deliver))
    }
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CompletionQueue")
    }
}

/// Where one admitted request's terminal outcome goes. Delivery is
/// one-shot: the first [`send`](Self::send) consumes the destination and
/// later ones are no-ops, and a reply dropped undelivered answers
/// [`ServeError::WorkerLost`] — so every path through the pipeline,
/// including ones that unwind or lose a channel, answers exactly once.
pub(crate) struct Reply(Option<ReplyTo>);

enum ReplyTo {
    /// The single-slot channel behind a [`ResponseHandle`].
    Handle(Sender<Result<InferResponse, ServeError>>),
    /// A caller's completion queue and the request's tag in it.
    Queue(u64, CompletionQueue),
}

impl Reply {
    /// A reply into a fresh [`ResponseHandle`].
    pub(crate) fn handle() -> (Reply, ResponseHandle) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        (Reply(Some(ReplyTo::Handle(tx))), ResponseHandle { rx })
    }

    /// A reply pushed into `queue` under `tag`.
    pub(crate) fn queue(tag: u64, queue: &CompletionQueue) -> Reply {
        Reply(Some(ReplyTo::Queue(tag, queue.clone())))
    }

    /// Whether this request still awaits its terminal outcome.
    pub(crate) fn is_pending(&self) -> bool {
        self.0.is_some()
    }

    /// Disarm without answering: admission refused the request, and the
    /// caller learns that from `submit`'s `Err` instead.
    pub(crate) fn cancel(&mut self) {
        self.0 = None;
    }

    /// Deliver the terminal outcome; a no-op once delivered. A caller
    /// that dropped its handle simply never sees the result.
    pub(crate) fn send(&mut self, result: Result<InferResponse, ServeError>) {
        match self.0.take() {
            Some(ReplyTo::Handle(tx)) => {
                let _ = tx.try_send(result);
            }
            Some(ReplyTo::Queue(tag, queue)) => (queue.0)((tag, result)),
            None => {}
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.send(Err(ServeError::WorkerLost));
    }
}

/// The sending half of a [`ResponseHandle::channel`] pair. Resolving is
/// idempotent-safe: the slot holds one result, later sends are ignored.
#[derive(Clone, Debug)]
pub struct ResponseSender {
    tx: crossbeam::channel::Sender<Result<InferResponse, ServeError>>,
}

impl ResponseSender {
    /// Resolve the paired handle. Returns `false` when the result could
    /// not be delivered (slot already filled, or the handle was dropped).
    pub fn send(&self, result: Result<InferResponse, ServeError>) -> bool {
        self.tx.try_send(result).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    #[test]
    fn channel_pair_resolves_once() {
        let (tx, h) = ResponseHandle::channel();
        assert!(h.try_wait().is_none());
        assert!(tx.send(Err(ServeError::QueueFull)));
        assert!(!tx.send(Err(ServeError::Internal)), "slot holds exactly one result");
        assert_eq!(h.wait().unwrap_err(), ServeError::QueueFull);
    }

    #[test]
    fn dropped_response_sender_is_worker_lost() {
        let (tx, h) = ResponseHandle::channel();
        drop(tx);
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn reply_delivers_once_and_a_dropped_one_answers_worker_lost() {
        let (tx, rx) = bounded::<Completion>(4);
        let q = CompletionQueue::new(move |c| {
            let _ = tx.send(c);
        });
        let mut r = Reply::queue(7, &q);
        assert!(r.is_pending());
        r.send(Err(ServeError::Internal));
        r.send(Err(ServeError::QueueFull));
        assert!(!r.is_pending());
        drop(r);
        drop(Reply::queue(8, &q));
        let got: Vec<_> = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|(t, res)| (t, res.unwrap_err()))
            .collect();
        assert_eq!(got, vec![(7, ServeError::Internal), (8, ServeError::WorkerLost)]);

        let (r, h) = Reply::handle();
        assert!(h.wait_timeout(Duration::from_millis(1)).is_none(), "still in flight");
        drop(r);
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn handle_delivers_response() {
        let (tx, rx) = bounded(1);
        let h = ResponseHandle { rx };
        assert!(h.try_wait().is_none());
        tx.send(Err(ServeError::QueueFull)).unwrap();
        assert_eq!(h.wait().unwrap_err(), ServeError::QueueFull);
    }

    #[test]
    fn dropped_sender_is_worker_lost() {
        let (tx, rx) = bounded::<Result<InferResponse, ServeError>>(1);
        drop(tx);
        let h = ResponseHandle { rx };
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ServeError::UnknownModel("x".into()).to_string().contains("x"));
        assert!(!ServeError::QueueFull.to_string().is_empty());
    }
}

//! The micro-batcher: coalesces compatible requests into batches.
//!
//! One thread pulls admitted requests off the bounded submission queue and
//! groups them by *batch key* — model name, deployment version, and input
//! shape. The version is part of the key, so a hot swap or canary split
//! never mixes two weight versions in one forward pass.
//!
//! Dispatch is *work-conserving* and event-driven. The forming groups live
//! in [`Forming`], under one lock shared by the batcher and the workers:
//!
//! * when a request arrives while a worker is idle and no batch is already
//!   queued for it, the batcher flushes the group whose oldest member has
//!   waited longest at once;
//! * when a worker finishes a batch and none is queued, it takes that
//!   oldest group itself ([`next_batch`]) instead of blocking.
//!
//! Both decisions are made under the lock, and a worker counts itself idle
//! under it before blocking, so an arrival can never slip between "no
//! group to take" and "worker asleep". Groups therefore grow only while
//! every worker is busy — the only time waiting buys batching without
//! idling a worker. While the pool is saturated a group is flushed when it
//! reaches `max_batch`, when its oldest member has waited `max_wait`, or
//! when the *earliest member deadline* is close enough that waiting any
//! longer would risk missing it (a request whose deadline budget is
//! shorter than the batching window must not sit out the full window only
//! to expire — it is dispatched early instead). Sends on the bounded batch
//! channel, which block while it is full, happen outside the lock.
//!
//! On shutdown (submission side disconnects) every remaining admitted
//! request is flushed, so draining loses nothing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::config::ServeConfig;
use crate::deploy::Deployment;
use crate::request::{InferRequest, Reply, ServeError};
use crate::stats::Ledger;
use crate::trace::{SpanRecord, SpanStage};
use crate::worker::lock_ledger;

/// An admitted request travelling through the pipeline, pinned to the
/// deployment snapshot admission resolved for it — the version decision
/// is made exactly once, so a swap mid-flight cannot tear the request.
pub(crate) struct Pending {
    pub req: InferRequest,
    /// The deployment (weights + plans) that will execute this request.
    pub dep: Arc<Deployment>,
    /// Where the request's single terminal outcome goes.
    pub reply: Reply,
    pub enqueued: Instant,
    pub deadline: Option<Instant>,
    /// The request id admission resolved (caller-chosen or assigned).
    pub id: u64,
    /// The request's trace id (caller-chosen or a fresh server-unique id).
    pub trace: u64,
    /// Whether the configured [`crate::trace::TraceSink`] sampled this
    /// trace — decided exactly once, at admission.
    pub traced: bool,
}

/// Report one pipeline stage for every traced member of `items` to the
/// configured sink. No-op (and no per-item work) without a sink.
pub(crate) fn record_spans(
    cfg: &ServeConfig,
    items: &[Pending],
    stage: SpanStage,
    at: Instant,
    dur: Option<Duration>,
) {
    let Some(sink) = &cfg.trace else { return };
    for p in items.iter().filter(|p| p.traced) {
        sink.record(SpanRecord {
            trace: p.trace,
            request: p.id,
            model: p.dep.name.clone(),
            version: p.dep.version,
            stage,
            at,
            dur,
        });
    }
}

impl Pending {
    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// A flushed batch: same model, same deployment version, same input shape.
pub(crate) struct Batch {
    /// The deployment every item in this batch executes on.
    pub dep: Arc<Deployment>,
    pub items: Vec<Pending>,
}

/// Requests batch together iff they ask for the same model at the same
/// deployment version with the same input shape.
type BatchKey = (String, u64, Vec<usize>);

/// The dispatch state the batcher and the workers share under one lock.
#[derive(Default)]
pub(crate) struct Forming {
    groups: HashMap<BatchKey, Vec<Pending>>,
    /// Workers blocked on the batch channel, waiting for work.
    pub idle: usize,
}

impl Forming {
    /// Remove the group whose oldest member has waited longest.
    fn take_oldest(&mut self) -> Option<Vec<Pending>> {
        let key = self.groups.iter().min_by_key(|(_, g)| g[0].enqueued).map(|(k, _)| k.clone())?;
        self.groups.remove(&key)
    }
}

/// Lock the dispatch state even if a holder panicked: its groups and
/// counter are only ever changed whole, so they stay consistent.
pub(crate) fn lock_forming(forming: &Mutex<Forming>) -> MutexGuard<'_, Forming> {
    forming.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// When a forming group must flush: the oldest member's `max_wait` window,
/// or earlier if any member's deadline demands it. A member with deadline
/// `d` is dispatched no later than `d - max_wait`, reserving one batching
/// window of slack for dispatch and execution — so a request whose
/// deadline is shorter than `max_wait` flushes (effectively) immediately
/// instead of waiting out a window it cannot survive.
fn group_due(group: &[Pending], max_wait: Duration, now: Instant) -> Instant {
    let mut due = match group.first() {
        Some(p) => p.enqueued + max_wait,
        None => return now + max_wait,
    };
    for p in group {
        if let Some(d) = p.deadline {
            let latest_dispatch = d.checked_sub(max_wait).unwrap_or(now);
            due = due.min(latest_dispatch);
        }
    }
    due
}

/// Run the batcher until the submission side disconnects.
pub(crate) fn run(
    rx: Receiver<Pending>,
    batch_tx: Sender<Batch>,
    cfg: ServeConfig,
    ledger: Arc<Mutex<Ledger>>,
    forming: Arc<Mutex<Forming>>,
) {
    loop {
        // Sleep at most until the earliest-due forming batch must flush
        // (its max_wait window or an imminent member deadline).
        let now = Instant::now();
        let timeout = lock_forming(&forming)
            .groups
            .values()
            .map(|g| group_due(g, cfg.max_wait, now).saturating_duration_since(now))
            .min()
            .unwrap_or(cfg.max_wait)
            .max(Duration::from_micros(50));

        let arrival = match rx.recv_timeout(timeout) {
            Ok(p) => Some(p),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let now = Instant::now();
        let arrival = match arrival {
            Some(p) if p.expired(now) => {
                reject_expired(p, &ledger);
                None
            }
            other => other,
        };

        let mut out: Vec<Vec<Pending>> = Vec::new();
        {
            let mut f = lock_forming(&forming);
            if let Some(p) = arrival {
                let key = (p.dep.name.clone(), p.dep.version, p.req.input.dims().to_vec());
                let group = f.groups.entry(key.clone()).or_default();
                group.push(p);
                if group.len() >= cfg.max_batch {
                    out.push(f.groups.remove(&key).expect("group just filled"));
                }
            }

            // Flush any group that has come due — oldest member waited out
            // max_wait, or an earliest member deadline is imminent.
            let due: Vec<BatchKey> = f
                .groups
                .iter()
                .filter(|(_, g)| now >= group_due(g, cfg.max_wait, now))
                .map(|(k, _)| k.clone())
                .collect();
            for key in due {
                out.push(f.groups.remove(&key).expect("key just listed"));
            }

            // Work-conserving dispatch: hand each idle worker not already
            // covered by a queued batch the group that has waited longest.
            while f.idle > batch_tx.len() + out.len() {
                let Some(items) = f.take_oldest() else { break };
                out.push(items);
            }
        }
        for items in out {
            flush(items, &batch_tx, &cfg, &ledger);
        }
    }

    // Shutdown drain: the submission side is gone; flush everything that
    // was admitted so no response is lost.
    let rest: Vec<Vec<Pending>> = lock_forming(&forming).groups.drain().map(|(_, g)| g).collect();
    for items in rest {
        flush(items, &batch_tx, &cfg, &ledger);
    }
}

/// The next batch for a worker that has just freed up: a batch already
/// queued on the channel, else the oldest forming group, else whatever the
/// batcher dispatches next. `None` once the batch channel has disconnected
/// (the server is draining and every group has been flushed).
pub(crate) fn next_batch(
    rx: &Receiver<Batch>,
    forming: &Mutex<Forming>,
    cfg: &ServeConfig,
    ledger: &Mutex<Ledger>,
) -> Option<Batch> {
    loop {
        match rx.try_recv() {
            Ok(batch) => return Some(batch),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        let taken = {
            let mut f = lock_forming(forming);
            let taken = f.take_oldest();
            if taken.is_none() {
                f.idle += 1;
            }
            taken
        };
        match taken {
            // A group whose members all expired yields no batch: look again.
            Some(items) => {
                if let Some(batch) = form(items, cfg, ledger) {
                    return Some(batch);
                }
            }
            None => {
                let received = rx.recv();
                lock_forming(forming).idle -= 1;
                return received.ok();
            }
        }
    }
}

fn reject_expired(mut p: Pending, ledger: &Mutex<Ledger>) {
    lock_ledger(ledger).rejected_deadline += 1;
    p.reply.send(Err(ServeError::DeadlineExceeded));
}

/// Turn a forming group into a batch: answer its expired members and
/// record the `BatchForm` span for the rest. `None` if nothing is live.
fn form(items: Vec<Pending>, cfg: &ServeConfig, ledger: &Mutex<Ledger>) -> Option<Batch> {
    let now = Instant::now();
    let (live, expired): (Vec<Pending>, Vec<Pending>) =
        items.into_iter().partition(|p| !p.expired(now));
    for p in expired {
        reject_expired(p, ledger);
    }
    let dep = Arc::clone(&live.first()?.dep);
    record_spans(cfg, &live, SpanStage::BatchForm, now, None);
    Some(Batch { dep, items: live })
}

fn flush(items: Vec<Pending>, batch_tx: &Sender<Batch>, cfg: &ServeConfig, ledger: &Mutex<Ledger>) {
    let Some(batch) = form(items, cfg, ledger) else { return };
    // A worker-side disconnect can only happen after the pool stopped;
    // answer the items as lost rather than panicking.
    if let Err(e) = batch_tx.send(batch) {
        for mut p in e.into_inner().items {
            p.reply.send(Err(ServeError::WorkerLost));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use odq_tensor::Tensor;

    fn pending(enqueued: Instant, deadline: Option<Instant>) -> Pending {
        use odq_nn::models::{Model, ModelCfg};
        // Any deployment will do: group_due never executes it.
        let dep = Arc::new(Deployment {
            name: "m".into(),
            version: 1,
            model: Arc::new(Model::build(ModelCfg::small(odq_nn::Arch::LeNet5, 2))),
            plans: Arc::default(),
            fingerprint: 0,
            policy: None,
        });
        // The handle is dropped: these tests never read a response.
        let (reply, _handle) = Reply::handle();
        Pending {
            req: InferRequest::new("m", Tensor::from_vec(vec![1, 1, 1, 1], vec![0.0])),
            dep,
            reply,
            enqueued,
            deadline,
            id: 0,
            trace: 0,
            traced: false,
        }
    }

    #[test]
    fn due_is_max_wait_without_deadlines() {
        let now = Instant::now();
        let w = Duration::from_millis(10);
        let g = vec![pending(now, None), pending(now + w / 2, None)];
        assert_eq!(group_due(&g, w, now), now + w);
    }

    #[test]
    fn tight_deadline_pulls_due_before_the_window() {
        let now = Instant::now();
        let w = Duration::from_millis(250);
        // Deadline (20 ms) far shorter than max_wait: due immediately.
        let g = vec![pending(now, Some(now + Duration::from_millis(20)))];
        assert!(group_due(&g, w, now) <= now);
    }

    #[test]
    fn loose_deadline_leaves_the_window_alone() {
        let now = Instant::now();
        let w = Duration::from_millis(2);
        let g = vec![pending(now, Some(now + Duration::from_secs(10)))];
        assert_eq!(group_due(&g, w, now), now + w);
    }

    #[test]
    fn deadline_shorter_than_max_wait_dispatches_immediately() {
        // Regression for the `checked_sub(..).unwrap_or(now)` branch of
        // `group_due`: a request whose whole deadline budget is shorter
        // than the batching window must flush (effectively) immediately —
        // through the real batcher loop, not just the due computation.
        let cfg = ServeConfig {
            max_wait: Duration::from_secs(5),
            max_batch: 8,
            ..ServeConfig::default()
        };
        let (tx, rx) = bounded::<Pending>(4);
        let (batch_tx, batch_rx) = bounded::<Batch>(4);
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        let b_ledger = Arc::clone(&ledger);
        let forming = Arc::new(Mutex::new(Forming::default()));
        let batcher = std::thread::spawn(move || run(rx, batch_tx, cfg, b_ledger, forming));

        let now = Instant::now();
        // Deadline (300 ms) far below max_wait (5 s): sitting out the
        // window would expire it.
        tx.send(pending(now, Some(now + Duration::from_millis(300)))).unwrap();
        let batch = batch_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("deadline-driven flush must dispatch well before max_wait");
        assert!(
            now.elapsed() < Duration::from_secs(2),
            "dispatched after {:?}, not within the deadline budget",
            now.elapsed()
        );
        assert_eq!(batch.items.len(), 1);
        assert_eq!(lock_ledger(&ledger).rejected_deadline, 0, "dispatched, not expired");

        drop(tx);
        batcher.join().unwrap();
    }

    #[test]
    fn idle_worker_takes_a_forming_batch_and_busy_pool_coalesces() {
        let cfg = ServeConfig {
            max_wait: Duration::from_secs(5),
            max_batch: 8,
            ..ServeConfig::default()
        };
        let (tx, rx) = bounded::<Pending>(4);
        let (batch_tx, batch_rx) = bounded::<Batch>(4);
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        // Held by hand: no worker exists, the test plays the pool.
        let forming = Arc::new(Mutex::new(Forming::default()));
        let b_forming = Arc::clone(&forming);
        let batcher = std::thread::spawn(move || run(rx, batch_tx, cfg, ledger, b_forming));

        // Every worker busy: the request waits for company.
        tx.send(pending(Instant::now(), None)).unwrap();
        assert!(
            batch_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "a saturated pool must let the group coalesce"
        );

        // A worker frees up; the next arrival finds it idle and the
        // forming group, now two strong, is dispatched at once.
        lock_forming(&forming).idle = 1;
        tx.send(pending(Instant::now(), None)).unwrap();
        let batch = batch_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("an idle worker must get the forming batch well before max_wait");
        assert_eq!(batch.items.len(), 2, "both requests coalesced into one batch");

        drop(tx);
        batcher.join().unwrap();
    }

    #[test]
    fn earliest_member_deadline_wins() {
        let now = Instant::now();
        let w = Duration::from_millis(5);
        let g = vec![
            pending(now, Some(now + Duration::from_secs(1))),
            pending(now, Some(now + Duration::from_millis(8))),
        ];
        assert_eq!(group_due(&g, w, now), now + Duration::from_millis(3));
    }
}

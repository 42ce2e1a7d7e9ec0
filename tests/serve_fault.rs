//! Supervision and terminal-outcome properties of odq-serve under faults.
//!
//! 1. **Fault injection** — with an [`NthBatchFault`] hook armed, the
//!    sabotaged batch's requests are all answered
//!    [`ServeError::Internal`], the worker shift restarts with fresh
//!    engines, later requests are served normally, and the ledger's
//!    `worker_panics` / `worker_restarts` / `internal_errors` counters
//!    reflect exactly what happened.
//! 2. **Exactly-one terminal outcome** — under random deadlines
//!    (including already-expired ones), queue-full pressure, injected
//!    panics and immediate shutdown, every submitted request resolves to
//!    exactly one terminal outcome: an admission error at `submit`, or a
//!    single response (`Ok`, `DeadlineExceeded`, or `Internal`) on its
//!    handle or, for [`Server::submit_tagged`], a single completion in
//!    the caller's queue — never zero, never two.
//! 3. **Freed worker** — a request that arrives while every worker is
//!    busy is taken by the first worker to free up, not left to wait out
//!    `max_wait`.

use std::panic;
use std::sync::{mpsc, Arc, Barrier, Once};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::serve::{
    CompletionQueue, EngineKind, FaultHook, InferRequest, NthBatchFault, ServeConfig, ServeError,
    Server,
};
use odq::tensor::Tensor;

/// Injected faults unwind with an intentional panic; the default hook
/// would print one "thread panicked" backtrace header per injection.
/// Silence exactly those panics and defer everything else to the default
/// hook so genuine test failures still report normally.
fn quiet_fault_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("fault injection") {
                default(info);
            }
        }));
    });
}

fn tiny_model() -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
    cfg.input_hw = 8;
    cfg.in_channels = 1;
    Model::build(cfg)
}

fn image(seed: usize) -> Tensor {
    let v: Vec<f32> = (0..64).map(|i| ((i * 7 + seed * 13) % 97) as f32 / 97.0).collect();
    Tensor::from_vec(vec![1, 1, 8, 8], v)
}

fn server(cfg: ServeConfig) -> Server {
    Server::builder(cfg).engine(EngineKind::Float).model("lenet", tiny_model()).start()
}

/// Acceptance: arm the fault hook on the first batch, submit a burst, and
/// check that (a) the batch's members get [`ServeError::Internal`], (b) the
/// pool recovers and serves later requests, (c) the supervision counters
/// agree with what the clients observed.
#[test]
fn injected_panic_answers_batch_and_pool_recovers() {
    quiet_fault_panics();
    let cfg = ServeConfig {
        queue_depth: 64,
        max_batch: 4,
        max_wait: Duration::from_millis(100),
        workers: 2,
        simulate_accel: false,
        fault_hook: Some(Arc::new(NthBatchFault::new(1))),
        ..ServeConfig::default()
    };
    let s = server(cfg);

    let handles: Vec<_> =
        (0..4).map(|i| s.submit(InferRequest::new("lenet", image(i))).unwrap()).collect();
    let mut internal = 0u64;
    for h in handles {
        // The batcher may split the burst across batches: members of the
        // sabotaged batch see Internal, the rest are served normally.
        match h.wait() {
            Err(ServeError::Internal) => internal += 1,
            Ok(_) => {}
            Err(e) => panic!("unexpected terminal outcome {e}"),
        }
    }
    assert!(internal >= 1, "the injected panic must reach at least one request");

    // The shift restarted with fresh engines: the pool still serves.
    let h = s.submit(InferRequest::new("lenet", image(99))).unwrap();
    h.wait().expect("pool recovers after the injected panic");

    let sum = s.shutdown();
    assert_eq!(sum.worker_panics, 1);
    assert_eq!(sum.worker_restarts, 1);
    assert_eq!(sum.internal_errors, internal);
    assert_eq!(sum.admitted, sum.completed + sum.internal_errors);
}

/// Parks the worker serving the first batch — after meeting the test at
/// a barrier, so the test knows the only worker is busy — then lets it run
/// normally. Never panics.
#[derive(Debug)]
struct ParkFirstBatch {
    entered: Barrier,
    hold: Duration,
}

impl FaultHook for ParkFirstBatch {
    fn should_panic(&self, nth: u64, _model: &str, _version: u64) -> bool {
        if nth == 1 {
            self.entered.wait();
            std::thread::sleep(self.hold);
        }
        false
    }
}

/// A request that arrives while the only worker is busy forms a group no
/// arrival or timer will flush for `max_wait` (5 s). The worker, once it
/// finishes, must take that group itself.
#[test]
fn freed_worker_takes_the_waiting_group_without_waiting_out_max_wait() {
    let hook =
        Arc::new(ParkFirstBatch { entered: Barrier::new(2), hold: Duration::from_millis(100) });
    let cfg = ServeConfig {
        max_wait: Duration::from_secs(5),
        workers: 1,
        simulate_accel: false,
        fault_hook: Some(hook.clone()),
        ..ServeConfig::default()
    };
    let s = server(cfg);
    let first = s.submit(InferRequest::new("lenet", image(0))).unwrap();
    // The only worker is now parked inside the first batch.
    hook.entered.wait();
    let t0 = Instant::now();
    let second = s.submit(InferRequest::new("lenet", image(1))).unwrap();
    second.wait().expect("the waiting request is served");
    let waited = t0.elapsed();
    first.wait().expect("the parked batch is served");
    assert!(
        waited < Duration::from_secs(2),
        "the freed worker must take the waiting group; it waited {waited:?}"
    );
    let sum = s.shutdown();
    assert_eq!(sum.batches, 2, "the two requests never shared a batch");
    assert!(sum.reconcile().is_balanced(), "{}", sum.reconcile());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every submitted request gets exactly one terminal outcome — on its
    /// handle, or as one completion in the caller's queue — and the
    /// ledger's counters match the outcomes the clients actually saw.
    #[test]
    fn every_request_gets_exactly_one_terminal_outcome(
        seed in 0u64..1_000_000,
        n_requests in 1usize..24,
        queue_depth in 1usize..6,
        max_batch in 1usize..5,
        workers in 1usize..3,
        // 0 disarms the fault hook; 1..=3 arms it on that batch.
        fault_batch in 0u64..4,
        expired_pct in 0u32..=100,
    ) {
        quiet_fault_panics();
        let cfg = ServeConfig {
            queue_depth,
            max_batch,
            max_wait: Duration::from_micros(300),
            workers,
            default_deadline: None,
            simulate_accel: false,
            fault_hook: (fault_batch > 0)
                .then(|| Arc::new(NthBatchFault::new(fault_batch)) as Arc<dyn FaultHook>),
            trace: None,
            layer_profiling: true,
        };
        let s = server(cfg);
        let (done_tx, done_rx) = mpsc::channel();
        let queue = CompletionQueue::new(move |c| {
            let _ = done_tx.send(c);
        });

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut handles = Vec::new();
        // Tags of the requests admitted through the completion queue.
        let mut tagged = Vec::new();
        let mut queue_full = 0u64;
        for i in 0..n_requests {
            let mut req = InferRequest::new("lenet", image(i));
            let roll = rng.gen_range(0u32..100);
            if roll < expired_pct {
                // Expired on arrival: must be rejected, never executed.
                req = req.with_deadline(Duration::ZERO);
            } else if roll < expired_pct.saturating_add(20) {
                // Tight deadline: races the batcher, either outcome is
                // legal, but there must be exactly one.
                req = req.with_deadline(Duration::from_micros(rng.gen_range(1..2_000)));
            }
            let admitted = if rng.gen_bool(0.5) {
                s.submit(req).map(|h| handles.push(h))
            } else {
                s.submit_tagged(req, i as u64, &queue).map(|()| tagged.push(i as u64))
            };
            match admitted {
                Ok(()) => {}
                Err(ServeError::QueueFull) => queue_full += 1,
                Err(e) => prop_assert!(false, "unexpected admission error {}", e),
            }
        }

        // Immediate shutdown: drains the queue, flushes every group, joins
        // all workers. Afterwards every handle must hold its one outcome
        // and the queue one completion per tagged request.
        let sum = s.shutdown();
        prop_assert_eq!(sum.admitted, (handles.len() + tagged.len()) as u64);
        prop_assert_eq!(sum.rejected_queue_full, queue_full);

        let mut outcomes = Vec::new();
        for h in &handles {
            match h.try_wait() {
                Some(r) => outcomes.push(r),
                None => prop_assert!(false, "request left unanswered after shutdown"),
            }
            // The single response slot is spent: polling again never
            // yields a second outcome.
            prop_assert!(matches!(h.try_wait(), None | Some(Err(ServeError::WorkerLost))));
        }
        let completions: Vec<_> = done_rx.try_iter().collect();
        let mut tags: Vec<u64> = completions.iter().map(|(tag, _)| *tag).collect();
        tags.sort_unstable();
        prop_assert_eq!(&tags, &tagged, "one completion per tagged request, none for refused ones");
        outcomes.extend(completions.into_iter().map(|(_, r)| r));

        let mut completed = 0u64;
        let mut deadline = 0u64;
        let mut internal = 0u64;
        for r in outcomes {
            match r {
                Ok(_) => completed += 1,
                Err(ServeError::DeadlineExceeded) => deadline += 1,
                Err(ServeError::Internal) => internal += 1,
                Err(e) => prop_assert!(false, "unexpected terminal error {}", e),
            }
        }
        prop_assert_eq!(completed, sum.completed);
        prop_assert_eq!(deadline, sum.rejected_deadline);
        prop_assert_eq!(internal, sum.internal_errors);
        prop_assert_eq!(sum.worker_restarts, sum.worker_panics);
        prop_assert!(sum.reconcile().is_balanced(), "{}", sum.reconcile());
    }
}

//! The server: admission control, versioned routing, hot swap, shutdown.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, Sender, TrySendError};
use odq_nn::models::Model;
use odq_registry::ModelRegistry;

use crate::batcher::{self, lock_forming, Batch, Forming, Pending};
use crate::config::ServeConfig;
use crate::deploy::{DeployError, Deployment, ModelRoute, TrafficSplit};
use crate::engine::EngineKind;
use crate::request::{CompletionQueue, InferRequest, Reply, ResponseHandle, ServeError};
use crate::stats::{BatchRecord, Ledger, StatsHandle, StatsSummary};
use crate::trace::{SpanRecord, SpanStage};
use crate::worker::{self, lock_ledger};

/// Builder for [`Server`]: register models, pick an engine, start.
pub struct ServerBuilder {
    cfg: ServeConfig,
    engine: EngineKind,
    registry: Arc<ModelRegistry>,
    models: Vec<(String, Model)>,
    serve_names: Vec<String>,
}

impl ServerBuilder {
    /// Builder with the given config, defaulting to the ODQ engine at the
    /// paper's nominal threshold and a private ungated registry.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            cfg,
            engine: EngineKind::Odq { threshold: 0.3 },
            registry: Arc::new(ModelRegistry::new()),
            models: Vec::new(),
            serve_names: Vec::new(),
        }
    }

    /// Select the engine every worker runs.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Back the server with an external (possibly gated, possibly shared)
    /// registry instead of a private one. Versions published to it — by
    /// this process or any other holder of the `Arc` — become deployable
    /// via [`Server::deploy`].
    pub fn registry(mut self, registry: Arc<ModelRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Register a model under `name`: at start it is published to the
    /// registry as the next version of `name` and deployed. Requests
    /// address models by this name.
    pub fn model(mut self, name: impl Into<String>, model: Model) -> Self {
        self.models.push((name.into(), model));
        self
    }

    /// Route `name` from the registry's latest already-published version
    /// at start, without publishing anything new (for servers sharing a
    /// pre-populated registry).
    pub fn serve(mut self, name: impl Into<String>) -> Self {
        self.serve_names.push(name.into());
        self
    }

    /// Start the batcher and worker threads and open admission, or report
    /// why the server cannot run (the engine kind is outside the kernels'
    /// domain) or the initial deployments could not be built (a publish
    /// gate rejected a model, a `serve` name has nothing published).
    pub fn try_start(self) -> Result<Server, DeployError> {
        self.engine.validate().map_err(DeployError::InvalidEngine)?;
        let cfg = self.cfg;
        let registry = self.registry;

        let mut names: Vec<String> = Vec::new();
        for (name, model) in self.models {
            registry.publish(&name, model, vec![])?;
            if !names.contains(&name) {
                names.push(name);
            }
        }
        for name in self.serve_names {
            if !names.contains(&name) {
                names.push(name);
            }
        }

        let mut routes = HashMap::new();
        for name in names {
            let version =
                registry.latest(&name).ok_or_else(|| DeployError::UnknownModel(name.clone()))?;
            let dep = Deployment::from_registry(&registry, &name, version)?;
            routes.insert(name, ModelRoute::new(dep));
        }
        let routes = Arc::new(routes);
        let ledger = Arc::new(Mutex::new(Ledger::default()));

        let (submit_tx, submit_rx) = bounded::<Pending>(cfg.queue_depth.max(1));
        // Small buffer: workers pull batches as they free up, and a full
        // channel backpressures the batcher (and through it, admission).
        let (batch_tx, batch_rx) = bounded::<Batch>(cfg.workers.max(1) * 2);
        // Forming groups and idle workers, shared by the batcher (which
        // adds arrivals and dispatches to idle workers) and the workers
        // (which take the oldest group as they free up).
        let forming = Arc::new(Mutex::new(Forming::default()));

        let b_ledger = Arc::clone(&ledger);
        let b_cfg = cfg.clone();
        let b_forming = Arc::clone(&forming);
        let batcher = std::thread::Builder::new()
            .name("odq-serve-batcher".into())
            .spawn(move || batcher::run(submit_rx, batch_tx, b_cfg, b_ledger, b_forming))
            .expect("spawn batcher");

        let n_workers = cfg.workers.max(1);
        let workers: Vec<JoinHandle<()>> = (0..n_workers)
            .map(|i| {
                let rx = batch_rx.clone();
                let ledger = Arc::clone(&ledger);
                let kind = self.engine.clone();
                let w_cfg = cfg.clone();
                let w_forming = Arc::clone(&forming);
                std::thread::Builder::new()
                    .name(format!("odq-serve-worker-{i}"))
                    .spawn(move || worker::run(rx, kind, w_cfg, ledger, w_forming))
                    .expect("spawn worker")
            })
            .collect();
        // The batcher's sender must be the only one left, or workers
        // would never see a disconnect on shutdown.
        drop(batch_rx);
        // Return only once every worker waits for work, so the first
        // requests find the pool idle instead of sitting out max_wait.
        while lock_forming(&forming).idle < n_workers && !workers.iter().any(|w| w.is_finished()) {
            std::thread::yield_now();
        }

        Ok(Server {
            cfg,
            registry,
            routes,
            seq: AtomicU64::new(0),
            submit_tx: Some(submit_tx),
            batcher: Some(batcher),
            workers,
            ledger,
        })
    }

    /// [`try_start`](Self::try_start), panicking on failure.
    pub fn start(self) -> Server {
        self.try_start().expect("server start")
    }
}

/// A running serving instance. Dropping it shuts down gracefully.
pub struct Server {
    cfg: ServeConfig,
    registry: Arc<ModelRegistry>,
    routes: Arc<HashMap<String, ModelRoute>>,
    /// Request-id sequence for submissions that don't bring their own.
    seq: AtomicU64,
    submit_tx: Option<Sender<Pending>>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ledger: Arc<Mutex<Ledger>>,
}

impl Server {
    /// Configure and start a server.
    pub fn builder(cfg: ServeConfig) -> ServerBuilder {
        ServerBuilder::new(cfg)
    }

    /// The registry backing this server. Publish retrained checkpoints
    /// here, then [`deploy`](Self::deploy) them.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Submit a request. Returns immediately: `Ok` with a handle to the
    /// eventual response, or an admission error ([`ServeError::QueueFull`]
    /// when the bounded queue is at capacity — the backpressure signal).
    ///
    /// The model version is decided here, exactly once: the resolved
    /// deployment snapshot rides with the request, so a concurrent
    /// [`deploy`](Self::deploy) or [`rollback`](Self::rollback) can never
    /// tear it — it executes wholly on the version admission chose.
    pub fn submit(&self, req: InferRequest) -> Result<ResponseHandle, ServeError> {
        self.enqueue(req, Reply::handle)
    }

    /// [`submit`](Self::submit), delivering the outcome as `(tag, result)`
    /// into the caller's completion queue instead of a per-request handle.
    ///
    /// An admitted request (`Ok`) pushes exactly one completion, on every
    /// terminal path: its response, a deadline expiry, a worker panic, a
    /// lost pipeline, or the shutdown drain. A request admission refuses
    /// (`Err`) pushes nothing. One consumer can therefore block on a
    /// single queue for any number of requests.
    pub fn submit_tagged(
        &self,
        req: InferRequest,
        tag: u64,
        queue: &CompletionQueue,
    ) -> Result<(), ServeError> {
        self.enqueue(req, || (Reply::queue(tag, queue), ()))
    }

    /// Admit `req` into the submission queue with the reply `make` builds
    /// (only once admission is past its early checks).
    fn enqueue<T>(
        &self,
        req: InferRequest,
        make: impl FnOnce() -> (Reply, T),
    ) -> Result<T, ServeError> {
        let id = req.id.unwrap_or_else(|| self.seq.fetch_add(1, Ordering::Relaxed));
        let dep = match self.admit(&req, id) {
            Ok(dep) => dep,
            Err(e) => {
                // Count under the counter the variant names: today `admit`
                // only rejects as invalid (unknown model / bad shape), but
                // a future non-invalid admit failure must not masquerade
                // as one in the rejection taxonomy.
                lock_ledger(&self.ledger).count_rejection(&e);
                return Err(e);
            }
        };
        let tx = match self.submit_tx.as_ref() {
            Some(tx) => tx,
            None => {
                lock_ledger(&self.ledger).rejected_shutdown += 1;
                return Err(ServeError::ShuttingDown);
            }
        };
        let now = Instant::now();
        let deadline = req.deadline.or(self.cfg.default_deadline).map(|d| now + d);
        // Trace identity is decided here, exactly once: the caller's trace
        // id if supplied, else a fresh server-unique id. The request id is
        // NOT a safe default — callers (the net front-end included) may
        // supply connection-scoped ids that repeat across connections, and
        // a trace id aliasing two requests would interleave their spans.
        // Whether this trace is sampled is a pure function of the sink and
        // the id (see [`crate::trace::TraceSink`]), so replays with a
        // deterministic submission order sample the same requests.
        let trace = req.trace.unwrap_or_else(|| self.seq.fetch_add(1, Ordering::Relaxed));
        let traced = self.cfg.trace.as_ref().is_some_and(|s| s.sample(trace));
        let (reply, out) = make();
        let pending = Pending { req, dep, reply, enqueued: now, deadline, id, trace, traced };
        // The submit span's metadata must outlive the move into try_send.
        let span_meta = traced.then(|| (pending.dep.name.clone(), pending.dep.version));
        match tx.try_send(pending) {
            Ok(()) => {
                if let (Some(sink), Some((model, version))) = (&self.cfg.trace, span_meta) {
                    sink.record(SpanRecord {
                        trace,
                        request: id,
                        model,
                        version,
                        stage: SpanStage::Submit,
                        at: now,
                        dur: None,
                    });
                }
                let mut led = lock_ledger(&self.ledger);
                led.admitted += 1;
                led.note_queue_depth(tx.len());
                Ok(out)
            }
            // Refused: the caller learns so from this `Err`, not the reply.
            Err(TrySendError::Full(mut p)) => {
                p.reply.cancel();
                lock_ledger(&self.ledger).rejected_queue_full += 1;
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(mut p)) => {
                p.reply.cancel();
                lock_ledger(&self.ledger).rejected_shutdown += 1;
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Resolve the deployment that will serve this request and validate
    /// the input against *that* deployment's configuration.
    fn admit(&self, req: &InferRequest, id: u64) -> Result<Arc<Deployment>, ServeError> {
        let route = self
            .routes
            .get(&req.model)
            .ok_or_else(|| ServeError::UnknownModel(req.model.clone()))?;
        let dep = route.resolve(id);
        let dims = req.input.dims();
        let cfg = &dep.model.cfg;
        let want = [1, cfg.in_channels, cfg.input_hw, cfg.input_hw];
        if dims != want {
            return Err(ServeError::BadInput(format!(
                "expected shape {want:?} for model {:?} v{}, got {dims:?}",
                req.model, dep.version
            )));
        }
        Ok(dep)
    }

    /// Hot-swap `name` to registry `version` with zero downtime: the new
    /// deployment's plan cache is seeded from the outgoing one, so the
    /// swap's total cost is exactly the plan rebuild of the layers whose
    /// weights actually changed. In-flight and already-admitted requests
    /// finish on the version they were admitted under; every admission
    /// after this call returns routes to `version`.
    pub fn deploy(&self, name: &str, version: u64) -> Result<(), DeployError> {
        let route =
            self.routes.get(name).ok_or_else(|| DeployError::UnknownModel(name.to_string()))?;
        let dep = Deployment::from_registry(&self.registry, name, version)?;
        dep.plans.seed_from(&route.current().plans);
        route.deploy(dep);
        Ok(())
    }

    /// Swap `name` back to the deployment that was current before the
    /// last [`deploy`](Self::deploy) — kept warm, plan caches intact, so
    /// rollback costs no plan rebuilds at all. Returns the version now
    /// serving. Clears any canary.
    pub fn rollback(&self, name: &str) -> Result<u64, DeployError> {
        let route =
            self.routes.get(name).ok_or_else(|| DeployError::UnknownModel(name.to_string()))?;
        Ok(route.rollback(name)?.version)
    }

    /// Route a deterministic fraction of `name`'s traffic to registry
    /// `version` (see [`TrafficSplit`]); the remainder stays on the
    /// current deployment. Promote the candidate by calling
    /// [`deploy`](Self::deploy) with the same version, or abandon it with
    /// [`clear_canary`](Self::clear_canary).
    pub fn canary(&self, name: &str, version: u64, split: TrafficSplit) -> Result<(), DeployError> {
        let route =
            self.routes.get(name).ok_or_else(|| DeployError::UnknownModel(name.to_string()))?;
        let dep = Deployment::from_registry(&self.registry, name, version)?;
        dep.plans.seed_from(&route.current().plans);
        route.set_canary(dep, split);
        Ok(())
    }

    /// Remove `name`'s canary; all traffic returns to the current
    /// deployment.
    pub fn clear_canary(&self, name: &str) -> Result<(), DeployError> {
        let route =
            self.routes.get(name).ok_or_else(|| DeployError::UnknownModel(name.to_string()))?;
        route.clear_canary();
        Ok(())
    }

    /// The version new (non-canary) admissions of `name` execute.
    pub fn current_version(&self, name: &str) -> Option<u64> {
        self.routes.get(name).map(|r| r.current_version())
    }

    /// Requests currently waiting in the submission queue.
    pub fn queue_len(&self) -> usize {
        self.submit_tx.as_ref().map_or(0, |tx| tx.len())
    }

    /// Aggregated ledger snapshot. O(1) in requests served: the ledger
    /// streams everything into fixed-footprint histograms and counters.
    pub fn stats(&self) -> StatsSummary {
        lock_ledger(&self.ledger).summary()
    }

    /// Reconcile the live ledger against the conservation law every
    /// admitted request must obey (see
    /// [`ReconcileReport`](crate::stats::ReconcileReport)). The live
    /// submission-queue depth counts as in-flight work, so the report
    /// balances at any quiescent moment, not just after shutdown.
    ///
    /// Note the snapshot is not atomic with respect to in-flight batches:
    /// a request can be mid-scatter (admitted but not yet recorded as
    /// completed) when the ledger is read. Callers checking invariants
    /// should quiesce first — wait out every outstanding response handle —
    /// or retry briefly, as the chaos harness does.
    pub fn reconcile(&self) -> crate::stats::ReconcileReport {
        let in_queue = self.queue_len() as u64;
        lock_ledger(&self.ledger).reconcile(in_queue)
    }

    /// Ledger snapshot as pretty-printed JSON (durations in ms),
    /// including server uptime and the per-(model, version) breakdown.
    pub fn stats_json(&self) -> String {
        serde_json::to_string_pretty(&self.stats()).expect("summary serializes")
    }

    /// The most recently executed batches (bounded ring, newest last).
    pub fn recent_batches(&self) -> Vec<BatchRecord> {
        lock_ledger(&self.ledger).recent_batches()
    }

    /// Approximate resident size of the stats ledger in bytes. Constant
    /// in the number of requests served — the O(1)-memory guarantee the
    /// streaming ledger exists for, and what tests pin down.
    pub fn ledger_bytes(&self) -> usize {
        lock_ledger(&self.ledger).approx_bytes()
    }

    /// A handle a network front-end uses to stream connection, byte, and
    /// frame counters into this server's ledger, so transport telemetry
    /// lands in the same [`StatsSummary`] / [`stats_json`](Self::stats_json)
    /// snapshot as the serving pipeline's.
    pub fn net_tap(&self) -> crate::stats::NetTap {
        crate::stats::NetTap::new(Arc::clone(&self.ledger))
    }

    /// A cloneable, read-only handle to this server's live stats ledger,
    /// for exporters (the `odq-obs` metrics endpoint) that snapshot the
    /// ledger from their own threads while the server keeps serving. The
    /// handle stays valid after the `Server` is dropped; it then reports
    /// the final, frozen ledger.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle::new(Arc::clone(&self.ledger))
    }

    /// Graceful shutdown: close admission, let the batcher drain and
    /// flush every admitted request, let workers finish all batches, join
    /// all threads. Returns the final ledger summary.
    pub fn shutdown(mut self) -> StatsSummary {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        // Dropping the submission sender disconnects the batcher once the
        // queue drains; the batcher then drops the batch sender, which
        // stops the workers once the batch queue drains.
        drop(self.submit_tx.take());
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::InferRequest;
    use odq_nn::models::{Model, ModelCfg};
    use odq_nn::Arch;
    use odq_tensor::Tensor;
    use std::time::Duration;

    fn tiny_model() -> Model {
        tiny_model_seeded(0x0d9)
    }

    fn tiny_model_seeded(seed: u64) -> Model {
        let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
        cfg.input_hw = 8;
        cfg.seed = seed;
        Model::build(cfg)
    }

    fn input(seed: usize) -> Tensor {
        let v: Vec<f32> = (0..3 * 64).map(|i| ((i * 7 + seed * 13) % 97) as f32 / 97.0).collect();
        Tensor::from_vec(vec![1, 3, 8, 8], v)
    }

    fn server(cfg: ServeConfig) -> Server {
        Server::builder(cfg).engine(EngineKind::Float).model("lenet", tiny_model()).start()
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let s = server(ServeConfig { max_wait: Duration::from_micros(200), ..Default::default() });
        let h = s.submit(InferRequest::new("lenet", input(0))).unwrap();
        let r = h.wait().unwrap();
        assert_eq!(r.output.dims(), &[1, 4]);
        assert!(r.timing.batch_size >= 1);
        // The worker records the batch before responding, so a completed
        // wait() guarantees the ledger has absorbed it — no polling.
        assert_eq!(s.stats().batches, 1);
        assert_eq!(s.recent_batches().len(), 1);
        assert_eq!(s.recent_batches()[0].version, 1);
        let json = s.stats_json();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"uptime_ms\""), "{json}");
        assert!(json.contains("\"models\""), "{json}");
        let sum = s.shutdown();
        assert_eq!(sum.admitted, 1);
        assert_eq!(sum.completed, 1);
        assert_eq!(sum.batches, 1);
        assert_eq!(sum.models.len(), 1);
        assert_eq!((sum.models[0].model.as_str(), sum.models[0].version), ("lenet", 1));
        assert_eq!(sum.models[0].completed, 1);
    }

    #[test]
    fn shutdown_rejections_are_counted() {
        let mut s = server(ServeConfig::default());
        s.close();
        let e = s.submit(InferRequest::new("lenet", input(0))).unwrap_err();
        assert_eq!(e, ServeError::ShuttingDown);
        assert_eq!(s.stats().rejected_shutdown, 1);
    }

    #[test]
    fn tight_deadline_flushes_early_and_is_served() {
        // Deadline far shorter than the batching window: the batcher must
        // dispatch early, not wait out max_wait and then reject the
        // request as expired. (Here the idle pool takes it at once; the
        // batcher's own tests pin the deadline rule with every worker busy.)
        let cfg =
            ServeConfig { max_wait: Duration::from_secs(2), max_batch: 8, ..Default::default() };
        let s = server(cfg);
        let t0 = std::time::Instant::now();
        let h = s
            .submit(InferRequest::new("lenet", input(0)).with_deadline(Duration::from_millis(500)))
            .unwrap();
        let r = h.wait().expect("deadline-driven flush must serve this request");
        assert!(t0.elapsed() < Duration::from_secs(2), "served before the max_wait window");
        assert_eq!(r.output.dims(), &[1, 4]);
        let sum = s.shutdown();
        assert_eq!(sum.completed, 1);
        assert_eq!(sum.rejected_deadline, 0);
    }

    #[test]
    fn idle_server_answers_a_lone_request_without_waiting_out_max_wait() {
        let s = server(ServeConfig { max_wait: Duration::from_secs(2), ..Default::default() });
        let t0 = std::time::Instant::now();
        s.submit(InferRequest::new("lenet", input(0))).unwrap().wait().unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "an idle worker must take the request at once, answered after {elapsed:?}"
        );
        assert_eq!(s.shutdown().batches, 1);
    }

    #[test]
    fn unknown_model_and_bad_shape_rejected_at_admission() {
        let s = server(ServeConfig::default());
        let e = s.submit(InferRequest::new("nope", input(0))).unwrap_err();
        assert!(matches!(e, ServeError::UnknownModel(_)));
        let bad = Tensor::from_vec(vec![1, 3, 4, 4], vec![0.0; 48]);
        let e = s.submit(InferRequest::new("lenet", bad)).unwrap_err();
        assert!(matches!(e, ServeError::BadInput(_)));
        let sum = s.shutdown();
        assert_eq!(sum.rejected_invalid, 2);
        // Pin the mapping: admission rejections land on the counter their
        // variant names and nowhere else.
        assert_eq!(sum.rejected_shutdown, 0);
        assert_eq!(sum.rejected_queue_full, 0);
        assert_eq!(sum.rejected_deadline, 0);
        assert_eq!(sum.internal_errors, 0);
    }

    #[test]
    fn batch_input_must_be_single_image() {
        let s = server(ServeConfig::default());
        let two = Tensor::from_vec(vec![2, 3, 8, 8], vec![0.0; 2 * 3 * 64]);
        let e = s.submit(InferRequest::new("lenet", two)).unwrap_err();
        assert!(matches!(e, ServeError::BadInput(_)));
    }

    #[test]
    fn queue_full_rejects_instead_of_blocking() {
        // One worker, tiny queue, long max_wait: flood it.
        let cfg = ServeConfig {
            queue_depth: 2,
            max_batch: 64,
            max_wait: Duration::from_millis(250),
            workers: 1,
            ..Default::default()
        };
        let s = server(cfg);
        let mut handles = Vec::new();
        let mut rejected = 0u64;
        for i in 0..64 {
            match s.submit(InferRequest::new("lenet", input(i))) {
                Ok(h) => handles.push(h),
                Err(ServeError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected > 0, "a 2-deep queue must reject a 64-request burst");
        for h in handles {
            h.wait().unwrap();
        }
        let sum = s.shutdown();
        assert_eq!(sum.rejected_queue_full, rejected);
    }

    #[test]
    fn immediate_deadline_is_rejected_not_run() {
        let cfg = ServeConfig { max_wait: Duration::from_millis(20), ..Default::default() };
        let s = server(cfg);
        let h =
            s.submit(InferRequest::new("lenet", input(0)).with_deadline(Duration::ZERO)).unwrap();
        assert_eq!(h.wait().unwrap_err(), ServeError::DeadlineExceeded);
        let sum = s.shutdown();
        assert_eq!(sum.rejected_deadline, 1);
        assert_eq!(sum.completed, 0);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let cfg = ServeConfig {
            queue_depth: 32,
            max_batch: 4,
            max_wait: Duration::from_millis(100),
            workers: 2,
            ..Default::default()
        };
        let s = server(cfg);
        let handles: Vec<_> =
            (0..10).map(|i| s.submit(InferRequest::new("lenet", input(i))).unwrap()).collect();
        // Shut down immediately; every admitted request must still answer.
        let sum = s.shutdown();
        assert_eq!(sum.completed, 10);
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn deploy_swaps_and_rollback_restores_bit_exactly() {
        let s = server(ServeConfig { max_wait: Duration::from_micros(200), ..Default::default() });
        let v1_logits = s.submit(InferRequest::new("lenet", input(3))).unwrap().wait().unwrap();

        // Publish a retrained checkpoint and hot-swap to it.
        let v2 = s.registry().publish("lenet", tiny_model_seeded(777), vec![]).unwrap();
        s.deploy("lenet", v2).unwrap();
        assert_eq!(s.current_version("lenet"), Some(v2));
        let v2_logits = s.submit(InferRequest::new("lenet", input(3))).unwrap().wait().unwrap();
        assert_ne!(
            v1_logits.output.as_slice(),
            v2_logits.output.as_slice(),
            "different weights must answer differently"
        );

        // Rollback: answers are bit-identical to the original version's.
        assert_eq!(s.rollback("lenet").unwrap(), 1);
        let back = s.submit(InferRequest::new("lenet", input(3))).unwrap().wait().unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&v1_logits.output), bits(&back.output));

        let sum = s.shutdown();
        let versions: Vec<u64> = sum.models.iter().map(|m| m.version).collect();
        assert_eq!(versions, vec![1, 2], "both versions served and are accounted separately");
        assert_eq!(sum.models.iter().map(|m| m.completed).sum::<u64>(), 3);
    }

    #[test]
    fn deploying_unknown_or_retired_versions_fails_cleanly() {
        let s = server(ServeConfig::default());
        assert!(matches!(s.deploy("ghost", 1), Err(DeployError::UnknownModel(_))));
        assert!(matches!(s.deploy("lenet", 99), Err(DeployError::Registry(_))));
        assert!(matches!(s.rollback("lenet"), Err(DeployError::NoPreviousVersion(_))));
        // A server can't start serving a name with nothing published.
        let r = Server::builder(ServeConfig::default()).serve("empty").try_start();
        assert!(matches!(r, Err(DeployError::UnknownModel(_))));
    }

    #[test]
    fn out_of_domain_engine_is_rejected_at_start_not_by_a_worker() {
        for bits in [1u8, 16] {
            let r = Server::builder(ServeConfig::default())
                .engine(EngineKind::Static { bits })
                .model("lenet", tiny_model_seeded(1))
                .try_start();
            assert!(matches!(r, Err(DeployError::InvalidEngine(_))), "int{bits}");
        }
        let s = Server::builder(ServeConfig::default())
            .engine(EngineKind::Static { bits: 15 })
            .model("lenet", tiny_model_seeded(1))
            .try_start()
            .unwrap();
        s.submit(InferRequest::new("lenet", input(0))).unwrap().wait().unwrap();
        s.shutdown();
    }

    #[test]
    fn canary_splits_traffic_deterministically() {
        let s = server(ServeConfig { max_wait: Duration::from_micros(100), ..Default::default() });
        let v2 = s.registry().publish("lenet", tiny_model_seeded(42), vec![]).unwrap();
        s.canary("lenet", v2, TrafficSplit::new(0.5).with_seed(9)).unwrap();
        assert_eq!(s.current_version("lenet"), Some(1), "canary must not move current");

        // Solo references for both versions.
        let m1 = s.registry().get("lenet", 1).unwrap();
        let m2 = s.registry().get("lenet", v2).unwrap();
        let mut fl = crate::engine::EngineKind::Float.build(Arc::default());
        let split = TrafficSplit::new(0.5).with_seed(9);
        let mut canaried = 0;
        for id in 0..24u64 {
            let r = s
                .submit(InferRequest::new("lenet", input(id as usize)).with_id(id))
                .unwrap()
                .wait()
                .unwrap();
            let expect = if split.picks_canary(id) {
                canaried += 1;
                m2.forward_eval(&input(id as usize), &mut fl)
            } else {
                m1.forward_eval(&input(id as usize), &mut fl)
            };
            assert_eq!(
                r.output.as_slice(),
                expect.as_slice(),
                "request {id} must land exactly where the split says"
            );
        }
        assert!(canaried > 0, "a 50% split over 24 ids routes some to the canary");
        s.clear_canary("lenet").unwrap();
        let sum = s.shutdown();
        assert_eq!(sum.models.len(), 2, "canary traffic is accounted under its own version");
    }
}

//! Worker threads: each owns long-lived engines and executes batches.
//!
//! A worker keeps one engine instance per *(model, version)* deployment,
//! built lazily on the first batch it serves for that deployment. Keeping
//! the engine alive across batches is what makes serving cheaper than
//! per-request inference — and all of a deployment's engines, across every
//! worker, point at that deployment's shared
//! [`PlanCache`](odq_quant::plan::PlanCache): each layer's weights are
//! quantized, bit-split and summarized once per weight version for the
//! whole fleet, and every planned conv driver draws im2col scratch from
//! the cache's workspace pool instead of allocating per call. The batch
//! itself carries its `Arc<Deployment>` (weights + plans + version), so a
//! hot swap needs no worker coordination at all: old batches execute
//! their old snapshot, new batches bring the new one.
//!
//! # Dispatch
//!
//! A worker that finishes a batch does not wait to be handed the next one:
//! it takes a batch already queued on the channel, else the oldest forming
//! group straight from the batcher's shared state
//! ([`batcher::next_batch`]), and only blocks when there is no work at all.
//!
//! # Supervision
//!
//! A panic anywhere inside batch execution (engine bug, model bug,
//! injected fault) must not take serving capacity down with it, and must
//! not leave the batch's clients hanging. Each worker runs a
//! *self-restarting shell*: one "shift" ([`run_shift`]) owns the engines
//! and serves batches with execution wrapped in `catch_unwind`. The shell
//! keeps ownership of the batch, so when it panics every request in it
//! that is still unanswered gets [`ServeError::Internal`], the panic is
//! recorded in the ledger, the shift's engines are thrown away (their
//! state is suspect mid-unwind), and a fresh shift starts — capacity
//! recovers without the `Server` having to notice.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::Receiver;
use odq_accel::{simulate_network, EnergyModel, LayerWorkload};
use odq_tensor::Tensor;

use crate::batcher::{self, record_spans, Batch, Forming};
use crate::config::ServeConfig;
use crate::engine::{EngineExec, EngineKind, Profiled, RouteProfile};
use crate::request::{InferResponse, RequestTiming, ServeError};
use crate::stats::{BatchRecord, BatchSim, LayerProfile, Ledger, RouteSim};
use crate::trace::SpanStage;

/// Lock the ledger even if a previous holder panicked: the streaming
/// counters stay individually consistent, and refusing to record after
/// one panic would blind the very telemetry that reports panics.
pub(crate) fn lock_ledger(ledger: &Mutex<Ledger>) -> std::sync::MutexGuard<'_, Ledger> {
    ledger.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How a worker shift ended.
enum ShiftEnd {
    /// The batch channel disconnected: the server is draining. Exit.
    Disconnected,
    /// A batch panicked: the shift's engines are suspect. Restart.
    Panicked,
}

/// How many engines a worker keeps alive per model name. Two is the
/// steady-state need (current + canary or current + draining predecessor);
/// anything older is evicted so a long swap history cannot grow the
/// worker's footprint.
const ENGINES_PER_MODEL: usize = 2;

/// Serve batches until the batch channel disconnects.
pub(crate) fn run(
    rx: Receiver<Batch>,
    kind: EngineKind,
    cfg: ServeConfig,
    ledger: Arc<Mutex<Ledger>>,
    forming: Arc<Mutex<Forming>>,
) {
    let energy = EnergyModel::default();
    // The ledger label is the same for every batch this worker ever
    // serves: intern it once instead of allocating a String per record.
    let label: Arc<str> = Arc::from(kind.label().as_ref());
    loop {
        match run_shift(&rx, &forming, &kind, &label, &cfg, &ledger, &energy) {
            ShiftEnd::Disconnected => break,
            ShiftEnd::Panicked => lock_ledger(&ledger).worker_restarts += 1,
        }
    }
}

fn run_shift(
    rx: &Receiver<Batch>,
    forming: &Mutex<Forming>,
    kind: &EngineKind,
    label: &Arc<str>,
    cfg: &ServeConfig,
    ledger: &Arc<Mutex<Ledger>>,
    energy: &EnergyModel,
) -> ShiftEnd {
    let mut engines: HashMap<(String, u64), EngineExec> = HashMap::new();
    while let Some(mut batch) = batcher::next_batch(rx, forming, cfg, ledger) {
        let executed = catch_unwind(AssertUnwindSafe(|| {
            serve_batch(&mut batch, kind, label, cfg, ledger, &mut engines, energy);
        }));
        if executed.is_err() {
            // A request answered before the panic keeps its answer; count
            // only the requests this error actually reaches.
            let mut answered = 0;
            for p in batch.items.iter_mut().filter(|p| p.reply.is_pending()) {
                p.reply.send(Err(ServeError::Internal));
                answered += 1;
            }
            lock_ledger(ledger).record_worker_panic(answered);
            return ShiftEnd::Panicked;
        }
    }
    ShiftEnd::Disconnected
}

/// Execute one batch in place, answering every member. The batch stays
/// owned by the caller so a panic part-way leaves the unanswered members
/// reachable by the supervision shell.
fn serve_batch(
    batch: &mut Batch,
    kind: &EngineKind,
    label: &Arc<str>,
    cfg: &ServeConfig,
    ledger: &Arc<Mutex<Ledger>>,
    engines: &mut HashMap<(String, u64), EngineExec>,
    energy: &EnergyModel,
) {
    // Dequeue timestamp: everything before this is queue wait, everything
    // after it (expired-partition, input gather, forward pass, scatter) is
    // the server working on the request.
    let dequeued = Instant::now();

    {
        let mut led = lock_ledger(ledger);
        led.batches_started += 1;
        let nth = led.batches_started;
        drop(led);
        // The fault hook fires *before* any engine state is touched, so
        // an injected panic never leaves a half-updated engine behind —
        // the supervision shell discards the shift's engines anyway, but
        // the injection point guarantees the shared plan cache is clean.
        if let Some(hook) = &cfg.fault_hook {
            if hook.should_panic(nth, &batch.dep.name, batch.dep.version) {
                panic!(
                    "fault injection: hook tripped on batch {nth} ({} v{})",
                    batch.dep.name, batch.dep.version
                );
            }
        }
    }

    // Last-chance deadline check: a batch can sit in the dispatch channel
    // behind busy workers; anything already expired is answered as missed
    // rather than burning a forward pass on it.
    let expired = batch.items.iter().filter(|p| p.expired(dequeued)).count();
    if expired > 0 {
        lock_ledger(ledger).rejected_deadline += expired as u64;
        batch.items.retain_mut(|p| {
            let live = !p.expired(dequeued);
            if !live {
                p.reply.send(Err(ServeError::DeadlineExceeded));
            }
            live
        });
    }
    if batch.items.is_empty() {
        return;
    }
    record_spans(cfg, &batch.items, SpanStage::WorkerDequeue, dequeued, None);

    let n = batch.items.len();
    let dep = Arc::clone(&batch.dep);
    let model = &*dep.model;

    // Gather [1,C,H,W] inputs into one [N,C,H,W] tensor.
    let per_image = batch.items[0].req.input.as_slice().len();
    let mut data = Vec::with_capacity(n * per_image);
    for p in &batch.items {
        data.extend_from_slice(p.req.input.as_slice());
    }
    let mut dims = batch.items[0].req.input.dims().to_vec();
    dims[0] = n;
    let x = Tensor::from_vec(dims, data);

    let key = (dep.name.clone(), dep.version);
    if !engines.contains_key(&key) {
        // Evict this model's stalest version beyond the cap before
        // building: superseded deployments drain quickly and never
        // come back, while current + canary stay hot.
        let mut versions: Vec<u64> =
            engines.keys().filter(|(m, _)| *m == dep.name).map(|&(_, v)| v).collect();
        versions.sort_unstable();
        for &v in versions.iter().rev().skip(ENGINES_PER_MODEL - 1) {
            engines.remove(&(dep.name.clone(), v));
        }
        // A `Policy` kind defers to the deployment's published policy, so
        // the engine a hot swap brings in routes by the *new* version's
        // policy — weights and precision policy swap atomically.
        engines.insert(key.clone(), kind.build_for(dep.policy.as_ref(), Arc::clone(&dep.plans)));
    }
    let exec = engines.get_mut(&key).expect("engine just ensured");
    // Per-batch stats: clear any profile left from the previous batch.
    exec.reset_batch_stats();

    let start = Instant::now();
    let mut prof = Profiled::new(exec, cfg.layer_profiling);
    let y = model.forward_eval(&x, &mut prof);
    let service = start.elapsed();
    let layer_geoms = std::mem::take(&mut prof.layers);
    let layer_walls = std::mem::take(&mut prof.walls);
    record_spans(cfg, &batch.items, SpanStage::EngineExecute, start, Some(service));

    // Extract the batch's measured profile before responding. A policy
    // engine yields one group per route, each costed on its own
    // accelerator configuration; single-engine kinds yield one group.
    let (sensitive_fraction, groups) = profile(exec, kind, &layer_geoms);
    // Per-layer simulated cycles (whole batch), filled by the sim loop.
    let mut layer_cycles: HashMap<String, f64> = HashMap::new();
    let sim = if cfg.simulate_accel && !groups.is_empty() {
        let mut cycles = 0.0f64;
        let mut time_s = 0.0f64;
        let mut energy_nj = 0.0f64;
        let mut routes = Vec::with_capacity(groups.len());
        for rp in &groups {
            let r = simulate_network(&rp.accel, &rp.workloads, energy);
            cycles += r.total_cycles;
            time_s += r.time_s;
            energy_nj += r.energy.total_nj();
            if cfg.layer_profiling {
                for lr in &r.layers {
                    *layer_cycles.entry(lr.name.clone()).or_insert(0.0) +=
                        lr.total_cycles * n as f64;
                }
            }
            routes.push(RouteSim {
                route: rp.label.clone(),
                config: rp.accel.name.clone(),
                layers: rp.workloads.len(),
                batch_cycles: r.total_cycles * n as f64,
                energy_nj: r.energy.total_nj() * n as f64,
            });
        }
        let config =
            if groups.len() == 1 { groups[0].accel.name.clone() } else { "mixed".to_string() };
        Some(BatchSim {
            config,
            cycles_per_image: cycles,
            batch_cycles: cycles * n as f64,
            time_s: time_s * n as f64,
            energy_nj: energy_nj * n as f64,
            routes,
        })
    } else {
        None
    };

    // Per-layer probes: pair each layer's measured wall time with the
    // route that executed it, the mask density that route measured for
    // it, and its share of the simulated cycles. The route groups are
    // already built (for the simulator) whether or not simulation ran.
    let layer_profiles: Vec<LayerProfile> = if cfg.layer_profiling {
        let mut meta: HashMap<&str, (&str, Option<f64>)> = HashMap::new();
        for rp in &groups {
            for w in &rp.workloads {
                let density = if rp.label.starts_with("odq") {
                    Some(w.odq_sensitive_fraction)
                } else if rp.label.starts_with("drq") {
                    Some(w.drq_hi_fraction)
                } else {
                    None
                };
                meta.insert(w.name.as_str(), (rp.label.as_str(), density));
            }
        }
        layer_geoms
            .iter()
            .zip(&layer_walls)
            .map(|((name, _), wall)| {
                let (route, mask_density) = match meta.get(name.as_str()) {
                    Some(&(r, d)) => (r.to_string(), d),
                    None => (label.to_string(), None),
                };
                LayerProfile {
                    layer: name.clone(),
                    route,
                    wall: *wall,
                    mask_density,
                    sim_cycles: layer_cycles.get(name.as_str()).copied().unwrap_or(0.0),
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    // Record the batch in the ledger *before* scattering responses: a
    // client that has observed its response is then guaranteed the stats
    // already reflect it, so `wait()` doubles as a completion barrier and
    // tests never need to poll the ledger.
    let classes = y.as_slice().len() / n;
    let ys = y.as_slice();
    let done = Instant::now();
    let timings: Vec<RequestTiming> = batch
        .items
        .iter()
        .map(|p| RequestTiming {
            queue_wait: dequeued.saturating_duration_since(p.enqueued),
            service,
            total: done.saturating_duration_since(p.enqueued),
            batch_size: n,
        })
        .collect();
    {
        let mut led = lock_ledger(ledger);
        for t in &timings {
            led.record_request(t.queue_wait, t.service, t.total);
        }
        led.record_batch(BatchRecord {
            model: dep.name.clone(),
            version: dep.version,
            fingerprint: dep.fingerprint,
            engine: Arc::clone(label),
            size: n,
            service,
            sensitive_fraction,
            sim,
        });
        if !layer_profiles.is_empty() {
            led.record_layers(&dep.name, dep.version, &layer_profiles);
        }
    }

    // Scatter output rows back to the requesters. The scatter span is
    // recorded first, so a traced client that has seen its response is
    // guaranteed the full five-stage trace is already in the sink — the
    // same barrier discipline as the ledger above.
    record_spans(cfg, &batch.items, SpanStage::ResponseScatter, done, None);
    for ((i, p), timing) in batch.items.iter_mut().enumerate().zip(timings) {
        let row = ys[i * classes..(i + 1) * classes].to_vec();
        p.reply.send(Ok(InferResponse {
            output: Tensor::from_vec(vec![1, classes], row),
            timing,
            trace: Some(p.trace),
        }));
    }
}

/// Turn the engine's per-pass measurements into per-route workload groups.
///
/// ODQ supplies real per-(image, channel) sensitive counts; DRQ supplies
/// per-layer high-precision MAC fractions; static/float engines run every
/// output at full precision (fraction 1.0). A policy engine folds each
/// sub-engine's measurements into its own group so every route is costed
/// on its own accelerator; every other kind yields exactly one group.
fn profile(
    exec: &mut EngineExec,
    kind: &EngineKind,
    layer_geoms: &[(String, odq_tensor::ConvGeom)],
) -> (Option<f64>, Vec<RouteProfile>) {
    let (frac, workloads) = match exec {
        EngineExec::Policy(p) => return p.route_profiles(layer_geoms),
        EngineExec::Odq(e) => {
            let stats = e.stats.take();
            let frac = stats.overall_sensitive_fraction();
            let ws: Vec<LayerWorkload> = stats
                .layers
                .iter()
                .map(|l| LayerWorkload::from_channel_counts(&l.name, l.geom, &l.channel_counts))
                .collect();
            (Some(frac), ws)
        }
        EngineExec::Drq(e) => {
            let ws = layer_geoms
                .iter()
                .map(|(name, geom)| {
                    let frac = e
                        .stats
                        .iter()
                        .find(|l| &l.name == name)
                        .map_or(1.0, |l| l.hi_mac_fraction());
                    LayerWorkload::uniform(name.clone(), *geom, frac)
                })
                .collect();
            (None, ws)
        }
        EngineExec::Float(_) | EngineExec::Static(_) => {
            let ws = layer_geoms
                .iter()
                .map(|(name, geom)| LayerWorkload::uniform(name.clone(), *geom, 1.0))
                .collect();
            (None, ws)
        }
    };
    let groups = if workloads.is_empty() {
        Vec::new()
    } else {
        vec![RouteProfile {
            label: kind.label().into_owned(),
            accel: kind.accel_config(),
            workloads,
        }]
    };
    (frac, groups)
}

//! The chaos driver: execute a [`ChaosPlan`] against a live stack and
//! check invariants at every quiesce point.
//!
//! The driver is single-threaded by design: every registry publish,
//! route operation, and connection cycle happens in op order, so their
//! outcomes (version numbers, typed rejections) are deterministic and go
//! into the replayable event log. Traffic *outcomes* — which batch a
//! probabilistic panic lands on, which requests a deadline catches, how
//! many admissions a full queue refuses — depend on thread timing and
//! are tallied but never logged: the event log contains only what two
//! runs of the same seed must agree on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use odq_net::{FaultyTransport, NetClient, NetConfig, NetServer};
use odq_obs::TraceBuffer;
use odq_registry::ModelRegistry;
use odq_serve::{
    FaultHook, InferRequest, ReconcileReport, ResponseHandle, SeededProbFault, ServeConfig,
    ServeError, Server, StatsSummary, TrafficSplit,
};

use crate::invariants::{
    build_model, check_oracle, check_outcomes, check_reconcile, check_summary_sanity, check_traces,
    image, tensor_bits, InvariantVerdict, ObservedResponse, OracleCache, PublishedVersions,
};
use crate::plan::{ChaosConfig, ChaosOp, ChaosPlan, MODEL_NAMES};
use crate::rng::substream;

/// How long a quiesce waits for outstanding handles before declaring a
/// hang (itself an invariant failure) — generous against CI scheduling
/// noise, tight enough that a real wedge fails the run promptly.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a reconcile check retries before reporting the last
/// (unbalanced) snapshot. The ledger records a worker panic *after*
/// answering the batch, so a client that has seen every outcome can be
/// microseconds ahead of the counters.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(3);

/// Client-side terminal-outcome tallies. Timing-dependent (except
/// `submits`), so reported but never written to the event log.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutcomeTally {
    /// Submit ops executed.
    pub submits: u64,
    /// Typed errors at the `submit` call itself.
    pub submit_errors: u64,
    /// `Ok` responses.
    pub completed: u64,
    /// `DeadlineExceeded` through the handle.
    pub deadline: u64,
    /// `Internal` (worker panic) through the handle.
    pub internal: u64,
    /// `WorkerLost` (connection/pipeline died under the request).
    pub worker_lost: u64,
    /// Other typed rejections through the handle (queue full over the
    /// wire, shutdown, ...).
    pub rejected: u64,
    /// Handles that never resolved within the quiesce timeout — always
    /// an invariant failure.
    pub unanswered: u64,
    /// Handles that yielded a second outcome — always an invariant
    /// failure.
    pub double_answered: u64,
}

/// Everything a chaos run reports back.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The seed that replays this schedule.
    pub seed: u64,
    /// Label of the engine under test.
    pub engine_label: String,
    /// The deterministic event log: schedule header, op-by-op registry
    /// and route outcomes, invariant verdicts. Two runs of the same
    /// config produce identical logs (compared by the replay test).
    pub event_log: Vec<String>,
    /// Every invariant checked, in order.
    pub verdicts: Vec<InvariantVerdict>,
    /// Client-side outcome tallies (timing-dependent).
    pub tally: OutcomeTally,
    /// The stack's final ledger summary.
    pub summary: StatsSummary,
    /// `Ok` responses that went through oracle matching.
    pub responses_checked: usize,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// The invariants that failed (empty when [`all_pass`](Self::all_pass)).
    pub fn failures(&self) -> Vec<&InvariantVerdict> {
        self.verdicts.iter().filter(|v| !v.pass).collect()
    }
}

/// The transport the schedule runs through.
enum Stack {
    /// In-process `Server::submit`.
    Local(Server),
    /// TCP through the fault proxy: client → proxy → NetServer → Server.
    Net { net: NetServer, proxy: FaultyTransport, client: Option<NetClient> },
}

impl Stack {
    fn server(&self) -> &Server {
        match self {
            Stack::Local(s) => s,
            Stack::Net { net, .. } => net.server(),
        }
    }

    fn submit(&self, req: InferRequest) -> Result<ResponseHandle, ServeError> {
        match self {
            Stack::Local(s) => s.submit(req),
            Stack::Net { client, .. } => {
                client.as_ref().expect("client present between cycles").submit(req)
            }
        }
    }

    /// Net mode: close the current connection (forcing every handle it
    /// still owes to a typed resolution) and open the next one; the
    /// proxy assigns that connection's planned fault by accept order.
    /// No-op in-process.
    fn cycle_connection(&mut self) {
        if let Stack::Net { proxy, client, .. } = self {
            if let Some(c) = client.take() {
                c.close();
            }
            *client =
                Some(NetClient::connect(proxy.local_addr()).expect("reconnect through live proxy"));
        }
    }

    /// Tear everything down gracefully; the final ledger summary.
    fn finish(self) -> StatsSummary {
        match self {
            Stack::Local(s) => s.shutdown(),
            Stack::Net { net, proxy, client } => {
                if let Some(c) = client {
                    c.close();
                }
                let summary = net.shutdown();
                proxy.shutdown();
                summary
            }
        }
    }
}

/// One in-flight request the driver is tracking.
struct Out {
    model: usize,
    image_seed: u64,
    handle: ResponseHandle,
}

/// Run one seeded chaos schedule to completion and report.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let plan = ChaosPlan::generate(cfg);
    let mut log: Vec<String> = vec![format!(
        "chaos seed=0x{seed:016x} ops={ops} net={net} engine={engine} workers={w} \
         max_batch={mb} queue_depth={qd} panic_prob={pp}",
        seed = cfg.seed,
        ops = plan.ops.len(),
        net = cfg.via_net,
        engine = plan.engine.label(),
        w = cfg.workers,
        mb = cfg.max_batch,
        qd = cfg.queue_depth,
        pp = cfg.panic_prob,
    )];

    // --- Build the stack. -------------------------------------------------
    let registry = Arc::new(ModelRegistry::new());
    let fault_hook: Option<Arc<dyn FaultHook>> = (cfg.panic_prob > 0.0).then(|| {
        Arc::new(SeededProbFault::new(substream(cfg.seed, 0xFA), cfg.panic_prob))
            as Arc<dyn FaultHook>
    });
    // Tracing rides along under chaos: sampling is a pure hash of the
    // trace id, so turning it on cannot perturb the replayable event
    // log, and the final trace-integrity invariant checks what it saw.
    let traces = Arc::new(TraceBuffer::new(substream(cfg.seed, 0x0B5), 4, 4096));
    let serve_cfg = ServeConfig {
        queue_depth: cfg.queue_depth,
        max_batch: cfg.max_batch,
        max_wait: Duration::from_micros(300),
        workers: cfg.workers,
        default_deadline: None,
        simulate_accel: false,
        fault_hook,
        trace: Some(traces.clone()),
        layer_profiling: true,
    };
    let mut builder =
        Server::builder(serve_cfg).engine(plan.engine.clone()).registry(Arc::clone(&registry));
    for (i, name) in MODEL_NAMES.iter().enumerate() {
        builder = builder.model(*name, build_model(plan.initial_seeds[i]));
    }
    let server = builder.start();
    let mut stack = if cfg.via_net {
        let net =
            NetServer::bind(server, "127.0.0.1:0", NetConfig::default()).expect("bind net server");
        let proxy = FaultyTransport::bind(net.local_addr(), plan.connection_faults())
            .expect("bind fault proxy");
        let client = NetClient::connect(proxy.local_addr()).expect("initial connect");
        Stack::Net { net, proxy, client: Some(client) }
    } else {
        Stack::Local(server)
    };

    // --- Execute the schedule. --------------------------------------------
    // Every version ever published, per model, with its weight seed; the
    // oracle's candidate set.
    let mut published: PublishedVersions =
        MODEL_NAMES.iter().enumerate().map(|(i, _)| vec![(1u64, plan.initial_seeds[i])]).collect();
    let mut oracle = OracleCache::new(plan.oracle);
    let mut outstanding: Vec<Out> = Vec::new();
    let mut observed: Vec<ObservedResponse> = Vec::new();
    let mut tally = OutcomeTally::default();
    let mut verdicts: Vec<InvariantVerdict> = Vec::new();
    let mut quiesce_n = 0usize;

    for (i, op) in plan.ops.iter().enumerate() {
        match op {
            ChaosOp::Submit { model, image_seed, deadline_ms } => {
                log.push(format!(
                    "op#{i:03} submit {} img={image_seed} deadline={deadline_ms:?}",
                    MODEL_NAMES[*model]
                ));
                tally.submits += 1;
                let mut req = InferRequest::new(MODEL_NAMES[*model], image(*model, *image_seed));
                if let Some(ms) = deadline_ms {
                    req = req.with_deadline(Duration::from_millis(*ms));
                }
                match stack.submit(req) {
                    Ok(handle) => {
                        outstanding.push(Out { model: *model, image_seed: *image_seed, handle });
                    }
                    Err(_) => tally.submit_errors += 1,
                }
            }
            ChaosOp::Deploy { model, model_seed } => {
                let name = MODEL_NAMES[*model];
                match registry.publish(name, build_model(*model_seed), vec![]) {
                    Ok(v) => {
                        published[*model].push((v, *model_seed));
                        match stack.server().deploy(name, v) {
                            Ok(()) => log.push(format!("op#{i:03} deploy {name} -> v{v}")),
                            Err(e) => {
                                log.push(format!("op#{i:03} deploy {name} v{v} rejected: {e}"))
                            }
                        }
                    }
                    Err(e) => log.push(format!("op#{i:03} publish {name} rejected: {e}")),
                }
            }
            ChaosOp::Rollback { model } => {
                let name = MODEL_NAMES[*model];
                match stack.server().rollback(name) {
                    Ok(v) => log.push(format!("op#{i:03} rollback {name} -> v{v}")),
                    Err(e) => log.push(format!("op#{i:03} rollback {name} rejected: {e}")),
                }
            }
            ChaosOp::Canary { model, model_seed, percent } => {
                let name = MODEL_NAMES[*model];
                match registry.publish(name, build_model(*model_seed), vec![]) {
                    Ok(v) => {
                        published[*model].push((v, *model_seed));
                        let split = TrafficSplit::new(*percent as f64 / 100.0)
                            .with_seed(substream(cfg.seed, 0xCA00 ^ i as u64));
                        match stack.server().canary(name, v, split) {
                            Ok(()) => {
                                log.push(format!("op#{i:03} canary {name} v{v} at {percent}%"))
                            }
                            Err(e) => {
                                log.push(format!("op#{i:03} canary {name} v{v} rejected: {e}"))
                            }
                        }
                    }
                    Err(e) => log.push(format!("op#{i:03} publish {name} rejected: {e}")),
                }
            }
            ChaosOp::ClearCanary { model } => {
                let name = MODEL_NAMES[*model];
                match stack.server().clear_canary(name) {
                    Ok(()) => log.push(format!("op#{i:03} clear-canary {name}")),
                    Err(e) => log.push(format!("op#{i:03} clear-canary {name} rejected: {e}")),
                }
            }
            ChaosOp::RetirePrevious { model } => {
                let name = MODEL_NAMES[*model];
                let prev = registry.latest(name).and_then(|l| registry.previous(name, l));
                match prev {
                    Some(p) => match registry.retire(name, p) {
                        Ok(()) => log.push(format!("op#{i:03} retire {name} v{p}")),
                        Err(e) => log.push(format!("op#{i:03} retire {name} v{p} rejected: {e}")),
                    },
                    None => log.push(format!("op#{i:03} retire {name}: nothing to retire")),
                }
            }
            ChaosOp::Reconnect { fault } => {
                log.push(format!("op#{i:03} reconnect fault={fault:?}"));
                stack.cycle_connection();
            }
            ChaosOp::Quiesce => {
                resolve_outstanding(&mut stack, &mut outstanding, &mut tally, &mut observed);
                let r = settled_reconcile(stack.server());
                let q = quiesce_n;
                quiesce_n += 1;
                let vs = [
                    check_outcomes(
                        format!("quiesce#{q} exactly-one-outcome"),
                        tally.unanswered,
                        tally.double_answered,
                    ),
                    check_reconcile(format!("quiesce#{q} reconcile"), &r, false),
                    check_oracle(format!("quiesce#{q} oracle"), &observed, &published, &mut oracle),
                ];
                for v in vs {
                    log.push(format!(
                        "op#{i:03} invariant {}: {}",
                        v.name,
                        if v.pass { "PASS" } else { "FAIL" }
                    ));
                    verdicts.push(v);
                }
            }
        }
    }

    // --- Tear down and run the final invariants. --------------------------
    let summary = stack.finish();
    let finals = [
        check_reconcile("final reconcile+gauges", &summary.reconcile(), true),
        check_summary_sanity("final summary-sanity", &summary, cfg.queue_depth as u64),
        check_oracle("final oracle", &observed, &published, &mut oracle),
        check_traces("final trace-integrity", &traces),
    ];
    for v in finals {
        log.push(format!("invariant {}: {}", v.name, if v.pass { "PASS" } else { "FAIL" }));
        verdicts.push(v);
    }

    ChaosReport {
        seed: cfg.seed,
        engine_label: plan.engine.label().into_owned(),
        event_log: log,
        verdicts,
        tally,
        summary,
        responses_checked: observed.len(),
    }
}

/// Drain every outstanding handle to its single terminal outcome.
///
/// Waits on each handle with a timeout bounded by what is left of
/// [`RESOLVE_TIMEOUT`] (so a genuine hang becomes a counted invariant
/// failure instead of wedging the harness). In net mode the connection is
/// then cycled — closing it forces any handle the wire swallowed
/// (truncated frame, corrupted header wedging the server mid-read) to a
/// typed `WorkerLost` — and stragglers get one more round.
fn resolve_outstanding(
    stack: &mut Stack,
    outstanding: &mut Vec<Out>,
    tally: &mut OutcomeTally,
    observed: &mut Vec<ObservedResponse>,
) {
    await_outstanding(outstanding, tally, observed, RESOLVE_TIMEOUT);
    // Unconditional in net mode, even with nothing outstanding: each
    // quiesce consumes exactly one proxy connection, keeping the plan's
    // accept-order fault assignment deterministic.
    stack.cycle_connection();
    if !outstanding.is_empty() {
        await_outstanding(outstanding, tally, observed, RESOLVE_TIMEOUT);
    }
    tally.unanswered += outstanding.len() as u64;
    outstanding.clear();
}

/// Block on each outstanding handle in turn, all within one `timeout`
/// budget; handles still unresolved when it runs out stay outstanding.
fn await_outstanding(
    outstanding: &mut Vec<Out>,
    tally: &mut OutcomeTally,
    observed: &mut Vec<ObservedResponse>,
    timeout: Duration,
) {
    let deadline = Instant::now() + timeout;
    outstanding.retain(|out| {
        let left = deadline.saturating_duration_since(Instant::now());
        let Some(outcome) = out.handle.wait_timeout(left) else { return true };
        match outcome {
            Ok(resp) => {
                tally.completed += 1;
                observed.push(ObservedResponse {
                    model: out.model,
                    image_seed: out.image_seed,
                    bits: tensor_bits(&resp.output),
                });
            }
            Err(ServeError::DeadlineExceeded) => tally.deadline += 1,
            Err(ServeError::Internal) => tally.internal += 1,
            Err(ServeError::WorkerLost) => tally.worker_lost += 1,
            Err(_) => tally.rejected += 1,
        }
        // The one response slot is spent: a second outcome (beyond the
        // channel-closed artifact) is a duplicated answer.
        if !matches!(out.handle.try_wait(), None | Some(Err(ServeError::WorkerLost))) {
            tally.double_answered += 1;
        }
        false
    });
}

/// Read the reconcile report, retrying briefly until it balances with an
/// empty queue: the ledger's panic accounting trails the answered
/// requests by design (see [`RESOLVE_TIMEOUT`] docs), and in net mode a
/// cut connection resolves client handles while the server is still
/// finishing the batch.
fn settled_reconcile(server: &Server) -> ReconcileReport {
    let start = Instant::now();
    loop {
        let r = server.reconcile();
        if (r.is_balanced() && r.in_queue == 0) || start.elapsed() > SETTLE_TIMEOUT {
            return r;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

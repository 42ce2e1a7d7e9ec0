//! `net_mixed` and `net_churn`: one `NetClient` over loopback TCP into a
//! `NetServer`, driven by an open-loop Poisson generator.
//!
//! The generator uses two threads: the sender (this thread), which waits
//! for each request's intended send instant and submits it, and a
//! collector, which polls every in-flight handle with `try_wait` and
//! stamps each response on arrival, sleeping 50 µs when nothing is ready.
//! Latency runs from the intended send instant, so a stalled sender is
//! charged to the requests it delays. Control-plane calls and scrapes
//! (`net_churn`) run on the sender thread, in gaps of the arrival
//! schedule.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odq_conformance::{OracleExecutor, OracleGate, OracleKind};
use odq_net::{NetClient, NetConfig, NetServer};
use odq_nn::models::{Model, ModelCfg};
use odq_nn::{Arch, Layer};
use odq_obs::{http_get, MetricsServer, TraceBuffer};
use odq_registry::ModelRegistry;
use odq_serve::{
    EngineKind, InferRequest, RequestTiming, ResponseHandle, ServeConfig, ServeError, Server,
    SpanStage, StatsSummary, TraceSink,
};
use odq_tensor::Tensor;

use crate::offline;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, ms, quantile, Rng};

/// Offered rate of the `light` phase, requests per second.
const LIGHT_RPS: f64 = 500.0;
/// Offered rate of the `loaded` phase: about half the rate at which a
/// 2-vCPU host starts refusing bursts (README.md, "Sizing").
const LOADED_RPS: f64 = 800.0;
/// Window of the light phase: 500 requests, so its p99 is pooled.
const LIGHT_WINDOW: Duration = Duration::from_secs(1);
/// Window of the loaded phase: 1600 requests, sixteen beyond its p99,
/// and exactly two control-plane ticks under churn.
const LOADED_WINDOW: Duration = Duration::from_secs(2);
/// Rate-search probes: quiet windows per probe and their length (one
/// control-plane tick each under churn).
const PROBE_WINDOWS: usize = 2;
const PROBE_WINDOW: Duration = Duration::from_secs(1);
/// Latency limit on p99 for `max_rps_slo`. Refused and failed requests
/// count as missing it.
const SLO_P99_MS: f64 = 50.0;
/// The serve_bench traffic mix: model and share.
const MIX: [(&str, f64); 2] = [("resnet20", 0.6), ("lenet5", 0.4)];
/// Distinct inputs per model.
const INPUTS: usize = 64;
/// Keep the output of every `SAMPLE_EVERY`-th request for the oracle check.
const SAMPLE_EVERY: u64 = 53;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Warm-up requests per model in each set-up.
const WARMUP: usize = 16;
/// Control-plane period under churn.
const CHURN_PERIOD: Duration = Duration::from_secs(1);
/// Under churn, each period opens with a gap this long in which no
/// request is due, and the control-plane tick runs in it: the sender
/// thread does both jobs, and a tick that fits its gap delays no request.
/// A tick that overruns it does, and the latency shows it.
const CHURN_GAP: Duration = Duration::from_millis(40);
/// Versions kept published under churn; older ones are retired.
const KEEP_VERSIONS: usize = 2;
/// ODQ threshold the server runs at.
const THRESHOLD: f32 = 0.3;

fn resnet_small() -> Model {
    Model::build(ModelCfg::small(Arch::ResNet20, 10))
}

fn lenet_small() -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, 10);
    cfg.in_channels = 1;
    Model::build(cfg)
}

/// Churn step `k` of resnet20 (0 = the initial weights): the two convs of
/// one residual block, chosen by `k`, scaled by ±5% per weight.
fn resnet_step(k: u64) -> Model {
    let mut m = resnet_small();
    if k == 0 {
        return m;
    }
    // Block b's convs are C{2b+2} and C{2b+3}; projections end in `p`.
    let mut convs = 0u64;
    m.net.visit_convs_mut(&mut |c| convs += u64::from(!c.name.ends_with('p')));
    let b = k % ((convs - 1) / 2).max(1);
    let chosen = [format!("C{}", 2 * b + 2), format!("C{}", 2 * b + 3)];
    let mut rng = Rng::new(k);
    m.net.visit_convs_mut(&mut |c| {
        if chosen.contains(&c.name) {
            for w in c.weight.value.as_mut_slice() {
                *w *= if rng.next_u64() & 1 == 0 { 1.05 } else { 0.95 };
            }
        }
    });
    m
}

/// A running stack: server behind TCP, metrics endpoint, one client.
struct Stack {
    ns: NetServer,
    client: NetClient,
    metrics: MetricsServer,
    traces: Option<(Arc<TraceBuffer>, Instant)>,
}

impl Stack {
    fn start(trace_cap: Option<usize>, seed: u64) -> Self {
        let registry = Arc::new(ModelRegistry::gated(OracleGate {
            kind: OracleKind::Odq { threshold: THRESHOLD },
            probes: 2,
        }));
        // The buffer's epoch is taken inside `new`; `before` bounds it
        // from below to well under a microsecond.
        let traces = trace_cap.map(|cap| {
            let before = Instant::now();
            (Arc::new(TraceBuffer::new(seed, 1, cap)), before)
        });
        let cfg = ServeConfig {
            trace: traces.as_ref().map(|(t, _)| Arc::clone(t) as Arc<dyn TraceSink>),
            ..ServeConfig::default()
        };
        let server = Server::builder(cfg)
            .registry(registry)
            .engine(EngineKind::Odq { threshold: THRESHOLD })
            .model("resnet20", resnet_step(0))
            .model("lenet5", lenet_small())
            .start();
        let ns = NetServer::bind(server, "127.0.0.1:0", NetConfig::default())
            .expect("bind loopback front-end");
        let metrics = MetricsServer::bind(
            "127.0.0.1:0",
            Arc::new(ns.server().stats_handle()),
            traces.as_ref().map(|(t, _)| Arc::clone(t)),
        )
        .expect("bind metrics endpoint");
        let client = NetClient::connect(ns.local_addr()).expect("connect client");
        Stack { ns, client, metrics, traces }
    }

    /// Closed-loop warm-up so plan caches and worker engines are built
    /// before anything is timed.
    fn warm_up(&self, inputs: &[Vec<Tensor>], seq: &mut u64) -> Result<(), String> {
        for i in 0..WARMUP {
            for (m, (name, _)) in MIX.iter().enumerate() {
                let req = InferRequest::new(*name, inputs[m][i % INPUTS].clone()).with_id(*seq);
                *seq += 1;
                self.client.infer(req).map_err(|e| format!("warm-up {name}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Close the client and drain the server; returns the final ledger.
    fn stop(self) -> StatsSummary {
        self.client.close();
        self.metrics.shutdown();
        self.ns.shutdown()
    }
}

/// One request as the sender hands it to the collector.
struct Inflight {
    id: u64,
    model: usize,
    input: usize,
    due: Instant,
    sent: Instant,
    submit: Duration,
    res: Result<ResponseHandle, ServeError>,
}

/// One request's outcome, stamped on arrival.
struct Done {
    id: u64,
    model: usize,
    input: usize,
    due: Instant,
    sent: Instant,
    submit: Duration,
    arrived: Instant,
    /// Time since the collector's previous scan: the stamp's resolution.
    stamp: Duration,
    res: Result<(RequestTiming, Option<Vec<f32>>), ServeError>,
}

/// The collector: poll every in-flight handle, stamp arrivals, sleep
/// 50 µs when a scan finds nothing ready.
fn collect(rx: Receiver<Inflight>) -> Vec<Done> {
    let mut inflight: Vec<(Inflight, ResponseHandle)> = Vec::new();
    let mut done = Vec::new();
    let mut open = true;
    let mut last_scan = Instant::now();
    loop {
        loop {
            match rx.try_recv() {
                Ok(mut p) => match std::mem::replace(&mut p.res, Err(ServeError::WorkerLost)) {
                    Ok(h) => inflight.push((p, h)),
                    Err(e) => {
                        let now = Instant::now();
                        done.push(finish(p, now, Duration::ZERO, Err(e)));
                    }
                },
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut ready = false;
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].1.try_wait() {
                Some(r) => {
                    let arrived = Instant::now();
                    let (p, _) = inflight.swap_remove(i);
                    done.push(finish(p, arrived, arrived - last_scan, r));
                    ready = true;
                }
                None => i += 1,
            }
        }
        last_scan = Instant::now();
        if !open && inflight.is_empty() {
            return done;
        }
        if !ready {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

fn finish(
    p: Inflight,
    arrived: Instant,
    stamp: Duration,
    r: Result<odq_serve::InferResponse, ServeError>,
) -> Done {
    let res = r.map(|resp| {
        let keep = p.id.is_multiple_of(SAMPLE_EVERY);
        (resp.timing, keep.then(|| resp.output.as_slice().to_vec()))
    });
    Done {
        id: p.id,
        model: p.model,
        input: p.input,
        due: p.due,
        sent: p.sent,
        submit: p.submit,
        arrived,
        stamp,
        res,
    }
}

/// Control-plane writes under churn: publish (gated), deploy, retire,
/// scrape — once a second, on the sender thread.
struct Churn {
    step: u64,
    /// Published versions still routable, oldest first.
    live: Vec<u64>,
    /// `(from, until, version)`: when each resnet20 version could serve.
    timeline: Vec<(Instant, Option<Instant>, u64)>,
    /// Registry version → churn step.
    steps: HashMap<u64, u64>,
    publish_ms: Vec<f64>,
    deploy_ms: Vec<f64>,
}

impl Churn {
    fn new(start: Instant) -> Self {
        Self {
            step: 0,
            live: vec![1],
            timeline: vec![(start, None, 1)],
            steps: HashMap::from([(1, 0)]),
            publish_ms: Vec::new(),
            deploy_ms: Vec::new(),
        }
    }

    fn tick(&mut self, st: &Stack, obs: &mut Scrapes, tracer: Option<&Tracer>, out: &mut Outcome) {
        self.step += 1;
        let model = resnet_step(self.step);
        let server = st.ns.server();
        let t0 = Instant::now();
        let version = match server.registry().publish("resnet20", model, vec![]) {
            Ok(v) => v,
            Err(e) => return out.fail(format!("publish of churn step {}: {e}", self.step)),
        };
        let t1 = Instant::now();
        self.publish_ms.push(ms(t1 - t0));
        self.steps.insert(version, self.step);
        if let Err(e) = server.deploy("resnet20", version) {
            return out.fail(format!("deploy of v{version}: {e}"));
        }
        let t2 = Instant::now();
        self.deploy_ms.push(ms(t2 - t1));
        // The old version may still answer anything admitted before the
        // swap finished; the new one anything admitted after it began.
        if let Some(last) = self.timeline.last_mut() {
            last.1 = Some(t2);
        }
        self.timeline.push((t1, None, version));
        self.live.push(version);
        while self.live.len() > KEEP_VERSIONS {
            let old = self.live.remove(0);
            if let Err(e) = server.registry().retire("resnet20", old) {
                out.fail(format!("retire v{old}: {e}"));
            }
        }
        let t3 = Instant::now();
        if let Some(tr) = tracer {
            tr.record(0, "registry", t0, t1 - t0);
            tr.record(0, "deploy", t1, t3 - t1);
        }
        obs.scrape(st, tracer, out);
    }

    /// Versions that could have served a request in flight over `[a, b]`.
    fn candidates(&self, a: Instant, b: Instant) -> Vec<u64> {
        self.timeline
            .iter()
            .filter(|(from, until, _)| *from <= b && until.is_none_or(|u| u >= a))
            .map(|&(_, _, v)| v)
            .collect()
    }
}

/// `/metrics` scrapes: time per call and series count.
#[derive(Default)]
struct Scrapes {
    ms: Vec<f64>,
    series: usize,
}

impl Scrapes {
    fn scrape(&mut self, st: &Stack, tracer: Option<&Tracer>, out: &mut Outcome) {
        let t0 = Instant::now();
        match http_get(st.metrics.local_addr(), "/metrics") {
            Ok((200, body)) => match odq_obs::parse(&body) {
                Ok(exp) => self.series = exp.samples.len(),
                Err(e) => out.fail(format!("/metrics does not parse: {e}")),
            },
            Ok((status, _)) => out.fail(format!("/metrics answered {status}")),
            Err(e) => out.fail(format!("/metrics scrape: {e}")),
        }
        let d = t0.elapsed();
        self.ms.push(ms(d));
        if let Some(tr) = tracer {
            tr.record(0, "scrape", t0, d);
        }
    }
}

/// What one phase measured.
struct Phase {
    rate: f64,
    start: Instant,
    win: Duration,
    /// Host steal ticks per window (see [`steal_ticks`]).
    steal: Vec<u64>,
    elapsed: Duration,
    done: Vec<Done>,
}

/// Client latency from the intended send instant, ms; a refused or
/// failed request counts as infinitely late.
fn latency(d: &Done) -> f64 {
    if d.res.is_ok() {
        ms(d.arrived - d.due)
    } else {
        f64::INFINITY
    }
}

/// Host steal time so far, in clock ticks summed over CPUs (`/proc/stat`):
/// time this VM's CPUs were runnable but the host ran something else.
/// 0 where the kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}

/// A window is quiet when the host stole at most this share of its CPU
/// time.
const QUIET_STEAL: f64 = 0.1;

/// Whether a window of `win` with `steal` ticks was quiet (`/proc/stat`
/// counts 100 ticks per second per CPU).
fn is_quiet(steal: u64, win: Duration) -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    steal as f64 <= QUIET_STEAL * win.as_secs_f64() * 100.0 * cpus
}

impl Phase {
    /// Latencies per window of intended send time.
    fn windows(&self) -> Vec<Vec<f64>> {
        let n = self.steal.len().max(1);
        let mut w = vec![Vec::new(); n];
        for d in &self.done {
            let i = ((d.due - self.start).as_secs_f64() / self.win.as_secs_f64()) as usize;
            w[i.min(n - 1)].push(latency(d));
        }
        w
    }

    /// The windows the figures are taken over: the quiet ones, or, when
    /// fewer than half the windows were quiet, the least disturbed half.
    /// Neighbours on a shared host steal CPU in bursts lasting seconds;
    /// measuring where they did not keeps runs comparable.
    fn selected(&self) -> Vec<Vec<f64>> {
        let mut w: Vec<(u64, Vec<f64>)> =
            self.steal.iter().copied().zip(self.windows()).filter(|(_, w)| !w.is_empty()).collect();
        if w.is_empty() {
            return vec![Vec::new()];
        }
        let half = w.len().div_ceil(2);
        if w.iter().filter(|(s, _)| is_quiet(*s, self.win)).count() >= half {
            w.retain(|(s, _)| is_quiet(*s, self.win));
        } else {
            w.sort_by_key(|(s, _)| *s);
            w.truncate(half);
        }
        w.into_iter().map(|(_, w)| w).collect()
    }

    fn p50(&self) -> f64 {
        quantile(&mut self.selected().concat(), 0.5)
    }

    /// p99 of the selected windows: the median of their own p99s when
    /// each holds about 1000 requests (ten beyond its p99), else pooled.
    fn p99(&self) -> f64 {
        let mut sel = self.selected();
        if self.rate * self.win.as_secs_f64() >= 900.0 {
            let mut p99s: Vec<f64> = sel.iter_mut().map(|w| quantile(w, 0.99)).collect();
            median(&mut p99s)
        } else {
            quantile(&mut sel.concat(), 0.99)
        }
    }

    fn failures(&self) -> u64 {
        self.done.iter().filter(|d| d.res.is_err()).count() as u64
    }

    /// Requests sent in the last quarter wait much longer than those of
    /// the first: the queue is growing.
    fn backlog_grows(&self) -> bool {
        let n = self.done.len();
        if n < 8 {
            return false;
        }
        let mut by_due: Vec<&Done> = self.done.iter().collect();
        by_due.sort_by_key(|d| d.due);
        let lat = |ds: &[&Done]| median(&mut ds.iter().map(|d| latency(d)).collect::<Vec<_>>());
        lat(&by_due[3 * n / 4..]) > 2.0 * lat(&by_due[..n / 4]) + 2.0
    }

    fn meets_slo(&self) -> bool {
        self.p99() <= SLO_P99_MS && !self.backlog_grows()
    }
}

/// Everything a phase run needs besides its rate and length.
struct Driver<'a> {
    st: &'a Stack,
    inputs: &'a [Vec<Tensor>],
    seq: u64,
    churn: Option<Churn>,
    scrapes: Scrapes,
    tracer: Option<&'a Tracer>,
}

impl Driver<'_> {
    /// Offer Poisson traffic at `rate` in windows of `win` until `windows`
    /// of them were quiet (or half as many again have passed), then wait
    /// for every response and reconcile the phase against the ledger.
    fn phase(
        &mut self,
        name: &str,
        rate: f64,
        win: Duration,
        windows: usize,
        seed: u64,
        out: &mut Outcome,
    ) -> Phase {
        let cap = win * (windows + windows.div_ceil(2)) as u32;
        let mut rng = Rng::new(seed);
        let mut schedule = Vec::new();
        // Under churn, thin a faster Poisson stream out of the gaps so the
        // offered rate stays `rate`.
        let in_gap = |t: Duration| {
            self.churn.is_some() && t.as_nanos() % CHURN_PERIOD.as_nanos() < CHURN_GAP.as_nanos()
        };
        let gen_rate = if self.churn.is_some() {
            rate / (1.0 - CHURN_GAP.as_secs_f64() / CHURN_PERIOD.as_secs_f64())
        } else {
            rate
        };
        let mut t = rng.exp_gap(gen_rate);
        while t < cap {
            let model = usize::from(rng.unit() >= MIX[0].1);
            let input = (rng.next_u64() % INPUTS as u64) as usize;
            if !in_gap(t) {
                schedule.push((t, model, input));
            }
            t += rng.exp_gap(gen_rate);
        }
        let before = self.st.ns.server().stats();
        let (tx, rx) = mpsc::channel::<Inflight>();
        let start = Instant::now() + Duration::from_millis(1);
        let mut marks = vec![steal_ticks()];
        let enough = |marks: &[u64]| {
            let quiet = marks.windows(2).filter(|m| is_quiet(m[1] - m[0], win)).count();
            marks.len() > windows && quiet >= windows
        };
        let mut next_tick = Duration::ZERO;
        let done = std::thread::scope(|s| {
            let collector = s.spawn(move || collect(rx));
            for &(offset, model, input) in &schedule {
                if offset >= win * marks.len() as u32 {
                    // Close the windows this request's send time passed.
                    marks.push(steal_ticks());
                    if enough(&marks) {
                        break;
                    }
                    while offset >= win * marks.len() as u32 {
                        marks.push(steal_ticks());
                    }
                }
                if let Some(c) = self.churn.as_mut() {
                    while offset >= next_tick {
                        if let Some(wait) =
                            (start + next_tick).checked_duration_since(Instant::now())
                        {
                            std::thread::sleep(wait);
                        }
                        c.tick(self.st, &mut self.scrapes, self.tracer, out);
                        next_tick += CHURN_PERIOD;
                    }
                }
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = self.seq;
                self.seq += 1;
                let req = InferRequest::new(MIX[model].0, self.inputs[model][input].clone())
                    .with_id(id)
                    .with_trace(id);
                let sent = Instant::now();
                let res = self.st.client.submit(req);
                let submit = sent.elapsed();
                let _ = tx.send(Inflight { id, model, input, due, sent, submit, res });
            }
            drop(tx);
            if !enough(&marks) {
                // The schedule ran out at the cap: close the last window.
                if let Some(wait) = (start + cap).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                marks.push(steal_ticks());
            }
            collector.join().expect("collector thread")
        });
        let steal: Vec<u64> = marks.windows(2).map(|m| m[1] - m[0]).collect();
        let phase = Phase { rate, start, win, steal, elapsed: start.elapsed(), done };
        self.reconcile(name, &phase, &before, out);
        println!(
            "phase {name:<10} {:>6.0} req/s offered {:>6} requests  p50 {:>7.3} ms  p99 {:>7.3} ms  \
             failed {}  steal {:?} ticks/window",
            rate,
            phase.done.len(),
            phase.p50(),
            phase.p99(),
            phase.failures(),
            phase.steal
        );

        if let Some(tr) = self.tracer {
            for d in &phase.done {
                tr.record_id(d.id, 0, "client", d.sent, d.arrived - d.sent);
                tr.record(d.id, "net_submit", d.sent, d.submit);
            }
        }
        phase
    }

    /// Client outcome counts must equal the ledger's, and no response
    /// may arrive sooner than the server says it took.
    fn reconcile(&self, name: &str, p: &Phase, before: &StatsSummary, out: &mut Outcome) {
        for d in &p.done {
            if let Ok((t, _)) = &d.res {
                out.check(d.arrived - d.sent >= t.total, || {
                    format!(
                        "{name}: request {} answered in {:?} < server total {:?}",
                        d.id,
                        d.arrived - d.sent,
                        t.total
                    )
                });
            }
        }
        let ok = p.done.iter().filter(|d| d.res.is_ok()).count() as u64;
        let count = |e: &ServeError| {
            p.done.iter().filter(|d| d.res.as_ref().err() == Some(e)).count() as u64
        };
        let after = self.st.ns.server().stats();
        let pairs = [
            ("completed", ok, after.completed - before.completed),
            (
                "queue-full",
                count(&ServeError::QueueFull),
                after.rejected_queue_full - before.rejected_queue_full,
            ),
            (
                "deadline",
                count(&ServeError::DeadlineExceeded),
                after.rejected_deadline - before.rejected_deadline,
            ),
            (
                "internal",
                count(&ServeError::Internal),
                after.internal_errors - before.internal_errors,
            ),
        ];
        for (what, client, ledger) in pairs {
            out.check(client == ledger, || {
                format!("{name}: client counts {client} {what}, ledger {ledger}")
            });
        }
    }
}

/// One figure per successful request of `phases`.
fn collect_ms(phases: &[&Phase], f: impl Fn(&Done, &RequestTiming) -> f64) -> Vec<f64> {
    phases
        .iter()
        .flat_map(|p| p.done.iter())
        .filter_map(|d| d.res.as_ref().ok().map(|(t, _)| f(d, t)))
        .collect()
}

/// Verify kept outputs bit-for-bit against the scalar oracle's forward of
/// every version that could have served them. Returns `(checked, wrong)`.
fn verify(
    phases: &[&Phase],
    inputs: &[Vec<Tensor>],
    churn: Option<&Churn>,
    out: &mut Outcome,
) -> (u64, u64) {
    let mut models: HashMap<(usize, u64), Model> = HashMap::new();
    let mut oracle: HashMap<(usize, u64, usize), Vec<u32>> = HashMap::new();
    let (mut checked, mut wrong) = (0u64, 0u64);
    for d in phases.iter().flat_map(|p| p.done.iter()) {
        let Ok((_, Some(got))) = &d.res else { continue };
        let versions = match (d.model, churn) {
            (0, Some(c)) => c.candidates(d.sent, d.arrived),
            _ => vec![1],
        };
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let mut matched = false;
        for v in versions {
            let key = (d.model, v, d.input);
            let want = oracle.entry(key).or_insert_with(|| {
                let model = models.entry((d.model, v)).or_insert_with(|| match d.model {
                    0 => resnet_step(churn.map_or(0, |c| c.steps[&v])),
                    _ => lenet_small(),
                });
                let x = &inputs[d.model][d.input];
                let y = model.forward_eval(
                    x,
                    &mut OracleExecutor { kind: OracleKind::Odq { threshold: THRESHOLD } },
                );
                y.as_slice().iter().map(|v| v.to_bits()).collect()
            });
            matched |= *want == got;
        }
        checked += 1;
        if !matched {
            wrong += 1;
            out.fail(format!(
                "request {} ({}): output differs from the oracle",
                d.id, MIX[d.model].0
            ));
        }
    }
    (checked, wrong)
}

/// Inputs per model, drawn under the workload seed.
fn make_inputs(seed: u64) -> Vec<Vec<Tensor>> {
    let models = [resnet_small(), lenet_small()];
    models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let all = offline::inputs(model, INPUTS, seed.wrapping_add(m as u64));
            (0..INPUTS).map(|i| offline::slice(&all, i, 1)).collect()
        })
        .collect()
}

/// Highest offered rate meeting the SLO, by bisection above the highest
/// fixed-rate phase that met it, for as many probes as `budget` allows:
/// the geometric middle of the final bracket.
fn rate_search(d: &mut Driver<'_>, lo: f64, budget: Duration, seed: u64, out: &mut Outcome) -> f64 {
    let start = Instant::now();
    let (mut lo, mut hi) = (lo, lo * 6.0);
    let mut i = 0;
    let mut probe = |d: &mut Driver<'_>, rate: f64| {
        i += 1;
        d.phase("search", rate, PROBE_WINDOW, PROBE_WINDOWS, seed.wrapping_add(100 + i), out)
            .meets_slo()
    };
    while start.elapsed() < budget {
        let mid = (lo * hi).sqrt();
        // A miss must repeat before it counts: one burst of refusals
        // should not cap the search for the rest of the run.
        if probe(d, mid) || probe(d, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

/// Quiet windows per phase for a run of `seconds`: light, loaded.
fn phase_windows(seconds: f64) -> (usize, usize) {
    let light = (seconds * 0.15 / LIGHT_WINDOW.as_secs_f64()).round().max(2.0) as usize;
    let loaded = (seconds * 0.5 / LOADED_WINDOW.as_secs_f64()).round().max(3.0) as usize;
    (light, loaded)
}

/// The `net_mixed` (`churn == false`) and `net_churn` workloads.
pub fn run(seed: u64, seconds: f64, churn: bool, tracer: Option<Arc<Tracer>>, out: &mut Outcome) {
    let inputs = make_inputs(seed);
    let traced = tracer.is_some();
    let (light_windows, loaded_windows) = phase_windows(seconds);
    let search_len = Duration::from_secs_f64(seconds * 0.5);
    // Room for every span of every request, even if each phase runs to
    // its cap at the highest probe rate.
    let cap = (5.0 * 2.0 * 2.5 * LOADED_RPS * 2.0 * seconds) as usize;

    let mut setups = Vec::new();
    let mut seq = 0u64;
    let mut reference_p50 = None;
    let mut stack = None;
    for i in 0..SETUPS {
        if let Some(st) = stack.take() {
            check_final(Stack::stop(st), out);
        }
        let t0 = Instant::now();
        let st = Stack::start((traced && i + 1 == SETUPS).then_some(cap), seed);
        if let Err(e) = st.warm_up(&inputs, &mut seq) {
            out.fail(e);
        }
        setups.push(t0.elapsed().as_secs_f64());
        // A traced run measures an untraced reference on the set-up
        // before the traced one, for the tracing overhead.
        if traced && i + 2 == SETUPS {
            let mut d = Driver {
                st: &st,
                inputs: &inputs,
                seq,
                churn: None,
                scrapes: Scrapes::default(),
                tracer: None,
            };
            let n = loaded_windows.div_ceil(2);
            let p = d.phase("reference", LOADED_RPS, LOADED_WINDOW, n, seed ^ 0x5eed, out);
            seq = d.seq;
            reference_p50 = Some(p.p50());
        }
        stack = Some(st);
    }
    let st = stack.expect("set up at least once");
    out.set("setup_s", median(&mut setups));
    println!("setup: {setups:?} s (median of {SETUPS})");

    let mut d = Driver {
        st: &st,
        inputs: &inputs,
        seq,
        churn: churn.then(|| Churn::new(Instant::now())),
        scrapes: Scrapes::default(),
        tracer: tracer.as_deref(),
    };
    // The end-to-end figures come from `loaded` and the rate search,
    // which share the run. The light phase feeds only per-layer figures,
    // so only traced runs spend time on it.
    let light = traced.then(|| {
        d.phase("light", LIGHT_RPS, LIGHT_WINDOW, light_windows, seed.wrapping_add(1), out)
    });
    let loaded =
        d.phase("loaded", LOADED_RPS, LOADED_WINDOW, loaded_windows, seed.wrapping_add(2), out);
    let lo = if loaded.meets_slo() { LOADED_RPS } else { LIGHT_RPS };
    let max_rps = rate_search(&mut d, lo, search_len, seed.wrapping_add(3), out);
    if !churn {
        // One scrape after the load, for the series count.
        let mut s = std::mem::take(&mut d.scrapes);
        s.scrape(&st, None, out);
        d.scrapes = s;
    }
    let measured: Vec<&Phase> = light.iter().chain([&loaded]).collect();

    out.set("p50_ms", loaded.p50());
    out.set("p99_ms", loaded.p99());
    out.set("images_per_s", max_rps);
    println!(
        "max_rps_slo: {max_rps:.1} req/s (p99 <= {SLO_P99_MS} ms counting refusals as misses, \
         no growing backlog)"
    );

    let attempted: u64 = measured.iter().map(|p| p.done.len() as u64).sum();
    let failed: u64 = measured.iter().map(|p| p.failures()).sum();
    let (checked, wrong) = verify(&measured, &inputs, d.churn.as_ref(), out);
    println!("output check: {checked} sampled responses against the scalar oracle, {wrong} wrong");
    out.attempted += attempted;
    out.failed += failed + wrong;

    let mut stamps = collect_ms(&measured, |d, _| d.stamp.as_secs_f64() * 1e6);
    println!(
        "collector stamp resolution: p50 {:.1} us, p99 {:.1} us (time since the previous scan)",
        quantile(&mut stamps, 0.5),
        quantile(&mut stamps, 0.99)
    );
    let mut late: Vec<f64> =
        measured.iter().flat_map(|p| p.done.iter()).map(|d| ms(d.sent - d.due)).collect();
    println!(
        "generator lateness: p99 {:.3} ms, max {:.3} ms",
        quantile(&mut late, 0.99),
        quantile(&mut late, 1.0)
    );

    if traced {
        let server = st.ns.server();
        let sum = server.stats();
        let light = light.as_ref().expect("traced runs measure the light phase");
        out.set("p50_ms.light", light.p50());
        out.set("p99_ms.light", light.p99());
        out.set("failed_share", (failed + wrong) as f64 / attempted.max(1) as f64);
        out.set("gen.late_ms.p99", quantile(&mut late, 0.99));
        out.set("gen.late_ms.max", quantile(&mut late, 1.0));
        out.set("gen.stamp_us.p99", quantile(&mut stamps, 0.99));
        let mut gap = collect_ms(&measured, |d, t| ms(d.arrived - d.sent) - ms(t.total));
        out.set("net.gap_ms.p50", quantile(&mut gap, 0.5));
        out.set("net.gap_ms.p99", quantile(&mut gap, 0.99));
        let mut submit = collect_ms(&measured, |d, _| d.submit.as_secs_f64() * 1e6);
        out.set("net.submit_us.p50", quantile(&mut submit, 0.5));
        out.set(
            "net.bytes_per_request",
            (sum.net.bytes_in + sum.net.bytes_out) as f64 / sum.net.frames_in.max(1) as f64,
        );
        let mut qw = collect_ms(&[&loaded], |_, t| ms(t.queue_wait));
        out.set("serve.queue_wait_ms.p50", quantile(&mut qw, 0.5));
        out.set("serve.queue_wait_ms.p99", quantile(&mut qw, 0.99));
        let mut sv = collect_ms(&[&loaded], |_, t| ms(t.service));
        out.set("serve.service_ms.p50", quantile(&mut sv, 0.5));
        out.set("serve.service_ms.p99", quantile(&mut sv, 0.99));
        out.set("serve.batch_size.mean", sum.mean_batch_size);
        // Each batch's forward pass is shared by its requests.
        let busy: f64 =
            collect_ms(&[&loaded], |_, t| ms(t.service) / t.batch_size.max(1) as f64).iter().sum();
        let workers = ServeConfig::default().workers as f64;
        out.set("serve.worker_busy_share", busy / (workers * ms(loaded.elapsed)));
        out.set("serve.rejected_share", failed as f64 / attempted.max(1) as f64);
        out.set("serve.ledger_bytes", server.ledger_bytes() as f64);
        if let Some(c) = &d.churn {
            out.set("serve.deploy_ms.p50", median(&mut c.deploy_ms.clone()));
            out.set("registry.publish_ms.p50", median(&mut c.publish_ms.clone()));
        }
        out.set("obs.scrape_ms.p50", median(&mut d.scrapes.ms.clone()));
        out.set("obs.series", d.scrapes.series as f64);
        if let Some(r) = reference_p50 {
            out.set("obs.trace_overhead_share", loaded.p50() / r - 1.0);
        }
        if let (Some(tr), Some((tb, epoch))) = (tracer.as_deref(), &st.traces) {
            record_server_spans(tr, tb, *epoch);
        }
    }
    println!(
        "churn: {} publishes, {} versions live at the end",
        d.churn.as_ref().map_or(0, |c| c.publish_ms.len()),
        d.churn.as_ref().map_or(1, |c| c.live.len())
    );
    drop(d);
    check_final(st.stop(), out);

    if let Some(tr) = tracer.as_deref() {
        // Engine, kernel and accelerator figures of the served ResNet-20,
        // measured offline on its shape; service time is mostly this.
        let obs_share = out.values.get("obs.trace_overhead_share").copied();
        let mut b = offline::Bench::new(resnet_small(), seed);
        let t = offline::time_routes(&mut b, Duration::from_secs(1), Some(tr));
        offline::per_layer(&mut b, &t, out);
        let x = offline::slice(&b.batches[0], 0, offline::BATCH);
        out.set("accel.sim_ms_per_batch", offline::sim_ms_per_batch(&b.model, &x, Some(tr)));
        if let Some(s) = obs_share {
            out.set("obs.trace_overhead_share", s);
        }
    }
}

/// The final ledger must reconcile: every admitted request reached
/// exactly one outcome.
fn check_final(sum: StatsSummary, out: &mut Outcome) {
    let r = sum.reconcile();
    out.check(r.is_balanced(), || format!("final ledger does not reconcile: {r}"));
}

/// Convert the server's `TraceBuffer` stages into spans under each
/// request's client span.
fn record_server_spans(tr: &Tracer, tb: &TraceBuffer, epoch: Instant) {
    // Per trace: each stage's `(at_ns, dur_ns)`, in `SpanStage::ALL` order.
    type Stages = [Option<(u64, Option<u64>)>; 5];
    let mut by_trace: HashMap<u64, Stages> = HashMap::new();
    for s in tb.spans() {
        let slot = SpanStage::ALL.iter().position(|&st| st == s.stage).expect("known stage");
        by_trace.entry(s.trace).or_default()[slot] = Some((s.at_ns, s.dur_ns));
    }
    let at = |ns: u64| epoch + Duration::from_nanos(ns);
    for (trace, st) in by_trace {
        let [Some((submit, _)), _, Some((dequeue, _)), Some((exec, Some(dur))), Some((scatter, _))] =
            st
        else {
            continue;
        };
        tr.record(
            trace,
            "serve_queue",
            at(submit),
            Duration::from_nanos(dequeue.saturating_sub(submit)),
        );
        tr.record(trace, "serve_execute", at(exec), Duration::from_nanos(dur));
        let exec_end = exec + dur;
        tr.record(
            trace,
            "serve_scatter",
            at(exec_end),
            Duration::from_nanos(scatter.saturating_sub(exec_end)),
        );
    }
}

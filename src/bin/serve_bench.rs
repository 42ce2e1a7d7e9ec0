//! serve_bench — drive the odq-serve subsystem with a mixed-model load.
//!
//! Registers scaled ResNet-20 (3×16×16 CIFAR-shaped inputs) and LeNet-5
//! (1×16×16 MNIST-shaped inputs) behind one server and measures:
//!
//! * **closed loop** — a fixed number of in-flight requests, peak
//!   sustainable throughput;
//! * **open loop** — Poisson arrivals at a target rate with per-request
//!   deadlines, showing admission-control rejections and deadline misses.
//!
//! Both phases report throughput, p50/p99 latency, mean batch size,
//! rejections, and the per-batch simulated accelerator cost (cycles and
//! energy on the engine's Table 2 configuration).
//!
//! Percentiles come from two places: the load report's are exact
//! (client-side, sorted samples), while the server ledger's are streamed
//! through log-bucketed histograms with ≤12.5% relative error — see the
//! README's "interpreting serve_bench percentiles" note.
//!
//! After both phases the bench writes a machine-readable snapshot
//! (`BENCH_serve.json` by default, `--out PATH` to move it, `--out -` to
//! skip): per-phase throughput, exact client-side p50/p95/p99, reject and
//! deadline-miss counts, plus the server's own ledger JSON — the file CI
//! and regression tooling diff against the committed snapshot.
//!
//! ```sh
//! cargo run --release --bin serve_bench -- \
//!     [--engine odq|drq|int8|float] [--workers N] [--requests N] \
//!     [--max-batch N] [--rate RPS] [--seed S] [--json] [--out PATH] [--net] \
//!     [--metrics-addr HOST:PORT]
//! ```
//!
//! `--net` routes both phases through the odq-net TCP front-end on a
//! loopback socket — the same load generator drives a `NetClient`
//! instead of the in-process server, so the measured latencies include
//! framing and the wire.
//!
//! Both load phases run with observability on (a sampled trace buffer at
//! 1-in-16 plus per-layer engine probes); a third phase re-runs the
//! closed loop with observability fully off and records the throughput
//! delta under `observability` in the snapshot. `--metrics-addr` binds
//! the odq-obs Prometheus endpoint during phase 1 and self-scrapes
//! `/metrics` and `/traces/recent` after the load drains, asserting both
//! parse.

use std::sync::Arc;
use std::time::Duration;

use odq::net::{NetClient, NetConfig, NetServer};
use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::obs::{http_get, MetricsServer, TraceBuffer};
use odq::serve::{
    run_closed_loop, run_open_loop, EngineKind, LoadReport, LoadSpec, ServeConfig, Server,
    StatsSummary, TraceSink,
};
use serde_json::Value;

/// Default trace sampling: 1 in 16 requests, matching what a production
/// deployment would leave on permanently.
const TRACE_ONE_IN: u64 = 16;

/// Trace ring capacity across shards.
const TRACE_CAP: usize = 4096;

struct Args {
    engine: EngineKind,
    workers: usize,
    requests: usize,
    max_batch: usize,
    rate: f64,
    seed: u64,
    json: bool,
    out: String,
    net: bool,
    metrics_addr: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        engine: EngineKind::Odq { threshold: 0.3 },
        workers: 2,
        requests: 96,
        max_batch: 8,
        rate: 400.0,
        seed: 42,
        json: false,
        out: "BENCH_serve.json".into(),
        net: false,
        metrics_addr: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--engine" => {
                args.engine = match val().as_str() {
                    "odq" => EngineKind::Odq { threshold: 0.3 },
                    "drq" => EngineKind::Drq { input_threshold: 0.1 },
                    "int8" => EngineKind::Static { bits: 8 },
                    "float" => EngineKind::Float,
                    other => panic!("unknown engine {other:?}"),
                }
            }
            "--workers" => args.workers = val().parse().expect("--workers"),
            "--requests" => args.requests = val().parse().expect("--requests"),
            "--max-batch" => args.max_batch = val().parse().expect("--max-batch"),
            "--rate" => args.rate = val().parse().expect("--rate"),
            "--seed" => args.seed = val().parse().expect("--seed"),
            "--json" => args.json = true,
            "--out" => args.out = val(),
            "--net" => args.net = true,
            "--metrics-addr" => args.metrics_addr = Some(val()),
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

fn build_models() -> (Model, Model) {
    let resnet = Model::build(ModelCfg::small(Arch::ResNet20, 10));
    let mut lenet_cfg = ModelCfg::small(Arch::LeNet5, 10);
    lenet_cfg.in_channels = 1;
    let lenet = Model::build(lenet_cfg);
    (resnet, lenet)
}

/// Start the bench server. `traces: Some(_)` runs the full observability
/// stack (span tracing plus per-layer probes); `None` turns both off for
/// the overhead comparison.
fn start_server(a: &Args, traces: Option<Arc<TraceBuffer>>) -> Server {
    let layer_profiling = traces.is_some();
    let cfg = ServeConfig {
        queue_depth: 64,
        max_batch: a.max_batch,
        max_wait: Duration::from_millis(2),
        workers: a.workers,
        simulate_accel: true,
        trace: traces.map(|t| t as Arc<dyn TraceSink>),
        layer_profiling,
        ..ServeConfig::default()
    };
    let (resnet, lenet) = build_models();
    Server::builder(cfg)
        .engine(a.engine.clone())
        .model("resnet20", resnet)
        .model("lenet5", lenet)
        .start()
}

fn specs() -> Vec<LoadSpec> {
    vec![
        LoadSpec { model: "resnet20".into(), in_channels: 3, hw: 16, weight: 0.6 },
        LoadSpec { model: "lenet5".into(), in_channels: 1, hw: 16, weight: 0.4 },
    ]
}

/// Closed-loop phase against the in-process server, or — with `--net` —
/// against a loopback TCP front-end driven through a [`NetClient`]. Both
/// paths end with a fully drained server, so the returned summary is
/// final and complete.
fn closed_phase(a: &Args, server: Server) -> (LoadReport, StatsSummary) {
    if a.net {
        let ns = NetServer::bind(server, "127.0.0.1:0", NetConfig::default())
            .expect("bind loopback front-end");
        let client = NetClient::connect(ns.local_addr()).expect("connect load client");
        let r = run_closed_loop(&client, &specs(), a.requests, 4 * a.max_batch, a.seed);
        client.close();
        (r, ns.shutdown())
    } else {
        let r = run_closed_loop(&server, &specs(), a.requests, 4 * a.max_batch, a.seed);
        (r, server.shutdown())
    }
}

/// Open-loop phase; same local/TCP split as [`closed_phase`].
fn open_phase(a: &Args, server: Server) -> (LoadReport, StatsSummary) {
    let deadline = Some(Duration::from_millis(50));
    if a.net {
        let ns = NetServer::bind(server, "127.0.0.1:0", NetConfig::default())
            .expect("bind loopback front-end");
        let client = NetClient::connect(ns.local_addr()).expect("connect load client");
        let r = run_open_loop(&client, &specs(), a.requests, a.rate, deadline, a.seed + 1);
        client.close();
        (r, ns.shutdown())
    } else {
        let r = run_open_loop(&server, &specs(), a.requests, a.rate, deadline, a.seed + 1);
        (r, server.shutdown())
    }
}

fn print_phase(name: &str, r: &LoadReport, s: &StatsSummary, json: bool) {
    println!("\n== {name} ==");
    println!(
        "{:<26} {:>10.1} req/s  ({} completed in {:.2}s)",
        "throughput",
        r.throughput(),
        r.completed,
        r.elapsed.as_secs_f64()
    );
    println!(
        "{:<26} p50 {:>8.2} ms   p95 {:>8.2} ms   p99 {:>8.2} ms  (exact, client-side)",
        "latency",
        r.latency_percentile(0.50).as_secs_f64() * 1e3,
        r.latency_percentile(0.95).as_secs_f64() * 1e3,
        r.latency_percentile(0.99).as_secs_f64() * 1e3
    );
    println!(
        "{:<26} p50 {:>8.2} ms   p95 {:>8.2} ms   p99 {:>8.2} ms  (ledger, log-bucketed)",
        "  server ledger",
        s.latency.p50.as_secs_f64() * 1e3,
        s.latency.p95.as_secs_f64() * 1e3,
        s.latency.p99.as_secs_f64() * 1e3
    );
    println!(
        "{:<26} p50 {:>8.2} ms   p95 {:>8.2} ms   (max queue depth {})",
        "  queue wait",
        s.queue_wait.p50.as_secs_f64() * 1e3,
        s.queue_wait.p95.as_secs_f64() * 1e3,
        s.max_queue_depth
    );
    println!("{:<26} {:>10.2}  (max {})", "mean batch size", s.mean_batch_size, s.max_batch_size);
    println!(
        "{:<26} {:>10} queue-full   {:>6} deadline   {:>4} shutdown",
        "rejections", s.rejected_queue_full, s.rejected_deadline, s.rejected_shutdown
    );
    if s.worker_panics > 0 || s.internal_errors > 0 {
        println!(
            "{:<26} {:>10} panics   {:>6} restarts   {:>6} internal errors",
            "worker faults", s.worker_panics, s.worker_restarts, s.internal_errors
        );
    }
    if let Some(f) = s.mean_sensitive_fraction {
        println!("{:<26} {:>10.3}", "mean sensitive fraction", f);
    }
    if s.batches > 0 && s.sim_cycles > 0.0 {
        println!(
            "{:<26} {:>10.0} cycles/batch   {:>8.1} uJ/batch",
            "simulated accel (mean)",
            s.sim_cycles / s.batches as f64,
            s.sim_energy_nj / s.batches as f64 / 1e3
        );
    }
    if s.net.connections_opened > 0 {
        println!(
            "{:<26} {:>10} frames in/out   {:>10}/{:<10} bytes in/out",
            "net",
            format!("{}/{}", s.net.frames_in, s.net.frames_out),
            s.net.bytes_in,
            s.net.bytes_out
        );
    }
    if json {
        println!("{}", serde_json::to_string_pretty(s).expect("summary serializes"));
    }
}

/// One phase's snapshot entry: client-side exact percentiles and outcome
/// counts, plus the server ledger's own JSON tree.
fn phase_json(r: &LoadReport, sum: &StatsSummary) -> Value {
    let ms = |d: std::time::Duration| Value::F64(d.as_secs_f64() * 1e3);
    Value::Object(vec![
        ("throughput_rps".into(), Value::F64(r.throughput())),
        ("submitted".into(), Value::U64(r.submitted)),
        ("completed".into(), Value::U64(r.completed)),
        ("rejected_queue_full".into(), Value::U64(r.rejected)),
        ("deadline_missed".into(), Value::U64(r.deadline_missed)),
        ("failed".into(), Value::U64(r.failed)),
        ("p50_ms".into(), ms(r.latency_percentile(0.50))),
        ("p95_ms".into(), ms(r.latency_percentile(0.95))),
        ("p99_ms".into(), ms(r.latency_percentile(0.99))),
        ("elapsed_s".into(), Value::F64(r.elapsed.as_secs_f64())),
        ("server".into(), sum.to_json()),
    ])
}

fn write_snapshot(path: &str, a: &Args, closed: Value, open: Value, obs: Value) {
    let snapshot = Value::Object(vec![
        (
            "config".into(),
            Value::Object(vec![
                ("engine".into(), Value::String(a.engine.label().into_owned())),
                ("workers".into(), Value::U64(a.workers as u64)),
                ("requests".into(), Value::U64(a.requests as u64)),
                ("max_batch".into(), Value::U64(a.max_batch as u64)),
                ("rate_rps".into(), Value::F64(a.rate)),
                ("seed".into(), Value::U64(a.seed)),
            ]),
        ),
        ("closed_loop".into(), closed),
        ("open_loop".into(), open),
        ("observability".into(), obs),
    ]);
    let mut text = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("snapshot written to {path}");
}

fn main() {
    let a = parse_args();
    println!(
        "serve_bench: engine={} workers={} requests={} max_batch={} rate={} seed={}",
        a.engine.label(),
        a.workers,
        a.requests,
        a.max_batch,
        a.rate,
        a.seed
    );
    println!("models: resnet20 (3x16x16, 60% of load), lenet5 (1x16x16, 40% of load)");
    if a.net {
        println!("transport: loopback TCP through the odq-net front-end");
    }

    // Phase 1: closed loop at 4x max_batch concurrency, observability on.
    let traces = Arc::new(TraceBuffer::new(a.seed, TRACE_ONE_IN, TRACE_CAP));
    let server = start_server(&a, Some(Arc::clone(&traces)));
    // The stats handle outlives the server, so the endpoint can still be
    // scraped after the phase drains and shuts the pipeline down.
    let metrics = a.metrics_addr.as_deref().map(|addr| {
        MetricsServer::bind(addr, Arc::new(server.stats_handle()), Some(Arc::clone(&traces)))
            .unwrap_or_else(|e| panic!("bind metrics endpoint on {addr}: {e}"))
    });
    if let Some(m) = &metrics {
        println!("metrics: http://{0}/metrics and http://{0}/traces/recent", m.local_addr());
    }
    let (closed, sum) = closed_phase(&a, server);
    print_phase("closed loop", &closed, &sum, a.json);
    assert_eq!(
        sum.completed + sum.rejected_deadline,
        closed.completed + closed.deadline_missed,
        "ledger and load report must agree"
    );
    let sampled_traces = traces.traces(usize::MAX).len();
    println!("{:<26} {:>10} sampled (1 in {TRACE_ONE_IN})", "traces", sampled_traces);
    if let Some(m) = &metrics {
        let (status, body) = http_get(m.local_addr(), "/metrics").expect("self-scrape /metrics");
        assert_eq!(status, 200, "metrics scrape status");
        let exp = odq::obs::parse(&body).expect("served exposition must parse");
        let (tstatus, _tbody) =
            http_get(m.local_addr(), "/traces/recent").expect("self-scrape /traces/recent");
        assert_eq!(tstatus, 200, "traces scrape status");
        println!(
            "metrics scrape ok: {} series across {} families",
            exp.samples.len(),
            exp.families.len()
        );
    }
    let closed_json = phase_json(&closed, &sum);

    // Phase 2: open loop at the offered rate, 50 ms deadlines.
    let open_traces = Arc::new(TraceBuffer::new(a.seed + 1, TRACE_ONE_IN, TRACE_CAP));
    let (open, open_sum) = open_phase(&a, start_server(&a, Some(open_traces)));
    print_phase(&format!("open loop @ {:.0} req/s", a.rate), &open, &open_sum, a.json);
    if open.rejected > 0 || open.deadline_missed > 0 {
        println!(
            "{:<26} {:>10} rejected   {:>6} missed deadline",
            "load-shedding", open.rejected, open.deadline_missed
        );
    }
    let open_json = phase_json(&open, &open_sum);

    // Phase 3: the cost of watching. Re-run the closed loop with tracing
    // and layer probes on and fully off, alternating, and compare the
    // best run of each arm (best-of damps scheduler noise at this scale).
    let mut best_on = closed.throughput();
    let mut best_off = 0.0f64;
    for rep in 0..2u64 {
        let tr = Arc::new(TraceBuffer::new(a.seed ^ rep, TRACE_ONE_IN, TRACE_CAP));
        let (r_on, _) = closed_phase(&a, start_server(&a, Some(tr)));
        let (r_off, _) = closed_phase(&a, start_server(&a, None));
        best_on = best_on.max(r_on.throughput());
        best_off = best_off.max(r_off.throughput());
    }
    let overhead = 1.0 - best_on / best_off;
    println!(
        "\n== observability overhead ==\non  {best_on:.1} req/s   off {best_off:.1} req/s   \
         overhead {:.2}%",
        overhead * 1e2
    );
    let obs_json = Value::Object(vec![
        ("trace_one_in".into(), Value::U64(TRACE_ONE_IN)),
        ("sampled_traces".into(), Value::U64(sampled_traces as u64)),
        ("closed_loop_on_rps".into(), Value::F64(best_on)),
        ("closed_loop_off_rps".into(), Value::F64(best_off)),
        ("overhead_fraction".into(), Value::F64(overhead)),
    ]);

    if a.out != "-" {
        write_snapshot(&a.out, &a, closed_json, open_json, obs_json);
    }

    println!(
        "\ndone: closed-loop {} req/s, open-loop {} req/s",
        closed.throughput() as u64,
        open.throughput() as u64
    );
}

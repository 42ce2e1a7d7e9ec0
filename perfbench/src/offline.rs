//! `offline_resnet20`: one thread calls `Model::forward_eval` at a fixed
//! batch under five routes, plus the per-route profiling the traced runs
//! of every workload share.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odq_accel::{simulate_network, AccelConfig, EnergyModel, LayerWorkload};
use odq_conformance::{OracleExecutor, OracleKind};
use odq_core::engine::OdqEngine;
use odq_data::SynthSpec;
use odq_drq::{DrqCfg, DrqEngine};
use odq_nn::executor::{
    ConvCtx, ConvExecutor, FloatConvExecutor, LayerObservation, LayerProbe, ProbedExecutor,
    StaticQuantExecutor,
};
use odq_nn::models::{Model, ModelCfg};
use odq_nn::Arch;
use odq_tensor::{ConvGeom, Tensor};

use crate::report::{Outcome, ROUTES};
use crate::spans::Tracer;
use crate::stats::{geomean, median, ms, quantile};

/// Images per `forward_eval` call.
pub const BATCH: usize = 8;

/// Batches of distinct inputs cycled through by the timed loop.
const BATCHES: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// ODQ threshold, as serving builds the engine.
const ODQ_THRESHOLD: f32 = 0.3;

/// DRQ input threshold.
const DRQ_THRESHOLD: f32 = 0.1;

/// One route's engine. ODQ and DRQ keep their statistics reachable.
pub enum Engine {
    Float(FloatConvExecutor),
    Int4(StaticQuantExecutor),
    Odq(OdqEngine),
    Drq(DrqEngine),
}

impl Engine {
    /// Engine for route `name` (one of [`ROUTES`]).
    pub fn build(name: &str) -> Self {
        match name {
            "float" => Engine::Float(FloatConvExecutor),
            "int4" => Engine::Int4(StaticQuantExecutor::int(4)),
            // Recording on, exactly as serving builds it.
            "odq" => Engine::Odq(OdqEngine::new(ODQ_THRESHOLD)),
            "odq_sparse" => {
                // `OdqEngine` ignores `sparse` while `record` is set, so
                // recording must be off for the sparse kernel to run.
                let mut e = OdqEngine::new(ODQ_THRESHOLD);
                e.record = false;
                e.sparse = true;
                Engine::Odq(e)
            }
            "drq" => Engine::Drq(DrqEngine::new(DrqCfg::int8_int4(DRQ_THRESHOLD))),
            other => panic!("unknown route {other}"),
        }
    }

    /// The scalar oracle mirroring this route's arithmetic.
    pub fn oracle(name: &str) -> OracleKind {
        match name {
            "float" => OracleKind::Float,
            "int4" => OracleKind::Static { bits: 4 },
            "odq" | "odq_sparse" => OracleKind::Odq { threshold: ODQ_THRESHOLD },
            "drq" => OracleKind::Drq { input_threshold: DRQ_THRESHOLD },
            other => panic!("unknown route {other}"),
        }
    }

    /// Drop accumulated statistics so memory stays flat across passes.
    fn clear_stats(&mut self) {
        match self {
            Engine::Odq(e) => e.reset_stats(),
            Engine::Drq(e) => e.stats.clear(),
            _ => {}
        }
    }
}

impl ConvExecutor for Engine {
    fn begin_pass(&mut self) {
        match self {
            Engine::Float(e) => e.begin_pass(),
            Engine::Int4(e) => e.begin_pass(),
            Engine::Odq(e) => e.begin_pass(),
            Engine::Drq(e) => e.begin_pass(),
        }
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        match self {
            Engine::Float(e) => e.conv(ctx, x),
            Engine::Int4(e) => e.conv(ctx, x),
            Engine::Odq(e) => e.conv(ctx, x),
            Engine::Drq(e) => e.conv(ctx, x),
        }
    }
}

/// Lets a borrowed engine sit inside a [`ProbedExecutor`].
struct Borrowed<'a>(&'a mut Engine);

impl ConvExecutor for Borrowed<'_> {
    fn begin_pass(&mut self) {
        self.0.begin_pass()
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        self.0.conv(ctx, x)
    }
}

/// One conv execution observed by [`LayerClock`].
struct ConvObs {
    first: bool,
    out_channels: usize,
    wall: Duration,
}

/// The traced run's probe: per-conv wall time, also recorded as spans
/// under the enclosing forward span.
struct LayerClock<'a> {
    tracer: &'a Tracer,
    parent: u64,
    obs: Vec<ConvObs>,
}

impl LayerProbe for LayerClock<'_> {
    fn observe(&mut self, o: &LayerObservation<'_>) {
        let end = Instant::now();
        self.tracer.record(self.parent, "conv", end - o.wall, o.wall);
        self.obs.push(ConvObs {
            first: self.obs.is_empty(),
            out_channels: o.geom.out_channels,
            wall: o.wall,
        });
    }
}

/// Full-width ResNet-20 at 32×32 (the paper's CIFAR configuration).
pub fn full_resnet20() -> Model {
    Model::build(ModelCfg {
        input_hw: 32,
        width_div: 1,
        depth_div: 1,
        ..ModelCfg::small(Arch::ResNet20, 10)
    })
}

/// `n` images of `model`'s input shape from SynthCIFAR (or its MNIST
/// stand-in for one-channel models), drawn under `seed`.
pub fn inputs(model: &Model, n: usize, seed: u64) -> Tensor {
    let hw = model.cfg.input_hw;
    let mut spec =
        if model.cfg.in_channels == 1 { SynthSpec::mnist(hw) } else { SynthSpec::cifar10(hw) };
    spec.seed = seed;
    spec.generate(n).images
}

/// Images `[from, from + n)` of `x` as one batch tensor.
pub fn slice(x: &Tensor, from: usize, n: usize) -> Tensor {
    let d = x.dims();
    let per = d[1] * d[2] * d[3];
    Tensor::from_vec(vec![n, d[1], d[2], d[3]], x.as_slice()[from * per..(from + n) * per].to_vec())
}

/// Everything a route profile needs: the model, its input batches, and
/// one warmed engine per route.
pub struct Bench {
    pub model: Model,
    pub batches: Vec<Tensor>,
    pub engines: Vec<(&'static str, Engine)>,
}

impl Bench {
    /// Build engines and warm their plan caches with a one-image pass.
    pub fn new(model: Model, seed: u64) -> Self {
        let all = inputs(&model, BATCH * BATCHES, seed);
        let batches: Vec<Tensor> = (0..BATCHES).map(|b| slice(&all, b * BATCH, BATCH)).collect();
        let warm = slice(&batches[0], 0, 1);
        let mut engines: Vec<(&'static str, Engine)> =
            ROUTES.iter().map(|&r| (r, Engine::build(r))).collect();
        for (_, e) in &mut engines {
            let _ = model.forward_eval(&warm, e);
            e.clear_stats();
        }
        Self { model, batches, engines }
    }

    /// Check every route's batch output bit-for-bit against the scalar
    /// oracle on the first two images. Returns `(checked, wrong)`.
    pub fn verify(&mut self, out: &mut Outcome) -> (u64, u64) {
        let (mut checked, mut wrong) = (0, 0);
        let probe = slice(&self.batches[0], 0, 2);
        for (route, e) in &mut self.engines {
            let y = self.model.forward_eval(&probe, e);
            e.clear_stats();
            let want = self
                .model
                .forward_eval(&probe, &mut OracleExecutor { kind: Engine::oracle(route) });
            checked += 1;
            let same = y.dims() == want.dims()
                && y.as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                wrong += 1;
                out.fail(format!("route {route}: logits differ from the scalar oracle"));
            }
        }
        (checked, wrong)
    }
}

/// Per-route timing of one `Bench` over a time budget.
#[derive(Default)]
pub struct RouteTimes {
    /// Untraced batch times, ms, per route.
    pub plain: BTreeMap<&'static str, Vec<f64>>,
    /// Traced batch times, ms, per route.
    pub traced: BTreeMap<&'static str, Vec<f64>>,
    /// Per traced pass: `(route, forward wall, conv observations)`.
    convs: Vec<(&'static str, Duration, Vec<ConvObs>)>,
}

/// Round-robin the routes over the batches until `budget` has elapsed.
/// With a tracer, rounds alternate untraced and traced so the tracing
/// overhead is measured against untraced passes of the same run.
pub fn time_routes(b: &mut Bench, budget: Duration, tracer: Option<&Tracer>) -> RouteTimes {
    let mut t = RouteTimes::default();
    let start = Instant::now();
    let mut round = 0usize;
    while round < 2 || start.elapsed() < budget {
        let x = &b.batches[round % b.batches.len()];
        let traced = tracer.filter(|_| round % 2 == 1);
        for (route, e) in &mut b.engines {
            match traced {
                None => {
                    let t0 = Instant::now();
                    let _ = b.model.forward_eval(x, e);
                    t.plain.entry(route).or_default().push(ms(t0.elapsed()));
                }
                Some(tr) => {
                    let t0 = Instant::now();
                    let id = tr.fresh_id();
                    let clock = LayerClock { tracer: tr, parent: id, obs: Vec::new() };
                    let mut probed = ProbedExecutor::new(Borrowed(e), clock);
                    let _ = b.model.forward_eval(x, &mut probed);
                    let wall = t0.elapsed();
                    tr.record_id(id, 0, "forward", t0, wall);
                    t.traced.entry(route).or_default().push(ms(wall));
                    t.convs.push((route, wall, probed.probe.obs));
                }
            }
            e.clear_stats();
        }
        round += 1;
    }
    t
}

fn route_median(v: &BTreeMap<&'static str, Vec<f64>>, route: &str) -> f64 {
    median(&mut v.get(route).cloned().unwrap_or_default())
}

/// End-to-end metrics of the untraced run: geometric means over routes.
pub fn end_to_end(t: &RouteTimes, out: &mut Outcome) {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for r in ROUTES {
        let mut v = t.plain.get(r).cloned().unwrap_or_default();
        p50.push(median(&mut v));
        p99.push(quantile(&mut v, 0.99));
        println!(
            "route {r:<11} {:>4} batches  median {:>9.3} ms/batch  {:>8.2} img/s",
            v.len(),
            p50.last().unwrap(),
            BATCH as f64 * 1e3 / p50.last().unwrap()
        );
    }
    out.set("p50_ms", geomean(&p50));
    out.set("p99_ms", geomean(&p99));
    out.set("images_per_s", BATCH as f64 * 1e3 / geomean(&p50));
}

/// Group of a conv by output width relative to the first stage's.
fn width_group(first_width: usize, out_channels: usize) -> &'static str {
    match out_channels / first_width.max(1) {
        0 | 1 => "w16",
        2 => "w32",
        _ => "w64",
    }
}

/// Per-layer engine, kernel and accelerator metrics of a traced
/// [`time_routes`], plus the ODQ/DRQ statistics of one pass on batch 0.
pub fn per_layer(b: &mut Bench, t: &RouteTimes, out: &mut Outcome) {
    // Statistics from a fixed batch, so the accelerator guards repeat
    // exactly for a given seed.
    let x = b.batches[0].clone();
    let mut odq_stats = None;
    let mut drq_stats = Vec::new();
    for (route, e) in &mut b.engines {
        match (*route, e) {
            ("odq", Engine::Odq(eng)) => {
                let _ = b.model.forward_eval(&x, eng);
                odq_stats = Some(eng.stats.take());
            }
            ("drq", Engine::Drq(eng)) => {
                let _ = b.model.forward_eval(&x, eng);
                drq_stats = std::mem::take(&mut eng.stats);
            }
            _ => {}
        }
    }
    let odq = odq_stats.expect("odq route present");
    let geoms: Vec<(String, ConvGeom)> =
        odq.layers.iter().map(|l| (l.name.clone(), l.geom)).collect();
    let first_width = geoms.first().map_or(1, |(_, g)| g.out_channels);

    // Mask density, overall and per width group.
    out.set("engine.odq.mask_density", odq.overall_sensitive_fraction());
    for g in ["w16", "w32", "w64"] {
        let (s, n) = odq
            .layers
            .iter()
            .filter(|l| width_group(first_width, l.geom.out_channels) == g)
            .fold((0u64, 0u64), |(s, n), l| (s + l.sensitive_outputs, n + l.total_outputs));
        out.set(
            format!("engine.odq.mask_density.{g}"),
            if n > 0 { s as f64 / n as f64 } else { 0.0 },
        );
    }
    let hi_total: u64 = drq_stats.iter().map(|l| l.total_macs).sum();
    let hi: u64 = drq_stats.iter().map(|l| l.hi_macs).sum();
    out.set("engine.drq.hi_fraction", if hi_total > 0 { hi as f64 / hi_total as f64 } else { 0.0 });

    // Conv time per image, grouped, and conv share of the forward pass.
    for r in ROUTES {
        let passes: Vec<&(&str, Duration, Vec<ConvObs>)> =
            t.convs.iter().filter(|(route, _, _)| route == r).collect();
        let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for (_, wall, obs) in &passes {
            let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
            for o in obs {
                let g = if o.first { "c1_ms" } else { width_group(first_width, o.out_channels) };
                *sums.entry(g).or_default() += ms(o.wall) / BATCH as f64;
            }
            for (g, v) in sums {
                groups.entry(g).or_default().push(v);
            }
            let conv: Duration = obs.iter().map(|o| o.wall).sum();
            shares.push(conv.as_secs_f64() / wall.as_secs_f64());
        }
        for (g, mut v) in groups {
            let name = if g == "c1_ms" { g.to_string() } else { format!("{g}_ms") };
            out.set(format!("engine.{r}.{name}"), median(&mut v));
        }
        out.set(format!("engine.{r}.conv_share"), median(&mut shares));
        out.set(format!("images_per_s.{r}"), BATCH as f64 * 1e3 / route_median(&t.plain, r));
    }
    out.set(
        "engine.odq_sparse.speedup_over_dense",
        route_median(&t.plain, "odq") / route_median(&t.plain, "odq_sparse"),
    );
    let overhead: Vec<f64> =
        ROUTES.iter().map(|r| route_median(&t.traced, r) / route_median(&t.plain, r)).collect();
    out.set("obs.trace_overhead_share", geomean(&overhead) - 1.0);

    // Kernel work per image, from each route's own decomposition.
    let density: BTreeMap<&str, f64> =
        odq.layers.iter().map(|l| (l.name.as_str(), l.sensitive_fraction())).collect();
    for r in ROUTES {
        // Operand bytes per element: (input, weight); outputs are f32.
        let (in_b, w_b) = match *r {
            "float" => (4.0, 4.0),
            "int4" | "odq" | "odq_sparse" => (0.5, 0.5),
            _ => (1.0, 1.0),
        };
        let mut macs = 0.0;
        let mut bytes = 0.0;
        for (name, g) in &geoms {
            let m = g.macs() as f64;
            // ODQ: predictor MACs over all outputs plus executor MACs
            // over the sensitive ones.
            macs += match *r {
                "odq" | "odq_sparse" => {
                    m * (1.0 + density.get(name.as_str()).copied().unwrap_or(1.0))
                }
                _ => m,
            };
            let out_n = g.output_shape(1).numel() as f64;
            bytes += g.input_shape(1).numel() as f64 * in_b
                + out_n * 4.0
                + g.weight_shape().numel() as f64 * w_b / BATCH as f64;
            if r.starts_with("odq") {
                bytes += out_n / 8.0; // sensitivity mask
            }
        }
        out.set(format!("kernel.{r}.macs_per_image"), macs);
        out.set(format!("kernel.{r}.bytes_per_image"), bytes);
        let ips = BATCH as f64 * 1e3 / route_median(&t.plain, r);
        out.set(format!("kernel.{r}.gmacs_per_s"), macs * ips / 1e9);
    }

    // Simulated accelerator cost per image from the measured profiles.
    let em = EnergyModel::default();
    let odq_ws: Vec<LayerWorkload> = odq
        .layers
        .iter()
        .map(|l| LayerWorkload::from_channel_counts(&l.name, l.geom, &l.channel_counts))
        .collect();
    let drq_ws: Vec<LayerWorkload> = geoms
        .iter()
        .map(|(name, g)| {
            let f = drq_stats.iter().find(|l| &l.name == name).map_or(1.0, |l| l.hi_mac_fraction());
            LayerWorkload::uniform(name.clone(), *g, f)
        })
        .collect();
    let dense: Vec<LayerWorkload> =
        geoms.iter().map(|(name, g)| LayerWorkload::uniform(name.clone(), *g, 1.0)).collect();
    for (a, cfg, ws) in [
        ("odq", AccelConfig::odq(), &odq_ws),
        ("drq", AccelConfig::drq(), &drq_ws),
        ("int8", AccelConfig::int8(), &dense),
        ("int16", AccelConfig::int16(), &dense),
    ] {
        let r = simulate_network(&cfg, ws, &em);
        out.set(format!("accel.{a}.cycles_per_image"), r.total_cycles);
        out.set(format!("accel.{a}.energy_uj_per_image"), r.energy.total_nj() / 1e3);
    }
}

/// Median wall time of `simulate_network` on an ODQ batch profile, the
/// call a serving worker makes per batch.
pub fn sim_ms_per_batch(model: &Model, x: &Tensor, tracer: Option<&Tracer>) -> f64 {
    let mut e = OdqEngine::new(ODQ_THRESHOLD);
    let _ = model.forward_eval(x, &mut e);
    let ws: Vec<LayerWorkload> = e
        .stats
        .layers
        .iter()
        .map(|l| LayerWorkload::from_channel_counts(&l.name, l.geom, &l.channel_counts))
        .collect();
    let (cfg, em) = (AccelConfig::odq(), EnergyModel::default());
    let mut v = Vec::new();
    let start = Instant::now();
    while v.len() < 5 || (v.len() < 200 && start.elapsed() < Duration::from_millis(300)) {
        let t0 = Instant::now();
        std::hint::black_box(simulate_network(&cfg, &ws, &em));
        let d = t0.elapsed();
        if let Some(tr) = tracer {
            tr.record(0, "accel", t0, d);
        }
        v.push(ms(d));
    }
    median(&mut v)
}

/// The `offline_resnet20` workload.
pub fn run(seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::new(full_resnet20(), seed);
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut b = bench.expect("set up at least once");
    out.set("setup_s", median(&mut setups));
    println!("setup: {:?} s (median of {SETUPS})", setups);

    let budget = Duration::from_secs_f64(seconds);
    let t = time_routes(&mut b, budget, tracer.as_deref());
    end_to_end(&t, out);
    let runs: u64 = t.plain.values().chain(t.traced.values()).map(|v| v.len() as u64).sum();
    out.attempted += runs;

    if tracer.is_some() {
        per_layer(&mut b, &t, out);
        let x = slice(&b.batches[0], 0, BATCH);
        out.set("accel.sim_ms_per_batch", sim_ms_per_batch(&b.model, &x, tracer.as_deref()));
    }

    // Output check: each route once per run, outside the timed loop.
    let (checked, wrong) = b.verify(out);
    out.attempted += checked;
    out.failed += wrong;
    println!("output check: {checked} routes against the scalar oracle, {wrong} wrong");
}

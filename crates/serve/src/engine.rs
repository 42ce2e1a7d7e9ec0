//! Engine selection, per-layer policy routing, and the per-pass profiler.
//!
//! Everything behind `odq_nn`'s [`ConvExecutor`] seam can serve: the float
//! reference, static DoReFa INT-k, DRQ (input-directed), ODQ
//! (output-directed) — and, through [`PolicyExecutor`], any per-layer
//! mixture of them described by an `odq_nn` [`PrecisionPolicy`]. Workers
//! own one engine instance per model, and every engine serving the same
//! model shares one per-model
//! [`PlanCache`]: layer weights are quantized,
//! bit-split and summarized exactly once across the whole worker fleet,
//! and every planned conv driver lowers through the cache's shared
//! workspace pool. A policy's sub-engines share that same cache — each
//! layer runs under exactly one route, so the cache still holds one plan
//! per layer and routing adds no thrash.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odq_accel::{AccelConfig, LayerWorkload};
use odq_core::engine::OdqEngine;
use odq_drq::{DrqCfg, DrqEngine};
use odq_nn::executor::{ConvCtx, ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq_nn::policy::{PrecisionPolicy, Route};
use odq_quant::plan::PlanCache;
use odq_tensor::{ConvGeom, Tensor};

/// Which quantization engine the worker pool runs.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineKind {
    /// Float reference executor (honors QAT fake-quantization).
    Float,
    /// Static DoReFa INT-`bits` quantization for weights and activations.
    Static {
        /// Bit width for both weights and activations.
        bits: u8,
    },
    /// DRQ, the input-directed baseline (INT8-INT4 pair).
    Drq {
        /// Input-region sensitivity threshold.
        input_threshold: f32,
    },
    /// ODQ with a global output threshold (the paper's configuration).
    /// Served on the planned kernel, recording mask counts only.
    Odq {
        /// Output sensitivity threshold.
        threshold: f32,
    },
    /// Per-layer mixed precision: each conv layer executes under the route
    /// its [`PrecisionPolicy`] assigns. This kind's policy is the
    /// *fallback*; a deployment whose registry version was published with
    /// its own policy executes under that published policy instead, so
    /// hot-swapping versions swaps policies atomically with the weights.
    Policy(Arc<PrecisionPolicy>),
}

impl EngineKind {
    /// Short label for ledgers and reports. Borrowed for the fixed kinds,
    /// so recording a batch does not allocate.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            EngineKind::Float => Cow::Borrowed("float"),
            EngineKind::Static { bits } => Cow::Owned(format!("int{bits}")),
            EngineKind::Drq { .. } => Cow::Borrowed("drq"),
            EngineKind::Odq { .. } => Cow::Borrowed("odq"),
            EngineKind::Policy(_) => Cow::Borrowed("policy"),
        }
    }

    /// The matching Table 2 accelerator configuration for per-batch
    /// simulation: static INT16/INT8 run on the fixed-precision arrays,
    /// DRQ and ODQ on their reconfigurable designs. The float engine has
    /// no accelerator of its own in the paper; it is costed as INT16 (the
    /// highest-precision design). A policy has no single configuration —
    /// each route is costed on its own accelerator (see
    /// `route_accel_config`) — so this returns the *default* route's.
    pub fn accel_config(&self) -> AccelConfig {
        match self {
            EngineKind::Float => AccelConfig::int16(),
            EngineKind::Static { bits } if *bits <= 8 => AccelConfig::int8(),
            EngineKind::Static { .. } => AccelConfig::int16(),
            EngineKind::Drq { .. } => AccelConfig::drq(),
            EngineKind::Odq { .. } => AccelConfig::odq(),
            EngineKind::Policy(p) => route_accel_config(p.default_route()),
        }
    }

    /// Check that every route this kind can execute is one the kernels
    /// accept ([`Route::validate`]), so a misconfigured server fails at
    /// start instead of panicking a worker on its first batch.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            EngineKind::Static { bits } => {
                Route::Static { w_bits: *bits, a_bits: *bits, a_clip: 1.0 }.validate()
            }
            EngineKind::Policy(p) => p.distinct_routes().iter().try_for_each(Route::validate),
            EngineKind::Float | EngineKind::Drq { .. } | EngineKind::Odq { .. } => Ok(()),
        }
    }

    /// Instantiate a fresh engine of this kind over a (typically
    /// per-model, fleet-shared) plan cache, honoring `published`: when
    /// this kind is [`EngineKind::Policy`] and the deployment carries a
    /// policy published with its registry version, the published policy
    /// wins over the kind's fallback.
    pub(crate) fn build_for(
        &self,
        published: Option<&Arc<PrecisionPolicy>>,
        plans: Arc<PlanCache>,
    ) -> EngineExec {
        match self {
            EngineKind::Policy(fallback) => {
                let policy = published.unwrap_or(fallback);
                EngineExec::Policy(PolicyExecutor::new(Arc::clone(policy), plans))
            }
            EngineKind::Float => EngineExec::Float(FloatConvExecutor),
            EngineKind::Static { bits } => {
                EngineExec::Static(StaticQuantExecutor::with_plan_cache(*bits, *bits, 1.0, plans))
            }
            EngineKind::Drq { input_threshold } => EngineExec::Drq(DrqEngine::with_plan_cache(
                DrqCfg::int8_int4(*input_threshold),
                plans,
            )),
            EngineKind::Odq { threshold } => EngineExec::Odq(serving_odq(*threshold, plans)),
        }
    }

    /// [`build_for`](Self::build_for) with no published policy.
    #[cfg(test)]
    pub(crate) fn build(&self, plans: Arc<PlanCache>) -> EngineExec {
        self.build_for(None, plans)
    }
}

/// The Table 2 accelerator configuration one policy route is costed on,
/// mirroring [`EngineKind::accel_config`] route-by-route.
pub(crate) fn route_accel_config(route: Route) -> AccelConfig {
    match route {
        Route::Float => AccelConfig::int16(),
        Route::Static { w_bits, .. } if w_bits <= 8 => AccelConfig::int8(),
        Route::Static { .. } => AccelConfig::int16(),
        Route::Drq { .. } => AccelConfig::drq(),
        Route::Odq { .. } => AccelConfig::odq(),
    }
}

/// Build the engine executing one policy route over a shared plan cache.
fn build_route(route: Route, plans: Arc<PlanCache>) -> EngineExec {
    match route {
        Route::Float => EngineExec::Float(FloatConvExecutor),
        Route::Static { w_bits, a_bits, a_clip } => {
            EngineExec::Static(StaticQuantExecutor::with_plan_cache(w_bits, a_bits, a_clip, plans))
        }
        Route::Drq { hi_bits, lo_bits, a_clip, region, input_threshold } => {
            EngineExec::Drq(DrqEngine::with_plan_cache(
                DrqCfg { hi_bits, lo_bits, a_clip, region: region as usize, input_threshold },
                plans,
            ))
        }
        // Serving never reads precision loss, so the route's `sparse` flag
        // is ignored: every ODQ route records only its mask counts.
        Route::Odq { threshold, .. } => EngineExec::Odq(serving_odq(threshold, plans)),
    }
}

/// The ODQ engine serving builds: the planned kernel, recording only the
/// mask counts the ledger reads — never the INT4 reference.
fn serving_odq(threshold: f32, plans: Arc<PlanCache>) -> OdqEngine {
    let mut e = OdqEngine::with_plan_cache(threshold, plans);
    e.sparse = true;
    e
}

/// A [`ConvExecutor`] that routes each conv layer to the engine its
/// [`PrecisionPolicy`] assigns.
///
/// Sub-engines are built lazily, one per *distinct route* (two layers
/// routed identically share an engine instance), and all of them share
/// the model's single plan cache and workspace pool — each layer runs
/// under exactly one route, so the cache keeps exactly one plan per layer
/// no matter how many routes the policy mixes. Dispatch is memoized by
/// layer name after the first pass.
pub struct PolicyExecutor {
    policy: Arc<PrecisionPolicy>,
    plans: Arc<PlanCache>,
    /// One lazily-built engine per distinct route encountered so far.
    engines: Vec<(Route, EngineExec)>,
    /// Layer name → index into `engines`.
    dispatch: HashMap<String, usize>,
}

impl PolicyExecutor {
    /// A routed executor over `policy`, all sub-engines sharing `plans`.
    pub fn new(policy: Arc<PrecisionPolicy>, plans: Arc<PlanCache>) -> Self {
        Self { policy, plans, engines: Vec::new(), dispatch: HashMap::new() }
    }

    /// The policy this executor routes by.
    pub fn policy(&self) -> &Arc<PrecisionPolicy> {
        &self.policy
    }

    /// Sub-engines built so far (one per distinct route encountered).
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    fn engine_index_for(&mut self, name: &str) -> usize {
        if let Some(&i) = self.dispatch.get(name) {
            return i;
        }
        let route = self.policy.route_for(name);
        let i = match self.engines.iter().position(|(r, _)| *r == route) {
            Some(i) => i,
            None => {
                self.engines.push((route, build_route(route, Arc::clone(&self.plans))));
                self.engines.len() - 1
            }
        };
        self.dispatch.insert(name.to_string(), i);
        i
    }

    /// Clear per-batch statistics on every sub-engine.
    pub(crate) fn reset_stats(&mut self) {
        for (_, e) in &mut self.engines {
            e.reset_batch_stats();
        }
    }

    /// Fold each sub-engine's per-pass measurements into one profile
    /// group per route: ODQ routes report their real per-channel
    /// sensitive counts (and contribute to the overall sensitive
    /// fraction), DRQ routes their high-precision MAC fractions, and
    /// float/static routes uniform full-precision workloads over the
    /// layers dispatched to them.
    pub(crate) fn route_profiles(
        &mut self,
        layer_geoms: &[(String, ConvGeom)],
    ) -> (Option<f64>, Vec<RouteProfile>) {
        let mut sens_num = 0u64;
        let mut sens_den = 0u64;
        let mut profiles = Vec::new();
        let dispatch = &self.dispatch;
        for (i, (route, exec)) in self.engines.iter_mut().enumerate() {
            let mine = || layer_geoms.iter().filter(|(n, _)| dispatch.get(n) == Some(&i));
            let workloads: Vec<LayerWorkload> = match exec {
                EngineExec::Odq(e) => {
                    let stats = e.stats.take();
                    for l in &stats.layers {
                        sens_num += l.sensitive_outputs;
                        sens_den += l.total_outputs;
                    }
                    stats
                        .layers
                        .iter()
                        .map(|l| {
                            LayerWorkload::from_channel_counts(&l.name, l.geom, &l.channel_counts)
                        })
                        .collect()
                }
                EngineExec::Drq(e) => mine()
                    .map(|(name, geom)| {
                        let frac = e
                            .stats
                            .iter()
                            .find(|l| &l.name == name)
                            .map_or(1.0, |l| l.hi_mac_fraction());
                        LayerWorkload::uniform(name.clone(), *geom, frac)
                    })
                    .collect(),
                EngineExec::Float(_) | EngineExec::Static(_) => mine()
                    .map(|(name, geom)| LayerWorkload::uniform(name.clone(), *geom, 1.0))
                    .collect(),
                EngineExec::Policy(_) => unreachable!("policy sub-engines are never policies"),
            };
            if workloads.is_empty() {
                continue;
            }
            profiles.push(RouteProfile {
                label: route.label().into_owned(),
                accel: route_accel_config(*route),
                workloads,
            });
        }
        let frac = if sens_den > 0 { Some(sens_num as f64 / sens_den as f64) } else { None };
        (frac, profiles)
    }
}

impl ConvExecutor for PolicyExecutor {
    fn begin_pass(&mut self) {
        for (_, e) in &mut self.engines {
            e.begin_pass();
        }
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let i = self.engine_index_for(ctx.name);
        self.engines[i].1.conv(ctx, x)
    }
}

/// One route's share of a batch: the layers it executed, as simulator
/// workloads, and the accelerator configuration that costs them.
pub(crate) struct RouteProfile {
    /// Route label (`"odq"`, `"int4"`, ...), the per-route stats key.
    pub label: String,
    /// Accelerator configuration this route is costed on.
    pub accel: AccelConfig,
    /// Measured per-layer workloads.
    pub workloads: Vec<LayerWorkload>,
}

/// A worker-owned engine instance.
pub(crate) enum EngineExec {
    Float(FloatConvExecutor),
    Static(StaticQuantExecutor),
    Drq(DrqEngine),
    Odq(OdqEngine),
    Policy(PolicyExecutor),
}

impl EngineExec {
    /// Clear any per-batch profile left from the previous batch.
    pub(crate) fn reset_batch_stats(&mut self) {
        match self {
            EngineExec::Odq(e) => e.reset_stats(),
            EngineExec::Drq(e) => e.stats.clear(),
            EngineExec::Policy(p) => p.reset_stats(),
            EngineExec::Float(_) | EngineExec::Static(_) => {}
        }
    }
}

impl ConvExecutor for EngineExec {
    fn begin_pass(&mut self) {
        match self {
            EngineExec::Float(e) => e.begin_pass(),
            EngineExec::Static(e) => e.begin_pass(),
            EngineExec::Drq(e) => e.begin_pass(),
            EngineExec::Odq(e) => e.begin_pass(),
            EngineExec::Policy(e) => e.begin_pass(),
        }
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        match self {
            EngineExec::Float(e) => e.conv(ctx, x),
            EngineExec::Static(e) => e.conv(ctx, x),
            EngineExec::Drq(e) => e.conv(ctx, x),
            EngineExec::Odq(e) => e.conv(ctx, x),
            EngineExec::Policy(e) => e.conv(ctx, x),
        }
    }
}

/// Wraps an engine for one forward pass, recording each conv layer's
/// `(name, geometry)` in execution order — the uniform-workload fallback
/// for engines that do not collect their own per-layer profile — and,
/// when timing is enabled, each layer's accumulated wall time (the
/// serving-side half of the per-layer probes; see
/// [`crate::ServeConfig::layer_profiling`]).
pub(crate) struct Profiled<'a> {
    inner: &'a mut EngineExec,
    /// Conv layers seen this pass, in first-encounter order.
    pub layers: Vec<(String, ConvGeom)>,
    /// Wall time per entry of `layers` (all zero when timing is off).
    /// A layer invoked more than once per pass accumulates.
    pub walls: Vec<Duration>,
    /// Whether conv calls are individually timed.
    timed: bool,
    /// O(1) layer-name → index lookup (a deep model would otherwise pay
    /// a linear scan on every conv call).
    seen: HashMap<String, usize>,
}

impl<'a> Profiled<'a> {
    pub fn new(inner: &'a mut EngineExec, timed: bool) -> Self {
        Self { inner, layers: Vec::new(), walls: Vec::new(), timed, seen: HashMap::new() }
    }
}

impl ConvExecutor for Profiled<'_> {
    fn begin_pass(&mut self) {
        self.layers.clear();
        self.walls.clear();
        self.seen.clear();
        self.inner.begin_pass();
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let i = match self.seen.get(ctx.name) {
            Some(&i) => i,
            None => {
                let i = self.layers.len();
                self.seen.insert(ctx.name.to_string(), i);
                self.layers.push((ctx.name.to_string(), ctx.geom));
                self.walls.push(Duration::ZERO);
                i
            }
        };
        if self.timed {
            let t0 = Instant::now();
            let y = self.inner.conv(ctx, x);
            self.walls[i] += t0.elapsed();
            y
        } else {
            self.inner.conv(ctx, x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_accel_configs_match() {
        assert_eq!(EngineKind::Float.label(), "float");
        assert_eq!(EngineKind::Static { bits: 8 }.label(), "int8");
        assert_eq!(EngineKind::Static { bits: 8 }.accel_config().name, "INT8");
        assert_eq!(EngineKind::Static { bits: 16 }.accel_config().name, "INT16");
        assert_eq!(EngineKind::Odq { threshold: 0.3 }.label(), "odq");
        assert_eq!(EngineKind::Drq { input_threshold: 0.1 }.label(), "drq");
        let policy =
            Arc::new(PrecisionPolicy::uniform(Route::Odq { threshold: 0.3, sparse: false }));
        assert_eq!(EngineKind::Policy(Arc::clone(&policy)).label(), "policy");
        assert_eq!(EngineKind::Policy(policy).accel_config().name, "ODQ");
        assert_eq!(
            route_accel_config(Route::Static { w_bits: 4, a_bits: 4, a_clip: 1.0 }).name,
            "INT8"
        );
        assert_eq!(route_accel_config(Route::Float).name, "INT16");
    }

    #[test]
    fn profiled_records_each_layer_once() {
        let mut exec = EngineKind::Float.build(Arc::new(PlanCache::new()));
        let mut prof = Profiled::new(&mut exec, true);
        let g = ConvGeom::new(1, 2, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(1), vec![0.5; 16]);
        let w = Tensor::from_vec(g.weight_shape(), vec![0.1; 2 * 9]);
        let ctx = ConvCtx { name: "C1", geom: g, weights: &w, bias: None, qat: None };
        prof.begin_pass();
        let _ = prof.conv(&ctx, &x);
        let _ = prof.conv(&ctx, &x);
        assert_eq!(prof.layers.len(), 1);
        assert_eq!(prof.layers[0].0, "C1");
        assert_eq!(prof.walls.len(), 1, "one wall-time slot per recorded layer");
        assert!(prof.walls[0] > Duration::ZERO, "both calls accumulate into the slot");
    }

    #[test]
    fn policy_executor_shares_engines_across_identically_routed_layers() {
        let policy = PrecisionPolicy::uniform(Route::Float)
            .with("C1", Route::Odq { threshold: 0.3, sparse: false })
            .with("C2", Route::Odq { threshold: 0.3, sparse: false })
            .with("C3", Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 });
        let mut exec = PolicyExecutor::new(Arc::new(policy), Arc::new(PlanCache::new()));
        let g = ConvGeom::new(2, 2, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(1), vec![0.5; 2 * 16]);
        let w = Tensor::from_vec(g.weight_shape(), vec![0.1; 2 * 2 * 9]);
        exec.begin_pass();
        for name in ["C1", "C2", "C3", "C9"] {
            let ctx = ConvCtx { name, geom: g, weights: &w, bias: None, qat: None };
            let _ = exec.conv(&ctx, &x);
        }
        // C1 and C2 share one ODQ engine; C3 gets static; C9 the default.
        assert_eq!(exec.engine_count(), 3);
    }

    #[test]
    fn served_odq_records_mask_counts_and_no_precision_loss() {
        // Threshold 0 marks every output sensitive, so a layer that
        // computed the INT4 reference would count every output in
        // `reference_sensitive`.
        let g = ConvGeom::new(2, 3, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(2), (0..64).map(|i| i as f32 / 64.0).collect());
        let w =
            Tensor::from_vec(g.weight_shape(), (0..54).map(|i| i as f32 / 27.0 - 1.0).collect());
        let ctx = ConvCtx { name: "C1", geom: g, weights: &w, bias: None, qat: None };
        let kind = EngineKind::Odq { threshold: 0.0 };
        let routed = PrecisionPolicy::uniform(Route::Odq { threshold: 0.0, sparse: false });
        for mut exec in [
            kind.build(Arc::new(PlanCache::new())),
            EngineKind::Policy(Arc::new(routed)).build(Arc::new(PlanCache::new())),
        ] {
            exec.begin_pass();
            let _ = exec.conv(&ctx, &x);
            let engine = match &exec {
                EngineExec::Odq(e) => e,
                EngineExec::Policy(p) => match &p.engines[0].1 {
                    EngineExec::Odq(e) => e,
                    _ => panic!("an ODQ route must build an ODQ engine"),
                },
                _ => panic!("ODQ kinds must build ODQ engines"),
            };
            let layer = engine.stats.layer("C1").expect("served ODQ records the layer");
            assert_eq!(layer.total_outputs, 2 * 3 * 16);
            assert_eq!(layer.sensitive_outputs, layer.total_outputs);
            let per_channel: u64 = layer.channel_counts.iter().flatten().map(|&c| c as u64).sum();
            assert_eq!(per_channel, layer.sensitive_outputs);
            assert_eq!(layer.reference_sensitive, 0, "serving must not compute the reference");
            assert_eq!(layer.precision_loss_sum, 0.0);
        }
    }

    #[test]
    fn deployment_policy_overrides_the_kinds_fallback() {
        let fallback = Arc::new(PrecisionPolicy::uniform(Route::Float));
        let published =
            Arc::new(PrecisionPolicy::uniform(Route::Odq { threshold: 0.5, sparse: false }));
        let kind = EngineKind::Policy(Arc::clone(&fallback));
        match kind.build_for(Some(&published), Arc::new(PlanCache::new())) {
            EngineExec::Policy(p) => assert_eq!(p.policy().as_ref(), published.as_ref()),
            _ => panic!("policy kind must build a policy executor"),
        }
        match kind.build(Arc::new(PlanCache::new())) {
            EngineExec::Policy(p) => assert_eq!(p.policy().as_ref(), fallback.as_ref()),
            _ => panic!("policy kind must build a policy executor"),
        }
    }
}

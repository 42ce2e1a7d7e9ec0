//! [`OdqEngine`] — run whole models under ODQ.

use std::collections::HashMap;
use std::sync::Arc;

use odq_nn::executor::{ConvCtx, ConvExecutor};
use odq_quant::plan::{PlanCache, PlanSpec};
use odq_tensor::Tensor;

use crate::odq_conv::{odq_conv2d_planned, odq_int4_reference, OdqCfg};
use crate::stats::{LayerStats, OdqStats};

/// Threshold policy: one global value (the paper's choice — "we use the
/// same threshold across all layers", Sec. 6.4) or per-layer overrides
/// (exposed for the threshold-granularity ablation).
#[derive(Clone, Debug)]
pub enum ThresholdPolicy {
    /// One threshold for every layer.
    Global(f32),
    /// Per-layer thresholds by layer name, with a fallback default.
    PerLayer {
        /// Name → threshold map.
        map: HashMap<String, f32>,
        /// Fallback for unlisted layers.
        default: f32,
    },
}

impl ThresholdPolicy {
    fn for_layer(&self, name: &str) -> f32 {
        match self {
            ThresholdPolicy::Global(t) => *t,
            ThresholdPolicy::PerLayer { map, default } => *map.get(name).unwrap_or(default),
        }
    }
}

/// A [`ConvExecutor`] that executes every conv layer with output-directed
/// dynamic quantization and records per-layer statistics.
pub struct OdqEngine {
    /// Base ODQ configuration (bits, clip, low-plane width). The
    /// per-layer threshold comes from `policy`.
    pub cfg: OdqCfg,
    /// Threshold policy.
    pub policy: ThresholdPolicy,
    /// Whether to record statistics (mask fractions, precision loss,
    /// per-channel workloads). Recording costs memory per pass.
    pub record: bool,
    /// Skip the precision-loss instrumentation. Every layer runs the one
    /// planned kernel ([`odq_conv2d_planned`]) whatever this flag says,
    /// and its outputs never depend on it. With `record` set and `sparse`
    /// clear, each layer also computes the exact INT4 reference
    /// ([`odq_int4_reference`]) to fill the precision-loss fields (see
    /// [`LayerStats::precision_loss_sum`]); with `sparse` set, only the
    /// mask counts are recorded and no reference is computed. Serving
    /// always sets it.
    pub sparse: bool,
    /// Accumulated statistics.
    pub stats: OdqStats,
    plans: Arc<PlanCache>,
    stats_index: HashMap<String, usize>,
}

impl OdqEngine {
    /// Engine with a global threshold and the 4/2-bit configuration.
    pub fn new(threshold: f32) -> Self {
        Self::with_plan_cache(threshold, Arc::new(PlanCache::new()))
    }

    /// Engine with a global threshold sharing an existing plan cache —
    /// several engines (e.g. a serve worker fleet) pointed at one cache
    /// quantize and bit-split each layer's weights exactly once.
    pub fn with_plan_cache(threshold: f32, plans: Arc<PlanCache>) -> Self {
        Self {
            cfg: OdqCfg::int4(threshold),
            policy: ThresholdPolicy::Global(threshold),
            record: true,
            sparse: false,
            stats: OdqStats::default(),
            plans,
            stats_index: HashMap::new(),
        }
    }

    /// Engine with per-layer thresholds.
    pub fn with_per_layer(map: HashMap<String, f32>, default: f32) -> Self {
        Self::with_per_layer_plan_cache(map, default, Arc::new(PlanCache::new()))
    }

    /// Engine with per-layer thresholds sharing an existing plan cache —
    /// the per-layer analogue of [`with_plan_cache`](Self::with_plan_cache),
    /// used when a routed executor or serve worker points several engines
    /// at one model's cache.
    pub fn with_per_layer_plan_cache(
        map: HashMap<String, f32>,
        default: f32,
        plans: Arc<PlanCache>,
    ) -> Self {
        Self {
            cfg: OdqCfg::int4(default),
            policy: ThresholdPolicy::PerLayer { map, default },
            record: true,
            sparse: false,
            stats: OdqStats::default(),
            plans,
            stats_index: HashMap::new(),
        }
    }

    /// The shared plan cache (prepacked weights + workspace pool).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Clear accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.stats_index.clear();
    }

    fn stats_entry(&mut self, ctx: &ConvCtx<'_>) -> &mut LayerStats {
        // The index is advisory: callers may drain `stats` directly (the
        // serve worker calls `stats.take()`), so validate before trusting
        // it and rebuild the entry when it no longer points at `ctx.name`.
        if let Some(&i) = self.stats_index.get(ctx.name) {
            if self.stats.layers.get(i).is_some_and(|l| l.name == ctx.name) {
                return &mut self.stats.layers[i];
            }
        }
        let idx = match self.stats.layers.iter().position(|l| l.name == ctx.name) {
            Some(pos) => pos,
            None => {
                self.stats.layers.push(LayerStats::new(ctx.name, ctx.geom));
                self.stats.layers.len() - 1
            }
        };
        self.stats_index.insert(ctx.name.to_string(), idx);
        &mut self.stats.layers[idx]
    }
}

impl ConvExecutor for OdqEngine {
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let threshold = self.policy.for_layer(ctx.name);
        let cfg = OdqCfg { threshold, ..self.cfg };
        let spec = PlanSpec::odq(cfg.w_bits, cfg.low_bits);
        let plan = self.plans.plan_for(ctx.name, ctx.weights, spec);
        let pool = self.plans.pool();

        let qx = odq_quant::quantize_activation(x, cfg.a_bits, cfg.a_clip);
        let r = odq_conv2d_planned(&qx, &plan, ctx.bias, &ctx.geom, &cfg, pool);
        if !self.record {
            return r.output;
        }
        let sparse = self.sparse;
        let entry = self.stats_entry(ctx);
        entry.record_mask(&r.mask);
        if !sparse {
            // Precision loss over reference-sensitive outputs. The mask is
            // thresholded on *pre-bias* predictor estimates, so classify
            // the reference pre-bias too (subtract the channel bias).
            let reference = odq_int4_reference(&qx, &plan, ctx.bias, &ctx.geom);
            let spatial = ctx.geom.out_spatial();
            let co = ctx.geom.out_channels;
            let out = r.output.as_slice();
            for (i, (&o, &f)) in out.iter().zip(reference.as_slice()).enumerate() {
                let b = ctx.bias.map_or(0.0, |bs| bs[(i / spatial) % co]);
                if (f - b).abs() >= threshold {
                    entry.reference_sensitive += 1;
                    entry.precision_loss_sum += (o - f).abs() as f64;
                }
            }
        }
        r.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odq_data::SynthSpec;
    use odq_nn::executor::FloatConvExecutor;
    use odq_nn::models::{Model, ModelCfg};
    use odq_nn::train::evaluate;
    use odq_nn::Arch;

    fn small_model() -> Model {
        let mut cfg = ModelCfg::small(Arch::ResNet20, 10);
        cfg.input_hw = 8;
        Model::build(cfg)
    }

    #[test]
    fn engine_runs_model_and_records_stats() {
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(4);
        let mut engine = OdqEngine::new(0.3);
        let y = m.forward_eval(&data.images, &mut engine);
        assert_eq!(y.dims(), &[4, 10]);
        assert!(!engine.stats.layers.is_empty());
        for l in &engine.stats.layers {
            assert!(l.total_outputs > 0, "{} recorded no outputs", l.name);
            assert!(!l.channel_counts.is_empty());
        }
    }

    #[test]
    fn zero_threshold_matches_static_int4() {
        // At threshold 0 everything is sensitive and ODQ degenerates to a
        // plain INT4 static quantization — model outputs must agree with
        // the StaticQuantExecutor's.
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(2);
        let mut odq = OdqEngine::new(0.0);
        let y_odq = m.forward_eval(&data.images, &mut odq);
        let mut int4 = odq_nn::executor::StaticQuantExecutor::int(4);
        let y_int4 = m.forward_eval(&data.images, &mut int4);
        assert_eq!(y_odq.as_slice(), y_int4.as_slice());
    }

    #[test]
    fn threshold_controls_sensitive_fraction() {
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(4);
        let mut lo = OdqEngine::new(0.05);
        let _ = m.forward_eval(&data.images, &mut lo);
        let mut hi = OdqEngine::new(0.8);
        let _ = m.forward_eval(&data.images, &mut hi);
        assert!(
            lo.stats.overall_sensitive_fraction() > hi.stats.overall_sensitive_fraction(),
            "lower threshold must mark more outputs sensitive"
        );
    }

    #[test]
    fn per_layer_policy_overrides() {
        let mut map = HashMap::new();
        map.insert("C1".to_string(), f32::INFINITY);
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(2);
        let mut engine = OdqEngine::with_per_layer(map, 0.0);
        let _ = m.forward_eval(&data.images, &mut engine);
        let c1 = engine.stats.layer("C1").expect("C1 present");
        assert_eq!(c1.sensitive_outputs, 0, "C1 forced all-insensitive");
        let c2 = engine.stats.layer("C2").expect("C2 present");
        assert_eq!(c2.sensitive_outputs, c2.total_outputs, "C2 all-sensitive at thr 0");
    }

    #[test]
    fn sparse_engine_matches_dense_engine() {
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(3);
        let mut dense = OdqEngine::new(0.3);
        dense.record = false;
        let yd = m.forward_eval(&data.images, &mut dense);
        let mut sparse = OdqEngine::new(0.3);
        sparse.record = false;
        sparse.sparse = true;
        let ys = m.forward_eval(&data.images, &mut sparse);
        assert_eq!(yd.as_slice(), ys.as_slice());
    }

    #[test]
    fn recording_sparse_engine_counts_masks_like_dense() {
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(3);
        let mut dense = OdqEngine::new(0.3);
        let yd = m.forward_eval(&data.images, &mut dense);
        let mut sparse = OdqEngine::new(0.3);
        sparse.sparse = true;
        let ys = m.forward_eval(&data.images, &mut sparse);
        assert_eq!(yd.as_slice(), ys.as_slice(), "outputs never depend on `sparse`");
        assert_eq!(dense.stats.layers.len(), sparse.stats.layers.len());
        for (d, s) in dense.stats.layers.iter().zip(&sparse.stats.layers) {
            assert_eq!(d.name, s.name);
            assert_eq!(d.total_outputs, s.total_outputs, "{}", d.name);
            assert_eq!(d.sensitive_outputs, s.sensitive_outputs, "{}", d.name);
            assert_eq!(d.channel_counts, s.channel_counts, "{}", d.name);
            // `sparse` skips the INT4 reference.
            assert_eq!(s.reference_sensitive, 0, "{}", s.name);
            assert_eq!(s.precision_loss_sum, 0.0, "{}", s.name);
        }
    }

    #[test]
    fn precision_loss_matches_pinned_values() {
        // Per-layer (reference_sensitive, precision_loss_sum) for this model
        // and batch, as Fig. 3 reports them. They were recorded when the
        // reference came from the Eq. 3 plane products; the static
        // quantized conv must reproduce them exactly.
        let pinned: [(&str, u64, f64); 9] = [
            ("C1", 67, 1.4817831963300705),
            ("C2", 37, 0.9811351597309113),
            ("C3", 140, 4.6359478533267975),
            ("C4", 47, 1.344047099351883),
            ("C5", 32, 2.541041910648346),
            ("C4p", 23, 1.1133202016353607),
            ("C6", 0, 0.0),
            ("C7", 0, 0.0),
            ("C6p", 0, 0.0),
        ];
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(4);
        let mut engine = OdqEngine::new(0.3);
        let _ = m.forward_eval(&data.images, &mut engine);
        assert_eq!(engine.stats.layers.len(), pinned.len());
        for (l, (name, sensitive, loss)) in engine.stats.layers.iter().zip(pinned) {
            assert_eq!(l.name, name);
            assert_eq!(l.reference_sensitive, sensitive, "{name}");
            assert_eq!(l.precision_loss_sum, loss, "{name}");
        }
    }

    #[test]
    fn forward_lowers_each_layer_image_pair_exactly_once() {
        // The single-lowering invariant: an ODQ forward performs exactly
        // one im2col per (conv layer, image), counted by the shared
        // workspace pool — not the 3+ the unplanned pipeline needed.
        let m = small_model();
        let batch = 4;
        let data = SynthSpec::cifar10(8).generate(batch);
        let mut engine = OdqEngine::new(0.3);
        let _ = m.forward_eval(&data.images, &mut engine);
        let layers = engine.stats.layers.len() as u64;
        assert!(layers > 1, "model must have several conv layers");
        assert_eq!(
            engine.plan_cache().pool().lowerings(),
            layers * batch as u64,
            "exactly one lowering per (layer, image)"
        );
        // Plans are built once per layer and reused across batches.
        assert_eq!(engine.plan_cache().builds(), layers);
        let _ = m.forward_eval(&data.images, &mut engine);
        assert_eq!(engine.plan_cache().builds(), layers, "second pass must hit the plan cache");
        assert_eq!(engine.plan_cache().pool().lowerings(), 2 * layers * batch as u64);
    }

    #[test]
    fn shared_plan_cache_builds_each_layer_once_across_engines() {
        let m = small_model();
        let data = SynthSpec::cifar10(8).generate(2);
        let plans = Arc::new(PlanCache::new());
        let mut a = OdqEngine::with_plan_cache(0.3, Arc::clone(&plans));
        let mut b = OdqEngine::with_plan_cache(0.3, Arc::clone(&plans));
        let ya = m.forward_eval(&data.images, &mut a);
        let yb = m.forward_eval(&data.images, &mut b);
        assert_eq!(ya.as_slice(), yb.as_slice());
        assert_eq!(plans.builds(), a.stats.layers.len() as u64, "one build per layer, shared");
    }

    #[test]
    fn odq_accuracy_close_to_float_on_trained_toyset() {
        // Train briefly on synthetic data; ODQ at a modest threshold should
        // lose little accuracy vs the float evaluation.
        use odq_nn::train::{train_epoch, SgdCfg};
        let mut cfg = ModelCfg::small(Arch::ResNet20, 4);
        cfg.input_hw = 8;
        let mut m = Model::build(cfg);
        let mut spec = SynthSpec::cifar10(8);
        spec.num_classes = 4;
        let (train, test) = spec.generate_split(64, 32);
        let mut rng = odq_nn::param::init_rng(3);
        let sgd = SgdCfg { lr: 0.08, momentum: 0.9, weight_decay: 1e-4, grad_clip: 5.0 };
        for _ in 0..6 {
            train_epoch(&mut m, &train.images, &train.labels, 16, &sgd, &mut rng);
        }
        let acc_float = evaluate(&m, &test.images, &test.labels, 16, &mut FloatConvExecutor);
        let mut engine = OdqEngine::new(0.2);
        let acc_odq = evaluate(&m, &test.images, &test.labels, 16, &mut engine);
        assert!(acc_float > 0.5, "float baseline should learn something: {acc_float}");
        assert!(
            acc_odq >= acc_float - 0.25,
            "ODQ should not collapse accuracy: float={acc_float} odq={acc_odq}"
        );
    }
}

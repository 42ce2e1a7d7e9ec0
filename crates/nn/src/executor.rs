//! Pluggable convolution execution for inference.
//!
//! The quantization engines (static DoReFa baselines in this crate's
//! `train`/eval path, DRQ in `odq-drq`, ODQ in `odq-core`) all differ *only*
//! in how they execute convolution layers. [`ConvExecutor`] is that seam:
//! model inference hands every conv layer's raw float weights and input to
//! the executor and uses whatever output it returns.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odq_quant::plan::{PlanCache, PlanSpec};
use odq_tensor::{ConvGeom, Tensor};

use crate::layers::conv::QatCfg;

/// Everything an executor can know about a conv layer at call time.
pub struct ConvCtx<'a> {
    /// Layer name, e.g. `"C7"` (paper numbering: first conv is `C1`).
    pub name: &'a str,
    /// Convolution geometry for the current input size.
    pub geom: ConvGeom,
    /// Raw (float, possibly QAT-trained) weights `[Co, Ci, K, K]`.
    pub weights: &'a Tensor,
    /// Optional per-output-channel bias.
    pub bias: Option<&'a [f32]>,
    /// The layer's quantization-aware-training configuration, if any.
    /// Engines may honor it (the float executor fake-quantizes to match
    /// training) or override it with their own scheme.
    pub qat: Option<QatCfg>,
}

/// Executes convolution layers during inference.
pub trait ConvExecutor {
    /// Called once at the start of each full forward pass, before the first
    /// conv layer. Engines reset per-pass layer counters here.
    fn begin_pass(&mut self) {}

    /// Execute one convolution; must return a `[N, Co, OH, OW]` tensor.
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor;
}

/// The reference executor: float convolution, honoring the layer's QAT
/// fake-quantization so that evaluation matches the training-time forward.
#[derive(Default, Clone, Copy)]
pub struct FloatConvExecutor;

impl ConvExecutor for FloatConvExecutor {
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let (x_eff, w_eff) = apply_qat(ctx, x);
        odq_tensor::conv::conv2d(&x_eff, &w_eff, ctx.bias, &ctx.geom)
    }
}

/// Apply a layer's QAT fake quantization to `(input, weights)` — shared by
/// the float executor and the training forward pass.
///
/// Borrows the originals when the layer has no QAT config, so the common
/// no-QAT inference path allocates nothing.
pub fn apply_qat<'a>(ctx: &ConvCtx<'a>, x: &'a Tensor) -> (Cow<'a, Tensor>, Cow<'a, Tensor>) {
    match ctx.qat {
        Some(q) => (
            Cow::Owned(odq_quant::fake_quantize_activation(x, q.a_bits, q.a_clip)),
            Cow::Owned(odq_quant::fake_quantize_weights(ctx.weights, q.w_bits)),
        ),
        None => (Cow::Borrowed(x), Cow::Borrowed(ctx.weights)),
    }
}

/// A static-quantization executor: quantizes weights and activations to
/// fixed bit widths regardless of the layer's QAT config. This is the
/// "INT16 DoReFa-Net" / "INT8 DoReFa-Net" baseline of the paper's
/// evaluation (Sec. 5.2).
///
/// Weights are quantized once per layer per weight version through a
/// [`PlanCache`] (shareable across executors) instead of on every call.
#[derive(Clone)]
pub struct StaticQuantExecutor {
    /// Weight bit width.
    pub w_bits: u8,
    /// Activation bit width.
    pub a_bits: u8,
    /// Activation clip range (DoReFa clips activations to `[0, clip]`).
    pub a_clip: f32,
    plans: Arc<PlanCache>,
}

impl StaticQuantExecutor {
    /// INT-k static quantization with activation clip 1.0.
    pub fn int(bits: u8) -> Self {
        Self::with_bits(bits, bits, 1.0)
    }

    /// Static quantization with explicit weight/activation widths.
    pub fn with_bits(w_bits: u8, a_bits: u8, a_clip: f32) -> Self {
        Self { w_bits, a_bits, a_clip, plans: Arc::new(PlanCache::new()) }
    }

    /// Executor sharing an existing plan cache.
    pub fn with_plan_cache(w_bits: u8, a_bits: u8, a_clip: f32, plans: Arc<PlanCache>) -> Self {
        Self { w_bits, a_bits, a_clip, plans }
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }
}

impl ConvExecutor for StaticQuantExecutor {
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let qx = odq_quant::quantize_activation(x, self.a_bits, self.a_clip);
        // Offset-binary coding up to 15 bits; at 16 bits the symmetric
        // grid's zero-collapse issue is irrelevant (32767 levels) and the
        // signed coding keeps codes within i16. `PlanSpec::static_quant`
        // encodes the same cutover.
        let plan = self.plans.plan_for(ctx.name, ctx.weights, PlanSpec::static_quant(self.w_bits));
        let mut y = odq_quant::qconv::qconv2d_planned(&qx, &plan, &ctx.geom, self.plans.pool());
        if let Some(b) = ctx.bias {
            add_bias(&mut y, b, &ctx.geom);
        }
        y
    }
}

/// One observed conv-layer execution, as reported to a [`LayerProbe`].
///
/// Borrowed views into the executing layer's context: probes copy out
/// whatever they aggregate and must not assume the borrows outlive the
/// call.
pub struct LayerObservation<'a> {
    /// Layer name (paper numbering, e.g. `"C3"`).
    pub name: &'a str,
    /// Geometry the layer executed with.
    pub geom: &'a ConvGeom,
    /// Batch size of the input this layer just processed.
    pub batch: usize,
    /// Wall time of this layer's execution (the inner executor's `conv`
    /// call only — probe overhead is excluded by construction).
    pub wall: Duration,
}

/// Observes per-layer execution during inference.
///
/// This is the profiling seam the serving stack threads through every
/// engine: a probe sees each conv layer exactly once per forward pass, in
/// execution order, with its measured wall time. Implementations should be
/// cheap — they run on the inference hot path.
pub trait LayerProbe {
    /// Called when the wrapped executor begins a forward pass, before any
    /// layer is observed.
    fn begin_pass(&mut self) {}

    /// Called after each conv layer executes.
    fn observe(&mut self, obs: &LayerObservation<'_>);
}

/// A probe that records `(layer name, batch, wall)` per pass — the
/// simplest useful [`LayerProbe`], and the one the tests pin behavior
/// with.
#[derive(Default)]
pub struct CollectingProbe {
    /// Observations of the current (or last completed) pass, in execution
    /// order.
    pub layers: Vec<(String, usize, Duration)>,
    /// Forward passes begun.
    pub passes: u64,
}

impl LayerProbe for CollectingProbe {
    fn begin_pass(&mut self) {
        self.layers.clear();
        self.passes += 1;
    }

    fn observe(&mut self, obs: &LayerObservation<'_>) {
        self.layers.push((obs.name.to_string(), obs.batch, obs.wall));
    }
}

/// Wraps any [`ConvExecutor`], timing each layer and reporting it to a
/// [`LayerProbe`]. The wrapper is itself a `ConvExecutor`, so probing
/// composes with every engine behind the seam — float, static INT-k, DRQ,
/// ODQ, or a policy router — without the engine knowing it is observed.
pub struct ProbedExecutor<E, P> {
    /// The executor actually running the layers.
    pub inner: E,
    /// The probe observing them.
    pub probe: P,
}

impl<E, P> ProbedExecutor<E, P> {
    /// Probe `inner` with `probe`.
    pub fn new(inner: E, probe: P) -> Self {
        Self { inner, probe }
    }
}

impl<E: ConvExecutor, P: LayerProbe> ConvExecutor for ProbedExecutor<E, P> {
    fn begin_pass(&mut self) {
        self.probe.begin_pass();
        self.inner.begin_pass();
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let t0 = Instant::now();
        let y = self.inner.conv(ctx, x);
        let obs = LayerObservation {
            name: ctx.name,
            geom: &ctx.geom,
            batch: x.dims()[0],
            wall: t0.elapsed(),
        };
        self.probe.observe(&obs);
        y
    }
}

/// Add a per-output-channel bias to a `[N, Co, OH, OW]` tensor.
pub fn add_bias(y: &mut Tensor, bias: &[f32], g: &ConvGeom) {
    let n = y.dims()[0];
    let spatial = g.out_spatial();
    let ys = y.as_mut_slice();
    for i in 0..n {
        for (co, &b) in bias.iter().enumerate() {
            let base = (i * g.out_channels + co) * spatial;
            for v in &mut ys[base..base + spatial] {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(w: &'a Tensor, g: ConvGeom, qat: Option<QatCfg>) -> ConvCtx<'a> {
        ConvCtx { name: "C1", geom: g, weights: w, bias: None, qat }
    }

    #[test]
    fn float_executor_matches_reference_conv() {
        let g = ConvGeom::new(2, 3, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(
            g.input_shape(1),
            (0..32).map(|i| i as f32 / 32.0).collect::<Vec<_>>(),
        );
        let w = Tensor::from_vec(
            g.weight_shape(),
            (0..54).map(|i| (i as f32 - 27.0) / 54.0).collect::<Vec<_>>(),
        );
        let mut e = FloatConvExecutor;
        let y = e.conv(&ctx(&w, g, None), &x);
        let want = odq_tensor::conv::conv2d(&x, &w, None, &g);
        assert_eq!(y.as_slice(), want.as_slice());
    }

    #[test]
    fn static_executor_at_high_bits_approaches_float() {
        let g = ConvGeom::new(2, 2, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(
            g.input_shape(1),
            (0..32).map(|i| i as f32 / 31.0).collect::<Vec<_>>(),
        );
        let w = Tensor::from_vec(
            g.weight_shape(),
            (0..36).map(|i| ((i as f32) - 18.0) / 36.0).collect::<Vec<_>>(),
        );
        let want = odq_tensor::conv::conv2d(&x, &w, None, &g);

        let y8 = StaticQuantExecutor::int(8).conv(&ctx(&w, g, None), &x);
        let y2 = StaticQuantExecutor::int(2).conv(&ctx(&w, g, None), &x);
        let e8 = y8.mean_abs_diff(&want);
        let e2 = y2.mean_abs_diff(&want);
        assert!(e8 < e2, "8-bit should be more accurate: {e8} vs {e2}");
        assert!(e8 < 0.05);
    }

    #[test]
    fn probed_executor_is_transparent_and_observes_each_layer() {
        let g = ConvGeom::new(2, 3, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(
            g.input_shape(1),
            (0..32).map(|i| i as f32 / 32.0).collect::<Vec<_>>(),
        );
        let w = Tensor::from_vec(
            g.weight_shape(),
            (0..54).map(|i| (i as f32 - 27.0) / 54.0).collect::<Vec<_>>(),
        );
        let mut probed = ProbedExecutor::new(FloatConvExecutor, CollectingProbe::default());
        probed.begin_pass();
        let y = probed.conv(&ctx(&w, g, None), &x);
        let want = FloatConvExecutor.conv(&ctx(&w, g, None), &x);
        assert_eq!(y.as_slice(), want.as_slice(), "probing must not change the math");
        assert_eq!(probed.probe.passes, 1);
        assert_eq!(probed.probe.layers.len(), 1);
        assert_eq!(probed.probe.layers[0].0, "C1");
        assert_eq!(probed.probe.layers[0].1, 1, "batch size observed");
        // Second pass resets the per-pass observations.
        probed.begin_pass();
        assert_eq!(probed.probe.passes, 2);
        assert!(probed.probe.layers.is_empty());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let g = ConvGeom::new(1, 2, 2, 2, 1, 1, 0);
        let mut y = Tensor::<f32>::zeros(g.output_shape(1));
        add_bias(&mut y, &[1.0, -2.0], &g);
        assert_eq!(&y.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.0; 4]);
    }
}

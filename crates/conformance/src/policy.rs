//! Per-layer precision-policy conformance: the routed oracle, a routed
//! real-engine executor, and the policy-aware publish gate.
//!
//! `odq-serve`'s `PolicyExecutor` dispatches each conv layer to the engine
//! its [`PrecisionPolicy`] route names. This module pins that composition
//! to the scalar reference from two independent directions:
//!
//! * [`PolicyOracleExecutor`] composes the *scalar per-path oracles*
//!   layer-by-layer: each conv is computed by the `ref_*` transcription of
//!   its route's arithmetic, so a whole-model forward under a mixed policy
//!   has a golden answer that never touches engine code.
//! * [`RoutedEngine`] composes the *real engines* layer-by-layer, each
//!   route built exactly as the serving path builds it (same
//!   constructors, same configurations, shared [`PlanCache`]). Because
//!   every engine quantizes per layer with batch-independent scales,
//!   routing layer `L` to engine `E` inside a mixed forward is bit-
//!   identical to layer `L`'s output in a whole-model forward under `E`
//!   alone — the differential sweep in `tests/conformance.rs` proves the
//!   mixed forward equals the stitched single-engine outputs.
//! * [`PolicyOracleGate`] is the registry door for policy-published
//!   versions: a candidate must forward bit-identically to the routed
//!   oracle *under its policy* before it becomes routable.

use std::sync::Arc;

use odq_core::engine::OdqEngine;
use odq_core::odq_conv::OdqCfg;
use odq_drq::{DrqCfg, DrqEngine};
use odq_nn::executor::{ConvCtx, ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq_nn::models::Model;
use odq_nn::policy::{PrecisionPolicy, Route};
use odq_quant::plan::PlanCache;
use odq_registry::PublishGate;
use odq_tensor::Tensor;

use crate::oracle::{
    ref_add_bias, ref_conv2d, ref_drq_conv2d, ref_odq_conv2d, ref_qconv2d_affine,
    ref_quantize_activation, ref_quantize_weights, ref_quantize_weights_symmetric, RefQuant,
};
use crate::runner::compare;

/// The DRQ configuration a [`Route::Drq`] describes.
fn drq_cfg(hi_bits: u8, lo_bits: u8, a_clip: f32, region: u32, input_threshold: f32) -> DrqCfg {
    DrqCfg { hi_bits, lo_bits, a_clip, region: region as usize, input_threshold }
}

/// A [`ConvExecutor`] computing every conv with the scalar oracle of the
/// route its policy assigns — the golden forward for a mixed-precision
/// model.
pub struct PolicyOracleExecutor {
    /// The per-layer route table.
    pub policy: Arc<PrecisionPolicy>,
}

impl ConvExecutor for PolicyOracleExecutor {
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        assert!(ctx.qat.is_none(), "oracle executor does not model QAT layers");
        let g = ctx.geom;
        let n = x.dims()[0];
        let (xs, ws) = (x.as_slice(), ctx.weights.as_slice());
        let out = match self.policy.route_for(ctx.name) {
            Route::Float => ref_conv2d(xs, ws, ctx.bias, n, &g),
            Route::Static { w_bits, a_bits, a_clip } => {
                let qx = ref_quantize_activation(xs, a_bits, a_clip);
                let qw: RefQuant = if w_bits > 15 {
                    ref_quantize_weights_symmetric(ws, w_bits)
                } else {
                    ref_quantize_weights(ws, w_bits)
                };
                let mut o = ref_qconv2d_affine(&qx, &qw, n, &g);
                if let Some(b) = ctx.bias {
                    ref_add_bias(&mut o, b, n, &g);
                }
                o
            }
            // `sparse` only skips instrumentation, never changes the values.
            Route::Odq { threshold, sparse: _ } => {
                ref_odq_conv2d(xs, ws, ctx.bias, n, &g, &OdqCfg::int4(threshold)).output
            }
            Route::Drq { hi_bits, lo_bits, a_clip, region, input_threshold } => {
                let cfg = drq_cfg(hi_bits, lo_bits, a_clip, region, input_threshold);
                ref_drq_conv2d(xs, ws, ctx.bias, n, &g, &cfg).output
            }
        };
        Tensor::from_vec(g.output_shape(n), out)
    }
}

/// A [`ConvExecutor`] routing each conv layer to a *real* engine built the
/// way the serving path builds it — the conformance-side twin of
/// `odq_serve::PolicyExecutor` (which this crate cannot depend on without
/// a cycle). One engine per distinct route, lazily built, all sharing one
/// [`PlanCache`].
pub struct RoutedEngine {
    policy: Arc<PrecisionPolicy>,
    plans: Arc<PlanCache>,
    engines: Vec<(Route, Box<dyn ConvExecutor>)>,
}

impl RoutedEngine {
    /// A routed engine over `policy` with a fresh shared plan cache.
    pub fn new(policy: Arc<PrecisionPolicy>) -> Self {
        Self { policy, plans: Arc::new(PlanCache::new()), engines: Vec::new() }
    }

    /// Build the real engine for one route, mirroring the serving path's
    /// constructors and configurations exactly.
    pub fn build_route(route: Route, plans: Arc<PlanCache>) -> Box<dyn ConvExecutor> {
        match route {
            Route::Float => Box::new(FloatConvExecutor),
            Route::Static { w_bits, a_bits, a_clip } => {
                Box::new(StaticQuantExecutor::with_plan_cache(w_bits, a_bits, a_clip, plans))
            }
            Route::Odq { threshold, sparse } => {
                let mut e = OdqEngine::with_plan_cache(threshold, plans);
                e.sparse = sparse;
                Box::new(e)
            }
            Route::Drq { hi_bits, lo_bits, a_clip, region, input_threshold } => {
                Box::new(DrqEngine::with_plan_cache(
                    drq_cfg(hi_bits, lo_bits, a_clip, region, input_threshold),
                    plans,
                ))
            }
        }
    }

    fn engine_for(&mut self, name: &str) -> &mut Box<dyn ConvExecutor> {
        let route = self.policy.route_for(name);
        let i = match self.engines.iter().position(|(r, _)| *r == route) {
            Some(i) => i,
            None => {
                self.engines.push((route, Self::build_route(route, Arc::clone(&self.plans))));
                self.engines.len() - 1
            }
        };
        &mut self.engines[i].1
    }
}

impl ConvExecutor for RoutedEngine {
    fn begin_pass(&mut self) {
        for (_, e) in &mut self.engines {
            e.begin_pass();
        }
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        self.engine_for(ctx.name).conv(ctx, x)
    }
}

/// A [`PublishGate`] for policy-published versions: forwards a
/// deterministic probe batch through the candidate twice — once on the
/// [`RoutedEngine`] (real engines, routed per layer), once on the
/// [`PolicyOracleExecutor`] (scalar oracles, routed per layer) — and
/// rejects the publish unless the logits agree bit-for-bit. Gating a
/// registry with this and publishing via `publish_with_policy` means a
/// version that becomes routable has already proven its *mixed-precision*
/// serving arithmetic conformant, route by route.
#[derive(Clone, Debug)]
pub struct PolicyOracleGate {
    /// The policy the candidate will be served under.
    pub policy: Arc<PrecisionPolicy>,
    /// Probe batch size (≥1; each sample gets a distinct input pattern).
    pub probes: usize,
}

impl PolicyOracleGate {
    /// Gate under `policy` with a 2-sample probe.
    pub fn new(policy: Arc<PrecisionPolicy>) -> Self {
        Self { policy, probes: 2 }
    }
}

impl PublishGate for PolicyOracleGate {
    fn label(&self) -> &str {
        "policy-oracle-conformance"
    }

    fn check(&self, _name: &str, model: &mut Model) -> Result<(), String> {
        self.policy.validate(model).map_err(|e| format!("policy does not fit candidate: {e}"))?;
        let qat = model.cfg.qat;
        model.set_qat(None);
        let x =
            crate::gate::probe_input(self.probes.max(1), model.cfg.in_channels, model.cfg.input_hw);
        let engine_out = model.forward_eval(&x, &mut RoutedEngine::new(Arc::clone(&self.policy)));
        let oracle_out =
            model.forward_eval(&x, &mut PolicyOracleExecutor { policy: Arc::clone(&self.policy) });
        model.set_qat(qat);

        let div = compare(oracle_out.as_slice(), engine_out.as_slice());
        if div.max_ulp == 0 {
            Ok(())
        } else {
            Err(format!(
                "policy-routed logits diverge from the routed scalar oracle: max {} ulp \
                 (abs {:.3e}) at flat index {}",
                div.max_ulp, div.max_abs, div.worst_index
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odq_nn::models::ModelCfg;
    use odq_nn::Arch;
    use odq_registry::ModelRegistry;

    fn model() -> Model {
        let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
        cfg.input_hw = 8;
        cfg.in_channels = 1;
        Model::build(cfg)
    }

    fn mixed_policy() -> Arc<PrecisionPolicy> {
        Arc::new(
            PrecisionPolicy::uniform(Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 })
                .with("C1", Route::Odq { threshold: 0.3, sparse: false })
                .with("C2", Route::Float),
        )
    }

    #[test]
    fn routed_engine_matches_routed_oracle_bit_exactly() {
        let policy = mixed_policy();
        let m = model();
        let x = crate::gate::probe_input(2, m.cfg.in_channels, m.cfg.input_hw);
        let engine = m.forward_eval(&x, &mut RoutedEngine::new(Arc::clone(&policy)));
        let oracle = m.forward_eval(&x, &mut PolicyOracleExecutor { policy });
        let div = compare(oracle.as_slice(), engine.as_slice());
        assert_eq!(div.max_ulp, 0, "max {} ulp at {}", div.max_ulp, div.worst_index);
    }

    #[test]
    fn policy_gate_accepts_conformant_candidate_and_rejects_bad_policy() {
        let reg = ModelRegistry::gated(PolicyOracleGate::new(mixed_policy()));
        assert_eq!(reg.publish("lenet", model(), vec![]).unwrap(), 1);

        let bad = Arc::new(
            PrecisionPolicy::uniform(Route::Float)
                .with("C99", Route::Odq { threshold: 0.3, sparse: false }),
        );
        let reg = ModelRegistry::gated(PolicyOracleGate::new(bad));
        assert!(reg.publish("lenet", model(), vec![]).is_err());
    }
}

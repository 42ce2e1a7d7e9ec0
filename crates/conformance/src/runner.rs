//! Differential runner: one layer spec, every engine path, one oracle.
//!
//! [`run_layer_diff`] generates deterministic inputs/weights from a seed,
//! executes every convolution path in the workspace — per-call kernels,
//! planned drivers (the ODQ kernel among them), and the
//! `ConvExecutor`-level engine forwards — and compares each against the
//! scalar oracle in [`crate::oracle`], reporting per-element max ulp/abs
//! divergence. [`minimize`] shrinks a failing spec to a smallest still-
//! failing geometry for triage.

use odq_core::engine::OdqEngine;
use odq_core::odq_conv::{odq_conv2d, odq_conv2d_planned, odq_conv2d_planned_on, OdqCfg};
use odq_drq::drq_conv::{drq_conv2d, drq_conv2d_planned, drq_conv2d_planned_on, DrqCfg};
use odq_drq::DrqEngine;
use odq_nn::executor::{add_bias, ConvCtx, ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq_quant::plan::{PlanCache, PlanSpec};
use odq_quant::qconv::{qconv2d, qconv2d_planned, qconv2d_planned_on};
use odq_quant::{quantize_activation, quantize_weights, quantize_weights_symmetric};
use odq_tensor::conv::conv2d;
use odq_tensor::gemm::Kernel;
use odq_tensor::{ConvGeom, Tensor};

use crate::oracle::{
    ref_add_bias, ref_conv2d, ref_drq_conv2d, ref_odq_conv2d, ref_qconv2d_affine,
    ref_quantize_activation, ref_quantize_weights, ref_quantize_weights_symmetric, RefQuant,
};

/// One differential test case: a conv geometry plus deterministic data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerSpec {
    /// Convolution geometry.
    pub geom: ConvGeom,
    /// Batch size.
    pub batch: usize,
    /// Seed for the deterministic input/weight/bias generators.
    pub seed: u64,
    /// Whether a per-channel bias is supplied.
    pub with_bias: bool,
}

impl LayerSpec {
    /// ODQ threshold for this case (varied by seed so the sweep covers
    /// mostly-sensitive, mixed and mostly-insensitive masks).
    pub fn odq_threshold(&self) -> f32 {
        [0.1, 0.3, 0.6][(self.seed % 3) as usize]
    }

    /// DRQ configuration for this case (alternates the paper's 8→4 and
    /// 4→2 pairs).
    pub fn drq_cfg(&self) -> DrqCfg {
        if self.seed.is_multiple_of(2) {
            DrqCfg::int8_int4(0.25)
        } else {
            DrqCfg::int4_int2(0.25)
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fill_unit(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..n).map(|_| (splitmix(&mut s) >> 40) as f32 / (1u64 << 24) as f32).collect()
}

fn fill_signed(n: usize, seed: u64) -> Vec<f32> {
    fill_unit(n, seed).into_iter().map(|v| 2.0 * v - 1.0).collect()
}

/// Deterministic activation tensor for a spec (`[batch, Ci, H, W]`,
/// values in `[0, 1)` — the post-clipped-ReLU domain the engines expect).
pub fn gen_input(spec: &LayerSpec) -> Tensor {
    let g = &spec.geom;
    let n = spec.batch * g.in_channels * g.in_h * g.in_w;
    Tensor::from_vec(g.input_shape(spec.batch), fill_unit(n, spec.seed ^ 0xA11CE))
}

/// Deterministic weight tensor for a spec (`[Co, Ci, K, K]`, values in
/// `(-1, 1)`).
pub fn gen_weights(spec: &LayerSpec) -> Tensor {
    let g = &spec.geom;
    let n = g.out_channels * g.col_len();
    Tensor::from_vec(
        [g.out_channels, g.in_channels, g.kernel, g.kernel],
        fill_signed(n, spec.seed ^ 0xB0B),
    )
}

/// Deterministic bias for a spec, `None` when the spec says so.
pub fn gen_bias(spec: &LayerSpec) -> Option<Vec<f32>> {
    spec.with_bias.then(|| fill_signed(spec.geom.out_channels, spec.seed ^ 0xC0FFEE))
}

/// How strictly a path must agree with the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathClass {
    /// Integer-arithmetic path: must be bit-exact (0 ulp) and any masks
    /// must match exactly.
    Integer,
    /// f32-accumulation path: up to 1 ulp of reduction-order headroom.
    Float,
}

/// Per-element divergence summary between oracle and engine outputs.
#[derive(Clone, Copy, Debug)]
pub struct Divergence {
    /// Largest absolute difference.
    pub max_abs: f32,
    /// Largest ulp distance (`u64::MAX` for NaN disagreement).
    pub max_ulp: u64,
    /// Flat index of the worst element.
    pub worst_index: usize,
    /// `(oracle, engine)` values at the worst element.
    pub worst_pair: (f32, f32),
}

/// Ulp distance between two f32 values. Equal values (including `+0`/`-0`)
/// are 0; any NaN disagreement is `u64::MAX`.
pub fn ulp_diff(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn key(x: f32) -> i64 {
        let b = x.to_bits();
        if b & 0x8000_0000 == 0 {
            b as i64
        } else {
            -((b & 0x7fff_ffff) as i64)
        }
    }
    (key(a) - key(b)).unsigned_abs()
}

/// Element-wise comparison of an engine output against the oracle.
pub fn compare(oracle: &[f32], engine: &[f32]) -> Divergence {
    assert_eq!(oracle.len(), engine.len(), "output length mismatch");
    let mut d = Divergence { max_abs: 0.0, max_ulp: 0, worst_index: 0, worst_pair: (0.0, 0.0) };
    for (i, (&o, &e)) in oracle.iter().zip(engine).enumerate() {
        let u = ulp_diff(o, e);
        if u > d.max_ulp {
            d.max_ulp = u;
            d.worst_index = i;
            d.worst_pair = (o, e);
        }
        d.max_abs = d.max_abs.max((o - e).abs());
    }
    d
}

/// One engine path's agreement with the oracle.
#[derive(Clone, Debug)]
pub struct PathReport {
    /// Path label, e.g. `"odq/planned"`.
    pub path: &'static str,
    /// Strictness class.
    pub class: PathClass,
    /// Output divergence.
    pub divergence: Divergence,
    /// Mask positions where engine and oracle disagree (sensitivity or
    /// input masks; 0 for paths without masks).
    pub mask_mismatches: usize,
}

impl PathReport {
    /// Whether this path meets its class's bound.
    pub fn ok(&self) -> bool {
        let ulp_ok = match self.class {
            PathClass::Integer => self.divergence.max_ulp == 0,
            PathClass::Float => self.divergence.max_ulp <= 1,
        };
        ulp_ok && self.mask_mismatches == 0
    }
}

/// Full differential report for one spec.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// The spec that was run.
    pub spec: LayerSpec,
    /// One entry per engine path.
    pub paths: Vec<PathReport>,
}

impl DiffReport {
    /// Paths that violated their divergence bound.
    pub fn failures(&self) -> Vec<&PathReport> {
        self.paths.iter().filter(|p| !p.ok()).collect()
    }

    /// Whether every path met its bound.
    pub fn ok(&self) -> bool {
        self.paths.iter().all(|p| p.ok())
    }

    /// Human-readable table for `conformance_check` / failure messages.
    pub fn render(&self) -> String {
        let g = &self.spec.geom;
        let mut s = format!(
            "spec: {}x{}x{}x{} k{} s{} p{} co{} batch {} seed {} bias {}\n",
            self.spec.batch,
            g.in_channels,
            g.in_h,
            g.in_w,
            g.kernel,
            g.stride,
            g.padding,
            g.out_channels,
            self.spec.batch,
            self.spec.seed,
            self.spec.with_bias,
        );
        for p in &self.paths {
            let d = &p.divergence;
            s.push_str(&format!(
                "  {:6} {:22} max_ulp {:>3} max_abs {:>12.3e} mask_mism {:>4}  worst[{}] oracle {:.9e} engine {:.9e}\n",
                if p.ok() { "ok" } else { "FAIL" },
                p.path,
                d.max_ulp,
                d.max_abs,
                p.mask_mismatches,
                d.worst_index,
                d.worst_pair.0,
                d.worst_pair.1,
            ));
        }
        s
    }
}

fn mask_mismatch(a: &[bool], b: &[bool]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

fn report(
    path: &'static str,
    class: PathClass,
    oracle: &[f32],
    engine: &[f32],
    mask_mismatches: usize,
) -> PathReport {
    PathReport { path, class, divergence: compare(oracle, engine), mask_mismatches }
}

/// Run every engine path for one spec against the scalar oracle.
pub fn run_layer_diff(spec: &LayerSpec) -> DiffReport {
    let g = spec.geom;
    let n = spec.batch;
    let x = gen_input(spec);
    let w = gen_weights(spec);
    let bias_v = gen_bias(spec);
    let bias = bias_v.as_deref();
    let ctx = ConvCtx { name: "conformance", geom: g, weights: &w, bias, qat: None };
    let mut paths = Vec::new();

    // --- float reference path -------------------------------------------
    let oracle_f32 = ref_conv2d(x.as_slice(), w.as_slice(), bias, n, &g);
    let y = conv2d(&x, &w, bias, &g);
    paths.push(report("float/conv2d", PathClass::Float, &oracle_f32, y.as_slice(), 0));
    let y = FloatConvExecutor.conv(&ctx, &x);
    paths.push(report("float/executor", PathClass::Float, &oracle_f32, y.as_slice(), 0));

    // --- static: 8-bit activations against offset-binary INT8 (i32
    // accumulation), offset-binary 9-bit (i64 with a zero point) and
    // symmetric INT16 (i64) weights — both sides of the cutover ---------
    let static_oracle = |qw: RefQuant| {
        let qx = ref_quantize_activation(x.as_slice(), 8, 1.0);
        let mut o = ref_qconv2d_affine(&qx, &qw, n, &g);
        if let Some(b) = bias {
            ref_add_bias(&mut o, b, n, &g);
        }
        o
    };
    let oracle_s8 = static_oracle(ref_quantize_weights(w.as_slice(), 8));
    let qx = quantize_activation(&x, 8, 1.0);
    let qw = quantize_weights(&w, 8);
    let with_b = |mut y: Tensor| {
        if let Some(b) = bias {
            add_bias(&mut y, b, &g);
        }
        y
    };
    let y = with_b(qconv2d(&qx, &qw, &g));
    paths.push(report("static8/qconv2d", PathClass::Integer, &oracle_s8, y.as_slice(), 0));
    let plans = PlanCache::new();
    let plan = plans.plan_for("conformance", &w, PlanSpec::static_quant(8));
    let y = with_b(qconv2d_planned(&qx, &plan, &g, plans.pool()));
    paths.push(report("static8/planned", PathClass::Integer, &oracle_s8, y.as_slice(), 0));
    for kernel in Kernel::supported() {
        let y = with_b(qconv2d_planned_on(&qx, &plan, &g, plans.pool(), kernel));
        let label = body_label("static8", kernel);
        paths.push(report(label, PathClass::Integer, &oracle_s8, y.as_slice(), 0));
    }
    let y = StaticQuantExecutor::int(8).conv(&ctx, &x);
    paths.push(report("static8/executor", PathClass::Integer, &oracle_s8, y.as_slice(), 0));

    let oracle_s9 = static_oracle(ref_quantize_weights(w.as_slice(), 9));
    let y = with_b(qconv2d(&qx, &quantize_weights(&w, 9), &g));
    paths.push(report("static9/qconv2d-wide", PathClass::Integer, &oracle_s9, y.as_slice(), 0));
    let y = StaticQuantExecutor::with_bits(9, 8, 1.0).conv(&ctx, &x);
    paths.push(report("static9/executor", PathClass::Integer, &oracle_s9, y.as_slice(), 0));

    let oracle_s16 = static_oracle(ref_quantize_weights_symmetric(w.as_slice(), 16));
    let qw16 = quantize_weights_symmetric(&w, 16);
    let y = with_b(qconv2d(&qx, &qw16, &g));
    paths.push(report("static16/qconv2d-wide", PathClass::Integer, &oracle_s16, y.as_slice(), 0));
    let y = StaticQuantExecutor::with_bits(16, 8, 1.0).conv(&ctx, &x);
    paths.push(report("static16/executor", PathClass::Integer, &oracle_s16, y.as_slice(), 0));

    // --- ODQ: per-call, planned kernel, engines --------------------------
    let cfg = OdqCfg::int4(spec.odq_threshold());
    let oracle_odq = ref_odq_conv2d(x.as_slice(), w.as_slice(), bias, n, &g, &cfg);
    let per_call = odq_conv2d(&x, &w, bias, &g, &cfg);
    let plans = PlanCache::new();
    let plan = plans.plan_for("conformance", &w, PlanSpec::odq(cfg.w_bits, cfg.low_bits));
    let qx4 = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
    let planned = odq_conv2d_planned(&qx4, &plan, bias, &g, &cfg, plans.pool());
    for (label, out, mask) in [
        ("odq/per-call", &per_call.output, &per_call.mask),
        ("odq/planned", &planned.output, &planned.mask),
    ] {
        let mm = mask_mismatch(&oracle_odq.mask, mask.bits());
        paths.push(report(label, PathClass::Integer, &oracle_odq.output, out.as_slice(), mm));
    }
    for kernel in Kernel::supported() {
        let r = odq_conv2d_planned_on(&qx4, &plan, bias, &g, &cfg, plans.pool(), kernel);
        let mm = mask_mismatch(&oracle_odq.mask, r.mask.bits());
        let label = body_label("odq", kernel);
        paths.push(report(label, PathClass::Integer, &oracle_odq.output, r.output.as_slice(), mm));
    }
    // The per-call form also returns the exact-INT4 reference; pin it too.
    paths.push(report(
        "odq/reference",
        PathClass::Integer,
        &oracle_odq.reference,
        per_call.reference.as_slice(),
        0,
    ));
    let mut engine = OdqEngine::new(cfg.threshold);
    let y = engine.conv(&ctx, &x);
    paths.push(report("odq/engine", PathClass::Integer, &oracle_odq.output, y.as_slice(), 0));
    let mut engine = OdqEngine::new(cfg.threshold);
    engine.sparse = true;
    let y = engine.conv(&ctx, &x);
    paths.push(report(
        "odq/engine-sparse",
        PathClass::Integer,
        &oracle_odq.output,
        y.as_slice(),
        0,
    ));

    // --- DRQ: per-call, planned, engine ---------------------------------
    let dcfg = spec.drq_cfg();
    let oracle_drq = ref_drq_conv2d(x.as_slice(), w.as_slice(), bias, n, &g, &dcfg);
    let r = drq_conv2d(&x, &w, bias, &g, &dcfg);
    let mm = mask_mismatch(&oracle_drq.input_mask, &r.input_mask);
    paths.push(report(
        "drq/drq_conv2d",
        PathClass::Integer,
        &oracle_drq.output,
        r.output.as_slice(),
        mm,
    ));
    let plans = PlanCache::new();
    let plan = plans.plan_for("conformance", &w, PlanSpec::drq(dcfg.hi_bits, dcfg.lo_bits));
    let r = drq_conv2d_planned(&x, &plan, bias, &g, &dcfg, plans.pool());
    let mm = mask_mismatch(&oracle_drq.input_mask, &r.input_mask);
    paths.push(report(
        "drq/planned",
        PathClass::Integer,
        &oracle_drq.output,
        r.output.as_slice(),
        mm,
    ));
    for kernel in Kernel::supported() {
        let r = drq_conv2d_planned_on(&x, &plan, bias, &g, &dcfg, plans.pool(), kernel);
        let mm = mask_mismatch(&oracle_drq.input_mask, &r.input_mask);
        let label = body_label("drq", kernel);
        paths.push(report(label, PathClass::Integer, &oracle_drq.output, r.output.as_slice(), mm));
    }
    let mut engine = DrqEngine::new(dcfg);
    let y = engine.conv(&ctx, &x);
    paths.push(report("drq/engine", PathClass::Integer, &oracle_drq.output, y.as_slice(), 0));

    DiffReport { spec: *spec, paths }
}

/// The label of a planned path forced onto one kernel body, e.g.
/// `"odq/planned-avx2"`. The unsuffixed `…/planned` paths run the body the
/// CPU detection picks.
fn body_label(route: &str, kernel: Kernel) -> &'static str {
    match (route, kernel.name()) {
        ("static8", "portable") => "static8/planned-portable",
        ("static8", "avx2") => "static8/planned-avx2",
        ("odq", "portable") => "odq/planned-portable",
        ("odq", "avx2") => "odq/planned-avx2",
        ("drq", "portable") => "drq/planned-portable",
        ("drq", "avx2") => "drq/planned-avx2",
        _ => unreachable!("no conformance label for {route} on {}", kernel.name()),
    }
}

/// Shrink a failing spec toward a smallest still-failing one by greedily
/// trying dimension reductions (batch → 1, fewer channels, smaller
/// spatial extent, kernel → 1, padding → 0, stride → 1) and keeping any
/// candidate that still fails. Returns the input unchanged if it passes.
pub fn minimize(spec: &LayerSpec) -> LayerSpec {
    if run_layer_diff(spec).ok() {
        return *spec;
    }
    let mut cur = *spec;
    loop {
        let g = cur.geom;
        let mut candidates: Vec<LayerSpec> = Vec::new();
        if cur.batch > 1 {
            candidates.push(LayerSpec { batch: 1, ..cur });
            candidates.push(LayerSpec { batch: cur.batch / 2, ..cur });
        }
        if cur.with_bias {
            candidates.push(LayerSpec { with_bias: false, ..cur });
        }
        let mut geoms: Vec<ConvGeom> = Vec::new();
        if g.in_channels > 1 {
            geoms.push(ConvGeom { in_channels: (g.in_channels / 2).max(1), ..g });
        }
        if g.out_channels > 1 {
            geoms.push(ConvGeom { out_channels: (g.out_channels / 2).max(1), ..g });
        }
        for (h, w) in [(g.in_h / 2, g.in_w), (g.in_h, g.in_w / 2), (g.kernel, g.kernel)] {
            if h >= 1
                && w >= 1
                && (h, w) != (g.in_h, g.in_w)
                && h + 2 * g.padding >= g.kernel
                && w + 2 * g.padding >= g.kernel
            {
                geoms.push(ConvGeom { in_h: h, in_w: w, ..g });
            }
        }
        if g.kernel > 1 {
            geoms.push(ConvGeom { kernel: 1, padding: 0, ..g });
        }
        if g.padding > 0 {
            geoms.push(ConvGeom { padding: 0, ..g });
        }
        if g.stride > 1 {
            geoms.push(ConvGeom { stride: 1, ..g });
        }
        candidates.extend(geoms.into_iter().map(|geom| LayerSpec { geom, ..cur }));
        let next = candidates.into_iter().find(|c| !run_layer_diff(c).ok());
        match next {
            Some(c) => cur = c,
            None => return cur,
        }
    }
}

/// The per-engine oracle executor: a [`ConvExecutor`] whose every conv is
/// computed by the scalar oracle. Running a whole model through
/// `Model::forward_eval` with this executor gives an end-to-end golden
/// forward whose only difference from an engine forward is the conv
/// arithmetic — which is how the serve round-trip is pinned to the
/// oracle.
pub struct OracleExecutor {
    /// Which engine's arithmetic to mirror.
    pub kind: OracleKind,
}

/// Which serving engine an [`OracleExecutor`] mirrors. Matches
/// `odq_serve::EngineKind`'s configurations (activation clip 1.0 for the
/// static engine, the paper's 8→4 DRQ pair, ODQ's 4/2-bit split).
#[derive(Clone, Copy, Debug)]
pub enum OracleKind {
    /// Float reference.
    Float,
    /// Static INT-k (offset-binary ≤15 bits, symmetric at 16).
    Static {
        /// Weight and activation bit width.
        bits: u8,
    },
    /// Output-directed dynamic quantization.
    Odq {
        /// Sensitivity threshold.
        threshold: f32,
    },
    /// Input-directed DRQ baseline (the paper's 8→4 configuration).
    Drq {
        /// Input-region sensitivity threshold.
        input_threshold: f32,
    },
}

impl ConvExecutor for OracleExecutor {
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        assert!(ctx.qat.is_none(), "oracle executor does not model QAT layers");
        let g = ctx.geom;
        let n = x.dims()[0];
        let (xs, ws) = (x.as_slice(), ctx.weights.as_slice());
        let out = match self.kind {
            OracleKind::Float => ref_conv2d(xs, ws, ctx.bias, n, &g),
            OracleKind::Static { bits } => {
                let qx = ref_quantize_activation(xs, bits, 1.0);
                let qw: RefQuant = if bits > 15 {
                    ref_quantize_weights_symmetric(ws, bits)
                } else {
                    ref_quantize_weights(ws, bits)
                };
                let mut o = ref_qconv2d_affine(&qx, &qw, n, &g);
                if let Some(b) = ctx.bias {
                    ref_add_bias(&mut o, b, n, &g);
                }
                o
            }
            OracleKind::Odq { threshold } => {
                ref_odq_conv2d(xs, ws, ctx.bias, n, &g, &OdqCfg::int4(threshold)).output
            }
            OracleKind::Drq { input_threshold } => {
                ref_drq_conv2d(xs, ws, ctx.bias, n, &g, &DrqCfg::int8_int4(input_threshold)).output
            }
        };
        Tensor::from_vec(g.output_shape(n), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(-1.0, f32::from_bits((-1.0f32).to_bits() + 1)), 1);
        assert!(ulp_diff(1.0, f32::NAN) == u64::MAX);
        // Straddling zero: distance counts grid steps through both signs.
        assert_eq!(ulp_diff(f32::from_bits(1), -f32::from_bits(1)), 2);
    }

    #[test]
    fn a_small_spec_passes_every_path() {
        let spec = LayerSpec {
            geom: ConvGeom::new(2, 3, 5, 4, 3, 1, 1),
            batch: 2,
            seed: 7,
            with_bias: true,
        };
        let r = run_layer_diff(&spec);
        assert!(r.ok(), "unexpected divergence:\n{}", r.render());
    }

    #[test]
    fn minimize_returns_passing_spec_unchanged() {
        let spec = LayerSpec {
            geom: ConvGeom::new(1, 1, 3, 3, 1, 1, 0),
            batch: 1,
            seed: 1,
            with_bias: false,
        };
        assert_eq!(minimize(&spec), spec);
    }
}

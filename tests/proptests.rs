//! Property-based tests on the core invariants of the reproduction.

use odq::core::odq_conv::odq_conv2d_planned;
use odq::core::{odq_conv2d, OdqCfg};
use odq::nn::executor::add_bias;
use odq::quant::plan::{PlanSpec, QConvPlan};
use odq::quant::qconv::{qconv2d, qconv2d_codes, qconv2d_with, receptive_sums};
use odq::quant::{join_planes, quantize_activation, quantize_weights, split_codes, split_qtensor};
use odq::tensor::im2col::{col2im, im2col};
use odq::tensor::workspace::WorkspacePool;
use odq::tensor::{ConvGeom, Tensor};
use odq_conformance::oracle::ref_odq_conv2d;
use odq_conformance::runner::{gen_bias, gen_input, gen_weights};
use odq_conformance::LayerSpecStrategy;
use proptest::prelude::*;

fn pseudo_unit(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 1000.0)
        .collect()
}

fn pseudo_signed(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(40503).wrapping_add(seed) % 1000) as f32 / 500.0 - 1.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantize→dequantize error is bounded by half a quantization step,
    /// for any activation values and bit width.
    #[test]
    fn activation_roundtrip_bounded(
        values in prop::collection::vec(0.0f32..1.0, 1..128),
        bits in 2u8..=8,
    ) {
        let x = Tensor::from_vec([values.len()], values);
        let q = quantize_activation(&x, bits, 1.0);
        let err = q.dequantize().max_abs_diff(&x);
        prop_assert!(err <= 0.5 * q.scale + 1e-6, "err {} > step/2 {}", err, 0.5 * q.scale);
    }

    /// Offset-binary weight roundtrip error is bounded by half a step, and
    /// every code is in range.
    #[test]
    fn weight_roundtrip_bounded(
        values in prop::collection::vec(-2.0f32..2.0, 1..128),
        bits in 2u8..=8,
    ) {
        let w = Tensor::from_vec([values.len()], values);
        let q = quantize_weights(&w, bits);
        prop_assert!(q.codes_in_range());
        let err = q.dequantize().max_abs_diff(&w);
        prop_assert!(err <= 0.5 * q.scale + 1e-5);
    }

    /// Bit-plane split/join is the identity on arbitrary i16 codes.
    #[test]
    fn split_join_roundtrip(
        codes in prop::collection::vec(-256i16..256, 1..200),
        low_bits in 1u8..8,
    ) {
        let (h, l) = split_codes(&codes, low_bits, true);
        prop_assert_eq!(join_planes(&h, &l, low_bits), codes);
    }

    /// Eq. 3 plane decomposition of the convolution is exact for any
    /// quantized operands.
    #[test]
    fn plane_conv_decomposition_exact(
        xseed in 0u32..1000,
        wseed in 0u32..1000,
        channels in 1usize..4,
        filters in 1usize..4,
    ) {
        let g = ConvGeom::new(channels, filters, 5, 5, 3, 1, 1);
        let xs: Vec<f32> = (0..channels * 25)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(xseed) % 1000) as f32 / 1000.0)
            .collect();
        let ws: Vec<f32> = (0..filters * channels * 9)
            .map(|i| ((i as u32).wrapping_mul(40503).wrapping_add(wseed) % 1000) as f32 / 500.0 - 1.0)
            .collect();
        let qx = quantize_activation(&Tensor::from_vec(g.input_shape(1), xs), 4, 1.0);
        let qw = quantize_weights(&Tensor::from_vec(g.weight_shape(), ws), 4);
        let full = qconv2d_codes(&qx.codes, &qw.codes, &g);
        let (xp, wp) = (split_qtensor(&qx, 2), split_qtensor(&qw, 2));
        let hh = qconv2d_codes(&xp.high, &wp.high, &g);
        let hl = qconv2d_codes(&xp.high, &wp.low, &g);
        let lh = qconv2d_codes(&xp.low, &wp.high, &g);
        let ll = qconv2d_codes(&xp.low, &wp.low, &g);
        let rec: Vec<i32> = (0..full.numel())
            .map(|i| {
                let (hh, hl, lh, ll) =
                    (hh.as_slice()[i], hl.as_slice()[i], lh.as_slice()[i], ll.as_slice()[i]);
                (hh << 4) + ((hl + lh) << 2) + ll
            })
            .collect();
        prop_assert_eq!(full.as_slice(), rec.as_slice());
    }

    /// im2col and col2im are adjoint: <im2col(x), y> == <x, col2im(y)>.
    #[test]
    fn im2col_adjoint(
        xs in prop::collection::vec(-4.0f32..4.0, 32),
        kernel in 1usize..=3,
        padding in 0usize..=1,
    ) {
        let g = ConvGeom::new(2, 1, 4, 4, kernel, 1, padding);
        let ys: Vec<f32> = (0..g.col_len() * g.out_spatial())
            .map(|i| ((i * 31 + 7) % 17) as f32 - 8.0)
            .collect();
        let ax = im2col(&xs, &g);
        let aty = col2im(&ys, &g);
        let lhs: f64 = ax.iter().zip(&ys).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = xs.iter().zip(&aty).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch {lhs} vs {rhs}");
    }

    /// Receptive sums equal a convolution with all-ones weights.
    #[test]
    fn receptive_sums_match_ones_conv(
        codes in prop::collection::vec(0i16..16, 18),
    ) {
        let g = ConvGeom::new(2, 1, 3, 3, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(1), codes);
        let ones = Tensor::full(g.weight_shape(), 1i16);
        let via_conv = qconv2d_codes(&x, &ones, &g);
        let sums = receptive_sums(&x, &g);
        prop_assert_eq!(via_conv.as_slice(), sums.as_slice());
    }

    /// ODQ sensitive count is monotone non-increasing in the threshold,
    /// and at threshold 0 everything is sensitive.
    #[test]
    fn odq_mask_monotone_in_threshold(seed in 0u32..500) {
        let g = ConvGeom::new(2, 3, 6, 6, 3, 1, 1);
        let xs: Vec<f32> = (0..2 * 36)
            .map(|i| ((i as u32).wrapping_mul(97).wrapping_add(seed) % 100) as f32 / 100.0)
            .collect();
        let ws: Vec<f32> = (0..3 * 2 * 9)
            .map(|i| ((i as u32).wrapping_mul(61).wrapping_add(seed) % 200) as f32 / 100.0 - 1.0)
            .collect();
        let x = Tensor::from_vec(g.input_shape(1), xs);
        let w = Tensor::from_vec(g.weight_shape(), ws);
        let mut last = usize::MAX;
        for thr in [0.0f32, 0.1, 0.3, 0.9] {
            let r = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(thr));
            let c = r.mask.sensitive_count();
            prop_assert!(c <= last);
            if thr == 0.0 {
                prop_assert_eq!(c, r.mask.len());
            }
            last = c;
        }
    }

    /// ODQ's sensitive outputs always equal the exact INT4 reference.
    #[test]
    fn odq_sensitive_outputs_exact(seed in 0u32..500, thr in 0.05f32..1.0) {
        let g = ConvGeom::new(2, 2, 5, 5, 3, 1, 1);
        let xs: Vec<f32> = (0..2 * 25)
            .map(|i| ((i as u32).wrapping_mul(137).wrapping_add(seed) % 100) as f32 / 100.0)
            .collect();
        let ws: Vec<f32> = (0..2 * 2 * 9)
            .map(|i| ((i as u32).wrapping_mul(211).wrapping_add(seed) % 200) as f32 / 100.0 - 1.0)
            .collect();
        let x = Tensor::from_vec(g.input_shape(1), xs);
        let w = Tensor::from_vec(g.weight_shape(), ws);
        let r = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(thr));
        for i in 0..r.mask.len() {
            if r.mask.bits()[i] {
                prop_assert!(
                    (r.output.as_slice()[i] - r.reference.as_slice()[i]).abs() < 1e-6
                );
            }
        }
    }

    /// Scheduler work conservation and dynamic dominance over static, for
    /// arbitrary workloads.
    #[test]
    fn scheduler_invariants(
        workloads in prop::collection::vec(0u32..64, 1..32),
        arrays in 1usize..12,
    ) {
        use odq::accel::sched::{schedule_dynamic, schedule_static, CYCLES_PER_SENSITIVE_OUTPUT};
        let st = schedule_static(&workloads, arrays);
        let dy = schedule_dynamic(&workloads, arrays);
        let total: u64 = workloads.iter().map(|&w| w as u64).sum();
        prop_assert_eq!(st.busy_cycles, total * CYCLES_PER_SENSITIVE_OUTPUT);
        prop_assert_eq!(dy.busy_cycles, st.busy_cycles);
        prop_assert!(dy.makespan <= st.makespan);
        // Lower bound: ceil(total / arrays) slots.
        let lower = total.div_ceil(arrays as u64) * CYCLES_PER_SENSITIVE_OUTPUT;
        prop_assert!(dy.makespan >= lower || total == 0);
    }

    /// Table 1 no-bubble bound: below it the simulated layer is
    /// predictor-bound; the bound itself is E/(3P).
    #[test]
    fn allocation_bound_property(p_extra in 0usize..5) {
        use odq::accel::alloc::{max_sensitive_fraction, Allocation};
        let p = 9 + 3 * p_extra.min(4);
        let a = Allocation::new(p, 27 - p);
        let s = max_sensitive_fraction(a);
        prop_assert!((s - (27 - p) as f64 / (3.0 * p as f64)).abs() < 1e-12);
    }

    /// Float conv through a *reused* workspace pool is bit-identical to a
    /// fresh-pool call, even as geometry and batch size change between
    /// lowerings (stale scratch from a previous shape must not leak).
    #[test]
    fn pooled_conv2d_bit_identical_across_geometries(
        seed in 0u32..500,
        n in 1usize..4,
        channels in 1usize..3,
        filters in 1usize..4,
        kernel in 1usize..=3,
        padding in 0usize..=1,
    ) {
        let pool = WorkspacePool::new();
        // Two different geometries back to back through the same pool.
        for (i, hw) in [5usize, 7].into_iter().enumerate() {
            let g = ConvGeom::new(channels, filters, hw, hw, kernel, 1, padding);
            let x = Tensor::from_vec(
                g.input_shape(n), pseudo_unit(n * channels * hw * hw, seed + i as u32));
            let w = Tensor::from_vec(
                g.weight_shape(), pseudo_signed(filters * channels * kernel * kernel, seed));
            let fresh = odq::tensor::conv::conv2d(&x, &w, None, &g);
            let pooled = odq::tensor::conv::conv2d_with(&x, &w, None, &g, &pool);
            prop_assert_eq!(fresh.as_slice(), pooled.as_slice());
        }
    }

    /// Quantized conv through a reused pool (fused products+sums path)
    /// matches the fresh-pool qconv2d bit for bit.
    #[test]
    fn pooled_qconv2d_bit_identical(
        seed in 0u32..500,
        n in 1usize..4,
        channels in 1usize..3,
        filters in 1usize..4,
        bits in 2u8..=8,
    ) {
        let g = ConvGeom::new(channels, filters, 6, 6, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(n), pseudo_unit(n * channels * 36, seed));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(filters * channels * 9, seed));
        let qx = quantize_activation(&x, bits, 1.0);
        let qw = quantize_weights(&w, bits);
        let fresh = qconv2d(&qx, &qw, &g);
        let pool = WorkspacePool::new();
        let a = qconv2d_with(&qx, &qw, &g, &pool);
        let b = qconv2d_with(&qx, &qw, &g, &pool); // reused scratch
        prop_assert_eq!(fresh.as_slice(), a.as_slice());
        prop_assert_eq!(fresh.as_slice(), b.as_slice());
    }

    /// The planned per-call kernel (prepacked weights, single lowering)
    /// agrees with the per-call wrapper for any geometry, batch size and
    /// threshold, through one pool reused across calls.
    #[test]
    fn planned_odq_conv_bit_identical_to_seed(
        seed in 0u32..500,
        n in 1usize..4,
        channels in 1usize..3,
        filters in 1usize..4,
        thr in 0.0f32..1.0,
    ) {
        let g = ConvGeom::new(channels, filters, 6, 6, 3, 1, 1);
        let x = Tensor::from_vec(g.input_shape(n), pseudo_unit(n * channels * 36, seed));
        let w = Tensor::from_vec(g.weight_shape(), pseudo_signed(filters * channels * 9, seed));
        let cfg = OdqCfg::int4(thr);
        let seed_out = odq_conv2d(&x, &w, None, &g, &cfg);

        let plan = QConvPlan::build(&w, PlanSpec::odq(cfg.w_bits, cfg.low_bits));
        let pool = WorkspacePool::new();
        let qx = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
        for _ in 0..2 {
            let planned = odq_conv2d_planned(&qx, &plan, None, &g, &cfg, &pool);
            prop_assert_eq!(seed_out.output.as_slice(), planned.output.as_slice());
            prop_assert_eq!(&seed_out.mask, &planned.mask);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The planned ODQ kernel matches the scalar oracle bit for bit — the
    /// output and the mask — at density 1 (threshold 0), at the spec's
    /// threshold, and at density 0 (threshold +∞), with one lowering per
    /// image.
    #[test]
    fn planned_odq_kernel_matches_scalar_oracle(spec in LayerSpecStrategy::default()) {
        let g = spec.geom;
        let (x, w, bias) = (gen_input(&spec), gen_weights(&spec), gen_bias(&spec));
        let plan = QConvPlan::build(&w, PlanSpec::odq(4, 2));
        let pool = WorkspacePool::new();
        for thr in [0.0, spec.odq_threshold(), f32::INFINITY] {
            let cfg = OdqCfg::int4(thr);
            let oracle =
                ref_odq_conv2d(x.as_slice(), w.as_slice(), bias.as_deref(), spec.batch, &g, &cfg);
            let qx = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
            pool.reset_lowerings();
            let r = odq_conv2d_planned(&qx, &plan, bias.as_deref(), &g, &cfg, &pool);
            prop_assert_eq!(pool.lowerings(), spec.batch as u64);
            let bits: Vec<u32> = r.output.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = oracle.output.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits, want, "output at threshold {}", thr);
            prop_assert_eq!(r.mask.bits(), oracle.mask.as_slice(), "mask at threshold {}", thr);
        }
    }

    /// Static convs match the scalar oracle bit for bit on both sides of
    /// the i32/i64 cutover — (a 8, w 8) on i32, (a 8, w 9) on i64 with an
    /// offset-binary zero point, (a 8, w 16) symmetric on i64 — with one
    /// pool lowering per image whether or not there is a zero point. DRQ
    /// matches its oracle with one lowering per (precision path, image).
    #[test]
    fn integer_convs_match_oracle_across_the_i64_cutover(spec in LayerSpecStrategy::default()) {
        use odq::drq::drq_conv::drq_conv2d_planned;
        use odq::quant::quantize_weights_symmetric;
        use odq_conformance::oracle::{
            ref_drq_conv2d, ref_qconv2d_affine, ref_quantize_activation, ref_quantize_weights,
            ref_quantize_weights_symmetric,
        };

        let g = spec.geom;
        let (x, w) = (gen_input(&spec), gen_weights(&spec));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let qx = quantize_activation(&x, 8, 1.0);
        let rx = ref_quantize_activation(x.as_slice(), 8, 1.0);
        let pool = WorkspacePool::new();
        for w_bits in [8u8, 9, 16] {
            let (qw, rw) = if w_bits == 16 {
                (quantize_weights_symmetric(&w, 16), ref_quantize_weights_symmetric(w.as_slice(), 16))
            } else {
                (quantize_weights(&w, w_bits), ref_quantize_weights(w.as_slice(), w_bits))
            };
            pool.reset_lowerings();
            let y = qconv2d_with(&qx, &qw, &g, &pool);
            prop_assert_eq!(pool.lowerings(), spec.batch as u64, "w{} lowerings", w_bits);
            let want = ref_qconv2d_affine(&rx, &rw, spec.batch, &g);
            prop_assert_eq!(bits(y.as_slice()), bits(&want), "w{} output", w_bits);
        }

        let cfg = spec.drq_cfg();
        let bias = gen_bias(&spec);
        let plan = QConvPlan::build(&w, PlanSpec::drq(cfg.hi_bits, cfg.lo_bits));
        pool.reset_lowerings();
        let r = drq_conv2d_planned(&x, &plan, bias.as_deref(), &g, &cfg, &pool);
        prop_assert_eq!(pool.lowerings(), 2 * spec.batch as u64);
        let want = ref_drq_conv2d(x.as_slice(), w.as_slice(), bias.as_deref(), spec.batch, &g, &cfg);
        prop_assert_eq!(bits(r.output.as_slice()), bits(&want.output));
        prop_assert_eq!(r.input_mask, want.input_mask);
    }

    /// The per-call wrapper's INT4 reference is the static quantized conv
    /// over the same operands plus bias, bit for bit.
    #[test]
    fn per_call_reference_is_qconv_plus_bias(spec in LayerSpecStrategy::default()) {
        let g = spec.geom;
        let (x, w, bias) = (gen_input(&spec), gen_weights(&spec), gen_bias(&spec));
        let cfg = OdqCfg::int4(spec.odq_threshold());
        let r = odq_conv2d(&x, &w, bias.as_deref(), &g, &cfg);
        let qx = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
        let qw = quantize_weights(&w, cfg.w_bits);
        let mut want = qconv2d_with(&qx, &qw, &g, &WorkspacePool::new());
        if let Some(b) = &bias {
            add_bias(&mut want, b, &g);
        }
        let bits: Vec<u32> = r.reference.as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every static or DRQ route `Route::validate` accepts, over all bit
    /// widths 1..=16 (the old check's range), runs a conv without
    /// panicking and yields finite outputs of the right shape.
    #[test]
    fn validated_routes_run_one_conv(spec in LayerSpecStrategy::default()) {
        use odq::nn::executor::{ConvCtx, ConvExecutor};
        use odq::nn::policy::{PrecisionPolicy, Route};
        use odq::quant::plan::PlanCache;
        use odq::serve::PolicyExecutor;
        use std::sync::Arc;

        let g = spec.geom;
        let (x, w, bias) = (gen_input(&spec), gen_weights(&spec), gen_bias(&spec));
        let ctx = ConvCtx { name: "C1", geom: g, weights: &w, bias: bias.as_deref(), qat: None };
        for (b1, b2) in (1u8..=16).flat_map(|b1| (1u8..=16).map(move |b2| (b1, b2))) {
            let routes = [
                Route::Static { w_bits: b1, a_bits: b2, a_clip: 1.0 },
                Route::Drq { hi_bits: b1, lo_bits: b2, a_clip: 1.0, region: 2, input_threshold: 0.3 },
            ];
            for route in routes.into_iter().filter(|r| r.validate().is_ok()) {
                let policy = Arc::new(PrecisionPolicy::uniform(route));
                let mut exec = PolicyExecutor::new(policy, Arc::new(PlanCache::new()));
                let y = exec.conv(&ctx, &x);
                prop_assert_eq!(y.dims(), g.output_shape(spec.batch).0.as_slice());
                prop_assert!(y.as_slice().iter().all(|v| v.is_finite()), "{:?}", route);
            }
        }
    }
}

// Engine-level forwards run a whole model per case; keep the case count
// low so the suite stays fast.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A full OdqEngine forward (planned path, shared plan cache) is
    /// bit-identical to running the seed per-call kernel at every layer.
    #[test]
    fn odq_engine_forward_matches_seed_kernel(
        batch in 1usize..4,
        thr in 0.0f32..0.8,
    ) {
        use odq::nn::executor::{ConvCtx, ConvExecutor};
        use odq::nn::models::{Model, ModelCfg};
        use odq::nn::Arch;

        struct SeedOdq(OdqCfg);
        impl ConvExecutor for SeedOdq {
            fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
                odq_conv2d(x, ctx.weights, ctx.bias, &ctx.geom, &self.0).output
            }
        }

        let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
        cfg.input_hw = 8;
        let m = Model::build(cfg);
        let x = Tensor::from_vec([batch, 3, 8, 8], pseudo_unit(batch * 3 * 64, 11));

        let mut seed_exec = SeedOdq(OdqCfg::int4(thr));
        let y_seed = m.forward_eval(&x, &mut seed_exec);
        let mut engine = odq::core::engine::OdqEngine::new(thr);
        let y_planned = m.forward_eval(&x, &mut engine);
        prop_assert_eq!(y_seed.as_slice(), y_planned.as_slice());
    }

    /// A full DrqEngine forward (planned path) is bit-identical to the
    /// seed per-call DRQ convolution at every layer.
    #[test]
    fn drq_engine_forward_matches_seed_kernel(
        batch in 1usize..4,
        thr in 0.0f32..0.8,
    ) {
        use odq::drq::{drq_conv2d, DrqCfg, DrqEngine};
        use odq::nn::executor::{ConvCtx, ConvExecutor};
        use odq::nn::models::{Model, ModelCfg};
        use odq::nn::Arch;

        struct SeedDrq(DrqCfg);
        impl ConvExecutor for SeedDrq {
            fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
                drq_conv2d(x, ctx.weights, ctx.bias, &ctx.geom, &self.0).output
            }
        }

        let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
        cfg.input_hw = 8;
        let m = Model::build(cfg);
        let x = Tensor::from_vec([batch, 3, 8, 8], pseudo_unit(batch * 3 * 64, 23));

        let mut seed_exec = SeedDrq(DrqCfg::int8_int4(thr));
        let y_seed = m.forward_eval(&x, &mut seed_exec);
        let mut engine = DrqEngine::new(DrqCfg::int8_int4(thr));
        let y_planned = m.forward_eval(&x, &mut engine);
        prop_assert_eq!(y_seed.as_slice(), y_planned.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram merge is exact sharding: merging per-shard histograms is
    /// indistinguishable from one histogram that saw every sample — the
    /// property the serve ledger relies on when per-worker shards are
    /// folded into one summary.
    #[test]
    fn log_histogram_merge_equals_concatenation(
        shards in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 0..64),
            1..6,
        ),
    ) {
        use odq::serve::LogHistogram;

        let mut merged = LogHistogram::default();
        for shard in &shards {
            let mut h = LogHistogram::default();
            for &v in shard {
                h.record(v);
            }
            merged.merge(&h);
        }

        let mut whole = LogHistogram::default();
        for &v in shards.iter().flatten() {
            whole.record(v);
        }

        prop_assert_eq!(&merged, &whole, "bucket layouts diverged");
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert!((merged.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs() + 1e-9);
        prop_assert_eq!(
            merged.buckets().collect::<Vec<_>>(),
            whole.buckets().collect::<Vec<_>>()
        );
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.value_at_quantile(q), whole.value_at_quantile(q));
        }
    }
}

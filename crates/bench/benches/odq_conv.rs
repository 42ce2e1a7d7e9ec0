//! ODQ convolution benchmarks: the headline property is that the planned
//! kernel's executor work scales with the sensitive fraction (threshold),
//! while the dense INT4 baseline pays full price regardless.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odq_core::odq_conv::{odq_conv2d, odq_conv2d_planned, OdqCfg};
use odq_drq::{drq_conv2d, DrqCfg};
use odq_quant::plan::{PlanSpec, QConvPlan};
use odq_quant::{quantize_activation, quantize_weights};
use odq_tensor::workspace::WorkspacePool;
use odq_tensor::{ConvGeom, Tensor};

fn setup() -> (Tensor, Tensor, ConvGeom) {
    let g = ConvGeom::new(16, 16, 16, 16, 3, 1, 1);
    let x = Tensor::from_vec(
        g.input_shape(1),
        (0..16 * 256).map(|i| ((i * 7) % 100) as f32 / 100.0).collect::<Vec<_>>(),
    );
    let w = Tensor::from_vec(
        g.weight_shape(),
        (0..16 * 16 * 9).map(|i| ((i * 13) % 200) as f32 / 100.0 - 1.0).collect::<Vec<_>>(),
    );
    (x, w, g)
}

fn bench_paths(c: &mut Criterion) {
    let (x, w, g) = setup();
    let mut group = c.benchmark_group("conv_paths");
    group.bench_function("int4_static", |b| {
        b.iter(|| {
            let qx = quantize_activation(&x, 4, 1.0);
            let qw = quantize_weights(&w, 4);
            odq_quant::qconv::qconv2d(&qx, &qw, &g)
        })
    });
    group.bench_function("odq_per_call_with_reference", |b| {
        b.iter(|| odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(0.5)))
    });
    group.bench_function("drq_int8_int4", |b| {
        b.iter(|| drq_conv2d(&x, &w, None, &g, &DrqCfg::int8_int4(0.4)))
    });
    group.finish();
}

fn bench_sparse_scaling(c: &mut Criterion) {
    let (x, w, g) = setup();
    // Calibrate thresholds giving different sensitive fractions.
    let probe = odq_conv2d(&x, &w, None, &g, &OdqCfg::int4(0.0));
    let abs: Vec<f32> = probe.reference.as_slice().iter().map(|v| v.abs()).collect();
    let plan = QConvPlan::build(&w, PlanSpec::odq(4, 2));
    let pool = WorkspacePool::new();
    let mut group = c.benchmark_group("odq_planned_by_sensitivity");
    for q in [0.0f32, 0.5, 0.75, 0.95, 1.0] {
        let thr = if q < 1.0 { odq_tensor::stats::quantile(&abs, q) } else { f32::INFINITY };
        let frac = 1.0 - q;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sens~{:.0}%", frac * 100.0)),
            &thr,
            |b, &thr| {
                b.iter(|| {
                    let cfg = OdqCfg::int4(thr);
                    let qx = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
                    odq_conv2d_planned(&qx, &plan, None, &g, &cfg, &pool)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_paths, bench_sparse_scaling);
criterion_main!(benches);

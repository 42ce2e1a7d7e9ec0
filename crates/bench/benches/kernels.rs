//! Microbenchmarks for the compute kernels underlying every experiment:
//! float GEMM, the integer conv driver, im2col and pixel-major lowering,
//! quantization, and the planned vs per-call ODQ convolution.

use criterion::{criterion_group, criterion_main, Criterion};
use odq_core::{odq_conv2d, odq_conv2d_planned, OdqCfg};
use odq_quant::plan::{PlanSpec, QConvPlan};
use odq_quant::qconv::qconv2d_products;
use odq_quant::quantize_activation;
use odq_tensor::gemm::{gemm_f32, padded_stride, Kernel, PaddedRows};
use odq_tensor::im2col::{im2col, im2row_into, ROW_SLACK};
use odq_tensor::workspace::WorkspacePool;
use odq_tensor::{ConvGeom, Tensor};

fn bench_gemm(c: &mut Criterion) {
    let (m, k, n) = (64, 144, 256);
    let a_f: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect();
    let b_f: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 - 6.0).collect();
    let mut c_f = vec![0.0f32; m * n];
    c.bench_function("gemm_f32 64x144x256", |bch| {
        bch.iter(|| gemm_f32(&a_f, &b_f, &mut c_f, m, k, n))
    });

    // The same multiply-accumulate shape as an integer conv: 64 filters
    // over 144-tap rows (16 channels, 3x3) at 256 pixels (16x16).
    let g = ConvGeom::new(16, 64, 16, 16, 3, 1, 1);
    let x = Tensor::from_vec(g.input_shape(1), (0..16 * 256).map(|i| (i % 15) as i16).collect());
    let w: Vec<i16> = (0..m * k).map(|i| (i % 15) as i16).collect();
    let w = PaddedRows::from_filters(&w, 16, 3);
    let pool = WorkspacePool::new();
    for kernel in Kernel::supported() {
        c.bench_function(&format!("qconv2d_products i32 64x144x256 {}", kernel.name()), |bch| {
            bch.iter(|| qconv2d_products::<i32>(&x, w.view(), &g, &pool, kernel))
        });
    }
}

fn bench_im2col(c: &mut Criterion) {
    let g = ConvGeom::new(16, 16, 32, 32, 3, 1, 1);
    let x: Vec<f32> = (0..16 * 32 * 32).map(|i| (i % 100) as f32 / 100.0).collect();
    c.bench_function("im2col 16x32x32 k3", |bch| bch.iter(|| im2col(&x, &g)));
    let stride = padded_stride(g.col_len());
    let rows_len = stride * g.out_spatial() + ROW_SLACK;
    let (mut padded, mut rows) = (Vec::new(), vec![0.0f32; rows_len]);
    c.bench_function("im2row 16x32x32 k3", |bch| {
        bch.iter(|| im2row_into(&x, &g, &mut padded, &mut rows, stride))
    });
}

fn bench_quantize(c: &mut Criterion) {
    let x = Tensor::from_vec(
        [16, 32, 32],
        (0..16 * 1024).map(|i| (i % 256) as f32 / 255.0).collect::<Vec<_>>(),
    );
    c.bench_function("quantize_activation int4 16k", |bch| {
        bch.iter(|| odq_quant::quantize_activation(&x, 4, 1.0))
    });
    c.bench_function("quantize_weights offset int4 16k", |bch| {
        bch.iter(|| odq_quant::quantize_weights(&x, 4))
    });
}

/// Per-call ODQ conv (quantizes and splits the weights into a throwaway
/// plan and also computes the INT4 reference on every call) against the
/// planned kernel (prepacked `QConvPlan`, pooled scratch, one lowering per
/// image) on one ResNet-style layer.
fn bench_conv_plan(c: &mut Criterion) {
    let g = ConvGeom::new(16, 16, 16, 16, 3, 1, 1);
    let n = 4;
    let x = Tensor::from_vec(
        g.input_shape(n),
        (0..n * 16 * 256).map(|i| (i % 100) as f32 / 100.0).collect::<Vec<_>>(),
    );
    let w = Tensor::from_vec(
        g.weight_shape(),
        (0..16 * 16 * 9).map(|i| (i % 200) as f32 / 100.0 - 1.0).collect::<Vec<_>>(),
    );
    let cfg = OdqCfg::int4(0.3);

    let mut grp = c.benchmark_group("odq_conv 16x16x16 k3 n4");
    grp.bench_function("per-call", |bch| bch.iter(|| odq_conv2d(&x, &w, None, &g, &cfg)));

    let plan = QConvPlan::build(&w, PlanSpec::odq(cfg.w_bits, cfg.low_bits));
    let pool = WorkspacePool::new();
    grp.bench_function("planned", |bch| {
        bch.iter(|| {
            let qx = quantize_activation(&x, cfg.a_bits, cfg.a_clip);
            odq_conv2d_planned(&qx, &plan, None, &g, &cfg, &pool)
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_gemm, bench_im2col, bench_quantize, bench_conv_plan);
criterion_main!(benches);

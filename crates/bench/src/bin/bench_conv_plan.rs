//! Throughput benchmark for the plan/workspace convolution path: batched
//! ResNet-20 forward passes under the Float, static INT4, ODQ and DRQ
//! engines, reported as images/second.
//!
//! Writes `results/bench_conv_plan_<tag>.json`; the committed
//! `BENCH_conv_plan.json` at the repo root holds medians of interleaved
//! runs of a change (`after`) and its parent commit (`parent`) on the same
//! machine, plus the historical pre-refactor `before`. ODQ runs the one
//! planned kernel with recording off, as serving does apart from its mask
//! counts; DRQ (the INT8-INT4 pair) runs its planned kernel with recording
//! off. The output names the integer kernel body the CPU detection picked.
//!
//! Usage: `bench_conv_plan [tag] [batch] [reps]` (defaults: run, 16, 6).

use std::time::Instant;

use odq_core::engine::OdqEngine;
use odq_data::SynthSpec;
use odq_drq::{DrqCfg, DrqEngine};
use odq_nn::executor::{ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq_nn::models::{Model, ModelCfg};
use odq_nn::Arch;
use odq_tensor::gemm::Kernel;
use odq_tensor::Tensor;

fn time_forward(model: &Model, x: &Tensor, exec: &mut dyn ConvExecutor, reps: usize) -> f64 {
    // Warm-up pass: fills weight/plan caches so steady-state cost is
    // measured, matching how serving workers run.
    let _ = model.forward_eval(x, exec);
    let n = x.dims()[0];
    let start = Instant::now();
    for _ in 0..reps {
        let _ = model.forward_eval(x, exec);
    }
    let dt = start.elapsed().as_secs_f64();
    (reps * n) as f64 / dt
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tag = args.get(1).cloned().unwrap_or_else(|| "run".into());
    let batch: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let reps: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(6);

    let cfg = ModelCfg::small(Arch::ResNet20, 10);
    let model = Model::build(cfg);
    let data = SynthSpec::cifar10(cfg.input_hw).generate(batch);
    let x = &data.images;

    let mut results = Vec::new();
    let ips_float = time_forward(&model, x, &mut FloatConvExecutor, reps);
    results.push(("float", ips_float));
    let mut int4 = StaticQuantExecutor::int(4);
    let ips_int4 = time_forward(&model, x, &mut int4, reps);
    results.push(("int4", ips_int4));
    let mut odq = OdqEngine::new(0.3);
    odq.record = false;
    let ips_odq = time_forward(&model, x, &mut odq, reps);
    results.push(("odq", ips_odq));
    let mut drq = DrqEngine::new(DrqCfg::int8_int4(0.1));
    drq.record = false;
    let ips_drq = time_forward(&model, x, &mut drq, reps);
    results.push(("drq", ips_drq));

    let kernel = Kernel::detected().name();
    println!(
        "ResNet-20 forward throughput (batch {batch}, {reps} reps, {kernel} integer kernel), \
         images/sec:"
    );
    for (name, ips) in &results {
        println!("  {name:>6}: {ips:10.2}");
    }
    let json = serde_json::json!({
        "tag": tag,
        "model": "resnet20-small",
        "batch": batch,
        "reps": reps,
        "kernel": kernel,
        "images_per_sec": {
            "float": ips_float,
            "int4": ips_int4,
            "odq": ips_odq,
            "drq": ips_drq,
        },
    });
    odq_bench::write_json(&format!("bench_conv_plan_{tag}"), &json);
}

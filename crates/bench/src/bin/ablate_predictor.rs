//! Ablation: predictor estimate quality with and without the expectation
//! corrections (raw `HH << 2N` vs the corrected estimate of
//! `odq_quant::predict`). The paper's Eq. 3 term alone is biased because
//! the dropped planes are non-negative.

use odq_bench::{print_table, trained_model, write_json, ExpScale};
use odq_nn::executor::{ConvCtx, ConvExecutor};
use odq_nn::Arch;
use odq_quant::{quantize_activation, quantize_weights, split_qtensor};
use odq_tensor::stats::quantile;
use odq_tensor::Tensor;

#[derive(Default)]
struct Stats {
    agree_raw: u64,
    agree_corr: u64,
    recall_raw: u64,
    recall_corr: u64,
    truth: u64,
    total: u64,
}

struct Probe {
    stats: Stats,
}

impl ConvExecutor for Probe {
    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let qx = quantize_activation(x, 4, 1.0);
        let qw = quantize_weights(ctx.weights, 4);
        let xp = split_qtensor(&qx, 2);
        let wp = split_qtensor(&qw, 2);
        let scale = qx.scale * qw.scale;
        let pred = odq_quant::odq_predict(&xp.high, &wp, qw.zero, scale, &ctx.geom);
        // Raw predictor term (paper's Eq. 3 HH only, affine-corrected with
        // the *exact* Σa so only the plane expectations differ).
        let raw = pred.hh.map(|v| v << 4);
        let sa = odq_quant::qconv::receptive_sums(&qx.codes, &ctx.geom);
        let full = odq_quant::qconv::qconv2d(&qx, &qw, &ctx.geom);

        let abs: Vec<f32> = full.as_slice().iter().map(|v| v.abs()).collect();
        let thr = quantile(&abs, 0.65);
        let spatial = ctx.geom.out_spatial();
        let co = ctx.geom.out_channels;
        let n = x.dims()[0];
        let pow = 4.0f32;
        for img in 0..n {
            for f in 0..co {
                let base = (img * co + f) * spatial;
                for sp in 0..spatial {
                    let i = base + sp;
                    let truth = full.as_slice()[i].abs() >= thr;
                    let raw_v = scale
                        * (raw.as_slice()[i] as f32
                            - qw.zero * pow * sa.as_slice()[img * spatial + sp] as f32 / pow);
                    let corr_v = pred.estimate.as_slice()[i];
                    let p_raw = raw_v.abs() >= thr;
                    let p_corr = corr_v.abs() >= thr;
                    self.stats.total += 1;
                    self.stats.agree_raw += (p_raw == truth) as u64;
                    self.stats.agree_corr += (p_corr == truth) as u64;
                    if truth {
                        self.stats.truth += 1;
                        self.stats.recall_raw += p_raw as u64;
                        self.stats.recall_corr += p_corr as u64;
                    }
                }
            }
        }
        let mut y = full;
        if let Some(b) = ctx.bias {
            odq_nn::executor::add_bias(&mut y, b, &ctx.geom);
        }
        y
    }
}

fn main() {
    let scale = ExpScale::from_args();
    println!("Ablation: predictor estimate corrections (raw HH vs corrected)");
    let (model, _train, test) = trained_model(Arch::ResNet20, 10, scale, 0xAB3);
    let mut probe = Probe { stats: Stats::default() };
    let _ = model.forward_eval(&test.images, &mut probe);
    let s = &probe.stats;
    let pct = |a: u64, b: u64| 100.0 * a as f64 / b.max(1) as f64;
    print_table(
        "mask prediction quality at the 65th-percentile threshold",
        &["estimator", "agreement %", "sensitive recall %"],
        &[
            vec![
                "raw HH term".into(),
                format!("{:.1}", pct(s.agree_raw, s.total)),
                format!("{:.1}", pct(s.recall_raw, s.truth)),
            ],
            vec![
                "corrected (ours)".into(),
                format!("{:.1}", pct(s.agree_corr, s.total)),
                format!("{:.1}", pct(s.recall_corr, s.truth)),
            ],
        ],
    );
    write_json(
        "ablate_predictor",
        &serde_json::json!({
            "raw": {"agree": pct(s.agree_raw, s.total), "recall": pct(s.recall_raw, s.truth)},
            "corrected": {"agree": pct(s.agree_corr, s.total), "recall": pct(s.recall_corr, s.truth)},
        }),
    );
}

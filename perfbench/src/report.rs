//! Metric names, units, and the result line.
//!
//! Every workload prints every metric of its mode: the end-to-end set in
//! an untraced run, the per-layer set in a traced one. A per-layer metric
//! whose layer a workload does not exercise reads 0 there (for example
//! `net.*` on `offline_resnet20`).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Each workload defines its unit of
/// work (README.md, "End-to-end metrics").
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("images_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The five offline routes, in measurement order.
pub const ROUTES: &[&str] = &["float", "int4", "odq", "odq_sparse", "drq"];

/// Accelerator configurations costed with `simulate_network`.
pub const ACCELS: &[&str] = &["odq", "drq", "int8", "int16"];

/// Layers whose self time the traced run reports (`self_ms.<layer>`).
pub const SELF_LAYERS: &[&str] = &[
    "client",
    "net_submit",
    "serve_queue",
    "serve_execute",
    "serve_scatter",
    "forward",
    "conv",
    "accel",
    "registry",
    "deploy",
    "scrape",
];

/// Per-layer metrics: `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: String, u: &'static str| v.push((n, u));
    push("p50_ms.light".into(), "ms");
    push("p99_ms.light".into(), "ms");
    push("failed_share".into(), "share");
    for r in ROUTES {
        push(format!("images_per_s.{r}"), "1/s");
    }
    push("gen.late_ms.p99".into(), "ms");
    push("gen.late_ms.max".into(), "ms");
    push("gen.stamp_us.p99".into(), "us");
    push("net.gap_ms.p50".into(), "ms");
    push("net.gap_ms.p99".into(), "ms");
    push("net.submit_us.p50".into(), "us");
    push("net.bytes_per_request".into(), "bytes");
    push("serve.queue_wait_ms.p50".into(), "ms");
    push("serve.queue_wait_ms.p99".into(), "ms");
    push("serve.service_ms.p50".into(), "ms");
    push("serve.service_ms.p99".into(), "ms");
    push("serve.batch_size.mean".into(), "count");
    push("serve.worker_busy_share".into(), "share");
    push("serve.rejected_share".into(), "share");
    push("serve.deploy_ms.p50".into(), "ms");
    push("serve.ledger_bytes".into(), "bytes");
    push("registry.publish_ms.p50".into(), "ms");
    for r in ROUTES {
        for g in ["c1_ms", "w16_ms", "w32_ms", "w64_ms"] {
            push(format!("engine.{r}.{g}"), "ms");
        }
        push(format!("engine.{r}.conv_share"), "share");
    }
    push("engine.odq.mask_density".into(), "share");
    for g in ["w16", "w32", "w64"] {
        push(format!("engine.odq.mask_density.{g}"), "share");
    }
    push("engine.drq.hi_fraction".into(), "share");
    push("engine.odq_sparse.speedup_over_dense".into(), "ratio");
    for r in ROUTES {
        push(format!("kernel.{r}.macs_per_image"), "count");
        push(format!("kernel.{r}.bytes_per_image"), "bytes");
        push(format!("kernel.{r}.gmacs_per_s"), "GMAC/s");
    }
    for a in ACCELS {
        push(format!("accel.{a}.cycles_per_image"), "count");
        push(format!("accel.{a}.energy_uj_per_image"), "uJ");
    }
    push("accel.sim_ms_per_batch".into(), "ms");
    push("obs.scrape_ms.p50".into(), "ms");
    push("obs.series".into(), "count");
    push("obs.trace_overhead_share".into(), "share");
    for l in SELF_LAYERS {
        push(format!("self_ms.{l}"), "ms");
    }
    v
}

/// What one run hands back to `main` for printing.
pub struct Outcome {
    /// Every output check and reconciliation passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Of those, failed, refused, or wrong.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Self { correct: true, attempted: 0, failed: 0, values: BTreeMap::new() }
    }

    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    /// Record a failed check; the run will exit non-zero.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        println!("CHECK FAILED: {}", why.as_ref());
        self.correct = false;
    }

    /// Assert `cond`, recording `why` when it does not hold.
    pub fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        if !cond {
            self.fail(why());
        }
    }
}

/// Print every metric of the mode by name with its unit, then the JSON
/// result as the last line. Returns whether every check passed.
pub fn print(out: &mut Outcome, trace: bool) -> bool {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut parts = Vec::new();
    println!("\n== metrics ({}) ==", if trace { "per-layer, traced run" } else { "end-to-end" });
    for (name, unit) in &names {
        let v = match out.values.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => {
                out.fail(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        if !v.is_finite() {
            out.fail(format!("metric {name} is not finite ({v})"));
            continue;
        }
        println!("{name:<40} {v:>16.6} {unit}");
        // `{:?}` prints the shortest representation that round-trips,
        // which is also a valid JSON number.
        parts.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        parts.join(", ")
    );
    out.correct
}

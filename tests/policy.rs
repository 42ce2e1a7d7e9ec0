//! Per-layer precision policies through the full serving path.
//!
//! 1. **Per-layer ODQ thresholds serve bit-identically** — a policy
//!    assigning each conv layer its own ODQ threshold, served through the
//!    batched multi-worker pipeline, answers bit-identically to a
//!    standalone [`OdqEngine::with_per_layer`] forward with the same
//!    threshold map.
//! 2. **Policy hot swap never tears** — two versions published with
//!    *different* policies swap under sustained load; every response
//!    bit-matches exactly one (version, policy) pair, and the final stats
//!    JSON carries per-route accelerator cost sections.
//! 3. **Publish-time validation** — a policy naming a conv layer the
//!    candidate does not have is rejected atomically (no version is
//!    allocated), as is a policy with a route no kernel can run.
//! 4. **Sparse ODQ routes serve like dense ones** — a policy asking for
//!    the sparse kernel answers bit-identically to the dense policy and
//!    reports the same sensitive fraction and per-route cycles.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use odq::core::engine::OdqEngine;
use odq::nn::models::{Model, ModelCfg};
use odq::nn::policy::{PrecisionPolicy, Route};
use odq::nn::Arch;
use odq::quant::plan::PlanCache;
use odq::registry::{ModelRegistry, RegistryError};
use odq::serve::{EngineKind, InferRequest, PolicyExecutor, ServeConfig, ServeError, Server};
use odq::tensor::Tensor;

const CLASSES: usize = 4;

fn lenet(seed: u64) -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, CLASSES);
    cfg.input_hw = 8;
    cfg.in_channels = 1;
    cfg.seed = seed;
    Model::build(cfg)
}

fn image(i: usize) -> Tensor {
    let v: Vec<f32> = (0..64).map(|j| ((j * 13 + i * 31) % 97) as f32 / 97.0).collect();
    Tensor::from_vec(vec![1, 1, 8, 8], v)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A policy giving every LeNet conv layer its own ODQ threshold.
fn per_layer_odq_policy() -> PrecisionPolicy {
    PrecisionPolicy::uniform(Route::Odq { threshold: 0.3, sparse: false })
        .with("C1", Route::Odq { threshold: 0.1, sparse: false })
        .with("C2", Route::Odq { threshold: 0.6, sparse: false })
}

#[test]
fn per_layer_odq_thresholds_serve_bit_identically_to_with_per_layer() {
    let policy = Arc::new(per_layer_odq_policy());
    let reg = Arc::new(ModelRegistry::new());
    reg.publish_with_policy("lenet", lenet(5), vec![], Some(per_layer_odq_policy())).unwrap();

    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        workers: 2,
        ..Default::default()
    };
    let server = Server::builder(cfg)
        .engine(EngineKind::Policy(Arc::clone(&policy)))
        .registry(Arc::clone(&reg))
        .serve("lenet")
        .start();

    // The standalone reference: odq-core's own per-layer threshold engine,
    // fed the same thresholds the policy assigns.
    let map: HashMap<String, f32> = [("C1".to_string(), 0.1), ("C2".to_string(), 0.6)].into();
    let model = reg.get("lenet", 1).unwrap();
    let mut standalone = OdqEngine::with_per_layer(map, 0.3);

    for i in 0..6 {
        let served =
            server.submit(InferRequest::new("lenet", image(i))).unwrap().wait().unwrap().output;
        let solo = model.forward_eval(&image(i), &mut standalone);
        assert_eq!(
            bits(&served),
            bits(&solo),
            "input {i}: policy-routed serving must bit-match OdqEngine::with_per_layer"
        );
    }

    // Sanity: the policy executor really does share one engine per
    // distinct route (three Odq thresholds → three sub-engines).
    let mut pe = PolicyExecutor::new(policy, Arc::new(PlanCache::new()));
    let _ = model.forward_eval(&image(0), &mut pe);
    assert_eq!(pe.engine_count(), 2, "C1 and C2 cover both distinct routes LeNet exercises");

    server.shutdown();
}

/// Serve `inputs` one at a time under `policy`; return the output bits
/// and the final summary.
fn serve_solo(policy: PrecisionPolicy, inputs: usize) -> (Vec<Vec<u32>>, odq::serve::StatsSummary) {
    let reg = Arc::new(ModelRegistry::new());
    reg.publish_with_policy("lenet", lenet(3), vec![], Some(policy.clone())).unwrap();
    let server = Server::builder(ServeConfig { max_batch: 1, workers: 1, ..Default::default() })
        .engine(EngineKind::Policy(Arc::new(policy)))
        .registry(reg)
        .serve("lenet")
        .start();
    let outs = (0..inputs)
        .map(|i| {
            let r = server.submit(InferRequest::new("lenet", image(i))).unwrap().wait().unwrap();
            bits(&r.output)
        })
        .collect();
    (outs, server.shutdown())
}

#[test]
fn sparse_odq_policy_serves_and_costs_like_the_dense_one() {
    let route = |sparse| Route::Odq { threshold: 0.3, sparse };
    let (dense_out, dense) = serve_solo(PrecisionPolicy::uniform(route(false)), 5);
    let (sparse_out, sparse) = serve_solo(PrecisionPolicy::uniform(route(true)), 5);
    assert_eq!(sparse_out, dense_out, "the sparse kernel must answer bit-identically");

    let frac = dense.mean_sensitive_fraction.expect("ODQ route reports a sensitive fraction");
    assert!(frac > 0.0 && frac < 1.0, "threshold 0.3 skips some outputs: {frac}");
    assert_eq!(sparse.mean_sensitive_fraction, dense.mean_sensitive_fraction);
    let routes = |s: &odq::serve::StatsSummary| -> Vec<(String, u64, f64)> {
        s.routes.iter().map(|r| (r.route.clone(), r.layers, r.cycles)).collect()
    };
    assert_eq!(routes(&sparse), routes(&dense), "per-route simulated cost must agree");
    assert!(dense.sim_cycles > 0.0);
}

/// Policy A: static INT8 everywhere, first conv on ODQ.
fn policy_a() -> PrecisionPolicy {
    PrecisionPolicy::uniform(Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 })
        .with("C1", Route::Odq { threshold: 0.3, sparse: false })
}

/// Policy B: ODQ everywhere, second conv in float.
fn policy_b() -> PrecisionPolicy {
    PrecisionPolicy::uniform(Route::Odq { threshold: 0.5, sparse: false }).with("C2", Route::Float)
}

#[test]
fn policy_hot_swap_under_load_never_tears_and_reports_per_route_stats() {
    let reg = Arc::new(ModelRegistry::new());
    let v1 = reg.publish_with_policy("m", lenet(1), vec![], Some(policy_a())).unwrap();

    let cfg = ServeConfig {
        queue_depth: 256,
        max_batch: 4,
        max_wait: Duration::from_micros(300),
        workers: 2,
        ..Default::default()
    };
    // Started while only v1 exists, so the server comes up serving v1.
    let server = Arc::new(
        Server::builder(cfg)
            // The fallback never executes: both versions publish policies.
            .engine(EngineKind::Policy(Arc::new(policy_a())))
            .registry(Arc::clone(&reg))
            .serve("m")
            .start(),
    );
    let v2 = reg.publish_with_policy("m", lenet(2), vec![], Some(policy_b())).unwrap();

    // Solo references: each version forwarded under *its own* published
    // policy by a fresh policy executor.
    let inputs = 6;
    let mut refs: HashMap<(u64, usize), Vec<u32>> = HashMap::new();
    for (v, p) in [(v1, policy_a()), (v2, policy_b())] {
        let model = reg.get("m", v).unwrap();
        let mut exec = PolicyExecutor::new(Arc::new(p), Arc::new(PlanCache::new()));
        for i in 0..inputs {
            refs.insert((v, i), bits(&model.forward_eval(&image(i), &mut exec)));
        }
    }

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut outcomes: Vec<(usize, Vec<u32>)> = Vec::new();
                let mut i = c;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let input = i % inputs;
                    match server.submit(InferRequest::new("m", image(input))) {
                        Ok(h) => {
                            let r = h.wait().expect("no deadline: must answer");
                            outcomes.push((input, bits(&r.output)));
                        }
                        Err(ServeError::QueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected admission error {e}"),
                    }
                    i += 2;
                }
                outcomes
            })
        })
        .collect();

    // Swap policies (with their weights) forward and back under load.
    std::thread::sleep(Duration::from_millis(20));
    server.deploy("m", v2).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(server.rollback("m").unwrap(), v1);
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut total = 0u64;
    let mut by_version: HashMap<u64, u64> = HashMap::new();
    for c in clients {
        for (input, got) in c.join().unwrap() {
            total += 1;
            let matches: Vec<u64> =
                [v1, v2].iter().copied().filter(|&v| refs[&(v, input)] == got).collect();
            assert_eq!(
                matches.len(),
                1,
                "response must bit-match exactly one (version, policy) pair — \
                 a swap must never mix routes across versions (input {input})"
            );
            *by_version.entry(matches[0]).or_default() += 1;
        }
    }
    assert!(total > 0);
    assert!(by_version.get(&v1).copied().unwrap_or(0) > 0, "v1 served around the swap");

    // Per-route accelerator sections in the stats JSON: both policies'
    // routes show up, split by label.
    let json = server.stats_json();
    assert!(json.contains("\"routes\""), "{json}");
    for route in ["int8", "odq"] {
        assert!(json.contains(&format!("\"{route}\"")), "route {route} missing from {json}");
    }
    let sum = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(),
        Err(_) => panic!("all clients joined"),
    };
    assert_eq!(sum.admitted, total);
    assert_eq!(sum.completed, total);
    assert!(!sum.routes.is_empty(), "summary must carry per-route aggregates");
    let cycles: f64 = sum.routes.iter().map(|r| r.cycles).sum();
    assert!(
        (cycles - sum.sim_cycles).abs() <= 1e-6 * sum.sim_cycles.max(1.0),
        "route cycles {cycles} must add up to the total {}",
        sum.sim_cycles
    );
}

#[test]
fn publish_rejects_policies_that_do_not_fit_the_candidate() {
    let reg = ModelRegistry::new();

    // A route naming a conv layer the model does not have.
    let unknown = PrecisionPolicy::uniform(Route::Float)
        .with("C99", Route::Odq { threshold: 0.3, sparse: false });
    let err = reg.publish_with_policy("m", lenet(1), vec![], Some(unknown)).unwrap_err();
    assert!(matches!(err, RegistryError::InvalidPolicy(_)), "got {err}");

    // An out-of-range route (0-bit static).
    let bad_bits = PrecisionPolicy::uniform(Route::Static { w_bits: 0, a_bits: 8, a_clip: 1.0 });
    let err = reg.publish_with_policy("m", lenet(1), vec![], Some(bad_bits)).unwrap_err();
    assert!(matches!(err, RegistryError::InvalidPolicy(_)), "got {err}");

    // Routes inside the old 1..=16 check that no kernel can run: 16-bit
    // activations, 1-bit weights, a 16-bit DRQ pair, and a DRQ pair with
    // no integral requantization step.
    let drq = |hi_bits, lo_bits| Route::Drq {
        hi_bits,
        lo_bits,
        a_clip: 1.0,
        region: 2,
        input_threshold: 0.1,
    };
    for route in [
        Route::Static { w_bits: 8, a_bits: 16, a_clip: 1.0 },
        Route::Static { w_bits: 1, a_bits: 8, a_clip: 1.0 },
        drq(16, 8),
        drq(8, 3),
    ] {
        let p = PrecisionPolicy::uniform(Route::Float).with("C1", route);
        let err = reg.publish_with_policy("m", lenet(1), vec![], Some(p)).unwrap_err();
        assert!(matches!(err, RegistryError::InvalidPolicy(_)), "{route:?}: got {err}");
    }

    // Rejection is atomic: no version was allocated, and a clean publish
    // still lands as version 1.
    assert_eq!(reg.latest("m"), None);
    assert_eq!(reg.publish_with_policy("m", lenet(1), vec![], Some(policy_a())).unwrap(), 1);
    let stored = reg.policy("m", 1).unwrap().expect("policy rides with the version");
    assert_eq!(stored.as_ref(), &policy_a());
}

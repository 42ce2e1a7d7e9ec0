//! Per-layer convolution plans: quantize, bit-split and summarize weights
//! **once** per (layer, weight version) instead of on every forward call.
//!
//! Every engine in the workspace used to carry its own ad-hoc
//! `HashMap<String, (fingerprint, QTensor)>` weight cache — and still
//! re-split the weight planes and re-derived per-filter constants each
//! batch. A [`QConvPlan`] prepacks everything a conv kernel needs from the
//! weights alone:
//!
//! * the quantized weights (`qw`),
//! * every weight matrix a kernel reads, as padded code rows at the stride
//!   the lowered activations use ([`PaddedRows`]): `qw`'s codes, the Eq. 3
//!   high bit plane (ODQ) and the requantized low-precision codes (DRQ),
//! * the per-filter code sums `Σ n_H`, `Σ n_L` the predictor's expectation
//!   corrections consume,
//! * a lazily-built cache of per-geometry valid-tap counts.
//!
//! The padded matrices are built with the plan and retire with it.
//!
//! [`PlanCache`] maps layer names to plans, invalidating on a full-content
//! weight fingerprint, and owns the [`WorkspacePool`] the planned drivers
//! lower through — one shared scratch arena per engine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use odq_tensor::gemm::PaddedRows;
use odq_tensor::workspace::WorkspacePool;
use odq_tensor::{ConvGeom, Tensor};

use crate::bitsplit::split_qtensor;
use crate::dorefa::{quantize_weights, quantize_weights_symmetric};
use crate::qconv::{filter_code_sums, requant_step, requantize_codes, valid_tap_counts};
use crate::qtensor::QTensor;

/// What a plan must prepack, fully determined by an engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    /// Weight bit width.
    pub w_bits: u8,
    /// Symmetric (no zero point) weight coding instead of offset-binary.
    pub symmetric: bool,
    /// `Some(d)` prepacks the Eq. 3 bit planes and the predictor's
    /// per-filter constants (ODQ engines).
    pub low_bits: Option<u8>,
    /// `Some(lo)` prepacks weights requantized onto the coarser
    /// `lo`-bit grid (DRQ engines).
    pub lo_bits: Option<u8>,
}

impl PlanSpec {
    /// Plan for a static uniform-quantization executor. Wide schemes
    /// (`w_bits > 15`) use symmetric coding, matching
    /// [`quantize_weights_symmetric`]'s domain.
    pub fn static_quant(w_bits: u8) -> Self {
        Self { w_bits, symmetric: w_bits > 15, low_bits: None, lo_bits: None }
    }

    /// Plan for the ODQ engine: offset-binary weights split into
    /// `low_bits`-wide low planes.
    pub fn odq(w_bits: u8, low_bits: u8) -> Self {
        Self { w_bits, symmetric: false, low_bits: Some(low_bits), lo_bits: None }
    }

    /// Plan for the DRQ engine: `hi_bits` weights plus their requantized
    /// `lo_bits` counterpart.
    pub fn drq(hi_bits: u8, lo_bits: u8) -> Self {
        Self { w_bits: hi_bits, symmetric: false, low_bits: None, lo_bits: Some(lo_bits) }
    }
}

/// A prepacked per-layer convolution plan (weights-side state only; the
/// activation side is per-batch and flows through the workspace pool).
pub struct QConvPlan {
    /// The spec this plan was built for.
    pub spec: PlanSpec,
    /// Quantized weights.
    pub qw: QTensor,
    /// `qw`'s filter rows, padded: what static INT-k, DRQ's high-precision
    /// path and the ODQ executor read.
    pub rows: PaddedRows,
    /// The Eq. 3 high bit plane of `qw`'s filter rows, padded: what the
    /// ODQ predictor reads (ODQ specs only).
    pub high_rows: Option<PaddedRows>,
    /// Per-filter `Σ n_H` (ODQ specs only, empty otherwise).
    pub sum_nh: Vec<i32>,
    /// Per-filter `Σ n_L` (ODQ specs only, empty otherwise).
    pub sum_nl: Vec<i32>,
    /// `qw`'s filter rows requantized onto the low-precision grid, padded
    /// (DRQ specs only).
    pub lo_rows: Option<PaddedRows>,
    /// Per-geometry valid-tap counts, built on first use. Engines run a
    /// layer under one geometry, so a single slot suffices.
    valid: Mutex<Option<(ConvGeom, Arc<Vec<u32>>)>>,
}

impl QConvPlan {
    /// Quantize `weights` `[Co, Ci, K, K]` and prepack everything `spec`
    /// calls for.
    pub fn build(weights: &Tensor, spec: PlanSpec) -> Self {
        let qw = if spec.symmetric {
            quantize_weights_symmetric(weights, spec.w_bits)
        } else {
            quantize_weights(weights, spec.w_bits)
        };
        let (out_channels, in_channels, kernel) =
            (weights.dims()[0], weights.dims()[1], weights.dims()[2]);
        let padded =
            |codes: &Tensor<i16>| PaddedRows::from_filters(codes.as_slice(), in_channels, kernel);
        let (high_rows, sum_nh, sum_nl) = match spec.low_bits {
            Some(d) => {
                let p = split_qtensor(&qw, d);
                let nh = filter_code_sums(&p.high, out_channels);
                let nl = filter_code_sums(&p.low, out_channels);
                (Some(padded(&p.high)), nh, nl)
            }
            None => (None, Vec::new(), Vec::new()),
        };
        let lo_rows = spec
            .lo_bits
            .map(|lo| padded(&requantize_codes(&qw.codes, requant_step(spec.w_bits, lo))));
        let rows = padded(&qw.codes);
        Self { spec, qw, rows, high_rows, sum_nh, sum_nl, lo_rows, valid: Mutex::new(None) }
    }

    /// Valid-tap counts for `g`, computed once per geometry and shared.
    pub fn valid_taps(&self, g: &ConvGeom) -> Arc<Vec<u32>> {
        let mut slot = self.valid.lock().expect("plan valid-taps lock poisoned");
        match &*slot {
            Some((cached_g, v)) if cached_g == g => Arc::clone(v),
            _ => {
                let v = Arc::new(valid_tap_counts(g));
                *slot = Some((*g, Arc::clone(&v)));
                v
            }
        }
    }
}

/// Full-content weight fingerprint: eight independent FNV-1a lanes over
/// the bit patterns of every element (element `i` folds into lane `i % 8`),
/// each seeded with the element count and its lane number, folded together
/// by one more FNV-1a chain.
///
/// Any single-element perturbation anywhere in the tensor changes the
/// digest: each FNV-1a step (xor, then multiply by an odd prime) is a
/// bijection of the lane state, so a changed element changes its lane's
/// final state, and the fold is a bijection in each lane too. Stale plans
/// therefore cannot survive a weight update — the regression the old
/// sampled hash allowed. The lanes are independent multiply chains, so
/// they run in parallel where one serial chain waited on every multiply;
/// `PlanCache::plan_for` hashes each conv's weights on every forward.
pub fn weight_fingerprint(w: &Tensor) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let seed = BASIS ^ (w.numel() as u64);
    let mut lanes: [u64; 8] = std::array::from_fn(|i| seed ^ i as u64);
    let chunks = w.as_slice().chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (h, &v) in lanes.iter_mut().zip(chunk) {
            *h = (*h ^ v.to_bits() as u64).wrapping_mul(PRIME);
        }
    }
    for (h, &v) in lanes.iter_mut().zip(tail) {
        *h = (*h ^ v.to_bits() as u64).wrapping_mul(PRIME);
    }
    lanes.iter().fold(seed, |h, &lane| (h ^ lane).wrapping_mul(PRIME))
}

struct PlanEntry {
    spec: PlanSpec,
    fingerprint: u64,
    plan: Arc<QConvPlan>,
}

/// Shared per-engine cache of layer plans plus the workspace pool the
/// planned drivers lower through.
///
/// Clones of the `Arc<PlanCache>` handed to an engine share both: a serve
/// worker pool pointing its per-model engines at one cache quantizes and
/// bit-splits each layer's weights exactly once across the fleet.
#[derive(Default)]
pub struct PlanCache {
    entries: Mutex<HashMap<String, PlanEntry>>,
    pool: WorkspacePool,
    builds: std::sync::atomic::AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `name`, building (or rebuilding, when the weight
    /// fingerprint or spec changed) as needed.
    pub fn plan_for(&self, name: &str, weights: &Tensor, spec: PlanSpec) -> Arc<QConvPlan> {
        let fp = weight_fingerprint(weights);
        let mut entries = self.entries.lock().expect("plan cache poisoned");
        if let Some(e) = entries.get(name) {
            if e.fingerprint == fp && e.spec == spec {
                return Arc::clone(&e.plan);
            }
        }
        let plan = Arc::new(QConvPlan::build(weights, spec));
        self.builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        entries
            .insert(name.to_string(), PlanEntry { spec, fingerprint: fp, plan: Arc::clone(&plan) });
        plan
    }

    /// The workspace pool planned drivers should lower through.
    pub fn pool(&self) -> &WorkspacePool {
        &self.pool
    }

    /// Total plan builds (quantize + bit-split passes) performed. Stays at
    /// the layer count across repeated forwards with unchanged weights —
    /// the "split at most once per layer per weight version" invariant.
    pub fn builds(&self) -> u64 {
        self.builds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache poisoned").len()
    }

    /// Whether no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached plans (weights changed wholesale, e.g. a training
    /// step or a model reload).
    pub fn invalidate(&self) {
        self.entries.lock().expect("plan cache poisoned").clear();
    }

    /// Adopt every plan entry from `other` (sharing the prepacked plans
    /// via `Arc`, not copying them). Entries keep their fingerprints, so a
    /// layer whose weights changed since `other` was built is rebuilt on
    /// first use while unchanged layers hit immediately — this is how a
    /// hot-swapped model version pays only for the plans of the layers a
    /// retrain actually touched.
    pub fn seed_from(&self, other: &PlanCache) {
        let src = other.entries.lock().expect("plan cache poisoned");
        let mut dst = self.entries.lock().expect("plan cache poisoned");
        for (name, e) in src.iter() {
            dst.entry(name.clone()).or_insert_with(|| PlanEntry {
                spec: e.spec,
                fingerprint: e.fingerprint,
                plan: Arc::clone(&e.plan),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> Tensor {
        let v: Vec<f32> = (0..2 * 3 * 9).map(|i| ((i * 37) % 19) as f32 / 9.5 - 1.0).collect();
        Tensor::from_vec([2, 3, 3, 3], v)
    }

    /// Padded rows of `codes` (3 × 3 × 3 filters → stride 32).
    fn padded(codes: &Tensor<i16>) -> PaddedRows {
        PaddedRows::from_filters(codes.as_slice(), 3, 3)
    }

    #[test]
    fn odq_plan_prepacks_padded_planes_and_filter_sums() {
        let w = weights();
        let plan = QConvPlan::build(&w, PlanSpec::odq(4, 2));
        let qw = quantize_weights(&w, 4);
        let p = split_qtensor(&qw, 2);
        assert_eq!(plan.rows, padded(&qw.codes));
        assert_eq!(plan.high_rows.as_ref(), Some(&padded(&p.high)));
        assert_eq!(plan.rows.view().stride(), 32);
        assert_eq!(plan.sum_nh, filter_code_sums(&p.high, 2));
        assert_eq!(plan.sum_nl, filter_code_sums(&p.low, 2));
        assert!(plan.lo_rows.is_none());
    }

    #[test]
    fn drq_plan_prepacks_requantized_weights() {
        let w = weights();
        let plan = QConvPlan::build(&w, PlanSpec::drq(8, 4));
        let qw = quantize_weights(&w, 8);
        let expect = requantize_codes(&qw.codes, requant_step(8, 4));
        assert_eq!(plan.lo_rows.as_ref(), Some(&padded(&expect)));
        assert_eq!(plan.rows, padded(&qw.codes));
        assert!(plan.high_rows.is_none());
    }

    #[test]
    fn cache_hits_until_weights_or_spec_change() {
        let cache = PlanCache::new();
        let w = weights();
        let spec = PlanSpec::odq(4, 2);
        let a = cache.plan_for("c1", &w, spec);
        let b = cache.plan_for("c1", &w, spec);
        assert!(Arc::ptr_eq(&a, &b), "same weights + spec must hit");
        assert_eq!(cache.len(), 1);

        let mut w2 = w.clone();
        w2.as_mut_slice()[5] += 0.25;
        let c = cache.plan_for("c1", &w2, spec);
        assert!(!Arc::ptr_eq(&a, &c), "changed weights must rebuild");

        let d = cache.plan_for("c1", &w2, PlanSpec::odq(4, 1));
        assert!(!Arc::ptr_eq(&c, &d), "changed spec must rebuild");

        cache.invalidate();
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprint_sees_every_element() {
        // Satellite regression: the seed's sampled hash missed interior
        // perturbations; the full FNV-1a digest must not.
        let w = weights();
        let base = weight_fingerprint(&w);
        for i in 0..w.numel() {
            let mut p = w.clone();
            p.as_mut_slice()[i] += 1e-3;
            assert_ne!(
                weight_fingerprint(&p),
                base,
                "perturbing element {i} must change the fingerprint"
            );
        }
        // And it distinguishes lengths even with identical prefixes.
        let short = Tensor::from_vec([1, 1, 1, 1], vec![0.0f32]);
        let long = Tensor::from_vec([1, 1, 1, 2], vec![0.0f32, 0.0]);
        assert_ne!(weight_fingerprint(&short), weight_fingerprint(&long));
    }

    #[test]
    fn seed_from_shares_unchanged_plans_and_rebuilds_changed_ones() {
        let old = PlanCache::new();
        let spec = PlanSpec::odq(4, 2);
        let w1 = weights();
        let mut w2 = weights();
        w2.as_mut_slice()[3] -= 0.5;
        let p1 = old.plan_for("c1", &w1, spec);
        let p2 = old.plan_for("c2", &w2, spec);

        // New version: c1 unchanged, c2 retrained.
        let mut w2_new = w2.clone();
        w2_new.as_mut_slice()[0] += 0.25;
        let fresh = PlanCache::new();
        fresh.seed_from(&old);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.builds(), 0, "seeding copies, it does not build");

        let q1 = fresh.plan_for("c1", &w1, spec);
        assert!(Arc::ptr_eq(&p1, &q1), "unchanged layer must hit the seeded plan");
        let q2 = fresh.plan_for("c2", &w2_new, spec);
        assert!(!Arc::ptr_eq(&p2, &q2), "changed layer must rebuild");
        assert_eq!(fresh.builds(), 1, "swap cost is exactly the changed layers");
    }

    #[test]
    fn valid_taps_cached_per_geometry() {
        let plan = QConvPlan::build(&weights(), PlanSpec::static_quant(4));
        let g = ConvGeom::new(3, 2, 6, 6, 3, 1, 1);
        let a = plan.valid_taps(&g);
        let b = plan.valid_taps(&g);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, valid_tap_counts(&g));
        let g2 = ConvGeom::new(3, 2, 6, 6, 3, 2, 0);
        assert_eq!(*plan.valid_taps(&g2), valid_tap_counts(&g2));
    }
}

//! Deterministic fault injection into the worker pool.
//!
//! A [`FaultHook`] installed in
//! [`ServeConfig::fault_hook`](crate::ServeConfig::fault_hook) is consulted
//! at the top of every batch, *before* any engine state is touched or any
//! lock besides the ledger is taken, and the worker panics with a message
//! containing `"fault injection"` when the hook says so. The bundled
//! triggers cover the nth batch fleet-wide ([`NthBatchFault`]), the nth
//! batch of one model ([`PerModelNthFault`]), and a seeded per-batch
//! probability ([`SeededProbFault`]) for the chaos harness.
//!
//! Every trigger in this module is deterministic in its inputs (batch
//! ordinal, model name, deployment version, seed), which is what lets a
//! chaos schedule replay: the *decision function* is pure even though the
//! batch ordinals themselves depend on thread timing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A predicate the worker pool consults as each batch starts executing.
///
/// Return `true` to make the worker panic (the supervision shell catches
/// it, answers the batch with [`crate::ServeError::Internal`], and
/// restarts the worker with fresh engines). Implementations must be cheap
/// and must not block: the hook runs on the worker's hot path with no
/// locks held.
pub trait FaultHook: Send + Sync + fmt::Debug {
    /// Decide whether the worker serving this batch should panic.
    ///
    /// * `nth` — 1-based fleet-wide ordinal of batches that *started*
    ///   executing (the ledger's `batches_started` counter).
    /// * `model` / `version` — the deployment the batch resolved to.
    fn should_panic(&self, nth: u64, model: &str, version: u64) -> bool;
}

/// Panic when the Nth batch (1-based, fleet-wide) starts executing.
#[derive(Clone, Copy, Debug)]
pub struct NthBatchFault {
    /// The fleet-wide batch ordinal to sabotage.
    pub nth: u64,
}

impl NthBatchFault {
    /// Fault the `nth` batch (1-based).
    pub fn new(nth: u64) -> Self {
        Self { nth }
    }
}

impl FaultHook for NthBatchFault {
    fn should_panic(&self, nth: u64, _model: &str, _version: u64) -> bool {
        nth == self.nth
    }
}

/// Panic when the Nth batch *of one named model* starts executing,
/// counting only that model's batches. Other models are untouched, which
/// is how a chaos schedule proves fault isolation between co-served
/// models.
#[derive(Debug)]
pub struct PerModelNthFault {
    model: String,
    nth: u64,
    seen: AtomicU64,
}

impl PerModelNthFault {
    /// Fault the `nth` batch (1-based) of `model`.
    pub fn new(model: impl Into<String>, nth: u64) -> Self {
        Self { model: model.into(), nth, seen: AtomicU64::new(0) }
    }
}

impl FaultHook for PerModelNthFault {
    fn should_panic(&self, _nth: u64, model: &str, _version: u64) -> bool {
        if model != self.model {
            return false;
        }
        self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.nth
    }
}

/// Panic on each batch independently with probability `prob`, decided by
/// a pure splitmix64 hash of `seed ^ nth` — no shared RNG state, so the
/// decision for batch ordinal N is a fixed function of (seed, N) no
/// matter which worker asks or in what order.
#[derive(Clone, Copy, Debug)]
pub struct SeededProbFault {
    seed: u64,
    /// Threshold in the u64 space: panic when `hash < threshold`.
    threshold: u64,
}

impl SeededProbFault {
    /// Fault each batch with probability `prob` (clamped to `0.0..=1.0`),
    /// deterministically derived from `seed` and the batch ordinal.
    pub fn new(seed: u64, prob: f64) -> Self {
        let p = prob.clamp(0.0, 1.0);
        // Map p to a u64 threshold; p == 1.0 must fault everything.
        let threshold = if p >= 1.0 { u64::MAX } else { (p * u64::MAX as f64) as u64 };
        Self { seed, threshold }
    }
}

/// The splitmix64 finalizer: a bijective avalanche over `u64`.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl FaultHook for SeededProbFault {
    fn should_panic(&self, nth: u64, _model: &str, _version: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        splitmix64(self.seed ^ nth) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_batch_fires_exactly_once() {
        let f = NthBatchFault::new(3);
        let fired: Vec<u64> = (1..=10).filter(|&n| f.should_panic(n, "m", 1)).collect();
        assert_eq!(fired, vec![3]);
    }

    #[test]
    fn per_model_counts_only_its_model() {
        let f = PerModelNthFault::new("alpha", 2);
        assert!(!f.should_panic(1, "alpha", 1));
        assert!(!f.should_panic(2, "beta", 1), "other models never trip the hook");
        assert!(f.should_panic(3, "alpha", 1), "second alpha batch fires");
        assert!(!f.should_panic(4, "alpha", 1), "fires exactly once");
    }

    #[test]
    fn seeded_prob_is_deterministic_and_roughly_calibrated() {
        let f = SeededProbFault::new(0xc4a05, 0.25);
        let a: Vec<bool> = (1..=10_000).map(|n| f.should_panic(n, "m", 1)).collect();
        let b: Vec<bool> = (1..=10_000).map(|n| f.should_panic(n, "m", 1)).collect();
        assert_eq!(a, b, "stateless: same inputs, same decisions");
        let hits = a.iter().filter(|&&h| h).count();
        assert!((1500..=3500).contains(&hits), "p=0.25 over 10k: got {hits}");
        let never = SeededProbFault::new(1, 0.0);
        assert!((1..=1000).all(|n| !never.should_panic(n, "m", 1)));
        let always = SeededProbFault::new(1, 1.0);
        assert!((1..=1000).all(|n| always.should_panic(n, "m", 1)));
    }
}

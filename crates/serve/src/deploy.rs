//! Versioned deployments, atomic routing state, and canary traffic splits.
//!
//! A [`Deployment`] is an immutable snapshot of everything a worker needs
//! to execute a version: the weights (`Arc<Model>` from the registry), the
//! per-version [`PlanCache`], and the registry fingerprint that pins it.
//! Admission resolves a request's model name to a deployment *once*, at
//! submit time, and the `Arc` rides with the request through the batcher
//! and the worker — so a hot swap never tears an in-flight request: old
//! admissions finish on the old snapshot, new admissions route to the new
//! one, and a batch (whose key includes the version) never mixes the two.
//!
//! `ModelRoute` holds the mutable routing decision per model name:
//! the current deployment, the previous one (kept warm for instant
//! rollback, plan caches intact), and an optional canary — a candidate
//! deployment receiving a configurable fraction of traffic, chosen by a
//! deterministic seeded hash of the request id ([`TrafficSplit`]), so the
//! same id always lands on the same side and a canary experiment is
//! exactly reproducible.

use std::sync::{Arc, Mutex};

use odq_nn::models::Model;
use odq_nn::policy::PrecisionPolicy;
use odq_quant::plan::PlanCache;
use odq_registry::{ModelRegistry, RegistryError};

/// An immutable, executable snapshot of one registry version.
pub struct Deployment {
    /// Model name (the routing key requests address).
    pub name: String,
    /// Registry version this snapshot serves.
    pub version: u64,
    /// The weights, shared with the registry.
    pub model: Arc<Model>,
    /// Per-version plan cache: quantized/bit-split weights and im2col
    /// workspaces, shared by every engine executing this deployment.
    pub plans: Arc<PlanCache>,
    /// The registry's full-content weight fingerprint for this version.
    pub fingerprint: u64,
    /// The precision policy published with this version, if any. A
    /// `Policy`-kind engine executes under this — so a hot swap to a
    /// version published with a different policy swaps weights and
    /// per-layer precision atomically.
    pub policy: Option<Arc<PrecisionPolicy>>,
}

impl Deployment {
    /// Snapshot `name`/`version` out of the registry with a fresh plan
    /// cache (seed it from a predecessor's via [`PlanCache::seed_from`] to
    /// make the swap cost exactly the rebuild of changed layers).
    pub(crate) fn from_registry(
        registry: &ModelRegistry,
        name: &str,
        version: u64,
    ) -> Result<Arc<Self>, DeployError> {
        let model = registry.get(name, version)?;
        let fingerprint = registry.fingerprint(name, version)?;
        let policy = registry.policy(name, version)?;
        Ok(Arc::new(Self {
            name: name.to_string(),
            version,
            model,
            plans: Arc::new(PlanCache::new()),
            fingerprint,
            policy,
        }))
    }
}

/// A deterministic canary split: requests whose seeded id-hash falls below
/// `fraction` route to the candidate deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficSplit {
    /// Fraction of traffic (0.0..=1.0) routed to the candidate.
    pub fraction: f64,
    /// Hash seed: re-seeding re-partitions which ids land on the canary.
    pub seed: u64,
}

impl TrafficSplit {
    /// Route `fraction` of traffic to the candidate under the default seed.
    pub fn new(fraction: f64) -> Self {
        Self { fraction, seed: 0 }
    }

    /// Same split, different id-partition.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The routing decision for a request id: `true` routes to the canary.
    /// Pure and deterministic — the same `(id, seed)` always agrees.
    pub fn picks_canary(&self, id: u64) -> bool {
        // splitmix64 finalizer over id ⊕ seed, mapped to [0, 1).
        let mut z = id ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        u < self.fraction
    }
}

/// Why a deploy/rollback/canary operation failed.
#[derive(Debug)]
pub enum DeployError {
    /// The server routes no model under this name.
    UnknownModel(String),
    /// Rollback with no previous deployment kept warm.
    NoPreviousVersion(String),
    /// The registry refused the lookup (unknown/retired version, …).
    Registry(RegistryError),
    /// The server's engine kind has no kernel to run it (e.g. a static
    /// bit width outside the quantizers' domain).
    InvalidEngine(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownModel(n) => write!(f, "server routes no model named {n:?}"),
            DeployError::NoPreviousVersion(n) => {
                write!(f, "model {n:?} has no previous deployment to roll back to")
            }
            DeployError::Registry(e) => write!(f, "registry: {e}"),
            DeployError::InvalidEngine(why) => write!(f, "engine rejected: {why}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<RegistryError> for DeployError {
    fn from(e: RegistryError) -> Self {
        DeployError::Registry(e)
    }
}

struct Canary {
    deployment: Arc<Deployment>,
    split: TrafficSplit,
}

struct RouteState {
    current: Arc<Deployment>,
    /// The previously current deployment, kept warm (plan cache intact)
    /// so rollback is a pointer swap, not a rebuild.
    previous: Option<Arc<Deployment>>,
    canary: Option<Canary>,
}

/// Mutable routing state for one model name. All transitions happen under
/// one short lock; resolution clones an `Arc` out — admission never holds
/// the lock across a forward pass.
pub(crate) struct ModelRoute {
    state: Mutex<RouteState>,
}

impl ModelRoute {
    pub fn new(current: Arc<Deployment>) -> Self {
        Self { state: Mutex::new(RouteState { current, previous: None, canary: None }) }
    }

    /// The deployment serving request `id` right now: the canary when the
    /// split picks it, the current deployment otherwise.
    pub fn resolve(&self, id: u64) -> Arc<Deployment> {
        let st = self.state.lock().expect("route lock");
        if let Some(c) = &st.canary {
            if c.split.picks_canary(id) {
                return Arc::clone(&c.deployment);
            }
        }
        Arc::clone(&st.current)
    }

    /// The version new non-canary admissions execute.
    pub fn current_version(&self) -> u64 {
        self.state.lock().expect("route lock").current.version
    }

    /// Atomically make `dep` current. The old current becomes `previous`
    /// (rollback target); a canary of the same version is consumed
    /// (promoting a canary deploys it), any other canary keeps routing.
    pub fn deploy(&self, dep: Arc<Deployment>) {
        let mut st = self.state.lock().expect("route lock");
        if st.canary.as_ref().is_some_and(|c| c.deployment.version == dep.version) {
            st.canary = None;
        }
        let old = std::mem::replace(&mut st.current, dep);
        st.previous = Some(old);
    }

    /// Atomically swap back to the previous deployment (which stays warm
    /// as the new `previous`, so rollback is reversible). Clears any
    /// canary: a rollback is a judgement that the newest weights are bad.
    pub fn rollback(&self, name: &str) -> Result<Arc<Deployment>, DeployError> {
        let mut st = self.state.lock().expect("route lock");
        let prev =
            st.previous.take().ok_or_else(|| DeployError::NoPreviousVersion(name.to_string()))?;
        let old = std::mem::replace(&mut st.current, Arc::clone(&prev));
        st.previous = Some(old);
        st.canary = None;
        Ok(prev)
    }

    /// Install (or replace) the canary deployment and its traffic split.
    pub fn set_canary(&self, dep: Arc<Deployment>, split: TrafficSplit) {
        let mut st = self.state.lock().expect("route lock");
        st.canary = Some(Canary { deployment: dep, split });
    }

    /// Remove the canary; all traffic returns to the current deployment.
    pub fn clear_canary(&self) {
        self.state.lock().expect("route lock").canary = None;
    }

    /// The deployment to seed a successor's plan cache from.
    pub fn current(&self) -> Arc<Deployment> {
        Arc::clone(&self.state.lock().expect("route lock").current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odq_nn::models::ModelCfg;
    use odq_nn::Arch;
    use odq_registry::ModelRegistry;

    fn registry_with(versions: usize) -> ModelRegistry {
        let reg = ModelRegistry::new();
        for i in 0..versions {
            let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
            cfg.input_hw = 8;
            cfg.in_channels = 1;
            cfg.seed = 7 + i as u64;
            reg.publish("m", Model::build(cfg), vec![]).unwrap();
        }
        reg
    }

    #[test]
    fn split_is_deterministic_and_roughly_proportional() {
        let split = TrafficSplit::new(0.25).with_seed(42);
        let picks: Vec<bool> = (0..10_000u64).map(|id| split.picks_canary(id)).collect();
        let again: Vec<bool> = (0..10_000u64).map(|id| split.picks_canary(id)).collect();
        assert_eq!(picks, again, "same (id, seed) must always agree");
        let frac = picks.iter().filter(|&&b| b).count() as f64 / picks.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed canary fraction {frac}");
        // Extremes are exact.
        assert!((0..100).all(|id| !TrafficSplit::new(0.0).picks_canary(id)));
        assert!((0..100).all(|id| TrafficSplit::new(1.0).picks_canary(id)));
        // A different seed partitions differently.
        let other = TrafficSplit::new(0.25).with_seed(43);
        assert_ne!(picks, (0..10_000u64).map(|id| other.picks_canary(id)).collect::<Vec<_>>());
    }

    #[test]
    fn deploy_rollback_and_canary_transitions() {
        let reg = registry_with(3);
        let v1 = Deployment::from_registry(&reg, "m", 1).unwrap();
        let v2 = Deployment::from_registry(&reg, "m", 2).unwrap();
        let v3 = Deployment::from_registry(&reg, "m", 3).unwrap();

        let route = ModelRoute::new(Arc::clone(&v1));
        assert_eq!(route.current_version(), 1);
        assert!(matches!(route.rollback("m"), Err(DeployError::NoPreviousVersion(_))));

        route.deploy(Arc::clone(&v2));
        assert_eq!(route.current_version(), 2);
        // Rollback swaps back — and is itself reversible.
        assert_eq!(route.rollback("m").unwrap().version, 1);
        assert_eq!(route.current_version(), 1);
        assert_eq!(route.rollback("m").unwrap().version, 2);

        // Canary routes a fraction; promoting it consumes the canary.
        route.set_canary(Arc::clone(&v3), TrafficSplit::new(1.0));
        assert_eq!(route.resolve(9).version, 3);
        route.deploy(Arc::clone(&v3));
        assert_eq!(route.current_version(), 3);
        assert_eq!(route.resolve(9).version, 3, "promoted canary is consumed");
        // Rollback clears a canary outright: after rolling back from v3,
        // current is v2 (the warm previous) and the v1 canary is gone.
        route.set_canary(v1, TrafficSplit::new(1.0));
        assert_eq!(route.resolve(9).version, 1);
        route.rollback("m").unwrap();
        assert_eq!(route.resolve(9).version, 2, "rollback must clear the canary");
    }

    #[test]
    fn retired_versions_do_not_deploy() {
        let reg = registry_with(2);
        reg.retire("m", 1).unwrap();
        assert!(matches!(
            Deployment::from_registry(&reg, "m", 1),
            Err(DeployError::Registry(RegistryError::VersionRetired(_, 1)))
        ));
        assert!(Deployment::from_registry(&reg, "m", 2).is_ok());
    }
}

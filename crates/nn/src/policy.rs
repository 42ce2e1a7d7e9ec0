//! Per-layer precision policies: the IR behind mixed-precision execution.
//!
//! The paper's central claim is that precision should follow output
//! sensitivity, and its Sec. 6.4 ablation varies threshold granularity
//! per layer. A [`PrecisionPolicy`] makes that a first-class, serializable
//! artifact: each conv layer (addressed by its paper name, `"C1"`,
//! `"C2"`, ...) is assigned a [`Route`] — run in float, at a static
//! DoReFa bit width, under input-directed DRQ, or under output-directed
//! ODQ — with a default route for unlisted layers.
//!
//! The policy is pure data (scalar fields only): this crate knows nothing
//! about the engines that execute routes. `odq-serve` builds one
//! sub-engine per distinct route and dispatches by layer name; `odq-nn`'s
//! ODQM manifests embed a policy next to the weights so it versions,
//! publishes, and rolls back with them; `odq-registry` validates at
//! publish time that every named route matches a real conv layer; and
//! `odq-conformance` mirrors each route with its scalar oracle.
//!
//! [`auto_policy`] is the greedy builder: given recorded per-layer ODQ
//! sensitive fractions, it assigns the cheapest acceptable route per
//! layer — ODQ where most outputs are insensitive, otherwise the smallest
//! static bit width whose weight SQNR clears a floor, falling back to
//! float when none does.

use std::borrow::Cow;
use std::io::{self, Read, Write};

use odq_quant::sqnr::weight_bits_for_sqnr;

use crate::models::Model;
use crate::serialize::{read_str, read_u32, write_str, write_u32, CheckpointError};
use crate::Layer as _;

/// How one conv layer executes under a [`PrecisionPolicy`].
///
/// Routes carry plain scalars (no engine config structs) so the policy IR
/// stays engine-agnostic; executors reconstruct their native configs from
/// these fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Route {
    /// Float reference execution (honors QAT fake-quantization).
    Float,
    /// Static DoReFa quantization at fixed widths.
    Static {
        /// Weight bit width (2..=16; symmetric grid at 16).
        w_bits: u8,
        /// Activation bit width (1..=15).
        a_bits: u8,
        /// Activation clip range.
        a_clip: f32,
    },
    /// Input-directed DRQ (the baseline's region-masked mixed precision).
    Drq {
        /// High-precision bit width for sensitive regions (2..=15).
        hi_bits: u8,
        /// Low-precision bit width for insensitive regions; must give an
        /// integral requantization step `(2^hi − 1)/(2^lo − 1)`.
        lo_bits: u8,
        /// Activation clip range.
        a_clip: f32,
        /// Square region edge for the input sensitivity test.
        region: u32,
        /// Input-region sensitivity threshold.
        input_threshold: f32,
    },
    /// Output-directed dynamic quantization (the paper's method).
    Odq {
        /// Output sensitivity threshold.
        threshold: f32,
        /// Skip the precision-loss instrumentation (the INT4 reference)
        /// when a non-serving caller records statistics. Outputs are
        /// identical either way, and serving ignores the flag: it never
        /// computes the reference. Kept for the checkpoint format.
        sparse: bool,
    },
}

impl Route {
    /// Short stable label for ledgers and per-route stats sections.
    /// Distinct route *kinds* get distinct labels; two ODQ routes with
    /// different thresholds aggregate under one `"odq"` section.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            Route::Float => Cow::Borrowed("float"),
            Route::Static { w_bits, a_bits, .. } if w_bits == a_bits => {
                Cow::Owned(format!("int{w_bits}"))
            }
            Route::Static { w_bits, a_bits, .. } => Cow::Owned(format!("w{w_bits}a{a_bits}")),
            Route::Drq { .. } => Cow::Borrowed("drq"),
            Route::Odq { .. } => Cow::Borrowed("odq"),
        }
    }

    /// Structural sanity: exactly the routes the kernels execute. Bit
    /// widths must lie in the quantizers' domains — activations 1..=15,
    /// static weights 2..=16 (symmetric grid at 16), DRQ `hi_bits` 2..=15
    /// with `lo_bits` giving an integral requantization step — and
    /// thresholds must be finite.
    pub fn validate(&self) -> Result<(), String> {
        let bits_ok = |what: &str, b: u8, lo: u8, hi: u8| {
            if (lo..=hi).contains(&b) {
                Ok(())
            } else {
                Err(format!("{what} bit width {b} outside {lo}..={hi}"))
            }
        };
        match *self {
            Route::Float => Ok(()),
            Route::Static { w_bits, a_bits, a_clip } => {
                bits_ok("weight", w_bits, 2, 16)?;
                bits_ok("activation", a_bits, 1, 15)?;
                if !(a_clip.is_finite() && a_clip > 0.0) {
                    return Err(format!("activation clip {a_clip} must be finite and positive"));
                }
                Ok(())
            }
            Route::Drq { hi_bits, lo_bits, a_clip, region, input_threshold } => {
                bits_ok("high-precision", hi_bits, 2, 15)?;
                bits_ok("low-precision", lo_bits, 1, hi_bits)?;
                if !((1u32 << hi_bits) - 1).is_multiple_of((1u32 << lo_bits) - 1) {
                    return Err(format!(
                        "no integral requantization step for {hi_bits}->{lo_bits}"
                    ));
                }
                if region == 0 {
                    return Err("DRQ region edge must be at least 1".into());
                }
                if !(a_clip.is_finite() && a_clip > 0.0) {
                    return Err(format!("activation clip {a_clip} must be finite and positive"));
                }
                if !input_threshold.is_finite() {
                    return Err(format!("input threshold {input_threshold} must be finite"));
                }
                Ok(())
            }
            Route::Odq { threshold, .. } => {
                if threshold.is_nan() {
                    return Err("ODQ threshold must not be NaN".into());
                }
                Ok(())
            }
        }
    }
}

/// A per-conv-layer precision assignment: named overrides over a default
/// route. Layer entries are kept sorted and unique, so two policies with
/// the same assignments compare equal regardless of insertion order, and
/// serialization is canonical.
#[derive(Clone, Debug, PartialEq)]
pub struct PrecisionPolicy {
    default: Route,
    layers: Vec<(String, Route)>,
}

impl PrecisionPolicy {
    /// A policy routing every layer the same way.
    pub fn uniform(default: Route) -> Self {
        Self { default, layers: Vec::new() }
    }

    /// Set (or replace) the route for one named layer.
    pub fn set(&mut self, name: impl Into<String>, route: Route) -> &mut Self {
        let name = name.into();
        match self.layers.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => self.layers[i].1 = route,
            Err(i) => self.layers.insert(i, (name, route)),
        }
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl Into<String>, route: Route) -> Self {
        self.set(name, route);
        self
    }

    /// The route layer `name` executes under.
    pub fn route_for(&self, name: &str) -> Route {
        match self.layers.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.layers[i].1,
            Err(_) => self.default,
        }
    }

    /// The fallback route for unlisted layers.
    pub fn default_route(&self) -> Route {
        self.default
    }

    /// Named layer overrides, sorted by layer name.
    pub fn layers(&self) -> &[(String, Route)] {
        &self.layers
    }

    /// Every distinct route this policy can dispatch to (default first),
    /// deduplicated by exact field equality — the set of sub-engines a
    /// routed executor needs.
    pub fn distinct_routes(&self) -> Vec<Route> {
        let mut out = vec![self.default];
        for (_, r) in &self.layers {
            if !out.contains(r) {
                out.push(*r);
            }
        }
        out
    }

    /// Validate this policy against a concrete model: every route must be
    /// structurally sane and every named layer must be a real conv layer
    /// of `model`. This is what the registry runs at publish time, so a
    /// policy that routes a layer the candidate does not have can never
    /// become routable.
    pub fn validate(&self, model: &mut Model) -> Result<(), String> {
        self.default.validate().map_err(|e| format!("default route: {e}"))?;
        for (name, route) in &self.layers {
            route.validate().map_err(|e| format!("route for layer {name:?}: {e}"))?;
        }
        let mut conv_names: Vec<String> = Vec::new();
        model.net.visit_convs_mut(&mut |c| conv_names.push(c.name.clone()));
        for (name, _) in &self.layers {
            if !conv_names.iter().any(|n| n == name) {
                return Err(format!(
                    "policy routes layer {name:?}, but model {:?} has no conv layer by that name \
                     (layers: {conv_names:?})",
                    model.name
                ));
            }
        }
        Ok(())
    }

    /// Serialize the policy (versioned binary chunk; f32 fields as raw bit
    /// patterns, so a write/read cycle is bit-exact).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_u32(w, POLICY_VERSION)?;
        write_route(w, &self.default)?;
        write_u32(w, self.layers.len() as u32)?;
        for (name, route) in &self.layers {
            write_str(w, name)?;
            write_route(w, route)?;
        }
        Ok(())
    }

    /// Deserialize a policy written by [`write_to`](Self::write_to).
    pub fn read_from(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let version = read_u32(r)?;
        if version != POLICY_VERSION {
            return Err(CheckpointError::Format(format!("unsupported policy version {version}")));
        }
        let default = read_route(r)?;
        let count = read_u32(r)? as usize;
        if count > 1 << 16 {
            return Err(CheckpointError::Format(format!("implausible policy layer count {count}")));
        }
        let mut policy = Self::uniform(default);
        for _ in 0..count {
            let name = read_str(r, "policy layer name")?;
            let route = read_route(r)?;
            policy.set(name, route);
        }
        Ok(policy)
    }
}

/// Version of the serialized policy chunk embedded in ODQM manifests.
pub const POLICY_VERSION: u32 = 1;

fn write_route(w: &mut impl Write, route: &Route) -> io::Result<()> {
    match *route {
        Route::Float => write_u32(w, 0),
        Route::Static { w_bits, a_bits, a_clip } => {
            write_u32(w, 1)?;
            write_u32(w, w_bits as u32)?;
            write_u32(w, a_bits as u32)?;
            write_u32(w, a_clip.to_bits())
        }
        Route::Drq { hi_bits, lo_bits, a_clip, region, input_threshold } => {
            write_u32(w, 2)?;
            write_u32(w, hi_bits as u32)?;
            write_u32(w, lo_bits as u32)?;
            write_u32(w, a_clip.to_bits())?;
            write_u32(w, region)?;
            write_u32(w, input_threshold.to_bits())
        }
        Route::Odq { threshold, sparse } => {
            write_u32(w, 3)?;
            write_u32(w, threshold.to_bits())?;
            write_u32(w, sparse as u32)
        }
    }
}

fn read_route(r: &mut impl Read) -> Result<Route, CheckpointError> {
    Ok(match read_u32(r)? {
        0 => Route::Float,
        1 => Route::Static {
            w_bits: read_u32(r)? as u8,
            a_bits: read_u32(r)? as u8,
            a_clip: f32::from_bits(read_u32(r)?),
        },
        2 => Route::Drq {
            hi_bits: read_u32(r)? as u8,
            lo_bits: read_u32(r)? as u8,
            a_clip: f32::from_bits(read_u32(r)?),
            region: read_u32(r)?,
            input_threshold: f32::from_bits(read_u32(r)?),
        },
        3 => Route::Odq { threshold: f32::from_bits(read_u32(r)?), sparse: read_u32(r)? != 0 },
        other => return Err(CheckpointError::Format(format!("unknown route tag {other}"))),
    })
}

/// Knobs for the greedy [`auto_policy`] builder.
#[derive(Clone, Copy, Debug)]
pub struct AutoPolicyCfg {
    /// Threshold used for layers routed to ODQ.
    pub odq_threshold: f32,
    /// A layer whose recorded sensitive fraction is at or below this
    /// routes to ODQ: most of its outputs skip the high-precision pass,
    /// so ODQ is the cheapest assignment that preserves them.
    pub odq_ceiling: f64,
    /// Smallest static bit width the builder may assign (clamped to
    /// 2..=15).
    pub min_bits: u8,
    /// Largest static bit width the builder tries before giving up and
    /// routing the layer to float (clamped to 2..=15).
    pub max_bits: u8,
    /// Weight-SQNR floor (dB): the assigned static width must quantize
    /// the layer's weights at least this faithfully.
    pub sqnr_floor_db: f32,
}

impl Default for AutoPolicyCfg {
    fn default() -> Self {
        Self { odq_threshold: 0.3, odq_ceiling: 0.5, min_bits: 2, max_bits: 8, sqnr_floor_db: 16.0 }
    }
}

/// Greedily assign the cheapest acceptable route to every conv layer of
/// `model`, from recorded per-layer ODQ sensitive fractions (as produced
/// by `odq-core`'s recording engine) and weight SQNR:
///
/// 1. mostly-insensitive layers (fraction ≤ `odq_ceiling`) route to ODQ —
///    the work skipped is proportional to the insensitive fraction;
/// 2. otherwise the smallest `min_bits..=max_bits` static width whose
///    weight SQNR clears `sqnr_floor_db` wins (cheapest bits subject to
///    the floor);
/// 3. layers no static width can represent faithfully enough fall back to
///    float.
///
/// Layers absent from `sensitivity` are treated as fully sensitive.
/// The returned policy names every conv layer explicitly; its default
/// route is the widest static width, so an unlisted layer (impossible for
/// this model, conservative for any other) never loses precision.
pub fn auto_policy(
    model: &mut Model,
    sensitivity: &[(String, f64)],
    cfg: &AutoPolicyCfg,
) -> PrecisionPolicy {
    // Both widths of a static route: activations 1..=15 and offset-binary
    // weights 2..=15 (what `Route::validate` accepts and SQNR can rank).
    let max_bits = cfg.max_bits.clamp(2, 15);
    let min_bits = cfg.min_bits.clamp(2, max_bits);
    let mut policy =
        PrecisionPolicy::uniform(Route::Static { w_bits: max_bits, a_bits: max_bits, a_clip: 1.0 });
    let mut assignments: Vec<(String, Route)> = Vec::new();
    model.net.visit_convs_mut(&mut |c| {
        let frac = sensitivity.iter().find(|(n, _)| n == &c.name).map_or(1.0, |(_, f)| *f);
        let route = if frac <= cfg.odq_ceiling {
            Route::Odq { threshold: cfg.odq_threshold, sparse: false }
        } else {
            match weight_bits_for_sqnr(&c.weight.value, cfg.sqnr_floor_db, min_bits, max_bits) {
                Some(bits) => Route::Static { w_bits: bits, a_bits: bits, a_clip: 1.0 },
                None => Route::Float,
            }
        };
        assignments.push((c.name.clone(), route));
    });
    for (name, route) in assignments {
        policy.set(name, route);
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Model, ModelCfg};
    use crate::Arch;

    fn model() -> Model {
        let mut cfg = ModelCfg::small(Arch::ResNet20, 4);
        cfg.input_hw = 8;
        Model::build(cfg)
    }

    #[test]
    fn route_lookup_respects_overrides_and_default() {
        let p = PrecisionPolicy::uniform(Route::Float)
            .with("C2", Route::Odq { threshold: 0.3, sparse: false })
            .with("C1", Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 });
        assert_eq!(p.route_for("C1"), Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 });
        assert_eq!(p.route_for("C2"), Route::Odq { threshold: 0.3, sparse: false });
        assert_eq!(p.route_for("C9"), Route::Float);
        assert_eq!(p.distinct_routes().len(), 3);
        // Insertion order does not matter: the layer list is canonical.
        let q = PrecisionPolicy::uniform(Route::Float)
            .with("C1", Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 })
            .with("C2", Route::Odq { threshold: 0.3, sparse: false });
        assert_eq!(p, q);
    }

    #[test]
    fn distinct_routes_dedupes_by_exact_fields() {
        let p = PrecisionPolicy::uniform(Route::Odq { threshold: 0.3, sparse: false })
            .with("C1", Route::Odq { threshold: 0.3, sparse: false })
            .with("C2", Route::Odq { threshold: 0.6, sparse: false });
        // C1 shares the default's engine; C2 needs its own.
        assert_eq!(p.distinct_routes().len(), 2);
    }

    #[test]
    fn policy_roundtrips_bit_exactly() {
        let p = PrecisionPolicy::uniform(Route::Static { w_bits: 8, a_bits: 4, a_clip: 0.75 })
            .with("C1", Route::Float)
            .with(
                "C3",
                Route::Drq {
                    hi_bits: 8,
                    lo_bits: 4,
                    a_clip: 1.0,
                    region: 2,
                    input_threshold: 0.25,
                },
            )
            .with("C2", Route::Odq { threshold: f32::MIN_POSITIVE, sparse: true });
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        let q = PrecisionPolicy::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(p, q);
        // Threshold bit patterns survive exactly.
        match q.route_for("C2") {
            Route::Odq { threshold, sparse } => {
                assert_eq!(threshold.to_bits(), f32::MIN_POSITIVE.to_bits());
                assert!(sparse);
            }
            other => panic!("wrong route {other:?}"),
        }
    }

    #[test]
    fn read_rejects_bad_version_and_tag() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 99).unwrap();
        assert!(PrecisionPolicy::read_from(&mut std::io::Cursor::new(&buf)).is_err());
        let mut buf = Vec::new();
        write_u32(&mut buf, POLICY_VERSION).unwrap();
        write_u32(&mut buf, 7).unwrap(); // bogus route tag
        assert!(PrecisionPolicy::read_from(&mut std::io::Cursor::new(&buf)).is_err());
    }

    #[test]
    fn validate_rejects_unknown_layers_and_bad_routes() {
        let mut m = model();
        let good = PrecisionPolicy::uniform(Route::Float)
            .with("C1", Route::Odq { threshold: 0.3, sparse: false });
        good.validate(&mut m).unwrap();

        let ghost = PrecisionPolicy::uniform(Route::Float).with("C99", Route::Float);
        let err = ghost.validate(&mut m).unwrap_err();
        assert!(err.contains("C99"), "{err}");

        let bad_bits =
            PrecisionPolicy::uniform(Route::Static { w_bits: 0, a_bits: 8, a_clip: 1.0 });
        assert!(bad_bits.validate(&mut m).is_err());
        let bad_drq = PrecisionPolicy::uniform(Route::Drq {
            hi_bits: 4,
            lo_bits: 8,
            a_clip: 1.0,
            region: 2,
            input_threshold: 0.1,
        });
        assert!(bad_drq.validate(&mut m).is_err());
    }

    #[test]
    fn route_validate_matches_the_kernels_domain() {
        let st = |w_bits, a_bits| Route::Static { w_bits, a_bits, a_clip: 1.0 };
        let drq = |hi_bits, lo_bits| Route::Drq {
            hi_bits,
            lo_bits,
            a_clip: 1.0,
            region: 2,
            input_threshold: 0.1,
        };
        for ok in [st(2, 1), st(16, 15), st(8, 8), drq(8, 4), drq(4, 2), drq(15, 5), drq(2, 1)] {
            ok.validate().unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
        for bad in [st(8, 16), st(1, 8), st(17, 8), drq(16, 8), drq(8, 3), drq(6, 4), drq(8, 0)] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn auto_policy_clamps_widths_to_the_static_domain() {
        let mut m = model();
        let cfg =
            AutoPolicyCfg { min_bits: 1, max_bits: 16, sqnr_floor_db: 1e9, ..Default::default() };
        let p = auto_policy(&mut m, &[], &cfg);
        // No width clears the floor: every layer is float, and the default
        // is the widest static route both quantizers accept.
        assert_eq!(p.default_route(), Route::Static { w_bits: 15, a_bits: 15, a_clip: 1.0 });
        p.validate(&mut m).unwrap();
        let easy = AutoPolicyCfg { min_bits: 1, max_bits: 16, sqnr_floor_db: -1e9, ..cfg };
        let p = auto_policy(&mut m, &[], &easy);
        assert!(p
            .layers()
            .iter()
            .all(|(_, r)| *r == Route::Static { w_bits: 2, a_bits: 2, a_clip: 1.0 }));
        p.validate(&mut m).unwrap();
    }

    #[test]
    fn auto_policy_names_every_conv_and_follows_sensitivity() {
        let mut m = model();
        let mut names: Vec<String> = Vec::new();
        m.net.visit_convs_mut(&mut |c| names.push(c.name.clone()));
        // First layer mostly insensitive, rest fully sensitive.
        let sens: Vec<(String, f64)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), if i == 0 { 0.1 } else { 1.0 }))
            .collect();
        let p = auto_policy(&mut m, &sens, &AutoPolicyCfg::default());
        assert_eq!(p.layers().len(), names.len(), "every conv layer is routed explicitly");
        assert!(
            matches!(p.route_for(&names[0]), Route::Odq { .. }),
            "mostly-insensitive layer routes to ODQ"
        );
        for n in &names[1..] {
            assert!(
                matches!(p.route_for(n), Route::Static { .. } | Route::Float),
                "sensitive layer {n} stays static/float, got {:?}",
                p.route_for(n)
            );
        }
        p.validate(&mut m).unwrap();

        // A stricter SQNR floor never assigns *fewer* bits.
        let strict = auto_policy(
            &mut m,
            &sens,
            &AutoPolicyCfg { sqnr_floor_db: 30.0, ..Default::default() },
        );
        for n in &names[1..] {
            let bits = |r: Route| match r {
                Route::Static { w_bits, .. } => w_bits as u32,
                Route::Float => u32::MAX,
                _ => 0,
            };
            assert!(bits(strict.route_for(n)) >= bits(p.route_for(n)));
        }
    }
}

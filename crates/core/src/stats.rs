//! Per-layer statistics collected while running models under ODQ.

use odq_tensor::ConvGeom;

use crate::mask::SensitivityMask;

/// Statistics for one conv layer, accumulated over all evaluated images.
#[derive(Clone, Debug)]
pub struct LayerStats {
    /// Layer name (`C1`, `C2`, ...).
    pub name: String,
    /// Layer geometry.
    pub geom: ConvGeom,
    /// Total output features processed.
    pub total_outputs: u64,
    /// Of those, predicted sensitive.
    pub sensitive_outputs: u64,
    /// Sum of |odq − reference| over *reference-sensitive* outputs
    /// (outputs whose exact INT4 magnitude meets the threshold) — the
    /// paper's per-layer "precision loss" (Sec. 6.1). Needs the INT4
    /// reference, so only an `OdqEngine` with `sparse` clear records it;
    /// it stays 0 with `sparse` set, as in serving.
    pub precision_loss_sum: f64,
    /// Count of reference-sensitive outputs (denominator for the mean).
    /// Recorded only with `sparse` clear, like `precision_loss_sum`.
    pub reference_sensitive: u64,
    /// Sensitive-output counts per (image, output channel), appended per
    /// pass: the accelerator simulator's workload description.
    pub channel_counts: Vec<Vec<u32>>,
}

impl LayerStats {
    /// New empty record.
    pub fn new(name: impl Into<String>, geom: ConvGeom) -> Self {
        Self {
            name: name.into(),
            geom,
            total_outputs: 0,
            sensitive_outputs: 0,
            precision_loss_sum: 0.0,
            reference_sensitive: 0,
            channel_counts: Vec::new(),
        }
    }

    /// Add one pass's predictor mask: output totals, sensitive count, and
    /// per-(image, channel) sensitive counts.
    pub fn record_mask(&mut self, mask: &SensitivityMask) {
        self.total_outputs += mask.len() as u64;
        self.sensitive_outputs += mask.sensitive_count() as u64;
        self.channel_counts.extend(mask.channel_counts());
    }

    /// Fraction of outputs predicted sensitive.
    pub fn sensitive_fraction(&self) -> f64 {
        if self.total_outputs == 0 {
            return 0.0;
        }
        self.sensitive_outputs as f64 / self.total_outputs as f64
    }

    /// Fraction predicted insensitive (Figs. 9/10 plot this per layer).
    pub fn insensitive_fraction(&self) -> f64 {
        1.0 - self.sensitive_fraction()
    }

    /// Mean precision loss over reference-sensitive outputs (Sec. 6.1's
    /// per-layer numbers; ~0.02–0.1 for ODQ on ResNet-20).
    pub fn mean_precision_loss(&self) -> f64 {
        if self.reference_sensitive == 0 {
            return 0.0;
        }
        self.precision_loss_sum / self.reference_sensitive as f64
    }
}

/// Statistics for a whole model run under a dynamic-quantization engine.
#[derive(Clone, Debug, Default)]
pub struct OdqStats {
    /// Per-layer records in first-encounter order.
    pub layers: Vec<LayerStats>,
}

impl OdqStats {
    /// Find a layer record by name.
    pub fn layer(&self, name: &str) -> Option<&LayerStats> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Overall sensitive fraction across all layers (output-weighted).
    pub fn overall_sensitive_fraction(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.total_outputs).sum();
        if total == 0 {
            return 0.0;
        }
        let sens: u64 = self.layers.iter().map(|l| l.sensitive_outputs).sum();
        sens as f64 / total as f64
    }

    /// Per-layer `(name, insensitive_fraction)` pairs, in layer order.
    pub fn insensitive_by_layer(&self) -> Vec<(String, f64)> {
        self.layers.iter().map(|l| (l.name.clone(), l.insensitive_fraction())).collect()
    }

    /// Clear all records.
    pub fn reset(&mut self) {
        self.layers.clear();
    }

    /// Move the accumulated records out, leaving this collector empty.
    /// Serving workers call this after each forward pass to turn one
    /// batch's records into a ledger entry while keeping the engine (and
    /// its weight cache) alive for the next batch.
    pub fn take(&mut self) -> OdqStats {
        OdqStats { layers: std::mem::take(&mut self.layers) }
    }

    /// Fold another run's records into this one, matching layers by name
    /// and appending layers not seen before in `other`'s order.
    pub fn merge(&mut self, other: &OdqStats) {
        for l in &other.layers {
            match self.layers.iter_mut().find(|m| m.name == l.name) {
                Some(m) => {
                    m.total_outputs += l.total_outputs;
                    m.sensitive_outputs += l.sensitive_outputs;
                    m.precision_loss_sum += l.precision_loss_sum;
                    m.reference_sensitive += l.reference_sensitive;
                    m.channel_counts.extend(l.channel_counts.iter().cloned());
                }
                None => self.layers.push(l.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> ConvGeom {
        ConvGeom::new(2, 3, 4, 4, 3, 1, 1)
    }

    #[test]
    fn fractions() {
        let mut l = LayerStats::new("C1", geom());
        l.total_outputs = 100;
        l.sensitive_outputs = 25;
        assert!((l.sensitive_fraction() - 0.25).abs() < 1e-12);
        assert!((l.insensitive_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_layer_fractions_are_zero() {
        let l = LayerStats::new("C1", geom());
        assert_eq!(l.sensitive_fraction(), 0.0);
        assert_eq!(l.mean_precision_loss(), 0.0);
    }

    #[test]
    fn precision_loss_mean() {
        let mut l = LayerStats::new("C1", geom());
        l.precision_loss_sum = 1.5;
        l.reference_sensitive = 3;
        assert!((l.mean_precision_loss() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_aggregation() {
        let mut s = OdqStats::default();
        let mut a = LayerStats::new("C1", geom());
        a.total_outputs = 100;
        a.sensitive_outputs = 10;
        let mut b = LayerStats::new("C2", geom());
        b.total_outputs = 300;
        b.sensitive_outputs = 90;
        s.layers.push(a);
        s.layers.push(b);
        assert!((s.overall_sensitive_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(s.layer("C2").unwrap().total_outputs, 300);
        assert!(s.layer("C9").is_none());
        let ins = s.insensitive_by_layer();
        assert_eq!(ins[0].0, "C1");
        assert!((ins[0].1 - 0.9).abs() < 1e-12);
        s.reset();
        assert!(s.layers.is_empty());
    }

    #[test]
    fn take_moves_records_out() {
        let mut s = OdqStats::default();
        let mut a = LayerStats::new("C1", geom());
        a.total_outputs = 10;
        a.channel_counts.push(vec![1, 2]);
        s.layers.push(a);
        let taken = s.take();
        assert!(s.layers.is_empty());
        assert_eq!(taken.layers.len(), 1);
        assert_eq!(taken.layers[0].total_outputs, 10);
    }

    #[test]
    fn merge_accumulates_by_name() {
        let mut s = OdqStats::default();
        let mut a = LayerStats::new("C1", geom());
        a.total_outputs = 10;
        a.sensitive_outputs = 4;
        a.channel_counts.push(vec![4]);
        s.layers.push(a);

        let mut other = OdqStats::default();
        let mut b = LayerStats::new("C1", geom());
        b.total_outputs = 30;
        b.sensitive_outputs = 6;
        b.channel_counts.push(vec![6]);
        other.layers.push(b);
        other.layers.push(LayerStats::new("C2", geom()));

        s.merge(&other);
        assert_eq!(s.layers.len(), 2);
        let c1 = s.layer("C1").unwrap();
        assert_eq!(c1.total_outputs, 40);
        assert_eq!(c1.sensitive_outputs, 10);
        assert_eq!(c1.channel_counts.len(), 2);
        assert!(s.layer("C2").is_some());
    }
}

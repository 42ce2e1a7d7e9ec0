//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from benchmark code around each public call (and
//! converted from the server's `TraceBuffer` stages), kept in memory, and
//! written as JSON lines when the run ends. A layer's self time is its
//! spans' duration minus the part their child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        // Ids below 2^40 are reserved for caller-chosen ids (request
        // spans are keyed by request id, so child spans can name their
        // parent before it is recorded).
        Self { epoch, next: AtomicU64::new(1 << 40), spans: Mutex::new(Vec::new()) }
    }

    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span with a caller-chosen id.
    pub fn record_id(
        &self,
        id: u64,
        parent: u64,
        layer: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span { id, parent, layer, start_ns, dur_ns: dur.as_nanos() as u64 };
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).push(span);
    }

    /// Record a span with a fresh id; returns the id.
    pub fn record(&self, parent: u64, layer: &'static str, start: Instant, dur: Duration) -> u64 {
        let id = self.fresh_id();
        self.record_id(id, parent, layer, start, dur);
        id
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Total self time per layer, in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let own = s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id, s.parent, s.layer, s.start_ns, s.dur_ns
            )?;
        }
        f.flush()
    }
}

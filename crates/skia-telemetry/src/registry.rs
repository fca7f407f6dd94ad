//! The metric registry: named counters and gauges behind cheap handles.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::histogram::{Histogram, LocalHistogram};
use crate::snapshot::Snapshot;
use crate::trace::{EventTrace, TraceConfig};

/// A monotonically increasing `u64` metric.
///
/// The handle is a shared pointer to a plain cell: incrementing costs one
/// dereference and one store. Clones share the same cell, so a component can
/// keep its handle while the registry retains another for snapshotting.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.set(self.0.get().wrapping_add(1));
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Overwrite the value (used when materializing pull-model component
    /// stats into the registry at snapshot time).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A floating-point level metric (means, fractions, ratios).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// Owner of every named metric of one simulation run.
///
/// Registration is idempotent: asking for an existing name returns a handle
/// to the same cell, so independent components can share a metric without
/// coordinating.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    trace: Option<EventTrace>,
}

impl MetricRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &str) -> Counter {
        self.counters.entry(name.to_string()).or_default().clone()
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        self.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&mut self, name: &str) -> Histogram {
        self.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Upsert a counter by name and set its value — the pull-model bridge
    /// for components that keep internal stats structs and are exported at
    /// snapshot time.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counter(name).set(v);
    }

    /// Upsert a gauge by name and set its value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Upsert a histogram by name and overwrite it with `local`'s contents.
    pub fn set_histogram(&mut self, name: &str, local: &LocalHistogram) {
        self.histogram(name).set(local);
    }

    /// Turn on event tracing; returns the recording handle. Calling again
    /// returns the existing trace.
    pub fn enable_trace(&mut self, config: TraceConfig) -> EventTrace {
        self.trace
            .get_or_insert_with(|| EventTrace::new(config))
            .clone()
    }

    /// The event trace, if enabled.
    #[must_use]
    pub fn trace(&self) -> Option<EventTrace> {
        self.trace.clone()
    }

    /// Number of registered counters.
    #[must_use]
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// Materialize every metric (and the trace contents, if any) into an
    /// owned, serializable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let (events, events_seen, events_dropped) = match &self.trace {
            Some(t) => (t.events(), t.seen(), t.dropped()),
            None => (Vec::new(), 0, 0),
        };
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
            events_seen,
            events_dropped,
            // Spans are process-wide, not per-registry: the emitter drains
            // them into its merged snapshot at finish time.
            spans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
        assert_eq!(reg.counter_count(), 1);
    }

    #[test]
    fn gauges_and_upserts() {
        let mut reg = MetricRegistry::new();
        reg.set_gauge("ipc", 1.75);
        reg.set_counter("l1i.hits", 42);
        let mut occ = LocalHistogram::new();
        occ.record(3);
        reg.set_histogram("occ", &occ);
        reg.set_histogram("occ", &occ);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.get("ipc"), Some(&1.75));
        assert_eq!(snap.counter("l1i.hits"), Some(42));
        assert_eq!(snap.histogram("occ").map(|h| h.count), Some(1));
    }

    #[test]
    fn snapshot_orders_names() {
        let mut reg = MetricRegistry::new();
        reg.counter("zeta");
        reg.counter("alpha");
        let names: Vec<_> = reg.snapshot().counters.keys().cloned().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}

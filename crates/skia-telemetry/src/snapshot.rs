//! Owned, serializable materialization of a [`crate::MetricRegistry`].

use std::collections::BTreeMap;

use serde::{Serialize, SerializeStruct, Serializer};

use crate::histogram::HistogramSnapshot;
use crate::json::{self, JsonValue};
use crate::span::{self, SpanRecord, SpanRollup};
use crate::trace::{Event, EventKind};

/// Everything a registry knew at one instant: counters, gauges, histogram
/// contents, and the resident event-trace window.
///
/// Snapshots are plain data — comparable, mergeable, and serializable — so
/// experiment binaries can write them to `results/*.json` and tests can
/// assert on them directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `name → value` for every registered counter.
    pub counters: BTreeMap<String, u64>,
    /// `name → value` for every registered gauge.
    pub gauges: BTreeMap<String, f64>,
    /// `name → materialized histogram` for every registered histogram.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Resident sampled events, oldest first (empty when tracing is off).
    pub events: Vec<Event>,
    /// Events offered to the trace before sampling.
    pub events_seen: u64,
    /// Sampled events displaced by the ring bound.
    pub events_dropped: u64,
    /// Completed profiling spans (empty unless the emitter drained the
    /// process-wide span collector into this snapshot; see
    /// [`crate::span`](mod@crate::span)).
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Value of a counter, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's materialization, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Aggregate the resident profiling spans per name (count/total/min/
    /// max) — the per-phase breakdown run manifests are built from.
    #[must_use]
    pub fn span_rollup(&self) -> BTreeMap<String, SpanRollup> {
        span::rollup(&self.spans)
    }

    /// Compress every non-zero counter into a behavioural-coverage feature:
    /// FNV-1a of the counter name mixed with the value's magnitude bucket
    /// (⌊log₂⌋, so a counter yields a new feature each time it crosses a
    /// power of two rather than on every increment). Fuzzers use the set of
    /// features seen across runs as a cheap "did this input exercise new
    /// behaviour?" signal, exactly like edge-coverage maps but over the
    /// registry the simulator already maintains. Deterministic across runs
    /// and platforms.
    #[must_use]
    pub fn counter_features(&self) -> Vec<u64> {
        self.counters
            .iter()
            .filter(|&(_, &v)| v > 0)
            .map(|(name, &v)| {
                let mut bytes = Vec::with_capacity(name.len() + 2);
                bytes.extend_from_slice(name.as_bytes());
                bytes.push(0xFE); // separator: name bytes never collide with bucket
                bytes.push(v.ilog2() as u8);
                crate::fnv1a(&bytes)
            })
            .collect()
    }

    /// Fold another snapshot into this one: counters and histogram buckets
    /// add, gauges take the other's value when present, events concatenate.
    /// This is the aggregation path a sharded multi-registry design would
    /// use; today it serves multi-run accumulation in tooling.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            let dst = self.histograms.entry(k.clone()).or_default();
            for (&lo, &c) in &h.buckets {
                *dst.buckets.entry(lo).or_insert(0) += c;
            }
            let was_empty = dst.count == 0;
            dst.count += h.count;
            dst.sum = dst.sum.wrapping_add(h.sum);
            if h.count > 0 {
                dst.min = if was_empty { h.min } else { dst.min.min(h.min) };
                dst.max = dst.max.max(h.max);
            }
        }
        self.events.extend(other.events.iter().copied());
        self.events_seen += other.events_seen;
        self.events_dropped += other.events_dropped;
        self.spans.extend(other.spans.iter().cloned());
    }

    /// Serialize to a compact JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        json::to_string(self)
    }

    /// Parse a snapshot back out of [`Snapshot::to_json_string`] output.
    pub fn from_json_str(s: &str) -> Result<Snapshot, String> {
        let v = JsonValue::parse(s)?;
        let obj = v.as_object().ok_or("snapshot must be a JSON object")?;

        let mut snap = Snapshot::default();
        if let Some(counters) = obj.get("counters").and_then(JsonValue::as_object) {
            for (k, v) in counters {
                let n = v.as_u64().ok_or_else(|| format!("counter {k} not u64"))?;
                snap.counters.insert(k.clone(), n);
            }
        }
        if let Some(gauges) = obj.get("gauges").and_then(JsonValue::as_object) {
            for (k, v) in gauges {
                let n = v.as_f64().ok_or_else(|| format!("gauge {k} not f64"))?;
                snap.gauges.insert(k.clone(), n);
            }
        }
        if let Some(hists) = obj.get("histograms").and_then(JsonValue::as_object) {
            for (k, v) in hists {
                snap.histograms.insert(k.clone(), parse_histogram(k, v)?);
            }
        }
        if let Some(events) = obj.get("events").and_then(JsonValue::as_array) {
            for (i, e) in events.iter().enumerate() {
                snap.events.push(parse_event(i, e)?);
            }
        }
        if let Some(spans) = obj.get("spans").and_then(JsonValue::as_array) {
            for (i, s) in spans.iter().enumerate() {
                snap.spans.push(parse_span(i, s)?);
            }
        }
        snap.events_seen = obj
            .get("events_seen")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        snap.events_dropped = obj
            .get("events_dropped")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        Ok(snap)
    }
}

fn parse_histogram(name: &str, v: &JsonValue) -> Result<HistogramSnapshot, String> {
    let obj = v
        .as_object()
        .ok_or_else(|| format!("histogram {name} not an object"))?;
    let mut h = HistogramSnapshot::default();
    if let Some(buckets) = obj.get("buckets").and_then(JsonValue::as_object) {
        for (lo, c) in buckets {
            let lo: u64 = lo
                .parse()
                .map_err(|e| format!("histogram {name} bucket key {lo:?}: {e}"))?;
            let c = c
                .as_u64()
                .ok_or_else(|| format!("histogram {name} bucket count not u64"))?;
            h.buckets.insert(lo, c);
        }
    }
    let field = |k: &str| obj.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    h.count = field("count");
    h.sum = field("sum");
    h.min = field("min");
    h.max = field("max");
    Ok(h)
}

fn parse_span(i: usize, v: &JsonValue) -> Result<SpanRecord, String> {
    let obj = v
        .as_object()
        .ok_or_else(|| format!("span {i} not an object"))?;
    let name = obj
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("span {i} missing name"))?
        .to_string();
    let field = |k: &str| obj.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(SpanRecord {
        name,
        thread: field("thread"),
        depth: field("depth") as u32,
        start_ns: field("start_ns"),
        dur_ns: field("dur_ns"),
    })
}

fn parse_event(i: usize, v: &JsonValue) -> Result<Event, String> {
    let obj = v
        .as_object()
        .ok_or_else(|| format!("event {i} not an object"))?;
    let kind_name = obj
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("event {i} missing kind"))?;
    let kind = EventKind::from_name(kind_name)
        .ok_or_else(|| format!("event {i} has unknown kind {kind_name:?}"))?;
    let field = |k: &str| obj.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(Event {
        cycle: field("cycle"),
        kind,
        pc: field("pc"),
        arg: field("arg"),
    })
}

impl Serialize for HistogramSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("HistogramSnapshot", 5)?;
        s.serialize_field("buckets", &self.buckets)?;
        s.serialize_field("count", &self.count)?;
        s.serialize_field("sum", &self.sum)?;
        s.serialize_field("min", &self.min)?;
        s.serialize_field("max", &self.max)?;
        s.end()
    }
}

impl Serialize for Event {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Event", 4)?;
        s.serialize_field("cycle", &self.cycle)?;
        s.serialize_field("kind", self.kind.name())?;
        s.serialize_field("pc", &self.pc)?;
        s.serialize_field("arg", &self.arg)?;
        s.end()
    }
}

impl Serialize for SpanRecord {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SpanRecord", 5)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("thread", &self.thread)?;
        s.serialize_field("depth", &self.depth)?;
        s.serialize_field("start_ns", &self.start_ns)?;
        s.serialize_field("dur_ns", &self.dur_ns)?;
        s.end()
    }
}

impl Serialize for Snapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Snapshot", 7)?;
        s.serialize_field("counters", &self.counters)?;
        s.serialize_field("gauges", &self.gauges)?;
        s.serialize_field("histograms", &self.histograms)?;
        s.serialize_field("events", &self.events)?;
        s.serialize_field("events_seen", &self.events_seen)?;
        s.serialize_field("events_dropped", &self.events_dropped)?;
        s.serialize_field("spans", &self.spans)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::registry::MetricRegistry;
    use crate::trace::TraceConfig;

    fn sample_snapshot() -> Snapshot {
        let mut reg = MetricRegistry::new();
        reg.counter("btb.misses").add(17);
        reg.counter("blocks").add(3);
        reg.set_gauge("ipc", 1.25);
        let h = reg.histogram("ftq.occupancy");
        for v in [0u64, 4, 4, 9, 31] {
            h.record(v);
        }
        let t = reg.enable_trace(TraceConfig::default());
        t.record(10, EventKind::BtbMiss, 0x4000, 1);
        t.record(12, EventKind::SbbRescue, 0x4008, 0);
        let mut snap = reg.snapshot();
        snap.spans = vec![
            SpanRecord {
                name: "sweep.prepare".into(),
                thread: 0,
                depth: 0,
                start_ns: 1_000,
                dur_ns: 50_000,
            },
            SpanRecord {
                name: "sim.job:tpcc".into(),
                thread: 1,
                depth: 1,
                start_ns: 60_000,
                dur_ns: 30_000,
            },
            SpanRecord {
                name: "sim.job:tpcc".into(),
                thread: 2,
                depth: 1,
                start_ns: 61_000,
                dur_ns: 10_000,
            },
        ];
        snap
    }

    #[test]
    fn json_round_trip_is_identity() {
        let snap = sample_snapshot();
        let json = snap.to_json_string();
        let back = Snapshot::from_json_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample_snapshot().to_json_string();
        assert!(json.contains("\"counters\":{\"blocks\":3,\"btb.misses\":17}"));
        assert!(json.contains("\"kind\":\"sbb_rescue\""));
        assert!(json.contains("\"events_seen\":2"));
        assert!(json.contains(
            "{\"name\":\"sweep.prepare\",\"thread\":0,\"depth\":0,\"start_ns\":1000,\"dur_ns\":50000}"
        ));
        let v = JsonValue::parse(&json).unwrap();
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("ftq.occupancy"))
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64),
            Some(5)
        );
    }

    #[test]
    fn accessors() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("btb.misses"), Some(17));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("ipc"), Some(1.25));
        assert_eq!(snap.histogram("ftq.occupancy").unwrap().count, 5);
        assert_eq!(snap.events.len(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(a.counter("btb.misses"), Some(34));
        let h = a.histogram("ftq.occupancy").unwrap();
        assert_eq!(h.count, 10);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 31);
        assert_eq!(a.events.len(), 4);
        assert_eq!(a.events_seen, 4);
        assert_eq!(a.spans.len(), 6, "spans concatenate");

        // Merging into an empty snapshot reproduces the source.
        let mut empty = Snapshot::default();
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    #[test]
    fn span_rollup_aggregates_resident_spans() {
        let snap = sample_snapshot();
        let roll = snap.span_rollup();
        assert_eq!(roll.len(), 2);
        assert_eq!(roll["sweep.prepare"].count, 1);
        let jobs = &roll["sim.job:tpcc"];
        assert_eq!(jobs.count, 2);
        assert_eq!(jobs.total_ns, 40_000);
        assert_eq!(jobs.min_ns, 10_000);
        assert_eq!(jobs.max_ns, 30_000);
        assert!(Snapshot::default().span_rollup().is_empty());
    }

    #[test]
    fn histogram_merge_vs_snapshot_merge_agree() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        for v in [1u64, 2, 300] {
            h1.record(v);
        }
        for v in [0u64, 2, 5000] {
            h2.record(v);
        }
        // Path A: merge live histograms, then snapshot.
        let live = Histogram::new();
        live.merge(&h1);
        live.merge(&h2);
        // Path B: snapshot separately, then merge snapshots.
        let mut reg1 = MetricRegistry::new();
        reg1.histogram("h").merge(&h1);
        let mut reg2 = MetricRegistry::new();
        reg2.histogram("h").merge(&h2);
        let mut s = reg1.snapshot();
        s.merge(&reg2.snapshot());
        assert_eq!(s.histogram("h"), Some(&live.snapshot()));
    }

    #[test]
    fn counter_features_bucket_by_magnitude() {
        let mut reg = MetricRegistry::new();
        reg.counter("a").add(3);
        reg.counter("b").add(1);
        reg.counter("zero"); // registered but never incremented
        let s = reg.snapshot();
        let f = s.counter_features();
        assert_eq!(f.len(), 2, "zero counters contribute no feature");
        assert_eq!(f, s.counter_features(), "deterministic");

        // Same counter, same power-of-two bucket: same feature. New bucket:
        // new feature. Different counter at the same value: different
        // feature.
        let mut reg2 = MetricRegistry::new();
        reg2.counter("a").add(2); // still ⌊log₂⌋ = 1
        reg2.counter("b").add(1);
        assert_eq!(f, reg2.snapshot().counter_features());
        let mut reg3 = MetricRegistry::new();
        reg3.counter("a").add(4); // bucket 2 now
        reg3.counter("b").add(1);
        let f3 = reg3.snapshot().counter_features();
        assert_ne!(f, f3);
        assert_eq!(f[1], f3[1], "counter b unchanged");
        let mut reg4 = MetricRegistry::new();
        reg4.counter("c").add(3);
        assert_ne!(f[0], reg4.snapshot().counter_features()[0]);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Snapshot::from_json_str("not json").is_err());
        assert!(Snapshot::from_json_str("[1,2]").is_err());
        assert!(
            Snapshot::from_json_str("{\"events\":[{\"kind\":\"martian\"}]}").is_err(),
            "unknown event kinds must not parse silently"
        );
        assert!(
            Snapshot::from_json_str("{\"spans\":[{\"thread\":1}]}").is_err(),
            "a span without a name must not parse silently"
        );
        assert!(Snapshot::from_json_str("{\"spans\":[7]}").is_err());
    }

    /// The feature hashes are part of the fuzz corpus' on-disk contract: a
    /// silent change to the FNV mixing (or to `ilog2` bucketing) would
    /// orphan every persisted corpus entry's coverage. Pin exact values.
    #[test]
    fn counter_features_are_pinned() {
        let mut reg = MetricRegistry::new();
        reg.counter("a").add(3);
        reg.counter("b").add(1);
        reg.counter("btb.misses").add(17);
        reg.counter("sim.steps_total").add(400_000);
        let f = reg.snapshot().counter_features();
        // BTreeMap order: a, b, btb.misses, sim.steps_total.
        assert_eq!(
            f,
            vec![
                0xe57a_9c19_03db_f5f5,
                0xfed3_ec19_1209_5893,
                0x965a_0a85_571e_b719,
                0x430c_7f35_5cba_f2b0,
            ],
            "counter_features changed — this breaks persisted fuzz-corpus coverage"
        );
    }
}

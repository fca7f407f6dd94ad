//! # skia-telemetry — structured observability for the Skia simulator
//!
//! Every paper figure used to be reconstructed from one monolithic stats
//! struct mutated by hand. This crate is the substrate that replaces that
//! plumbing:
//!
//! * [`MetricRegistry`] — named counters and gauges. A [`Counter`] is a
//!   plain `u64` cell behind a shared handle: incrementing is one pointer
//!   dereference, no locks, no string lookups on the hot path. Components
//!   register once at construction and keep the handle.
//! * [`Histogram`] — streaming log₂-bucketed distributions (FTQ occupancy,
//!   resteer-repair latency, SBB entry lifetime, shadow-decode batch size).
//! * [`EventTrace`] — an optional bounded ring buffer of cycle-stamped
//!   events (resteers, SBB inserts/evicts/rescues, BTB misses, prefetch
//!   issues), sampled at a configurable rate, exportable as Chrome
//!   `trace_event` JSON or JSONL.
//! * [`Snapshot`] — a serde-serialized materialization of the whole
//!   registry, written by the experiment binaries' `--emit-json`.
//! * [`SpanGuard`] — RAII wall-clock span profiling ([`span`](mod@span) module): a
//!   process-wide, thread-aware collector of hierarchical begin/end
//!   records bracketing pipeline phases (sweep prepare/simulate, per-job
//!   simulation, trace-cache I/O, oracle cases, fuzz rounds). Off by
//!   default; the disabled path is a single atomic load. Records export as
//!   Chrome `X` events and aggregate into per-phase rollups for run
//!   manifests.
//!
//! The simulator is single-threaded by design, so handles are `Rc<Cell<_>>`
//! — the cheapest shared-mutability primitive Rust offers. Nothing here is
//! `Send`; a sharded multi-threaded registry would aggregate per-thread
//! registries via [`Snapshot::merge`].
//!
//! ## Quick taste
//!
//! ```rust
//! use skia_telemetry::{MetricRegistry, TraceConfig, EventKind};
//!
//! let mut reg = MetricRegistry::new();
//! let misses = reg.counter("btb.misses");
//! let occ = reg.histogram("ftq.occupancy");
//! let trace = reg.enable_trace(TraceConfig::default());
//!
//! // Hot path: no registry involvement, just the handles.
//! misses.inc();
//! occ.record(17);
//! trace.record(1234, EventKind::BtbMiss, 0x4010, 0);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("btb.misses"), Some(1));
//! let json = snap.to_json_string();
//! let back = skia_telemetry::Snapshot::from_json_str(&json).unwrap();
//! assert_eq!(back, snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram};
pub use registry::{Counter, Gauge, MetricRegistry};
pub use snapshot::Snapshot;
pub use span::{
    drain_spans, init_spans_from_env, set_spans_enabled, span, span_with, spans_enabled, SpanGuard,
    SpanRecord, SpanRollup,
};
pub use trace::{to_chrome_trace, to_chrome_trace_full, Event, EventKind, EventTrace, TraceConfig};

/// FNV-1a hash of a byte slice — the repo's standing content fingerprint.
///
/// The same constants back [`Snapshot::counter_features`] (whose outputs are
/// pinned by the fuzz-corpus contract) and the sampling-plan provenance
/// fingerprints recorded in sampled-run snapshots. Deterministic across
/// runs and platforms.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

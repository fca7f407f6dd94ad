//! Streaming log₂-bucketed histograms.
//!
//! Values are `u64` measurements (cycle counts, queue depths, batch sizes).
//! Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds the range
//! `[2^(i-1), 2^i - 1]`. That gives full precision for 0/1/2 and ~2× relative
//! error beyond, in 65 fixed slots — the classic HdrHistogram-lite shape,
//! cheap enough to record on every simulated block.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Number of buckets: the zero bucket plus one per possible `ilog2`.
pub const BUCKETS: usize = 65;

/// Inclusive `(low, high)` value bounds of bucket `i`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == BUCKETS - 1 {
        (1u64 << (i - 1), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// Bucket index of a value.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    match v {
        0 => 0,
        _ => 1 + v.ilog2() as usize,
    }
}

/// An unshared histogram accumulator: the bucket scheme above in plain
/// fields — no `Rc`, no `RefCell` borrow per record. Hot loops record into
/// one of these and copy it into a registry histogram with
/// [`crate::MetricRegistry::set_histogram`] when a snapshot is taken.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measurement.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded measurements.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of every recorded value. Together with
    /// [`LocalHistogram::count`] this lets a caller compute the mean of a
    /// *window* of records by differencing two observations — sampled
    /// replay uses this for per-slice FTQ occupancy.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded measurements, with the same arithmetic as
    /// [`HistogramSnapshot::mean`].
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another accumulator's contents into this one.
    fn merge(&mut self, o: &LocalHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *dst += src;
        }
        self.count += o.count;
        self.sum = self.sum.wrapping_add(o.sum);
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// Materialize into an owned, serializable form.
    #[must_use]
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).0, c))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
        }
    }
}

/// A shared-handle streaming histogram (see the module docs for the bucket
/// scheme). Clones share state, like [`crate::Counter`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(Rc<RefCell<LocalHistogram>>);

impl Histogram {
    /// A fresh, unregistered histogram (components under test use this;
    /// simulation code gets handles from [`crate::MetricRegistry`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measurement.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Fold another histogram's contents into this one.
    pub fn merge(&self, other: &Histogram) {
        if Rc::ptr_eq(&self.0, &other.0) {
            return; // merging a histogram into itself is a no-op
        }
        self.0.borrow_mut().merge(&other.0.borrow());
    }

    /// Overwrite this histogram with a copy of `local` — the pull-model
    /// bridge for components that keep a [`LocalHistogram`] and are
    /// exported at snapshot time. Setting the same contents twice leaves
    /// the histogram unchanged, so repeated snapshots agree.
    pub(crate) fn set(&self, local: &LocalHistogram) {
        self.0.borrow_mut().clone_from(local);
    }

    /// Materialize into an owned, serializable form.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.borrow().snapshot()
    }
}

/// An owned histogram materialization: only non-empty buckets, keyed by
/// their low bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `bucket low bound → count`, non-empty buckets only.
    pub buckets: BTreeMap<u64, u64>,
    /// Total measurements.
    pub count: u64,
    /// Sum of all measurements (wrapping).
    pub sum: u64,
    /// Smallest measurement (0 when empty).
    pub min: u64,
    /// Largest measurement.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded measurements.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the low bound of the bucket
    /// containing the `q`-th ordered measurement.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&lo, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return lo;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 1023, 1024, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "v={v} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 8, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 115);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets.get(&0), Some(&1)); // the 0
        assert_eq!(s.buckets.get(&1), Some(&2)); // the two 1s
        assert_eq!(s.buckets.get(&2), Some(&2)); // 2 and 3
        assert_eq!(s.buckets.get(&8), Some(&1)); // 8
        assert_eq!(s.buckets.get(&64), Some(&1)); // 100 in [64,127]
    }

    #[test]
    fn merge_adds_contents() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(5);
        b.record(5);
        b.record(1000);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets.get(&4), Some(&2)); // both 5s in [4,7]
                                                 // Self-merge must not double-count.
        a.merge(&a);
        assert_eq!(a.snapshot().count, 4);
    }

    #[test]
    fn set_copies_a_local_histogram_and_is_idempotent() {
        let direct = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 1, 5, 64, 1000, u64::MAX] {
            direct.record(v);
            local.record(v);
        }
        let shared = Histogram::new();
        shared.record(7); // stale contents are replaced, not added to
        shared.set(&local);
        assert_eq!(shared.snapshot(), direct.snapshot());
        assert_eq!(local.snapshot(), direct.snapshot());
        shared.set(&local);
        assert_eq!(shared.snapshot(), direct.snapshot());
        assert_eq!(local.mean(), direct.snapshot().mean());
    }

    #[test]
    fn quantiles_are_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1);
        // The 50th of 100 ordered values is 50, whose bucket starts at 32.
        assert_eq!(s.quantile(0.5), 32);
        assert_eq!(s.quantile(1.0), 64);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert!(s.buckets.is_empty());
    }
}

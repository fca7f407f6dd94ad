//! Telemetry wiring between the simulator and [`skia_telemetry`].
//!
//! The simulator counts into a plain [`SimStats`] and three
//! [`LocalHistogram`]s on its hot path. Nothing is shared or flushed while
//! it runs: [`SimStats::register_into`] (and the crate-private
//! `SimHistograms::register_into`) write the values into a
//! [`MetricRegistry`] when a snapshot is taken (the pull model).
//!
//! The one list of the simulator's counters is [`SimStats::zip_counters`]:
//! every snapshot name, slice delta, sampled estimate and oracle report is
//! derived from it, so the registry snapshot and the stats struct can never
//! drift apart.

use skia_core::SkiaStats;
use skia_isa::BranchKind;
use skia_telemetry::{
    CounterName, EventKind, EventTrace, Histogram, LocalHistogram, MetricRegistry,
};

use crate::stats::SimStats;

impl SimStats {
    /// Visit every counter of `self` beside the same counter of `other`,
    /// with its metric name — the one list of `SimStats` counters, behind
    /// [`SimStats::register_into`], the slice deltas of
    /// [`crate::Simulator::run_slice`], the weighted sum of
    /// [`crate::run_plan`] and the oracle's field report.
    ///
    /// The scalars and the per-kind BTB misses are named in full (their
    /// scope is empty); the visit then recurses into the three cache levels
    /// and Skia. When `other` carries Skia counters and `self` does not, `self`
    /// gets zeroed ones first (so visiting against a default reaches every
    /// counter); Skia counters on `self` alone are left untouched.
    /// `mean_ftq_occupancy` is a mean, not a counter: callers handle it.
    /// The full destructure (no `..`) makes a new field fail to compile
    /// until it is listed here.
    ///
    /// `cycles` is listed although the simulator computes it at
    /// finalization rather than counting it, so snapshots and estimates
    /// carry it too.
    #[inline]
    pub fn zip_counters(
        &mut self,
        other: &SimStats,
        f: &mut impl FnMut(CounterName<'_>, &mut u64, u64),
    ) {
        macro_rules! visit {
            ($(($field:ident, $name:literal)),+ $(,)?) => {
                let SimStats {
                    $($field,)+
                    btb_misses_by_kind,
                    l1i,
                    l2,
                    l3,
                    skia,
                    mean_ftq_occupancy: _,
                } = self;
                $( f(CounterName { scope: "", leaf: $name }, $field, other.$field); )+
                let kinds = btb_misses_by_kind.iter_mut().zip(&other.btb_misses_by_kind);
                for (&kind, (a, &b)) in BranchKind::ALL.iter().zip(kinds) {
                    f(CounterName { scope: "", leaf: btb_miss_kind_name(kind) }, a, b);
                }
                l1i.zip_counters(&other.l1i, "l1i", f);
                l2.zip_counters(&other.l2, "l2", f);
                l3.zip_counters(&other.l3, "l3", f);
                if let Some(o) = &other.skia {
                    skia.get_or_insert_with(SkiaStats::default).zip_counters(o, f);
                }
            };
        }
        visit! {
            (instructions, "sim.instructions"),
            (cycles, "sim.cycles"),
            (branches, "sim.branches"),
            (taken_branches, "sim.taken_branches"),
            (btb_misses, "btb.misses"),
            (btb_miss_l1i_resident, "btb.miss_l1i_resident"),
            (btb_miss_taken, "btb.miss_taken"),
            (btb_miss_rescuable, "btb.miss_rescuable"),
            (sbb_rescues, "sbb.rescues"),
            (rescuable_seen_before, "sbb.rescuable_seen_before"),
            (decode_resteers, "resteer.decode"),
            (exec_resteers, "resteer.execute"),
            (bogus_resteers, "resteer.bogus"),
            (cond_branches, "branch.cond"),
            (cond_mispredicts, "branch.cond_mispredicts"),
            (indirect_branches, "branch.indirect"),
            (indirect_mispredicts, "branch.indirect_mispredicts"),
            (return_mispredicts, "branch.return_mispredicts"),
            (idle_icache_cycles, "decode.idle_icache_cycles"),
            (idle_resteer_cycles, "decode.idle_resteer_cycles"),
            (decode_busy_cycles, "decode.busy_cycles"),
            (wrong_path_blocks, "wrong_path.blocks"),
            (wrong_path_prefetches, "wrong_path.prefetches"),
        }
    }

    /// Every counter — scalars, per-kind BTB misses, caches and Skia —
    /// with its metric name and value, in [`SimStats::zip_counters`] order.
    pub fn for_each_counter(&self, mut f: impl FnMut(CounterName<'_>, u64)) {
        SimStats::default().zip_counters(self, &mut |name, _, v| f(name, v));
    }

    /// Write every counter plus the `sim.mean_ftq_occupancy`, `sim.ipc`
    /// and (with Skia) `skia.bogus_rate` gauges into `reg`. Values are set,
    /// not added, so writing the same stats twice leaves the registry
    /// unchanged.
    pub fn register_into(&self, reg: &mut MetricRegistry) {
        self.for_each_counter(|name, v| reg.set_counter(&name.to_string(), v));
        reg.set_gauge("sim.mean_ftq_occupancy", self.mean_ftq_occupancy);
        reg.set_gauge("sim.ipc", self.ipc());
        if let Some(skia) = &self.skia {
            reg.set_gauge("skia.bogus_rate", skia.bogus_rate());
        }
    }
}

/// Metric name of the per-kind BTB-miss counter for `kind`.
#[must_use]
pub fn btb_miss_kind_name(kind: BranchKind) -> &'static str {
    match kind {
        BranchKind::DirectCond => "btb.miss_kind.direct_cond",
        BranchKind::DirectUncond => "btb.miss_kind.direct_uncond",
        BranchKind::Call => "btb.miss_kind.call",
        BranchKind::Return => "btb.miss_kind.return",
        BranchKind::IndirectJmp => "btb.miss_kind.indirect_jmp",
        BranchKind::IndirectCall => "btb.miss_kind.indirect_call",
    }
}

/// The simulator's three per-block distributions, recorded into plain
/// accumulators on the hot path.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimHistograms {
    /// FTQ occupancy sampled at every block formation.
    pub(crate) ftq_occupancy: LocalHistogram,
    /// Resteer repair bubble (cycles from the mispredicted block's formation
    /// to the IAG restart).
    pub(crate) resteer_latency: LocalHistogram,
    /// Shadow branches inserted per shadow-decode invocation.
    pub(crate) shadow_batch: LocalHistogram,
}

impl SimHistograms {
    /// Overwrite the `ftq.occupancy`, `resteer.repair_latency` and
    /// `shadow_decode.batch_size` histograms in `reg` with these contents.
    pub(crate) fn register_into(&self, reg: &mut MetricRegistry) {
        reg.set_histogram("ftq.occupancy", &self.ftq_occupancy);
        reg.set_histogram("resteer.repair_latency", &self.resteer_latency);
        reg.set_histogram("shadow_decode.batch_size", &self.shadow_batch);
    }
}

/// The handles `skia-core` and the simulator record through while running:
/// the SBB-lifetime histogram and the (optional) event trace.
#[derive(Debug, Clone)]
pub struct FrontendTelemetry {
    /// SBB entry residency in cycles (closed on eviction/invalidation;
    /// recorded by `skia-core` through its attachment).
    pub sbb_lifetime: Histogram,
    /// Event trace handle, when tracing is enabled.
    pub trace: Option<EventTrace>,
}

impl FrontendTelemetry {
    /// Register the shared handles in `reg`. Tracing starts disabled;
    /// [`crate::Simulator::enable_trace`] turns it on.
    #[must_use]
    pub fn register(reg: &mut MetricRegistry) -> Self {
        FrontendTelemetry {
            sbb_lifetime: reg.histogram("sbb.entry_lifetime"),
            trace: reg.trace(),
        }
    }

    /// Record an event if tracing is enabled (one branch otherwise).
    #[inline]
    pub fn event(&self, cycle: u64, kind: EventKind, pc: u64, arg: u64) {
        if let Some(t) = &self.trace {
            t.record(cycle, kind, pc, arg);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use skia_core::{SbbStats, ShadowDecoderStats};
    use skia_uarch::cache::CacheStats;

    use super::*;

    /// A `SimStats` with Skia attached whose every `u64` — nested ones
    /// included — is distinct: `base + 1`, `base + 2`, … in field order.
    /// Struct literals without `..` so a new field fails to compile here.
    fn numbered(base: u64) -> SimStats {
        let mut n = base;
        let mut next = || {
            n += 1;
            n
        };
        let mut cache = || CacheStats {
            demand_hits: next(),
            demand_misses: next(),
            prefetch_hits: next(),
            prefetch_misses: next(),
            evictions: next(),
            polluting_fills: next(),
        };
        let (l1i, l2, l3) = (cache(), cache(), cache());
        SimStats {
            instructions: next(),
            cycles: next(),
            branches: next(),
            taken_branches: next(),
            btb_misses: next(),
            btb_misses_by_kind: [next(), next(), next(), next(), next(), next()],
            btb_miss_l1i_resident: next(),
            btb_miss_taken: next(),
            btb_miss_rescuable: next(),
            sbb_rescues: next(),
            rescuable_seen_before: next(),
            decode_resteers: next(),
            exec_resteers: next(),
            bogus_resteers: next(),
            cond_branches: next(),
            cond_mispredicts: next(),
            indirect_branches: next(),
            indirect_mispredicts: next(),
            return_mispredicts: next(),
            idle_icache_cycles: next(),
            idle_resteer_cycles: next(),
            decode_busy_cycles: next(),
            wrong_path_blocks: next(),
            wrong_path_prefetches: next(),
            l1i,
            l2,
            l3,
            skia: Some(SkiaStats {
                sbd: ShadowDecoderStats {
                    head_regions: next(),
                    head_regions_valid: next(),
                    head_regions_discarded: next(),
                    tail_regions: next(),
                    head_branches: next(),
                    tail_branches: next(),
                    valid_path_sum: next(),
                },
                sbb: SbbStats {
                    u_hits: next(),
                    r_hits: next(),
                    lookups: next(),
                    u_inserts: next(),
                    r_inserts: next(),
                    retirements: next(),
                    evicted_unretired: next(),
                },
                filtered_known: next(),
                bogus_uses: next(),
                useful_uses: next(),
            }),
            mean_ftq_occupancy: 0.5,
        }
    }

    /// 23 scalars, 6 per-kind misses, 3 × 6 cache and 17 Skia counters.
    const COUNTERS: u64 = 64;

    #[test]
    fn visitor_reaches_every_counter_once_under_a_distinct_name() {
        let stats = numbered(0);
        let mut values = BTreeSet::new();
        let mut names = BTreeSet::new();
        stats.for_each_counter(|name, v| {
            assert!(values.insert(v), "{name}: value {v} visited twice");
            assert!(names.insert(name.to_string()), "{name} named twice");
        });
        assert_eq!(values, (1..=COUNTERS).collect(), "every u64 reached");
    }

    #[test]
    fn visitor_pairs_the_same_field_of_both_values() {
        let mut now = numbered(1000);
        let base = numbered(0);
        let mut pairs = 0;
        now.zip_counters(&base, &mut |name, n, b| {
            assert_eq!(*n, b + 1000, "{name}");
            *n -= b;
            pairs += 1;
        });
        assert_eq!(pairs, COUNTERS);
        now.for_each_counter(|name, v| assert_eq!(v, 1000, "{name} subtracted"));
        assert_eq!(now.mean_ftq_occupancy, 0.5, "the mean is not a counter");
    }

    #[test]
    fn visiting_a_default_attaches_skia_only_from_the_other_side() {
        let with = numbered(0);
        let mut est = SimStats::default();
        est.zip_counters(&with, &mut |_, e, v| *e += v);
        assert_eq!(est.skia, with.skia, "zeroed Skia inserted, then summed");
        let mut kept = numbered(0);
        kept.zip_counters(&SimStats::default(), &mut |_, k, _| *k = 0);
        assert_eq!(kept.skia, with.skia, "Skia on self alone is untouched");
    }
}

//! Telemetry wiring between the simulator and [`skia_telemetry`].
//!
//! The simulator counts into a plain [`SimStats`] and three
//! [`LocalHistogram`]s on its hot path. Nothing is shared or flushed while
//! it runs: [`SimStats::register_into`] (and the crate-private
//! `SimHistograms::register_into`) write the values into a
//! [`MetricRegistry`] when a snapshot is taken — the pull model that
//! `CacheStats` and `SkiaStats` use too.
//!
//! The single source of truth for the counter names is the
//! `for_each_sim_counter!` field↔name table below, so the registry
//! snapshot and the stats struct can never drift apart.

use skia_isa::BranchKind;
use skia_telemetry::{EventKind, EventTrace, Histogram, LocalHistogram, MetricRegistry};

use crate::stats::SimStats;

/// Apply a macro to every `(SimStats u64 field, metric name)` pair.
///
/// `cycles` is included even though it is computed (not incremented): the
/// simulator sets it during finalization so the snapshot carries it too.
macro_rules! for_each_sim_counter {
    ($apply:ident) => {
        $apply! {
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
    };
}

macro_rules! define_named_counters {
    ($(($field:ident, $name:literal)),+ $(,)?) => {
        impl SimStats {
            /// Every scalar `u64` counter with its metric name, in table
            /// order (the per-kind BTB misses are named by
            /// [`btb_miss_kind_name`]).
            pub fn named_counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($name, self.$field)),+].into_iter()
            }
        }
    };
}
for_each_sim_counter!(define_named_counters);

impl SimStats {
    /// Write every counter — the scalar table, the per-kind BTB misses,
    /// the cache levels and Skia — plus the `sim.mean_ftq_occupancy` and
    /// `sim.ipc` gauges into `reg`. Values are set, not added, so writing
    /// the same stats twice leaves the registry unchanged.
    pub fn register_into(&self, reg: &mut MetricRegistry) {
        for (name, v) in self.named_counters() {
            reg.set_counter(name, v);
        }
        for (&kind, &v) in BranchKind::ALL.iter().zip(&self.btb_misses_by_kind) {
            reg.set_counter(btb_miss_kind_name(kind), v);
        }
        self.l1i.register_into(reg, "l1i");
        self.l2.register_into(reg, "l2");
        self.l3.register_into(reg, "l3");
        if let Some(skia) = &self.skia {
            skia.register_into(reg);
        }
        reg.set_gauge("sim.mean_ftq_occupancy", self.mean_ftq_occupancy);
        reg.set_gauge("sim.ipc", self.ipc());
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

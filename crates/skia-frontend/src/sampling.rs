//! Sampled simulation: replay a [`SamplingPlan`]'s slices through
//! [`Simulator::run_slice`] and reconstruct a weighted whole-trace
//! [`SimStats`] estimate.
//!
//! ## Estimation arithmetic
//!
//! Each slice measures `simulate` steps and stands for `weight_steps` steps
//! of the full trace, so every counter is scaled by `weight_steps /
//! simulate` before summing. The scaling is integer-exact: `round(c × w /
//! s)` computed in `u128`, which for the degenerate plan (`w == s ==
//! total`) returns `c` unchanged — the whole-trace identity needs no
//! special case, and the `sampled_vs_full` proptest pins the resulting
//! byte-exact equality against [`Simulator::run`].
//!
//! ## Field exhaustiveness
//!
//! Neither the slice delta nor the weighted sum names a field: both walk
//! [`SimStats::zip_counters`], the one list of every `u64` counter, which
//! recurses into the cache levels, the per-kind BTB misses and Skia. The
//! flat structs' lists are their own declarations
//! ([`skia_telemetry::counter_struct!`]); `SimStats` and `SkiaStats`
//! destructure themselves with no `..` rest pattern. So a new counter
//! reaches snapshots, slice deltas and estimates with no other edit, or
//! fails to compile — it can never silently leak warmup state into
//! measurements or drop out of estimates. The float
//! `mean_ftq_occupancy` is outside the list: [`run_plan`] weights it
//! separately, and `cycles`, though listed, is recomputed per slice from
//! the cycle ledger.
//!
//! ## State carryover
//!
//! All slices of a plan replay through **one** simulator in trace order:
//! the branch/cache working set accumulated by earlier slices stays live,
//! and each slice's short warmup only re-syncs recent-phase state (TAGE
//! histories, RAS, replacement recency). Cold-starting every slice instead
//! would charge the full structure fill — hundreds of thousands of steps
//! at realistic BTB/L2 sizes — against a warmup budget of thousands,
//! biasing every miss-class counter upward. [`Simulator::run_slice`]
//! baselines all cumulative state at each warmup/measure boundary, so the
//! carryover is invisible in the per-slice results.
//!
//! Slices run serially (the simulator is deliberately `!Send`, and
//! carryover orders them anyway); sweep-level parallelism across
//! (workload, config) jobs is unchanged, so sampled sweeps keep the repo's
//! thread-count-invariance guarantee.

use skia_telemetry::{MetricRegistry, Snapshot};
use skia_workloads::{Program, RecordedTrace, SamplingPlan};

use crate::config::FrontendConfig;
use crate::sim::{SampleFault, Simulator};
use crate::stats::SimStats;
use crate::telemetry::{FrontendTelemetry, SimHistograms};

/// Simulate every slice of `plan` and return the weighted whole-trace
/// [`SimStats`] estimate.
///
/// One [`Simulator`] serves every slice in trace order (state carryover —
/// see the module docs); per-slice results are isolated by the baseline
/// subtraction inside [`Simulator::run_slice`]. `fault` plants a
/// deliberate sampling bug for harness validation; production callers pass
/// `None`.
///
/// # Panics
///
/// Panics if the plan fails [`SamplingPlan::validate`] against its own
/// `total_steps` or the plan is longer than the recording.
#[must_use]
pub fn run_plan(
    program: &Program,
    config: &FrontendConfig,
    trace: &RecordedTrace,
    plan: &SamplingPlan,
    fault: Option<SampleFault>,
) -> SimStats {
    plan.validate(plan.total_steps);
    assert!(
        plan.total_steps <= trace.len(),
        "plan longer than recording"
    );
    let mut est = SimStats::default();
    let mut ftq_means: Vec<(f64, u64)> = Vec::with_capacity(plan.slices.len());
    let mut sim = Simulator::new(program, config.clone());
    for slice in &plan.slices {
        let s = sim.run_slice(trace, slice, fault);
        let (num, den) = (slice.weight_steps, slice.simulate as u64);
        est.zip_counters(&s, &mut |_, e, v| *e += scaled(v, num, den));
        ftq_means.push((s.mean_ftq_occupancy, slice.weight_steps));
    }
    est.mean_ftq_occupancy = match ftq_means.as_slice() {
        [] => 0.0,
        // Single slice: pass the mean through untouched. `m × w / w` is not
        // bit-exact in f64, and the degenerate identity must be.
        [(m, _)] => *m,
        many => {
            let total: u64 = many.iter().map(|&(_, w)| w).sum();
            many.iter().map(|&(m, w)| m * w as f64).sum::<f64>() / total as f64
        }
    };
    est
}

/// [`run_plan`] plus a synthetic telemetry [`Snapshot`] carrying the
/// estimated counters and the plan's provenance, for `--emit-json` parity
/// with full runs.
///
/// The snapshot is an *estimate reconstruction*, not a live registry: the
/// counters and gauges are the weighted estimates, written by the same
/// [`SimStats::register_into`] a full run's snapshot uses, the `sampling.*`
/// counters identify the exact plan (fingerprint, slice count, step
/// accounting), and `sampling.active = 1` marks it as sampled. Histograms
/// and TAGE pull stats are per-slice artifacts with no sound whole-trace
/// reconstruction: the histograms are present but empty, so sampled and
/// full snapshots share one shape, and the `tage.*` counters are absent.
#[must_use]
pub fn run_plan_instrumented(
    program: &Program,
    config: &FrontendConfig,
    trace: &RecordedTrace,
    plan: &SamplingPlan,
    fault: Option<SampleFault>,
) -> (SimStats, Snapshot) {
    let stats = run_plan(program, config, trace, plan, fault);
    let mut reg = MetricRegistry::new();
    // No histogram has a whole-trace estimate: register all four empty.
    let _ = FrontendTelemetry::register(&mut reg);
    SimHistograms::default().register_into(&mut reg);
    stats.register_into(&mut reg);
    register_plan(&mut reg, plan);
    (stats, reg.snapshot())
}

/// Upsert the `sampling.*` provenance counters for `plan` into `reg` —
/// the audit trail tying a sampled result to the exact plan that produced
/// it.
pub fn register_plan(reg: &mut MetricRegistry, plan: &SamplingPlan) {
    reg.set_counter("sampling.active", u64::from(!plan.is_degenerate()));
    reg.set_counter("sampling.plan_fingerprint", plan.fingerprint());
    reg.set_counter("sampling.slices", plan.slices.len() as u64);
    reg.set_counter("sampling.total_steps", plan.total_steps as u64);
    reg.set_counter("sampling.measured_steps", plan.measured_steps() as u64);
    reg.set_counter("sampling.replayed_steps", plan.replayed_steps() as u64);
    reg.set_counter("sampling.interval", plan.interval as u64);
    reg.set_counter("sampling.k", plan.k as u64);
    reg.set_counter("sampling.seed", plan.seed);
}

/// `round(c × num / den)` in `u128` — overflow-free for any counter a
/// simulation can produce, and exactly `c` when `num == den`.
fn scaled(c: u64, num: u64, den: u64) -> u64 {
    debug_assert!(den > 0, "scaling by an empty measure window");
    let n = u128::from(c) * u128::from(num) + u128::from(den) / 2;
    u64::try_from(n / u128::from(den)).expect("weighted counter exceeds u64")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_is_identity_when_num_equals_den() {
        for c in [0u64, 1, 7, 1_000_003, u64::MAX / 2] {
            for d in [1u64, 3, 400_000] {
                assert_eq!(scaled(c, d, d), c);
            }
        }
    }

    #[test]
    fn scaled_rounds_to_nearest() {
        assert_eq!(scaled(10, 1, 4), 3); // 2.5 rounds up
        assert_eq!(scaled(10, 1, 3), 3); // 3.33 rounds down
        assert_eq!(scaled(0, 7, 3), 0);
        // Near-overflow inputs stay exact through the u128 path.
        assert_eq!(scaled(u64::MAX / 3, 3, 3), u64::MAX / 3);
    }

    #[test]
    fn degenerate_weight_reproduces_input() {
        let mut s = SimStats {
            instructions: 1_000,
            cycles: 777,
            branches: 123,
            mean_ftq_occupancy: 1.5,
            ..SimStats::default()
        };
        s.btb_misses_by_kind[2] = 9;
        s.l1i.demand_hits = 55;
        s.skia = Some(skia_core::SkiaStats::default());
        let mut est = SimStats::default();
        est.zip_counters(&s, &mut |_, e, v| *e += scaled(v, 400_000, 400_000));
        est.mean_ftq_occupancy = s.mean_ftq_occupancy; // run_plan's job
        assert_eq!(est, s);
    }
}

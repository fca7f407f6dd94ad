//! Metric definitions and the result line.
//!
//! End-to-end metrics come from the untraced repetitions; per-layer metrics
//! from the traced ones, the second pass and the isolated layer replays.
//! Timings are medians over a run's repetitions; counts are read from the
//! public `SimStats` and `Snapshot` and repeat exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use skia_experiments::geomean;
use skia_frontend::SimStats;

use crate::expected::{self, Entry};
use crate::jobs::{Job, Kind, Mode};
use crate::layers::LayerCosts;
use crate::{JobRun, Rep, TracedRep};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_insts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("experiments.dup_job_ratio", "ratio"),
    ("runner.busy_s", "s"),
    ("runner.parallel_eff", "ratio"),
    ("runner.straggler_s", "s"),
    ("workloads.program_s", "s"),
    ("workloads.trace_s", "s"),
    ("workloads.cache_mb_read", "MB"),
    ("workloads.cache_mb_written", "MB"),
    ("workloads.cache_hit_ratio", "ratio"),
    ("workloads.plan_s", "s"),
    ("workloads.replayed_steps", "count"),
    ("workloads.compression", "ratio"),
    ("frontend.job_p50_ms", "ms"),
    ("frontend.job_tail_ms", "ms"),
    ("frontend.job_tail_pctile", "%"),
    ("frontend.job_count", "count"),
    ("frontend.ns_per_step", "ns"),
    ("frontend.unattributed_ns_per_step", "ns"),
    ("frontend.wrong_path_blocks_pk", "1/kstep"),
    ("frontend.wrong_path_prefetches_pk", "1/kstep"),
    ("frontend.resteers_pk", "1/kstep"),
    ("frontend.bogus_resteers_pk", "1/kstep"),
    ("uarch.btb_misses_pk", "1/kstep"),
    ("uarch.tage_predictions_pk", "1/kstep"),
    ("uarch.l1i_accesses_pk", "1/kstep"),
    ("uarch.l1i_miss_ratio", "ratio"),
    ("uarch.l2_accesses_pk", "1/kstep"),
    ("uarch.btb_ns_per_call", "ns"),
    ("uarch.tage_ns_per_call", "ns"),
    ("uarch.cache_ns_per_call", "ns"),
    ("uarch.est_share", "ratio"),
    ("core.sbd_head_regions_pk", "1/kstep"),
    ("core.sbd_tail_regions_pk", "1/kstep"),
    ("core.sbb_lookups_pk", "1/kstep"),
    ("core.sbb_inserts_pk", "1/kstep"),
    ("core.sbb_useful_ratio", "ratio"),
    ("core.sbd_head_valid_ratio", "ratio"),
    ("core.sbd_head_ns_per_call", "ns"),
    ("core.sbd_tail_ns_per_call", "ns"),
    ("core.sbb_ns_per_call", "ns"),
    ("core.est_share", "ratio"),
    ("isa.decode_ns_per_insn", "ns"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.emit_ms", "ms"),
    ("telemetry.json_mb", "MB"),
    ("bench.trace_overhead_pct", "%"),
    ("sim.skia_speedup_pct", "%"),
    ("sim.sampled_ipc_err_pct", "%"),
    ("sim.job_fail_ratio", "ratio"),
];

/// Median of `v` (0 when empty).
#[must_use]
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// (value, percentile); the maximum when there are fewer than 11 samples.
#[must_use]
pub fn tail(mut v: Vec<f64>) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let i = if n >= 11 { n - 11 } else { n - 1 };
    (v[i], (i + 1) as f64 * 100.0 / n as f64)
}

/// A run's result.
pub struct Report<'a> {
    kind: Kind,
    jobs: Vec<Job>,
    expected: &'a BTreeMap<expected::Key, Entry>,
    steps: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Deterministic results of the first complete repetition.
    skia_speedup_pct: f64,
    sampled_ipc_err_pct: f64,
    end_to_end: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl<'a> Report<'a> {
    /// An empty report for `jobs`.
    #[must_use]
    pub fn new(
        kind: Kind,
        jobs: Vec<Job>,
        expected: &'a BTreeMap<expected::Key, Entry>,
        steps: usize,
    ) -> Report<'a> {
        Report {
            kind,
            jobs,
            expected,
            steps,
            metrics: Vec::new(),
            skia_speedup_pct: 0.0,
            sampled_ipc_err_pct: 0.0,
            end_to_end: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Geomean speedup of each Skia job over its profile's Btb(8192) job.
    fn skia_speedup_pct(&self, stats: &[SimStats]) -> f64 {
        let mut ratios = Vec::new();
        for (j, s) in self.jobs.iter().zip(stats) {
            if !j.config.skia() {
                continue;
            }
            let base = self
                .jobs
                .iter()
                .position(|b| b.profile == j.profile && b.config.label() == "btb8192");
            if let Some(b) = base {
                ratios.push(s.speedup_over(&stats[b]));
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            (geomean(ratios) - 1.0) * 100.0
        }
    }

    /// Mean |sampled IPC − full-replay IPC| ÷ full IPC, in percent.
    fn sampled_ipc_err_pct(&self, stats: &[SimStats]) -> f64 {
        if self.kind.mode() != Mode::Sampled {
            return 0.0;
        }
        let errs: Vec<f64> = self
            .jobs
            .iter()
            .zip(stats)
            .filter_map(|(j, s)| {
                let key = expected::key(j.profile, &j.config.label(), self.steps, expected::FULL);
                let full = self.expected.get(&key)?.ipc;
                Some((s.ipc() - full).abs() / full * 100.0)
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    }

    /// Compute the end-to-end metrics from the untraced repetitions.
    pub fn end_to_end(&mut self, reps: &[Rep]) {
        let ok: Vec<&Rep> = reps.iter().filter(|r| r.stats.is_some()).collect();
        let insts = |r: &Rep| -> f64 {
            r.stats
                .as_ref()
                .map_or(0, |s| s.iter().map(|x| x.instructions).sum::<u64>()) as f64
        };
        let values = [
            median(ok.iter().flat_map(|r| r.setups.iter().copied()).collect()),
            median(ok.iter().map(|r| r.wall).collect()),
            median(ok.iter().map(|r| insts(r) / r.sim.max(1e-9)).collect()),
            median(ok.iter().map(|r| r.peak_rss_mb).collect()),
        ];
        self.end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        if let Some(stats) = ok.first().and_then(|r| r.stats.as_deref()) {
            self.skia_speedup_pct = self.skia_speedup_pct(stats);
            self.sampled_ipc_err_pct = self.sampled_ipc_err_pct(stats);
        }
    }

    /// Compute the per-layer metrics.
    pub fn per_layer(
        &mut self,
        reps: &[Rep],
        traced: &[TracedRep],
        second: Option<&[JobRun]>,
        costs: &LayerCosts,
    ) {
        let emit = self.kind.mode() == Mode::Emit;
        let ok: Vec<&TracedRep> = traced.iter().filter(|t| t.jobs.is_some()).collect();
        fn runs<'t>(t: &&'t TracedRep) -> &'t [JobRun] {
            t.jobs.as_deref().unwrap_or_default()
        }
        let first: &[JobRun] = ok.first().map_or(&[], runs);
        // Snapshots: the traced jobs' when they are instrumented (the
        // emitting workload), the second pass's otherwise.
        let snapped: &[JobRun] = if emit {
            first
        } else {
            second.unwrap_or_default()
        };
        let mut counters: BTreeMap<String, f64> = BTreeMap::new();
        let mut scaled: BTreeMap<String, f64> = BTreeMap::new();
        for r in snapped {
            let Some(snap) = &r.snapshot else { continue };
            let scale = r.replayed as f64 / r.represented as f64;
            // A sampled estimate carries only the counters `SimStats` has;
            // TAGE predicts every conditional branch, so `branch.cond`
            // stands in for its missing `tage.predictions`.
            let tage = snap
                .counter("tage.predictions")
                .or_else(|| snap.counter("branch.cond"))
                .unwrap_or(0);
            let derived = [("bench.tage_calls".to_string(), tage)];
            for (k, v) in snap
                .counters
                .iter()
                .chain(derived.iter().map(|(k, v)| (k, v)))
            {
                *counters.entry(k.clone()).or_default() += *v as f64;
                *scaled.entry(k.clone()).or_default() += *v as f64 * scale;
            }
        }
        let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
        let calls = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|n| scaled.get(*n).copied().unwrap_or(0.0))
                .sum()
        };
        let represented: f64 = first.iter().map(|r| r.represented as f64).sum();
        let replayed: f64 = first.iter().map(|r| r.replayed as f64).sum();
        let pk = |v: f64| v * 1000.0 / represented.max(1.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let job_ms: Vec<f64> = ok
            .iter()
            .flat_map(|t| runs(t).iter().map(|r| r.wall.as_secs_f64() * 1e3))
            .collect();
        let frontend_ns = median(
            ok.iter()
                .map(|t| runs(t).iter().map(|r| r.wall.as_secs_f64() * 1e9).sum())
                .collect(),
        );
        let (tail_ms, tail_pct) = tail(job_ms.clone());

        let l1i = [
            "l1i.demand_hits",
            "l1i.demand_misses",
            "l1i.prefetch_hits",
            "l1i.prefetch_misses",
        ];
        let l1i_accesses: f64 = l1i.iter().map(|n| c(n)).sum();
        let l2_accesses: f64 = [
            "l2.demand_hits",
            "l2.demand_misses",
            "l2.prefetch_hits",
            "l2.prefetch_misses",
        ]
        .iter()
        .map(|n| c(n))
        .sum();
        let sbb_ops = [
            "skia.sbb.lookups",
            "skia.sbb.u_inserts",
            "skia.sbb.r_inserts",
        ];
        let btb_calls = ratio(costs.btb.calls as f64, costs.steps as f64) * replayed;
        let uarch_ns = costs.btb.per_call() * btb_calls
            + costs.tage.per_call() * calls(&["bench.tage_calls"])
            + costs.cache.per_call() * calls(&l1i);
        let core_ns = costs.sbd_head.per_call() * calls(&["skia.sbd.head_regions"])
            + costs.sbd_tail.per_call() * calls(&["skia.sbd.tail_regions"])
            + costs.sbb.per_call() * calls(&sbb_ops);
        let ns_per_step = median(
            ok.iter()
                .map(|t| {
                    let ns: f64 = runs(t).iter().map(|r| r.wall.as_secs_f64() * 1e9).sum();
                    ns / runs(t)
                        .iter()
                        .map(|r| r.replayed as f64)
                        .sum::<f64>()
                        .max(1.0)
                })
                .collect(),
        );
        let (overhead_pct, emit_ms, json_mb) = if emit {
            let plain: f64 = second
                .unwrap_or_default()
                .iter()
                .map(|r| r.wall.as_secs_f64() * 1e9)
                .sum();
            (
                (ratio(frontend_ns, plain) - 1.0) * 100.0,
                median(ok.iter().map(|t| t.emit_ms).collect()),
                ok.first().map_or(0.0, |t| t.json_bytes as f64 / 1e6),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        let untraced_wall = median(reps.iter().map(|r| r.wall).collect());
        let traced_wall = median(ok.iter().map(|t| t.wall).collect());
        let first_rep = ok.first();

        let values: BTreeMap<&str, f64> = [
            (
                "experiments.dup_job_ratio",
                crate::jobs::dup_job_ratio(&self.jobs),
            ),
            ("runner.busy_s", median(ok.iter().map(|t| t.busy).collect())),
            (
                "runner.parallel_eff",
                median(
                    ok.iter()
                        .map(|t| ratio(t.busy, t.jobs_wall * t.workers as f64))
                        .collect(),
                ),
            ),
            (
                "runner.straggler_s",
                median(ok.iter().map(|t| t.straggler).collect()),
            ),
            (
                "workloads.program_s",
                median(ok.iter().map(|t| t.program_s).collect()),
            ),
            (
                "workloads.trace_s",
                median(ok.iter().map(|t| t.trace_s).collect()),
            ),
            (
                "workloads.cache_mb_read",
                first_rep.map_or(0.0, |t| t.cache_read as f64 / 1e6),
            ),
            (
                "workloads.cache_mb_written",
                first_rep.map_or(0.0, |t| t.cache_written as f64 / 1e6),
            ),
            (
                "workloads.cache_hit_ratio",
                first_rep.map_or(0.0, |t| ratio(t.trace_hits as f64, t.traces as f64)),
            ),
            (
                "workloads.plan_s",
                median(
                    ok.iter()
                        .map(|t| runs(t).iter().map(|r| r.plan.as_secs_f64()).sum())
                        .collect(),
                ),
            ),
            ("workloads.replayed_steps", replayed),
            ("workloads.compression", ratio(represented, replayed)),
            ("frontend.job_p50_ms", median(job_ms.clone())),
            ("frontend.job_tail_ms", tail_ms),
            ("frontend.job_tail_pctile", tail_pct),
            ("frontend.job_count", job_ms.len() as f64),
            ("frontend.ns_per_step", ns_per_step),
            (
                "frontend.unattributed_ns_per_step",
                ns_per_step - (uarch_ns + core_ns) / replayed.max(1.0),
            ),
            ("frontend.wrong_path_blocks_pk", pk(c("wrong_path.blocks"))),
            (
                "frontend.wrong_path_prefetches_pk",
                pk(c("wrong_path.prefetches")),
            ),
            (
                "frontend.resteers_pk",
                pk(c("resteer.decode") + c("resteer.execute")),
            ),
            ("frontend.bogus_resteers_pk", pk(c("resteer.bogus"))),
            ("uarch.btb_misses_pk", pk(c("btb.misses"))),
            ("uarch.tage_predictions_pk", pk(c("bench.tage_calls"))),
            ("uarch.l1i_accesses_pk", pk(l1i_accesses)),
            (
                "uarch.l1i_miss_ratio",
                ratio(
                    c("l1i.demand_misses") + c("l1i.prefetch_misses"),
                    l1i_accesses,
                ),
            ),
            ("uarch.l2_accesses_pk", pk(l2_accesses)),
            ("uarch.btb_ns_per_call", costs.btb.per_call()),
            ("uarch.tage_ns_per_call", costs.tage.per_call()),
            ("uarch.cache_ns_per_call", costs.cache.per_call()),
            ("uarch.est_share", ratio(uarch_ns, frontend_ns)),
            ("core.sbd_head_regions_pk", pk(c("skia.sbd.head_regions"))),
            ("core.sbd_tail_regions_pk", pk(c("skia.sbd.tail_regions"))),
            ("core.sbb_lookups_pk", pk(c("skia.sbb.lookups"))),
            (
                "core.sbb_inserts_pk",
                pk(c("skia.sbb.u_inserts") + c("skia.sbb.r_inserts")),
            ),
            (
                "core.sbb_useful_ratio",
                ratio(
                    c("skia.useful_uses"),
                    c("skia.useful_uses") + c("skia.bogus_uses"),
                ),
            ),
            (
                "core.sbd_head_valid_ratio",
                ratio(c("skia.sbd.head_regions_valid"), c("skia.sbd.head_regions")),
            ),
            ("core.sbd_head_ns_per_call", costs.sbd_head.per_call()),
            ("core.sbd_tail_ns_per_call", costs.sbd_tail.per_call()),
            ("core.sbb_ns_per_call", costs.sbb.per_call()),
            ("core.est_share", ratio(core_ns, frontend_ns)),
            ("isa.decode_ns_per_insn", costs.decode.per_call()),
            ("telemetry.overhead_pct", overhead_pct),
            ("telemetry.emit_ms", emit_ms),
            ("telemetry.json_mb", json_mb),
            (
                "bench.trace_overhead_pct",
                (ratio(traced_wall, untraced_wall) - 1.0) * 100.0,
            ),
            ("sim.skia_speedup_pct", self.skia_speedup_pct),
            ("sim.sampled_ipc_err_pct", self.sampled_ipc_err_pct),
        ]
        .into_iter()
        .collect();
        self.metrics = PER_LAYER
            .iter()
            .filter_map(|&(n, u)| values.get(n).map(|&v| (n, u, v)))
            .collect();
    }

    /// Record the job counts and checks; complete the metric set.
    pub fn finish(&mut self, attempted: u64, failed: u64, notes: Vec<String>) {
        self.attempted = attempted;
        self.failed = failed;
        self.notes = notes;
        if self.metrics.is_empty() {
            self.metrics = self.end_to_end.clone();
        } else {
            let fail_ratio = failed as f64 / attempted.max(1) as f64;
            self.metrics
                .push(("sim.job_fail_ratio", "ratio", fail_ratio));
        }
    }

    /// Whether every job matched its expected output and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.notes.is_empty()
    }

    /// Human-readable lines: the seven end-to-end results and any notes.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "workload {}: {} jobs on {}\n",
            self.kind.name(),
            self.jobs.len(),
            crate::jobs::profiles(&self.jobs).join(" + ")
        );
        for (n, u, v) in &self.end_to_end {
            writeln!(s, "  {n:<20} {v:>14.4} {u}").expect("String write");
        }
        let fail = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            s,
            "  {:<20} {fail:>14.4} ratio ({} of {} jobs)",
            "job_fail_ratio", self.failed, self.attempted
        )
        .expect("String write");
        let na = |applies: bool, v: f64| {
            if applies {
                format!("{v:>14.4} %")
            } else {
                format!("{:>14} (no such jobs in this workload)", "n/a")
            }
        };
        let has_skia = self.jobs.iter().any(|j| j.config.skia());
        writeln!(
            s,
            "  {:<20} {}",
            "skia_speedup_pct",
            na(has_skia, self.skia_speedup_pct)
        )
        .expect("String write");
        writeln!(
            s,
            "  {:<20} {}",
            "sampled_ipc_err_pct",
            na(self.kind.mode() == Mode::Sampled, self.sampled_ipc_err_pct)
        )
        .expect("String write");
        if self.metrics.len() > self.end_to_end.len() || self.end_to_end.is_empty() {
            for (n, u, v) in &self.metrics {
                writeln!(s, "  {n:<36} {v:>16.4} {u}").expect("String write");
            }
        }
        for n in &self.notes {
            writeln!(s, "  check failed: {n}").expect("String write");
        }
        s.trim_end().to_string()
    }

    /// The final JSON line.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("{n:?}: {{\"value\": {v:?}, \"unit\": {u:?}}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 10 samples (11..=20) lie beyond the 10th value.
        assert_eq!(tail(v), (10.0, 50.0));
        assert_eq!(tail(vec![5.0, 1.0]).0, 5.0);
    }
}

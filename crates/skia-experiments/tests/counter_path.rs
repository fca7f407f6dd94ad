//! One counter path: the simulator counts into a plain `SimStats`, and
//! every snapshot — full or sampled — is written from a `SimStats` by
//! `SimStats::register_into`. These tests pin that the snapshot carries
//! exactly the returned stats, that a repeated snapshot changes nothing,
//! and that a degenerate sampled snapshot has the full run's counter map.

use std::collections::{BTreeMap, BTreeSet};

use skia_experiments::StandingConfig;
use skia_frontend::telemetry::btb_miss_kind_name;
use skia_frontend::{FrontendConfig, Simulator};
use skia_isa::BranchKind;
use skia_telemetry::Snapshot;
use skia_workloads::{Layout, Program, ProgramSpec, RecordedTrace, SamplingPlan};

const STEPS: usize = 2_000;

/// A Bolted program under the paper's 8K-entry BTB plus the default SBB.
fn scenario() -> (Program, RecordedTrace, FrontendConfig) {
    let program = Program::generate(&ProgramSpec {
        seed: 9,
        functions: 120,
        layout: Layout::Bolted,
        ..ProgramSpec::default()
    });
    let recorded = RecordedTrace::record(&program, 7, 6, STEPS);
    (
        program,
        recorded,
        StandingConfig::BtbPlusSkia(8192).frontend(),
    )
}

/// The snapshot's counters, minus every name that starts with `prefix`.
fn counters_without(snap: &Snapshot, prefix: &str) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| !name.starts_with(prefix))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

#[test]
fn every_table_counter_reaches_the_snapshot_with_its_stats_value() {
    let (program, recorded, config) = scenario();
    let (stats, snap) =
        skia_frontend::run_instrumented(&program, config, None, recorded.window(0, STEPS));
    assert!(
        stats.skia.is_some_and(|s| s.sbb.u_inserts > 0),
        "SBB exercised"
    );
    let mut names = BTreeSet::new();
    for (name, v) in stats.named_counters() {
        assert_eq!(snap.counter(name), Some(v), "{name}");
        names.insert(name);
    }
    assert_eq!(names.len(), 23, "23 distinct scalar counter names");
    for kind in BranchKind::ALL {
        let name = btb_miss_kind_name(kind);
        assert_eq!(
            snap.counter(name),
            Some(stats.btb_misses_of(kind)),
            "{kind:?}"
        );
        assert!(names.insert(name), "{name} collides with a scalar counter");
    }
    assert_eq!(snap.counter("sim.cycles"), Some(stats.cycles));
    assert_eq!(snap.gauge("sim.ipc"), Some(stats.ipc()));
    assert_eq!(
        snap.gauge("sim.mean_ftq_occupancy"),
        Some(stats.mean_ftq_occupancy)
    );
    assert!(snap.histogram("ftq.occupancy").is_some_and(|h| h.count > 0));
}

#[test]
fn repeated_snapshots_agree() {
    let (program, recorded, config) = scenario();
    let mut sim = Simulator::new(&program, config);
    let stats = sim.run(recorded.window(0, STEPS));
    let first = sim.snapshot();
    let second = sim.snapshot();
    assert_eq!(first, second);
    assert_eq!(sim.stats(), stats, "snapshots do not perturb the stats");
}

#[test]
fn degenerate_sampled_snapshot_has_the_full_counter_map() {
    let (program, recorded, config) = scenario();
    let (full_stats, full) =
        skia_frontend::run_instrumented(&program, config.clone(), None, recorded.window(0, STEPS));
    let plan = SamplingPlan::degenerate(STEPS);
    let (sampled_stats, sampled) =
        skia_frontend::run_plan_instrumented(&program, &config, &recorded, &plan, None);
    assert_eq!(sampled_stats, full_stats);
    assert!(full.counter("tage.predictions").is_some_and(|n| n > 0));
    assert_eq!(sampled.counter("sampling.active"), Some(0));
    assert_eq!(
        counters_without(&full, "tage."),
        counters_without(&sampled, "sampling."),
    );
    assert_eq!(full.gauges, sampled.gauges);
}

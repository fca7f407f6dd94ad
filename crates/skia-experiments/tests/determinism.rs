//! Parallel sweeps must be numerically indistinguishable from serial runs:
//! every field of every `SimStats` — including the f64 IPC-weighting
//! bookkeeping — must match bitwise regardless of thread count.

use skia_experiments::{SamplingEnv, StandingConfig, Sweep};
use skia_workloads::SamplingPlan;

const BENCHES: [&str; 3] = ["tpcc", "voter", "kafka"];
const STEPS: usize = 2_000;

fn sweep_stats(threads: usize) -> Vec<skia_frontend::SimStats> {
    let mut sweep = Sweep::new(threads).quiet();
    for name in BENCHES {
        for config in [
            StandingConfig::Btb(8192).frontend(),
            StandingConfig::BtbPlusSkia(8192).frontend(),
        ] {
            sweep.add(name, config, STEPS);
        }
    }
    sweep.run_collect()
}

/// A sampling environment exercising explicit overrides (not the
/// `for_steps` defaults), so this also covers the knob-resolution path.
fn sampling_env() -> SamplingEnv {
    SamplingEnv {
        enabled: true,
        interval: Some(400),
        k: Some(3),
        warmup: Some(100),
        seed: None,
    }
}

fn sampled_sweep_stats(threads: usize) -> Vec<skia_frontend::SimStats> {
    let mut sweep = Sweep::new(threads).quiet().sampled(sampling_env());
    for name in BENCHES {
        for config in [
            StandingConfig::Btb(8192).frontend(),
            StandingConfig::BtbPlusSkia(8192).frontend(),
        ] {
            sweep.add(name, config, STEPS);
        }
    }
    sweep.run_collect()
}

#[test]
fn parallel_sweep_matches_serial_field_for_field() {
    let serial = sweep_stats(1);
    let parallel = sweep_stats(4);
    assert_eq!(serial.len(), BENCHES.len() * 2);
    assert_eq!(parallel.len(), serial.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // SimStats derives PartialEq over every field, so this is a
        // field-for-field comparison (f64 fields compare bitwise-equal
        // values; NaN would fail, and no stat should ever be NaN).
        assert_eq!(s, p, "job {i} diverged between 1 and 4 threads");
    }
}

/// A sweep (which replays shared recorded traces) must produce exactly the
/// stats of driving each simulator from a live walker — the record/replay
/// pipeline is an implementation detail, never a results change.
#[test]
fn sweep_replay_matches_direct_live_walk() {
    let direct: Vec<_> = BENCHES
        .iter()
        .flat_map(|name| {
            let w = skia_experiments::workload(name);
            [
                w.run(StandingConfig::Btb(8192).frontend(), STEPS),
                w.run(StandingConfig::BtbPlusSkia(8192).frontend(), STEPS),
            ]
        })
        .collect();
    let swept = sweep_stats(1);
    assert_eq!(direct, swept, "replayed sweep diverged from live walks");
}

/// Sampled sweeps carry the same determinism contract as full sweeps:
/// plans are pure functions of `(trace, config)` — k-means runs serially
/// inside each job with a seeded RNG — so the estimates must match
/// bitwise across thread counts *and* across repeated runs in the same
/// process.
#[test]
fn sampled_sweep_is_thread_count_invariant_and_repeatable() {
    let serial = sampled_sweep_stats(1);
    let parallel = sampled_sweep_stats(4);
    let repeated = sampled_sweep_stats(4);
    assert_eq!(serial.len(), BENCHES.len() * 2);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "sampled job {i} diverged between 1 and 4 threads");
    }
    for (i, (p, r)) in parallel.iter().zip(&repeated).enumerate() {
        assert_eq!(p, r, "sampled job {i} diverged between repeated runs");
    }
}

/// Rebuilding a plan from the same shared recording and environment must
/// reproduce it exactly — slices, weights and fingerprint.
#[test]
fn sampling_plan_rebuild_is_exact() {
    let trace = skia_experiments::recorded_trace("tpcc", STEPS);
    let cfg = skia_experiments::sampling_config_for(STEPS, &sampling_env());
    let a = SamplingPlan::build(&trace, STEPS, &cfg);
    let b = SamplingPlan::build(&trace, STEPS, &cfg);
    assert_eq!(a, b, "plan rebuild diverged");
    assert_eq!(a.fingerprint(), b.fingerprint());
    // And a different clustering seed is actually a different plan — the
    // fingerprint is sensitive, not a constant.
    let reseeded = SamplingPlan::build(
        &trace,
        STEPS,
        &skia_workloads::SamplingConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        },
    );
    assert_ne!(a.fingerprint(), reseeded.fingerprint());
}

/// The process-wide trace memo hands every caller the same recording, and
/// upgrades in place when a longer walk is requested.
#[test]
fn recorded_trace_memo_shares_and_upgrades() {
    let short = skia_experiments::recorded_trace("tatp", 500);
    assert!(short.len() >= 500);
    let again = skia_experiments::recorded_trace("tatp", 200);
    assert!(
        std::sync::Arc::ptr_eq(&short, &again),
        "shorter request must reuse the stored recording"
    );
    let long = skia_experiments::recorded_trace("tatp", short.len() + 100);
    assert!(long.len() >= short.len() + 100);
    // The upgrade preserves the walk: the old recording is a prefix.
    assert_eq!(long.prefix(short.len()), (*short).clone());
}

/// Jobs repeating a (bench, config, steps) key are simulated once per
/// sweep and handed copies of that result: every job, repeated or not,
/// must equal its own direct replay, and the sweep must report the
/// repeats as dedup hits (per sweep, and in the emitted counters).
#[test]
fn repeated_job_keys_simulate_once_and_match_direct_replays() {
    let keys = [
        ("tpcc", StandingConfig::Btb(8192)),
        ("voter", StandingConfig::BtbPlusSkia(8192)),
        ("tpcc", StandingConfig::BtbPlusSkia(8192)),
        ("tpcc", StandingConfig::Btb(8192)),
        ("voter", StandingConfig::BtbPlusSkia(8192)),
        ("tpcc", StandingConfig::Btb(8192)),
    ];
    let mut sweep = Sweep::new(2).quiet();
    for (name, config) in keys {
        sweep.add(name, config.frontend(), STEPS);
    }
    // A different step count is a different key.
    sweep.add("tpcc", StandingConfig::Btb(8192).frontend(), STEPS / 2);
    assert_eq!(sweep.dedup_hits(), 3);

    let dir = std::env::temp_dir().join(format!("skia-dedup-{}", std::process::id()));
    let path = dir.join("dedup.json");
    let mut emitter = skia_experiments::Args {
        emit_json: Some(path.clone()),
        ..Default::default()
    }
    .emitter();
    let swept = sweep.run(&mut emitter);
    emitter.finish();

    let direct: Vec<_> = keys
        .iter()
        .map(|&(name, config)| (name, config, STEPS))
        .chain([("tpcc", StandingConfig::Btb(8192), STEPS / 2)])
        .map(|(name, config, steps)| {
            let trace = skia_experiments::recorded_trace(name, steps);
            skia_experiments::workload(name).run_trace(config.frontend(), &trace, steps)
        })
        .collect();
    assert_eq!(
        swept, direct,
        "deduplicated sweep diverged from direct replays"
    );

    let snap = skia_telemetry::Snapshot::from_json_str(
        &std::fs::read_to_string(&path).expect("emitted snapshot"),
    )
    .expect("valid snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        snap.counter("emit.runs_merged"),
        Some(7),
        "one merge per job"
    );
    // The counter is process-wide, and other tests in this binary sweep
    // concurrently without repeats, so it is at least this sweep's hits.
    assert!(snap.counter("sweep.dedup_hits").is_some_and(|n| n >= 3));
}

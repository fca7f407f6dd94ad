//! Sampled-vs-full validation: the error-bound contract of phase sampling.
//!
//! Phase sampling ([`skia_workloads::sampling`], `skia_frontend::sampling`)
//! replaces a full replay with weighted representative slices. This suite is
//! the contract that makes sampled numbers usable:
//!
//! 1. **Identity**: the degenerate plan (one zero-warmup slice covering the
//!    whole trace, weight 1) reproduces the full run's [`SimStats`]
//!    **byte-exactly** — across random layouts, seeds and lengths
//!    (proptest) and across every standing processor configuration. The
//!    estimator's integer scaling, the warmup baseline subtraction and the
//!    slice replay must all collapse to no-ops; any bias in the machinery
//!    shows up here as a hard inequality, not a tolerance.
//! 2. **Error bounds**: a real multi-slice plan reproduces every key
//!    counter of a full run within an explicit relative-error bound, for
//!    every standing configuration.
//! 3. **Teeth**: a planted [`SampleFault::SkipWarmup`] (measured windows
//!    run cold, exactly the bias warmup exists to remove) must push
//!    miss-class counters past those same bounds — the harness is only
//!    trustworthy if it fails when sampling is broken.
//!
//! The committed per-workload error pins at paper scale live in
//! `ci/sampling-error-pins.json` (see the `sampling_error_pins` test).

use proptest::prelude::*;
use skia_experiments::StandingConfig;
use skia_frontend::{FrontendConfig, SampleFault, SimStats, Simulator};
use skia_workloads::{Layout, Program, ProgramSpec, RecordedTrace, SamplingConfig, SamplingPlan};

/// A small program with both layouts' feature mix (dispatch, loops,
/// bursts), so failures reduce to small `(spec, config, steps)` triples.
fn small_spec(seed: u64, bolted: bool) -> ProgramSpec {
    ProgramSpec {
        seed,
        functions: 60,
        dispatch_blocks: 8,
        dispatch_callees: 8,
        burst_pool: 4,
        layout: if bolted {
            Layout::Bolted
        } else {
            Layout::Interleaved
        },
        ..ProgramSpec::default()
    }
}

/// A program whose branch working set *exceeds* a 128-entry BTB, so BTB
/// misses (and the cycles they cost) are a steady-state phenomenon the
/// sampler must reproduce — not a startup transient. Sampling estimates
/// steady-state behavior by construction; a config whose misses are purely
/// compulsory (e.g. an infinite BTB on a small program) has no steady state
/// to estimate and is validated by the degenerate-identity tests and the
/// paper-scale pins instead.
fn steady_state_spec() -> ProgramSpec {
    ProgramSpec {
        seed: 5,
        functions: 400,
        dispatch_blocks: 8,
        dispatch_callees: 8,
        burst_pool: 4,
        layout: Layout::Interleaved,
        ..ProgramSpec::default()
    }
}

/// The bounded-error scenario shared by the bounds test and the planted
/// fault proof: a 120k-step trace sampled at ~6.7× compression (three
/// 2000-step measured windows, each preceded by 4000 steps of warmup).
fn bounded_scenario() -> (Program, RecordedTrace, SamplingPlan) {
    let steps = 120_000;
    let program = Program::generate(&steady_state_spec());
    let recorded = RecordedTrace::record(&program, 42, 6, steps);
    let cfg = SamplingConfig {
        interval: 2000,
        warmup: 4000,
        ..SamplingConfig::for_steps(steps)
    };
    let plan = SamplingPlan::build(&recorded, steps, &cfg);
    (program, recorded, plan)
}

/// Full-replay reference through `Simulator::run` (the production path).
fn full(
    program: &Program,
    config: &FrontendConfig,
    trace: &RecordedTrace,
    steps: usize,
) -> SimStats {
    let mut sim = Simulator::new(program, config.clone());
    sim.run(trace.window(0, steps))
}

/// Sampled estimate through the plan runner.
fn sampled(
    program: &Program,
    config: &FrontendConfig,
    trace: &RecordedTrace,
    plan: &SamplingPlan,
    fault: Option<SampleFault>,
) -> SimStats {
    skia_frontend::run_plan(program, config, trace, plan, fault)
}

/// Relative error of an estimate against the full-run truth. Exact-zero
/// truth demands an exact-zero estimate (a counter the full run never
/// touched must not be invented by scaling).
fn rel_err(est: u64, truth: u64) -> f64 {
    if truth == 0 {
        if est == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (est.abs_diff(truth)) as f64 / truth as f64
    }
}

/// The key counters the harness bounds, with an accessor each. The order
/// matches `SimStats` field order; errors are reported per name.
const KEY_COUNTERS: &[skia_experiments::pins::CounterAccessor] = &[
    ("instructions", |s| s.instructions),
    ("cycles", |s| s.cycles),
    ("branches", |s| s.branches),
    ("taken_branches", |s| s.taken_branches),
    ("btb_misses", |s| s.btb_misses),
    ("cond_branches", |s| s.cond_branches),
    ("cond_mispredicts", |s| s.cond_mispredicts),
    ("decode_busy_cycles", |s| s.decode_busy_cycles),
];

/// Per-counter relative errors of `est` against `truth`.
fn errors(est: &SimStats, truth: &SimStats) -> Vec<(&'static str, f64)> {
    KEY_COUNTERS
        .iter()
        .map(|&(name, get)| (name, rel_err(get(est), get(truth))))
        .collect()
}

/// Relative-error bound for the small synthetic harness scale (120k steps,
/// three slices). Measured clean errors peak at ~6.3% (`cond_mispredicts`
/// under Btb(128)); the planted cold-start fault's smallest violation is
/// ~14% (`cond_mispredicts`), with `btb_misses` at ~18% and `cycles` at
/// ~24% — the bound sits between with margin on both sides. The committed
/// paper-scale pins are far tighter (see `ci/sampling-error-pins.json`).
const BOUND: f64 = 0.09;

#[test]
fn degenerate_plan_is_byte_exact_for_standing_configs() {
    let program = Program::generate(&small_spec(9, true));
    let recorded = RecordedTrace::record(&program, 7, 6, 2000);
    let plan = SamplingPlan::degenerate(2000);
    for sc in [
        StandingConfig::Btb(1024),
        StandingConfig::BtbPlusBudget(1024),
        StandingConfig::BtbPlusSkia(1024),
        StandingConfig::Infinite,
    ] {
        let config = sc.frontend();
        let reference = full(&program, &config, &recorded, 2000);
        let got = sampled(&program, &config, &recorded, &plan, None);
        assert_eq!(got, reference, "{sc:?}: degenerate plan must be exact");
    }
}

#[test]
fn sampled_errors_within_bounds_for_standing_configs() {
    let (program, recorded, plan) = bounded_scenario();
    let steps = plan.total_steps;
    assert!(
        plan.compression() >= 4.5,
        "plan must actually compress (got {:.2}×)",
        plan.compression()
    );
    // Capacity-pressured standing configs only: BtbPlusBudget(128)
    // normalizes to a budget-equivalent BTB large enough to swallow the
    // synthetic working set, which turns its misses back into a compulsory
    // transient (see `steady_state_spec`).
    for sc in [StandingConfig::Btb(128), StandingConfig::BtbPlusSkia(128)] {
        let config = sc.frontend();
        let truth = full(&program, &config, &recorded, steps);
        let est = sampled(&program, &config, &recorded, &plan, None);
        for (name, err) in errors(&est, &truth) {
            assert!(
                err <= BOUND,
                "{sc:?}: {name} off by {:.2}% (bound {:.1}%)",
                err * 100.0,
                BOUND * 100.0
            );
        }
    }
}

/// The headline teeth test: skipping warmup (measured windows run cold)
/// must be *caught* — the clean pipeline passes the bounds, the faulty one
/// violates them, on the same plan, trace and configuration.
#[test]
fn planted_skip_warmup_fault_is_caught() {
    let (program, recorded, plan) = bounded_scenario();
    let steps = plan.total_steps;
    assert!(
        plan.slices.iter().any(|s| s.warmup > 0),
        "fault proof needs real warmup windows to skip"
    );
    let config = StandingConfig::Btb(128).frontend();
    let truth = full(&program, &config, &recorded, steps);

    let clean = sampled(&program, &config, &recorded, &plan, None);
    let clean_errors = errors(&clean, &truth);
    for &(name, err) in &clean_errors {
        assert!(
            err <= BOUND,
            "clean run must pass: {name} {:.2}%",
            err * 100.0
        );
    }

    let faulty = sampled(
        &program,
        &config,
        &recorded,
        &plan,
        Some(SampleFault::SkipWarmup),
    );
    let faulty_errors = errors(&faulty, &truth);
    let violations: Vec<&(&str, f64)> = faulty_errors.iter().filter(|(_, e)| *e > BOUND).collect();
    assert!(
        !violations.is_empty(),
        "SkipWarmup fault was NOT caught: every counter stayed within {:.0}% \
         (clean {clean_errors:?}, faulty {faulty_errors:?})",
        BOUND * 100.0
    );
    // The violation must be the cold-start signature — a miss-class
    // counter, inflated (cold predictors miss more, not less).
    let (_, btb_fault_err) = faulty_errors
        .iter()
        .find(|(n, _)| *n == "btb_misses")
        .expect("btb_misses is a key counter");
    let (_, btb_clean_err) = clean_errors
        .iter()
        .find(|(n, _)| *n == "btb_misses")
        .expect("btb_misses is a key counter");
    assert!(
        btb_fault_err > btb_clean_err,
        "cold measure windows must inflate BTB-miss error \
         (clean {btb_clean_err:.4}, faulty {btb_fault_err:.4})"
    );
}

/// Retirement counters (pure per-step accounting) are *identical* between
/// the faulty and clean pipelines — SkipWarmup changes predictor/cache
/// state, not which steps are measured. This pins the fault's blast
/// radius, so the teeth test above cannot pass by measuring wrong windows.
#[test]
fn skip_warmup_fault_keeps_measure_windows() {
    let steps = 12_000;
    let program = Program::generate(&small_spec(3, true));
    let recorded = RecordedTrace::record(&program, 11, 6, steps);
    let plan = SamplingPlan::build(&recorded, steps, &SamplingConfig::for_steps(steps));
    let config = StandingConfig::Btb(512).frontend();
    let clean = sampled(&program, &config, &recorded, &plan, None);
    let faulty = sampled(
        &program,
        &config,
        &recorded,
        &plan,
        Some(SampleFault::SkipWarmup),
    );
    assert_eq!(clean.instructions, faulty.instructions);
    assert_eq!(clean.branches, faulty.branches);
    assert_eq!(clean.taken_branches, faulty.taken_branches);
    assert_eq!(clean.cond_branches, faulty.cond_branches);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 1: the degenerate plan reproduces the full run's SimStats
    /// byte-exactly across random layouts, seeds and lengths — with and
    /// without Skia attached.
    #[test]
    fn degenerate_plan_reproduces_full_run(
        prog_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        bolted in any::<bool>(),
        with_skia in any::<bool>(),
        steps in 1usize..1200,
    ) {
        let program = Program::generate(&small_spec(prog_seed, bolted));
        let recorded = RecordedTrace::record(&program, walk_seed, 6, steps);
        let mut config = FrontendConfig::test_small();
        if with_skia {
            config.skia = Some(skia_core::SkiaConfig::default());
        }
        let mut sim = Simulator::new(&program, config.clone());
        let reference = sim.run(recorded.window(0, steps));
        let plan = SamplingPlan::degenerate(steps);
        prop_assert!(plan.is_degenerate());
        let got = skia_frontend::run_plan(&program, &config, &recorded, &plan, None);
        prop_assert_eq!(got, reference, "steps={}", steps);
    }
}

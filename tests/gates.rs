//! Tier-1 reach into the model gates: a small lockstep corpus against the
//! reference oracle with Skia attached, and the degenerate-sampling
//! identity under the paper's BTB+Skia configuration. The full gates live
//! in `crates/skia-oracle/tests/lockstep.rs` and
//! `crates/skia-experiments/tests/sampled_vs_full.rs`; these cases are
//! sized so a plain `cargo test` at the root still sees a model break.

use skia_core::SkiaConfig;
use skia_frontend::{FrontendConfig, Simulator};
use skia_isa::BranchKind;
use skia_oracle::{run_case, DiffCase};
use skia_workloads::{
    Layout, Program, ProgramSpec, RecordedTrace, SamplingConfig, SamplingPlan, Walker,
};

/// Skia on, both layouts, with the default SBB and a tiny one (eviction
/// and retired-bit replacement hot): every case must replay without a
/// single divergence and actually exercise the SBB.
#[test]
fn lockstep_mini_corpus_with_skia_has_zero_divergences() {
    let mut sbb_inserts = 0;
    for (i, (bolted, small_sbb)) in [(false, false), (true, false), (false, true), (true, true)]
        .into_iter()
        .enumerate()
    {
        let case = DiffCase {
            spec_seed: 0x6A7E + i as u64,
            functions: 60,
            bolted,
            trace_seed: 1 + i as u64,
            steps: 500,
            with_skia: true,
            btb_sets: 8,
            small_sbb,
        };
        let outcome = run_case(&case, None).unwrap_or_else(|report| panic!("{report}"));
        let skia = outcome.stats.skia.expect("skia attached");
        assert!(
            skia.sbd.head_regions + skia.sbd.tail_regions > 0,
            "{case:?}"
        );
        sbb_inserts += skia.sbb.u_inserts + skia.sbb.r_inserts;
    }
    assert!(sbb_inserts > 0, "corpus never filled the SBB");
}

/// The degenerate plan (one zero-warmup slice over the whole trace) must
/// reproduce a full replay byte for byte under `BtbPlusSkia(8192)`: the
/// paper's 8K-entry BTB plus the default Skia SBB.
#[test]
fn degenerate_sampling_is_exact_for_btb_plus_skia() {
    let program = Program::generate(&ProgramSpec {
        seed: 9,
        functions: 120,
        layout: Layout::Bolted,
        ..ProgramSpec::default()
    });
    let steps = 2_000;
    let recorded = RecordedTrace::record(&program, 7, 6, steps);
    let config = FrontendConfig::alder_lake_like()
        .with_btb_entries(8192)
        .with_skia(SkiaConfig::default());
    let full = Simulator::new(&program, config.clone()).run(recorded.window(0, steps));
    let plan = SamplingPlan::degenerate(steps);
    let sampled = skia_frontend::run_plan(&program, &config, &recorded, &plan, None);
    assert!(full.skia.is_some_and(|s| s.sbd.head_regions > 0));
    assert_eq!(sampled, full, "degenerate plan must be exact");
}

/// FNV-1a 64 of a value's `Debug` form.
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    skia_telemetry::fnv1a(format!("{value:?}").as_bytes())
}

/// A non-degenerate sampled estimate is pinned bit for bit, together with
/// the counter maps of its snapshot and of a full run's: four slices of a
/// 6k-step trace under the paper's 8K-entry BTB plus the default Skia SBB.
/// Every slice delta, weighted sum and registry name feeds these digests,
/// so a counter dropped from (or misnamed in) any of them fails here.
#[test]
fn sampled_estimate_and_snapshots_are_pinned() {
    let program = Program::generate(&ProgramSpec {
        seed: 9,
        functions: 120,
        layout: Layout::Bolted,
        ..ProgramSpec::default()
    });
    let steps = 6_000;
    let recorded = RecordedTrace::record(&program, 7, 6, steps);
    let config = FrontendConfig::alder_lake_like()
        .with_btb_entries(8192)
        .with_skia(SkiaConfig::default());
    let plan = SamplingPlan::build(
        &recorded,
        steps,
        &SamplingConfig {
            interval: 500,
            k: 4,
            warmup: 100,
            ..SamplingConfig::for_steps(steps)
        },
    );
    assert!(plan.slices.len() >= 3, "{} slices", plan.slices.len());
    let (est, sampled) =
        skia_frontend::run_plan_instrumented(&program, &config, &recorded, &plan, None);
    assert!(est
        .skia
        .is_some_and(|s| s.sbb.u_inserts + s.sbb.r_inserts > 0));
    let (_, full) =
        skia_frontend::run_instrumented(&program, config, None, recorded.window(0, steps));
    let got = [
        debug_digest(&est),
        debug_digest(&sampled.counters),
        debug_digest(&full.counters),
    ];
    let want = [
        0xb3e6_f22c_4748_0041,
        0x3e21_c259_3f65_376f,
        0x6604_6483_a3c7_e7e8,
    ];
    assert_eq!(
        (sampled.counters.len(), full.counters.len()),
        (73, 66),
        "counter names in the sampled and full snapshots"
    );
    assert_eq!(got, want, "digests {got:#x?}");
}

/// FNV-1a 64 over every field of every step of a `steps`-long walk, plus
/// how often the walk exercised each kind of random choice: dispatcher
/// indirect calls, indirect jumps and taken loop backedges.
fn walk_digest(program: &Program, seed: u64, mean_trip: u32, steps: usize) -> (u64, [u64; 3]) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let dispatcher = &program.functions()[0].blocks;
    let mut seen = [0u64; 3];
    for s in Walker::new(program, seed, mean_trip).take(steps) {
        let kind = BranchKind::ALL.iter().position(|&k| k == s.kind).unwrap() as u8;
        mix(&s.block_start.to_le_bytes());
        mix(&s.branch_pc.to_le_bytes());
        mix(&[s.branch_len, kind, u8::from(s.taken)]);
        mix(&s.next_pc.to_le_bytes());
        mix(&s.insns.to_le_bytes());
        match s.kind {
            BranchKind::IndirectCall if dispatcher.iter().any(|b| b.start == s.block_start) => {
                seen[0] += 1;
            }
            BranchKind::IndirectJmp => seen[1] += 1,
            BranchKind::DirectCond if s.taken && s.next_pc <= s.block_start => seen[2] += 1,
            _ => {}
        }
    }
    (hash, seen)
}

/// The walker's output is pinned bit for bit: a 20k-step walk over three
/// small programs, each stressing one random choice — burst-pool
/// dispatcher calls, indirect jumps, and backedges of one-trip loops.
/// Every recorded trace, cached file and figure descends from this
/// stream, so a walker change that moves any RNG draw or pick fails here.
#[test]
fn walker_stream_is_pinned() {
    let cases: [(&str, ProgramSpec, u32, u64); 3] = [
        (
            "dispatcher bursts",
            ProgramSpec {
                seed: 0xD15,
                functions: 300,
                dispatch_blocks: 32,
                dispatch_callees: 64,
                burst_pool: 16,
                burst_prob: 0.6,
                ..ProgramSpec::default()
            },
            6,
            0x4023_bee7_b190_a8e2,
        ),
        (
            "indirect jumps",
            ProgramSpec {
                seed: 0x1D1,
                functions: 200,
                blocks_per_fn: 6..14,
                indirect_fraction: 0.4,
                ..ProgramSpec::default()
            },
            6,
            0xad28_48fe_09a2_262a,
        ),
        (
            "short loops",
            ProgramSpec {
                seed: 0xB4C,
                functions: 200,
                cond_fraction: 0.7,
                backedge_fraction: 0.7,
                ..ProgramSpec::default()
            },
            1,
            0x3db5_8f4e_be2d_963d,
        ),
    ];
    for (i, (name, spec, mean_trip, want)) in cases.into_iter().enumerate() {
        let program = Program::generate(&spec);
        let (got, seen) = walk_digest(&program, 3 + i as u64, mean_trip, 20_000);
        assert!(
            seen[i] >= 500,
            "{name} barely exercised its choice: {seen:?}"
        );
        assert_eq!(got, want, "{name}: walk digest {got:#018x}");
    }
}

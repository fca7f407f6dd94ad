//! Tier-1 reach into the model gates: a small lockstep corpus against the
//! reference oracle with Skia attached, and the degenerate-sampling
//! identity under the paper's BTB+Skia configuration. The full gates live
//! in `crates/skia-oracle/tests/lockstep.rs` and
//! `crates/skia-experiments/tests/sampled_vs_full.rs`; these cases are
//! sized so a plain `cargo test` at the root still sees a model break.

use skia_core::SkiaConfig;
use skia_frontend::{FrontendConfig, Simulator};
use skia_oracle::{run_case, DiffCase};
use skia_workloads::{Layout, Program, ProgramSpec, RecordedTrace, SamplingPlan};

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
    let full = Simulator::new(&program, config.clone()).run_batched(&recorded, steps, 512);
    let plan = SamplingPlan::degenerate(steps);
    let sampled = skia_frontend::run_plan(&program, &config, &recorded, &plan, 512, None);
    assert!(full.skia.is_some_and(|s| s.sbd.head_regions > 0));
    assert_eq!(sampled, full, "degenerate plan must be exact");
}

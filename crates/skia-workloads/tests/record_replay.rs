//! Record/replay equivalence properties.
//!
//! The record-once/replay-many pipeline is only sound if a replayed trace is
//! *bit-identical* to the live walk it was recorded from — every simulator
//! downstream consumes the `TraceStep` stream and nothing else, so stream
//! equality is the whole correctness argument. These properties exercise it
//! across program layouts, seeds, trip counts, and step counts, and also pin
//! down the RNG-isolation guarantee: recording a trace must never perturb an
//! independently running walker (the differential harness replays seed-logged
//! cases and would silently diverge otherwise).

use proptest::prelude::*;
use skia_workloads::{Layout, Program, ProgramSpec, RecordedTrace, Walker};

/// A small spec keeps per-case generation cheap while still covering both
/// layouts, indirect dispatch, loops, and bursts.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay equals the live walker step-for-step, field-for-field, for any
    /// (layout, program seed, walk seed, trip count, length).
    #[test]
    fn replay_equals_live_walk(
        prog_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        bolted in any::<bool>(),
        mean_trip in 1u32..12,
        steps in 1usize..1500,
    ) {
        let program = Program::generate(&small_spec(prog_seed, bolted));
        let trace = RecordedTrace::record(&program, walk_seed, mean_trip, steps);
        let live = Walker::new(&program, walk_seed, mean_trip);
        let mut n = 0;
        for (replayed, lived) in trace.replay().zip(live) {
            prop_assert_eq!(replayed, lived);
            n += 1;
        }
        prop_assert_eq!(n, steps, "replay must yield exactly the recorded length");
    }

    /// A stored trace serves any shorter request: its prefix equals a fresh
    /// walk of that length (the invariant the disk cache's prefix-serving
    /// relies on).
    #[test]
    fn prefix_of_longer_recording_equals_shorter_walk(
        walk_seed in any::<u64>(),
        short in 1usize..400,
        extra in 1usize..400,
    ) {
        let program = Program::generate(&small_spec(7, false));
        let long = RecordedTrace::record(&program, walk_seed, 6, short + extra);
        let fresh = RecordedTrace::record(&program, walk_seed, 6, short);
        prop_assert_eq!(long.prefix(short), fresh);
    }

    /// Windowed replay is a pure partition of the step stream: for any
    /// split `k <= n`, `window(0, k)` followed by `window(k, n)` equals
    /// `replay().take(n)` — the chaining invariant sampled slices rely on.
    #[test]
    fn split_windows_concatenate_to_the_replay_stream(
        prog_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        bolted in any::<bool>(),
        n in 0usize..900,
        split in any::<u64>(),
    ) {
        let program = Program::generate(&small_spec(prog_seed, bolted));
        let trace = RecordedTrace::record(&program, walk_seed, 6, 900);
        let k = (split % (n as u64 + 1)) as usize;
        let whole: Vec<_> = trace.replay().take(n).collect();
        let joined: Vec<_> = trace.window(0, k).chain(trace.window(k, n)).collect();
        prop_assert_eq!(joined, whole, "split at {} of {}", k, n);
    }

    /// RNG isolation: recording a trace mid-walk must not perturb an
    /// independent live walker. The walker drawn to completion in one gulp
    /// must equal the walker that was interleaved with recording activity.
    #[test]
    fn recording_does_not_perturb_a_live_walker(
        walk_seed in any::<u64>(),
        pause_at in 1usize..300,
    ) {
        let program = Program::generate(&small_spec(11, true));
        let reference: Vec<_> =
            Walker::new(&program, walk_seed, 6).take(600).collect();

        let mut interleaved = Walker::new(&program, walk_seed, 6);
        let mut observed: Vec<_> = (&mut interleaved).take(pause_at).collect();
        // Recording here uses its own fresh walker internally; if it shared
        // or reseeded any global state, the resumed stream would diverge.
        let _ = RecordedTrace::record(&program, walk_seed ^ 0xDEAD, 9, 500);
        observed.extend(interleaved.take(600 - pause_at));
        prop_assert_eq!(observed, reference);
    }
}

/// A window opens at the walker-chaining invariant's boundary without a
/// scan: `entry_at(k)` is step `k-1`'s `next_pc` (and its taken bit), and
/// `window(k, ..)`'s first step starts there. Exercises the edge splits
/// explicitly, including the taken-bitset word boundaries.
#[test]
fn window_entry_chains_from_the_previous_step() {
    let program = Program::generate(&small_spec(5, false));
    let trace = RecordedTrace::record(&program, 42, 6, 1000);
    let steps: Vec<_> = trace.replay().collect();
    assert_eq!(trace.entry_at(0), (steps[0].block_start, true));
    for k in [1usize, 7, 63, 64, 65, 250, 999, 1000] {
        let prev = &steps[k - 1];
        assert_eq!(trace.entry_at(k), (prev.next_pc, prev.taken), "k={k}");
        if let Some(first) = trace.window(k, 1000).next() {
            assert_eq!(first.block_start, prev.next_pc, "k={k}");
        }
    }
    // Degenerate shapes: an empty window yields nothing; the full window
    // is the whole recording.
    assert_eq!(trace.window(1000, 1000).count(), 0);
    assert_eq!(trace.window(0, 1000).count(), 1000);
}

/// Replaying twice from one recording yields identical streams — replay holds
/// no hidden mutable state.
#[test]
fn replay_is_stateless_and_repeatable() {
    let program = Program::generate(&small_spec(3, false));
    let trace = RecordedTrace::record(&program, 42, 6, 2000);
    let a: Vec<_> = trace.replay().collect();
    let b: Vec<_> = trace.replay().collect();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2000);
}

/// FNV-1a 64 over every field of every step a walk yields.
fn stream_digest(steps: impl Iterator<Item = skia_workloads::TraceStep>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in steps {
        let kind = skia_isa::BranchKind::ALL
            .iter()
            .position(|&k| k == s.kind)
            .unwrap() as u8;
        mix(&s.block_start.to_le_bytes());
        mix(&s.branch_pc.to_le_bytes());
        mix(&[s.branch_len, kind, u8::from(s.taken)]);
        mix(&s.next_pc.to_le_bytes());
        mix(&s.insns.to_le_bytes());
    }
    hash
}

/// The paper profiles' walks are pinned bit for bit at 200k steps: the
/// live walker and its recording must both reproduce the digests every
/// cached trace and figure was built from.
#[test]
fn paper_profile_walks_are_pinned() {
    for (name, want) in [
        ("tpcc", 0x8bc7_e411_a496_d803),
        ("ycsb", 0x11f7_a131_c82d_f153),
    ] {
        let p = skia_workloads::profile(name).expect("paper profile");
        let program = Program::generate(&p.spec);
        let mean_trip = p.spec.mean_trip_count;
        let live = stream_digest(Walker::new(&program, p.trace_seed, mean_trip).take(200_000));
        assert_eq!(live, want, "{name}: walk digest {live:#018x}");
        let trace = RecordedTrace::record(&program, p.trace_seed, mean_trip, 200_000);
        assert_eq!(stream_digest(trace.replay()), want, "{name}: recording");
    }
}

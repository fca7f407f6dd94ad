//! Materialized traces: record a [`Walker`] stream once, replay it many
//! times.
//!
//! Every figure in the paper is a sweep — one workload trace replayed under
//! many front-end configurations. The live [`Walker`] pays RNG draws, trip
//! bookkeeping and (for indirect calls) a per-step weight vector allocation
//! on every block; a sweep re-pays all of it once per configuration for a
//! stream that is, by construction, identical across configurations. A
//! [`RecordedTrace`] materializes the stream into struct-of-arrays columns
//! (~22 bytes/step) so replay is a pure column read: no RNG, no hashing, no
//! allocation. This is the checkpoint-reuse discipline of SimPoint-style
//! sampling applied to the simulator's own trace generator.
//!
//! Bit-identity is structural, not probabilistic: [`Replay`] yields the
//! exact [`TraceStep`] values the recording walker produced (the `taken`
//! column is a bitset; `block_start` is reconstructed from the chaining
//! invariant `block_start[i+1] == next_pc[i]`, which the walker guarantees
//! and tests assert). A prefix of a longer recording equals a shorter walk
//! from the same seed, because the walker is deterministic — that is what
//! lets the disk cache serve any request no longer than what it stored.

use skia_isa::BranchKind;

use crate::program::Program;
use crate::walker::{TraceStep, Walker};

/// A recorded walker stream in struct-of-arrays form.
///
/// Columns are parallel; `taken` packs one bit per step. The first block
/// start is kept in the header and later ones are reconstructed from
/// `next_pc` chaining during replay, so the buffer stores no redundant
/// column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Seed the recording walker was created with (identity/debug).
    pub seed: u64,
    /// Mean trip count the recording walker was created with.
    pub mean_trip: u32,
    /// `block_start` of step 0.
    pub(crate) first_block_start: u64,
    /// Terminating branch pc per step.
    pub(crate) branch_pc: Vec<u64>,
    /// Next executed instruction address per step.
    pub(crate) next_pc: Vec<u64>,
    /// Instructions per block (terminator included).
    pub(crate) insns: Vec<u32>,
    /// Branch kind per step, as an index into [`BranchKind::ALL`].
    pub(crate) kind: Vec<u8>,
    /// Encoded branch length per step.
    pub(crate) branch_len: Vec<u8>,
    /// Taken bitset, one bit per step, LSB-first within each word.
    pub(crate) taken: Vec<u64>,
}

impl RecordedTrace {
    /// Record `steps` steps of a fresh walker over `program`.
    ///
    /// The walker is constructed locally and dropped afterwards, so
    /// recording can never perturb the RNG state of any other walker (the
    /// differential harness's seed-logged cases replay unchanged).
    #[must_use]
    pub fn record(program: &Program, seed: u64, mean_trip: u32, steps: usize) -> Self {
        Self::record_from(
            Walker::new(program, seed, mean_trip),
            seed,
            mean_trip,
            steps,
        )
    }

    /// Record `steps` steps from an existing walker (consumed by value —
    /// a recording cannot share RNG state with a live iterator).
    #[must_use]
    pub fn record_from(walker: Walker<'_>, seed: u64, mean_trip: u32, steps: usize) -> Self {
        let mut trace = RecordedTrace {
            seed,
            mean_trip,
            first_block_start: 0,
            branch_pc: Vec::with_capacity(steps),
            next_pc: Vec::with_capacity(steps),
            insns: Vec::with_capacity(steps),
            kind: Vec::with_capacity(steps),
            branch_len: Vec::with_capacity(steps),
            taken: vec![0u64; steps.div_ceil(64)],
        };
        for (i, step) in walker.take(steps).enumerate() {
            if i == 0 {
                trace.first_block_start = step.block_start;
            } else {
                debug_assert_eq!(
                    step.block_start,
                    trace.next_pc[i - 1],
                    "walker chaining invariant"
                );
            }
            trace.branch_pc.push(step.branch_pc);
            trace.next_pc.push(step.next_pc);
            trace.insns.push(step.insns);
            trace.kind.push(kind_index(step.kind));
            trace.branch_len.push(step.branch_len);
            if step.taken {
                trace.taken[i / 64] |= 1 << (i % 64);
            }
        }
        trace
    }

    /// Recorded step count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.branch_pc.len()
    }

    /// Whether no steps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.branch_pc.is_empty()
    }

    /// Heap bytes held by the columns (telemetry).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.branch_pc.len() * (8 + 8 + 4 + 1 + 1) + self.taken.len() * 8
    }

    /// A copy holding only the first `steps` steps. Because the walker is
    /// deterministic, this equals a fresh recording of `steps` steps from
    /// the same seed — which is what lets the disk cache serve any request
    /// no longer than what it stored.
    ///
    /// # Panics
    ///
    /// Panics if `steps > len()`.
    #[must_use]
    pub fn prefix(&self, steps: usize) -> RecordedTrace {
        assert!(steps <= self.len(), "prefix longer than recording");
        let mut taken = self.taken[..steps.div_ceil(64)].to_vec();
        if !steps.is_multiple_of(64) {
            // Mask stray tail bits so the prefix is value-equal to a fresh
            // recording of the same length.
            if let Some(last) = taken.last_mut() {
                *last &= (1u64 << (steps % 64)) - 1;
            }
        }
        RecordedTrace {
            seed: self.seed,
            mean_trip: self.mean_trip,
            first_block_start: if steps == 0 {
                0
            } else {
                self.first_block_start
            },
            branch_pc: self.branch_pc[..steps].to_vec(),
            next_pc: self.next_pc[..steps].to_vec(),
            insns: self.insns[..steps].to_vec(),
            kind: self.kind[..steps].to_vec(),
            branch_len: self.branch_len[..steps].to_vec(),
            taken,
        }
    }

    /// Allocation-free, RNG-free iterator over the recorded steps,
    /// bit-identical to the live walk that produced them. May be called
    /// any number of times; `take(n)` for `n <= len()` equals a shorter
    /// walk from the same seed.
    #[must_use]
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            trace: self,
            idx: 0,
            end: self.len(),
            block_start: self.first_block_start,
        }
    }

    /// The replay entry state at step `lo`: the block-start PC of the step
    /// about to execute and whether that block is entered through a taken
    /// branch (the previous step's `taken` bit; `true` at `lo == 0`,
    /// matching a fresh BPU positioned at the program entry). Sampled
    /// replay uses this to re-sync the IAG when a slice jumps over a trace
    /// gap: the values are exactly what a continuous replay would have
    /// chained to at that index.
    ///
    /// # Panics
    ///
    /// Panics if `lo > len()`.
    #[must_use]
    pub fn entry_at(&self, lo: usize) -> (u64, bool) {
        assert!(lo <= self.len(), "entry past the recording");
        if lo == 0 {
            (self.first_block_start, true)
        } else {
            let i = lo - 1;
            (self.next_pc[i], (self.taken[i / 64] >> (i % 64)) & 1 == 1)
        }
    }

    /// Replay of the half-open step window `[lo, hi)`: bit-identical to
    /// `replay().skip(lo).take(hi - lo)` but O(1) to position (the opening
    /// `block_start` is chained from `next_pc[lo-1]`, so no prefix scan).
    /// Windows `[0, k)` and `[k, n)` concatenate to `replay().take(n)`.
    /// Full sweep runs replay `window(0, steps)`; sampled slices replay
    /// their warmup and measure windows.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > len()`.
    #[must_use]
    pub fn window(&self, lo: usize, hi: usize) -> Replay<'_> {
        assert!(lo <= hi, "window start past its end");
        assert!(hi <= self.len(), "window longer than recording");
        Replay {
            trace: self,
            idx: lo,
            end: hi,
            block_start: if lo == 0 {
                self.first_block_start
            } else {
                self.next_pc[lo - 1]
            },
        }
    }
}

/// Iterator over a [`RecordedTrace`]. Pure column reads.
#[derive(Debug, Clone)]
pub struct Replay<'t> {
    trace: &'t RecordedTrace,
    idx: usize,
    /// One past the last step this iterator yields (`len()` for a full
    /// replay; the window end for [`RecordedTrace::window`]).
    end: usize,
    /// `block_start` of the step about to be yielded (chained).
    block_start: u64,
}

impl Iterator for Replay<'_> {
    type Item = TraceStep;

    fn next(&mut self) -> Option<TraceStep> {
        let t = self.trace;
        let i = self.idx;
        if i >= self.end {
            return None;
        }
        let next_pc = t.next_pc[i];
        let step = TraceStep {
            block_start: self.block_start,
            branch_pc: t.branch_pc[i],
            branch_len: t.branch_len[i],
            kind: BranchKind::ALL[t.kind[i] as usize],
            taken: (t.taken[i / 64] >> (i % 64)) & 1 == 1,
            next_pc,
            insns: t.insns[i],
        };
        self.idx = i + 1;
        self.block_start = next_pc;
        Some(step)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Replay<'_> {}

/// Index of `kind` in [`BranchKind::ALL`] (total: `ALL` covers the enum).
pub(crate) fn kind_index(kind: BranchKind) -> u8 {
    BranchKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("BranchKind::ALL is total") as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramSpec;

    fn program() -> Program {
        Program::generate(&ProgramSpec {
            functions: 40,
            ..ProgramSpec::default()
        })
    }

    #[test]
    fn replay_is_bit_identical_to_live_walk() {
        let p = program();
        let live: Vec<TraceStep> = Walker::new(&p, 42, 8).take(3000).collect();
        let trace = RecordedTrace::record(&p, 42, 8, 3000);
        assert_eq!(trace.len(), 3000);
        let replayed: Vec<TraceStep> = trace.replay().collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_prefix_equals_shorter_walk() {
        let p = program();
        let trace = RecordedTrace::record(&p, 7, 5, 2048);
        let short: Vec<TraceStep> = Walker::new(&p, 7, 5).take(500).collect();
        let prefix: Vec<TraceStep> = trace.replay().take(500).collect();
        assert_eq!(short, prefix);
    }

    #[test]
    fn replay_is_repeatable_and_exact_size() {
        let p = program();
        let trace = RecordedTrace::record(&p, 1, 8, 100);
        let a: Vec<TraceStep> = trace.replay().collect();
        let b: Vec<TraceStep> = trace.replay().collect();
        assert_eq!(a, b);
        let mut it = trace.replay();
        assert_eq!(it.len(), 100);
        it.next();
        assert_eq!(it.len(), 99);
    }

    #[test]
    fn kind_index_round_trips_every_kind() {
        for k in BranchKind::ALL {
            assert_eq!(BranchKind::ALL[kind_index(k) as usize], k);
        }
    }

    #[test]
    fn empty_recording_replays_nothing() {
        let p = program();
        let trace = RecordedTrace::record(&p, 3, 8, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.replay().count(), 0);
        assert_eq!(trace.byte_size(), 0);
    }
}

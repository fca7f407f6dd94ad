//! Deterministic control-flow walker.
//!
//! Produces the *retired* instruction stream the front-end simulator
//! replays: an infinite iterator of [`TraceStep`]s, one per executed basic
//! block. Outcomes are a pure function of the program, the seed and the
//! step index, so every simulator configuration replays the identical true
//! path (the paper's §5.4 divergence-control concern, solved exactly).
//!
//! Behaviour model:
//!
//! * **Calls** pick the statically encoded callee; **indirect calls/jumps**
//!   choose among their target set, weighted toward hot functions.
//! * **Conditionals**: loop backedges run trip counts drawn around the
//!   spec's mean; other conditionals flip a per-branch biased coin (bias is
//!   a static property of the branch, as in real code).
//! * **Returns** pop the walker's call stack; the dispatcher (function 0)
//!   restarts forever, modeling a server request loop.
//!
//! The walker resolves the program once, in [`Walker::new`], into a dense
//! walk table: every block gets an id in (function, block) order, every
//! direct branch its target id, every indirect site its target ids and
//! tempered weights, and loop trip counters live in a flat array indexed
//! by block id. A step is then array indexing plus the RNG draws the
//! behaviour model calls for: no hashing, allocation or square root.

use std::marker::PhantomData;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skia_isa::BranchKind;

use crate::program::Program;

/// One executed basic block and its terminating branch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Address of the block's first instruction.
    pub block_start: u64,
    /// Address of the terminating branch.
    pub branch_pc: u64,
    /// Encoded length of the branch.
    pub branch_len: u8,
    /// Branch classification.
    pub kind: BranchKind,
    /// Whether the branch was taken.
    pub taken: bool,
    /// The next executed instruction address (target if taken, fallthrough
    /// otherwise).
    pub next_pc: u64,
    /// Instructions executed in this block (terminator included).
    pub insns: u32,
}

impl TraceStep {
    /// First byte after the terminator.
    #[must_use]
    pub fn block_end(&self) -> u64 {
        self.branch_pc + u64::from(self.branch_len)
    }
}

/// Block id of an address that starts no block. Walking to it panics on
/// the out-of-bounds index, so a malformed program fails only if the walk
/// reaches the bad edge.
const NO_BLOCK: u32 = u32::MAX;

/// Trip counter of a loop that is not running. Never a live count: counts
/// are drawn from `1..=2·mean`, an even bound below `u32::MAX`.
const NO_TRIP: u32 = u32::MAX;

/// One block as the walker sees it, successors resolved to block ids.
#[derive(Debug, Clone, Copy)]
struct WalkBlock {
    start: u64,
    branch_pc: u64,
    fallthrough: u64,
    insns: u32,
    kind: BranchKind,
    len: u8,
    backedge: bool,
    /// Direct target's block id (conditionals, jumps, calls).
    target: u32,
    /// Taken probability of a non-backedge conditional.
    p_taken: f64,
    /// Indirect sites: `sites[lo..hi]` of the table.
    lo: u32,
    hi: u32,
    /// Indirect sites: the `iter().sum()` of the sites' weights.
    total: f64,
}

/// One target of an indirect site.
#[derive(Debug, Clone, Copy)]
struct Site {
    block: u32,
    /// Tempered hotness: the square root of the owning function's weight
    /// (`1e-6` when the target starts no block).
    weight: f64,
}

/// Infinite trace iterator over a [`Program`].
#[derive(Debug, Clone)]
pub struct Walker<'p> {
    blocks: Vec<WalkBlock>,
    sites: Vec<Site>,
    /// Ids `0..dispatcher_blocks` are the dispatcher's (function 0).
    dispatcher_blocks: u32,
    rng: SmallRng,
    /// Block id currently executing.
    cur: u32,
    /// Return stack: block id to resume *after* the call.
    stack: Vec<u32>,
    /// Live loop trip counters per block id ([`NO_TRIP`] when idle).
    trips: Vec<u32>,
    mean_trip: u32,
    max_stack: usize,
    /// Recent dispatcher targets (request-burst temporal locality).
    burst_pool: Vec<u32>,
    burst_next: usize,
    burst_prob: f64,
    burst_cap: usize,
    /// The table is a copy, but a walker still borrows its program.
    program: PhantomData<&'p Program>,
}

impl<'p> Walker<'p> {
    /// Start walking `program` from the dispatcher (function 0).
    #[must_use]
    pub fn new(program: &'p Program, seed: u64, mean_trip: u32) -> Self {
        let functions = program.functions();
        let mut first_id = Vec::with_capacity(functions.len());
        let mut nblocks = 0u32;
        for f in functions {
            first_id.push(nblocks);
            nblocks += f.blocks.len() as u32;
        }
        let locate = |addr: u64| {
            program
                .locate_block(addr)
                .map(|(fi, bi)| (fi as usize, first_id[fi as usize] + bi))
        };
        let mut blocks = Vec::with_capacity(nblocks as usize);
        let mut sites = Vec::new();
        for b in functions.iter().flat_map(|f| &f.blocks) {
            let t = &b.terminator;
            let lo = sites.len();
            sites.extend(t.indirect_targets.iter().map(|&addr| {
                let (block, weight) =
                    locate(addr).map_or((NO_BLOCK, 1e-6), |(fi, id)| (id, functions[fi].weight));
                Site {
                    block,
                    weight: weight.sqrt(),
                }
            }));
            blocks.push(WalkBlock {
                start: b.start,
                branch_pc: t.pc,
                fallthrough: t.fallthrough,
                insns: b.insns,
                kind: t.kind,
                len: t.len,
                backedge: t.backedge,
                target: t.target.and_then(locate).map_or(NO_BLOCK, |(_, id)| id),
                // Static per-branch bias. Real conditionals are strongly
                // bimodal (error paths almost-never, guard checks
                // almost-always); only a minority are balanced. This is
                // what lets a TAGE-class predictor reach realistic
                // accuracy on the synthetic trace.
                // Half the forward conditionals are almost-always taken:
                // hot jumps over cold fall-through regions — the very
                // structure of the paper's Fig. 2 (cold bytes in the
                // shadow of an executed exit point).
                // Hot jumps are *very* strongly biased (99.5%): their
                // cold fall-through regions then recur beyond the BTB's
                // eviction horizon (genuine capacity-missing "cold"
                // branches) while staying in the shadow of hot fetches.
                p_taken: match t.bias {
                    0..=4 => 0.98,
                    5..=7 => 0.02,
                    8 => 0.10,
                    _ => 0.75,
                },
                lo: lo as u32,
                hi: sites.len() as u32,
                total: sites[lo..].iter().map(|s| s.weight).sum(),
            });
        }
        let (burst_cap, burst_prob) = program.spec_burst();
        Walker {
            blocks,
            sites,
            dispatcher_blocks: functions.first().map_or(0, |f| f.blocks.len() as u32),
            rng: SmallRng::seed_from_u64(seed ^ 0x57A1_C0DE),
            cur: 0,
            stack: Vec::with_capacity(64),
            trips: vec![NO_TRIP; nblocks as usize],
            mean_trip: mean_trip.max(1),
            max_stack: 256,
            burst_pool: Vec::with_capacity(burst_cap),
            burst_next: 0,
            burst_prob,
            burst_cap,
            program: PhantomData,
        }
    }

    /// Push the block after `id` as the return point of a call from `id`.
    fn push_return(&mut self, id: u32) {
        if self.stack.len() < self.max_stack {
            self.stack.push(id + 1);
        } // else: deepest frame lost; resume collapses to dispatcher
    }
}

impl Iterator for Walker<'_> {
    type Item = TraceStep;

    fn next(&mut self) -> Option<TraceStep> {
        let id = self.cur;
        let b = self.blocks[id as usize];

        let (taken, next_id) = match b.kind {
            BranchKind::Return => (true, self.stack.pop().unwrap_or(0)),
            BranchKind::DirectUncond => (true, b.target),
            BranchKind::Call => {
                self.push_return(id);
                (true, b.target)
            }
            BranchKind::IndirectCall => {
                // Weighted choice among the target set (hotter = likelier).
                // Dispatcher calls additionally model request bursts: most
                // requests repeat a recently seen target, so hot sets stay
                // warm while cold targets recur at long distances.
                let dispatcher = id < self.dispatcher_blocks;
                let from_pool = dispatcher
                    && self.burst_cap > 0
                    && !self.burst_pool.is_empty()
                    && self.rng.gen_bool(self.burst_prob);
                let target = if from_pool {
                    self.burst_pool[self.rng.gen_range(0..self.burst_pool.len())]
                } else {
                    let sites = &self.sites[b.lo as usize..b.hi as usize];
                    let fresh = weighted_pick(&mut self.rng, sites, b.total);
                    if dispatcher && self.burst_cap > 0 {
                        if self.burst_pool.len() < self.burst_cap {
                            self.burst_pool.push(fresh);
                        } else {
                            self.burst_pool[self.burst_next] = fresh;
                            self.burst_next = (self.burst_next + 1) % self.burst_cap;
                        }
                    }
                    fresh
                };
                self.push_return(id);
                (true, target)
            }
            BranchKind::IndirectJmp => {
                let n = (b.hi - b.lo) as usize;
                (
                    true,
                    self.sites[b.lo as usize + self.rng.gen_range(0..n)].block,
                )
            }
            BranchKind::DirectCond => {
                let taken = if b.backedge {
                    // Trip-counted loop: taken while iterations remain.
                    let remaining = &mut self.trips[id as usize];
                    if *remaining == NO_TRIP {
                        // 1..2·mean, deterministic per (pc, entry).
                        *remaining = self.rng.gen_range(1..=self.mean_trip * 2);
                    }
                    if *remaining > 0 {
                        *remaining -= 1;
                        true
                    } else {
                        *remaining = NO_TRIP;
                        false
                    }
                } else {
                    self.rng.gen_bool(b.p_taken)
                };
                if taken {
                    (true, b.target)
                } else {
                    (false, id + 1)
                }
            }
        };

        self.cur = next_id;
        Some(TraceStep {
            block_start: b.start,
            branch_pc: b.branch_pc,
            branch_len: b.len,
            kind: b.kind,
            taken,
            next_pc: if taken {
                self.blocks[next_id as usize].start
            } else {
                b.fallthrough
            },
            insns: b.insns,
        })
    }
}

/// Pick a target block from `sites`, weighted by the owning function's
/// hotness — tempered so cold targets recur at long intervals instead of
/// never (the paper's "cold branch" capacity-miss behaviour, §1). `total`
/// is the sum of the sites' weights.
fn weighted_pick(rng: &mut SmallRng, sites: &[Site], total: f64) -> u32 {
    debug_assert!(!sites.is_empty());
    // 30% of picks are uniform: every callee, however cold, keeps recurring.
    if rng.gen_bool(0.30) {
        return sites[rng.gen_range(0..sites.len())].block;
    }
    // Tempered hotness (square root, taken when the table is built)
    // flattens the Zipf head so one hot callee does not monopolize a call
    // site.
    let mut pick = rng.gen_range(0.0..total.max(1e-12));
    for s in sites {
        if pick < s.weight {
            return s.block;
        }
        pick -= s.weight;
    }
    sites.last().expect("nonempty").block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, ProgramSpec};

    fn program() -> Program {
        Program::generate(&ProgramSpec {
            functions: 40,
            ..ProgramSpec::default()
        })
    }

    #[test]
    fn steps_chain_consistently() {
        let p = program();
        let mut w = Walker::new(&p, 7, 8);
        let mut prev_next: Option<u64> = None;
        for step in (&mut w).take(5000) {
            if let Some(expected) = prev_next {
                assert_eq!(step.block_start, expected, "steps must chain");
            }
            assert!(step.branch_pc >= step.block_start);
            if !step.taken {
                assert_eq!(step.next_pc, step.block_end());
            }
            prev_next = Some(step.next_pc);
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let p = program();
        let a: Vec<_> = Walker::new(&p, 42, 8).take(2000).collect();
        let b: Vec<_> = Walker::new(&p, 42, 8).take(2000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let p = program();
        let a: Vec<_> = Walker::new(&p, 1, 8).take(2000).collect();
        let b: Vec<_> = Walker::new(&p, 2, 8).take(2000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn walker_visits_many_functions() {
        let p = program();
        let visited: std::collections::HashSet<u64> = Walker::new(&p, 3, 8)
            .take(20_000)
            .map(|s| s.block_start)
            .collect();
        assert!(
            visited.len() > 50,
            "should roam the program, saw {} blocks",
            visited.len()
        );
    }

    #[test]
    fn returns_balance_calls_in_the_long_run() {
        let p = program();
        let mut calls = 0i64;
        let mut rets = 0i64;
        for s in Walker::new(&p, 9, 8).take(50_000) {
            match s.kind {
                BranchKind::Call | BranchKind::IndirectCall => calls += 1,
                BranchKind::Return => rets += 1,
                _ => {}
            }
        }
        // Dispatcher restarts add extra returns bounded by loop count.
        assert!((calls - rets).abs() < calls / 2 + 100, "{calls} vs {rets}");
    }

    #[test]
    fn backedges_terminate() {
        // If loops did not terminate the walker would stick to one block.
        let p = program();
        let steps: Vec<_> = Walker::new(&p, 11, 4).take(10_000).collect();
        let distinct: std::collections::HashSet<u64> =
            steps.iter().map(|s| s.block_start).collect();
        assert!(distinct.len() > 20);
    }
}

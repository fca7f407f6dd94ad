//! Synthetic program generation.
//!
//! A [`Program`] is a flat x86-64 code image plus structural ground truth:
//! functions, basic blocks and branch metadata. Every instruction is emitted
//! through [`skia_isa::encode`], so the bytes in the image are genuinely
//! decodable (and mis-decodable from wrong offsets — exactly what head
//! shadow decoding must cope with).
//!
//! Generation is two-phase: an abstract structure (functions → blocks →
//! instruction templates + terminators) is built first from a seeded RNG,
//! then laid out into bytes with relocation fixups patched in a second pass.
//! The layout order implements the hot/cold co-location that produces
//! shadow branches: [`Layout::Interleaved`] alternates hot and cold
//! functions in memory (the default; what ordinary compilation does to
//! unrelated functions), while [`Layout::Bolted`] sorts hot functions
//! together, modeling what the BOLT binary optimizer achieves (§6.1.4).

use std::collections::HashMap;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skia_isa::{encode, BranchKind, CACHE_LINE_BYTES};

use crate::side_table::{BranchRecord, BranchTable};

/// Function layout order in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Hot and cold functions alternate in memory, maximizing hot/cold
    /// cache-line sharing (the shadow-branch generator).
    #[default]
    Interleaved,
    /// Functions sorted hottest-first (BOLT-like): hot code is packed, so
    /// fewer lines mix hot and cold bytes and the BTB working set shrinks.
    Bolted,
}

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// RNG seed; everything about the program is a pure function of the spec.
    pub seed: u64,
    /// Number of functions.
    pub functions: usize,
    /// Blocks per function (inclusive range).
    pub blocks_per_fn: Range<usize>,
    /// Non-branch instructions per block (inclusive range).
    pub insns_per_block: Range<usize>,
    /// Probability that a non-final block terminator is conditional.
    pub cond_fraction: f64,
    /// Probability that a non-final, non-conditional terminator is a call
    /// (the rest are unconditional jumps).
    pub call_fraction: f64,
    /// Fraction of calls/jumps made indirect (through a register).
    pub indirect_fraction: f64,
    /// Zipf skew for function hotness (higher = more skewed).
    pub zipf_s: f64,
    /// Fraction of conditional terminators that are loop backedges.
    pub backedge_fraction: f64,
    /// Mean loop trip count for backedges.
    pub mean_trip_count: u32,
    /// Callees listed per function (targets of its calls).
    pub callees_per_fn: usize,
    /// Fraction of functions that are *leaves* (no outgoing calls), like
    /// real utility/getter functions. Calls are biased toward leaves, which
    /// keeps the call tree of one dispatcher request bounded — without this
    /// a branching factor above 1 makes request trees effectively infinite.
    pub leaf_fraction: f64,
    /// Dispatcher (function 0) blocks: each is one indirect call site of the
    /// event loop. Together with `dispatch_callees` this sets how many entry
    /// points the workload's active set spans — the main BTB-pressure knob.
    pub dispatch_blocks: usize,
    /// Callee candidates per dispatcher call site.
    pub dispatch_callees: usize,
    /// Size of the walker's recent-request pool (temporal locality model:
    /// servers see bursts of similar requests). 0 disables burstiness.
    pub burst_pool: usize,
    /// Probability that a dispatcher call repeats a pooled recent target
    /// instead of drawing a fresh one.
    pub burst_prob: f64,
    /// Layout order.
    pub layout: Layout,
}

impl Default for ProgramSpec {
    fn default() -> Self {
        ProgramSpec {
            seed: 0xC0FFEE,
            functions: 2000,
            blocks_per_fn: 2..7,
            insns_per_block: 2..7,
            cond_fraction: 0.55,
            call_fraction: 0.45,
            indirect_fraction: 0.03,
            zipf_s: 1.1,
            backedge_fraction: 0.18,
            mean_trip_count: 6,
            leaf_fraction: 0.55,
            callees_per_fn: 6,
            dispatch_blocks: 64,
            dispatch_callees: 64,
            burst_pool: 64,
            burst_prob: 0.5,
            layout: Layout::Interleaved,
        }
    }
}

/// Ground-truth metadata for one branch instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchMeta {
    /// Address of the branch's first byte.
    pub pc: u64,
    /// Encoded length.
    pub len: u8,
    /// Classification.
    pub kind: BranchKind,
    /// Static target for direct branches (`None` for returns/indirect).
    pub target: Option<u64>,
    /// Address of the next sequential instruction.
    pub fallthrough: u64,
    /// Possible targets of an indirect branch (walker's choice set).
    pub indirect_targets: Vec<u64>,
    /// Whether a conditional branch is a loop backedge.
    pub backedge: bool,
    /// Bias selector for the walker's conditional outcome model.
    pub bias: u8,
}

/// One basic block: straight-line instructions ending in a branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u64,
    /// Instructions in the block, including the terminator.
    pub insns: u32,
    /// Terminating branch.
    pub terminator: BranchMeta,
}

impl BasicBlock {
    /// First byte after the terminator (block byte range end).
    #[must_use]
    pub fn end(&self) -> u64 {
        self.terminator.pc + u64::from(self.terminator.len)
    }
}

/// A function: contiguous blocks, entered at `entry`, exited by return.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Entry address (start of block 0).
    pub entry: u64,
    /// Blocks in layout order.
    pub blocks: Vec<BasicBlock>,
    /// Hotness weight used by the walker's call selection.
    pub weight: f64,
}

/// The generated program.
#[derive(Debug, Clone)]
pub struct Program {
    base: u64,
    image: Vec<u8>,
    functions: Vec<Function>,
    /// pc → (function index, block index) for every block terminator.
    branch_index: HashMap<u64, (u32, u32)>,
    /// block start address → (function index, block index).
    block_index: HashMap<u64, (u32, u32)>,
    /// Dense pc-sorted branch side table (hot-path metadata lookups).
    table: BranchTable,
    /// Burst-locality parameters carried from the spec for the walker.
    burst: (usize, f64),
}

/// Build the dense side table from the assembled functions. Derived data:
/// never serialized, rebuilt on generation and cache load alike.
fn build_branch_table(functions: &[Function]) -> BranchTable {
    let recs: Vec<BranchRecord> = functions
        .iter()
        .flat_map(|f| {
            f.blocks.iter().map(|b| {
                let t = &b.terminator;
                BranchRecord {
                    pc: t.pc,
                    block_start: b.start,
                    target: t.target,
                    fallthrough: t.fallthrough,
                    insns: b.insns,
                    len: t.len,
                    kind: t.kind,
                }
            })
        })
        .collect();
    BranchTable::from_records(recs)
}

// ---------------------------------------------------------------------------
// Abstract structure (pre-layout)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AbsTerm {
    Cond { target_block: usize, backedge: bool },
    Uncond { target_block: usize },
    Call { callee: usize },
    IndirectCall { callees: Vec<usize> },
    IndirectJmp { target_blocks: Vec<usize> },
    Ret,
}

#[derive(Debug, Clone)]
struct AbsBlock {
    selectors: Vec<u64>,
    term: AbsTerm,
}

#[derive(Debug, Clone)]
struct AbsFn {
    blocks: Vec<AbsBlock>,
    weight: f64,
}

fn sample_range(rng: &mut SmallRng, r: &Range<usize>) -> usize {
    if r.start + 1 >= r.end {
        r.start
    } else {
        rng.gen_range(r.start..r.end)
    }
}

impl Program {
    /// Generate a program from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero functions or empty ranges).
    #[must_use]
    pub fn generate(spec: &ProgramSpec) -> Self {
        assert!(spec.functions > 0, "need at least one function");
        assert!(spec.blocks_per_fn.start >= 1);
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        // ---- Phase 1: abstract structure ----
        // Leaf assignment: leaves make no calls; call sites prefer them.
        let is_leaf: Vec<bool> = (0..spec.functions)
            .map(|fi| fi != 0 && rng.gen_bool(spec.leaf_fraction))
            .collect();
        let leaves: Vec<usize> = (1..spec.functions).filter(|&fi| is_leaf[fi]).collect();

        let mut fns: Vec<AbsFn> = Vec::with_capacity(spec.functions);

        // Function 0 is the dispatcher: an event loop of indirect calls
        // fanning out across the whole program (a server's request loop).
        // Without it the walk could get trapped in a call-free region.
        {
            let fanout_blocks = spec.dispatch_blocks.min(spec.functions.max(2) - 1).max(1);
            let mut blocks = Vec::with_capacity(fanout_blocks + 1);
            for _ in 0..fanout_blocks {
                let ninsns = sample_range(&mut rng, &spec.insns_per_block);
                let selectors: Vec<u64> = (0..ninsns).map(|_| rng.gen()).collect();
                let n = spec.dispatch_callees.clamp(2, 256).min(spec.functions - 1);
                let callees: Vec<usize> =
                    (0..n).map(|_| rng.gen_range(1..spec.functions)).collect();
                blocks.push(AbsBlock {
                    selectors,
                    term: AbsTerm::IndirectCall { callees },
                });
            }
            blocks.push(AbsBlock {
                selectors: vec![rng.gen()],
                term: AbsTerm::Ret,
            });
            fns.push(AbsFn {
                blocks,
                weight: 1.0,
            });
        }

        #[allow(clippy::needless_range_loop)] // fi also derives entry PCs, not just is_leaf
        for fi in 1..spec.functions {
            let nblocks = sample_range(&mut rng, &spec.blocks_per_fn).max(1);
            // Zipf-like hotness over a random permutation: weight by rank.
            let rank = 1 + rng.gen_range(0..spec.functions);
            let weight = 1.0 / (rank as f64).powf(spec.zipf_s);

            let mut blocks = Vec::with_capacity(nblocks);
            for bi in 0..nblocks {
                let ninsns = sample_range(&mut rng, &spec.insns_per_block);
                let selectors: Vec<u64> = (0..ninsns).map(|_| rng.gen()).collect();
                let last = bi + 1 == nblocks;
                let term = if last {
                    AbsTerm::Ret
                } else if rng.gen_bool(spec.cond_fraction) {
                    let backedge = bi > 0 && rng.gen_bool(spec.backedge_fraction);
                    let target_block = if backedge {
                        rng.gen_range(0..bi)
                    } else {
                        rng.gen_range(bi + 1..nblocks)
                    };
                    AbsTerm::Cond {
                        target_block,
                        backedge,
                    }
                } else if !is_leaf[fi] && rng.gen_bool(spec.call_fraction) {
                    // DAG constraint (callee index > caller) bounds stack
                    // depth; function 0 is the dispatcher. Most calls target
                    // leaf functions (bounding the request tree); the rest
                    // are drawn from a *band* just above the caller so
                    // non-leaf call trees occupy disjoint index regions
                    // instead of collapsing onto one shared tail — this is
                    // what keeps the active branch set large (cold-branch
                    // capacity misses, §1).
                    let leaf_call = !leaves.is_empty() && rng.gen_bool(0.75);
                    // Any leaf is a safe callee regardless of index order:
                    // leaves make no calls, so no cycle can form.
                    let pick_leaf =
                        |rng: &mut SmallRng| -> usize { leaves[rng.gen_range(0..leaves.len())] };
                    if fi + 1 >= spec.functions && !leaf_call {
                        AbsTerm::Uncond {
                            target_block: rng.gen_range(bi + 1..nblocks),
                        }
                    } else if rng.gen_bool(spec.indirect_fraction) {
                        let n = spec.callees_per_fn.clamp(2, 8);
                        let callees: Vec<usize> = (0..n)
                            .map(|_| {
                                if leaf_call {
                                    pick_leaf(&mut rng)
                                } else {
                                    rng.gen_range((fi + 1).min(spec.functions - 1)..spec.functions)
                                }
                            })
                            .collect();
                        AbsTerm::IndirectCall { callees }
                    } else if leaf_call {
                        AbsTerm::Call {
                            callee: pick_leaf(&mut rng),
                        }
                    } else {
                        let span = (spec.functions / 8).max(64);
                        let hi = (fi + 1 + span).min(spec.functions);
                        AbsTerm::Call {
                            callee: rng.gen_range(fi + 1..hi),
                        }
                    }
                } else if rng.gen_bool(spec.indirect_fraction) && nblocks > bi + 2 {
                    let n = 3.min(nblocks - bi - 1);
                    let target_blocks: Vec<usize> =
                        (0..n).map(|_| rng.gen_range(bi + 1..nblocks)).collect();
                    AbsTerm::IndirectJmp { target_blocks }
                } else {
                    AbsTerm::Uncond {
                        target_block: rng.gen_range(bi + 1..nblocks),
                    }
                };
                blocks.push(AbsBlock { selectors, term });
            }
            fns.push(AbsFn { blocks, weight });
        }

        // ---- Phase 2: layout order ----
        let mut order: Vec<usize> = (0..spec.functions).collect();
        match spec.layout {
            Layout::Interleaved => {
                // Hot and cold functions mixed in memory: a seeded shuffle,
                // which is what ordinary compilation/linking produces —
                // neighboring functions are unrelated, so hot and cold bytes
                // share cache lines pervasively (the shadow-branch source).
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
            }
            Layout::Bolted => {
                order.sort_by(|&a, &b| fns[b].weight.total_cmp(&fns[a].weight));
            }
        }
        // Function 0 (the dispatcher) always leads so the entry point is
        // stable; keep the rest of the order as computed.
        if let Some(pos) = order.iter().position(|&f| f == 0) {
            order.remove(pos);
            order.insert(0, 0);
        }

        // ---- Phase 3: emission with fixups ----
        let base = 0x0040_0000u64;
        let mut image: Vec<u8> = Vec::new();
        // Block start addresses, indexed [fn][block].
        let mut block_addr: Vec<Vec<u64>> = vec![Vec::new(); spec.functions];
        // Fixups: (image offset of rel32, end-of-insn pc, fn, block).
        let mut fixups: Vec<(usize, u64, usize, usize)> = Vec::new();
        // Terminator record: (fn, block, pc, len, kind-specifics).
        struct TermRec {
            pc: u64,
            len: u8,
            kind: BranchKind,
            target_ref: Option<(usize, usize)>,
            indirect_refs: Vec<(usize, usize)>,
            backedge: bool,
        }
        let mut term_recs: Vec<Vec<TermRec>> = Vec::new();
        term_recs.resize_with(spec.functions, Vec::new);

        for &fi in &order {
            let f = &fns[fi];
            term_recs[fi] = Vec::with_capacity(f.blocks.len());
            block_addr[fi] = Vec::with_capacity(f.blocks.len());
            for (bi, b) in f.blocks.iter().enumerate() {
                block_addr[fi].push(base + image.len() as u64);
                for &sel in &b.selectors {
                    encode::emit_nonbranch(&mut image, sel);
                }
                let pc = base + image.len() as u64;
                let (len, kind, target_ref, indirect_refs, backedge) = match &b.term {
                    AbsTerm::Cond {
                        target_block,
                        backedge,
                    } => {
                        let cc = (rng.gen_range(0u8..16)) & 0x0F;
                        let len = encode::jcc_rel32(&mut image, cc, 0) as u8;
                        fixups.push((image.len() - 4, pc + u64::from(len), fi, *target_block));
                        (
                            len,
                            BranchKind::DirectCond,
                            Some((fi, *target_block)),
                            Vec::new(),
                            *backedge,
                        )
                    }
                    AbsTerm::Uncond { target_block } => {
                        let len = encode::jmp_rel32(&mut image, 0) as u8;
                        fixups.push((image.len() - 4, pc + u64::from(len), fi, *target_block));
                        (
                            len,
                            BranchKind::DirectUncond,
                            Some((fi, *target_block)),
                            Vec::new(),
                            false,
                        )
                    }
                    AbsTerm::Call { callee } => {
                        let len = encode::call_rel32(&mut image, 0) as u8;
                        fixups.push((image.len() - 4, pc + u64::from(len), *callee, 0));
                        (len, BranchKind::Call, Some((*callee, 0)), Vec::new(), false)
                    }
                    AbsTerm::IndirectCall { callees } => {
                        let reg = encode::Reg::ALL[rng.gen_range(0..8usize)];
                        let len = encode::call_reg(&mut image, reg) as u8;
                        let refs = callees.iter().map(|&c| (c, 0)).collect();
                        (len, BranchKind::IndirectCall, None, refs, false)
                    }
                    AbsTerm::IndirectJmp { target_blocks } => {
                        let reg = encode::Reg::ALL[rng.gen_range(0..8usize)];
                        let len = encode::jmp_reg(&mut image, reg) as u8;
                        let refs = target_blocks.iter().map(|&tb| (fi, tb)).collect();
                        (len, BranchKind::IndirectJmp, None, refs, false)
                    }
                    AbsTerm::Ret => {
                        let len = encode::ret(&mut image) as u8;
                        (len, BranchKind::Return, None, Vec::new(), false)
                    }
                };
                term_recs[fi].push(TermRec {
                    pc,
                    len,
                    kind,
                    target_ref,
                    indirect_refs,
                    backedge,
                });
                let _ = bi;
            }
        }

        // Patch fixups.
        for (off, end_pc, tfn, tblock) in fixups {
            let target = block_addr[tfn][tblock];
            let rel = target.wrapping_sub(end_pc) as i64 as i32;
            image[off..off + 4].copy_from_slice(&rel.to_le_bytes());
        }

        // ---- Phase 4: assemble public structures ----
        let mut functions: Vec<Function> = Vec::with_capacity(spec.functions);
        let mut branch_index = HashMap::new();
        let mut bias_rng = SmallRng::seed_from_u64(spec.seed ^ 0xB1A5);
        for fi in 0..spec.functions {
            let mut blocks = Vec::with_capacity(fns[fi].blocks.len());
            for (bi, rec) in term_recs[fi].iter().enumerate() {
                let target = rec.target_ref.map(|(tf, tb)| block_addr[tf][tb]);
                let indirect_targets: Vec<u64> = rec
                    .indirect_refs
                    .iter()
                    .map(|&(tf, tb)| block_addr[tf][tb])
                    .collect();
                let meta = BranchMeta {
                    pc: rec.pc,
                    len: rec.len,
                    kind: rec.kind,
                    target,
                    fallthrough: rec.pc + u64::from(rec.len),
                    indirect_targets,
                    backedge: rec.backedge,
                    bias: bias_rng.gen_range(0..=9),
                };
                branch_index.insert(rec.pc, (fi as u32, bi as u32));
                blocks.push(BasicBlock {
                    start: block_addr[fi][bi],
                    insns: fns[fi].blocks[bi].selectors.len() as u32 + 1,
                    terminator: meta,
                });
            }
            functions.push(Function {
                entry: block_addr[fi][0],
                blocks,
                weight: fns[fi].weight,
            });
        }

        let mut block_index = HashMap::new();
        for (fi, f) in functions.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                block_index.insert(b.start, (fi as u32, bi as u32));
            }
        }

        let table = build_branch_table(&functions);
        Program {
            base,
            image,
            functions,
            branch_index,
            block_index,
            table,
            burst: (spec.burst_pool, spec.burst_prob),
        }
    }

    /// Reassemble a program from its serialized parts (disk cache load),
    /// rebuilding the derived `branch_index`/`block_index` maps — they are
    /// pure functions of `functions`, so the cache never stores them.
    pub(crate) fn from_parts(
        base: u64,
        image: Vec<u8>,
        functions: Vec<Function>,
        burst: (usize, f64),
    ) -> Self {
        let mut branch_index = HashMap::new();
        let mut block_index = HashMap::new();
        for (fi, f) in functions.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                branch_index.insert(b.terminator.pc, (fi as u32, bi as u32));
                block_index.insert(b.start, (fi as u32, bi as u32));
            }
        }
        let table = build_branch_table(&functions);
        Program {
            base,
            image,
            functions,
            branch_index,
            block_index,
            table,
            burst,
        }
    }

    /// `(pool size, repeat probability)` of the request-burst model, for the
    /// walker.
    #[must_use]
    pub fn spec_burst(&self) -> (usize, f64) {
        self.burst
    }

    /// Base address of the image.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total code bytes.
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.image.len()
    }

    /// All functions.
    #[must_use]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Total static branch count.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.branch_index.len()
    }

    /// Whether `addr` lies inside the image.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.image.len() as u64
    }

    /// The 64-byte cache line containing `addr`, zero-padded at the image
    /// edge. Returns the line base address and its bytes.
    #[must_use]
    pub fn line(&self, addr: u64) -> (u64, [u8; CACHE_LINE_BYTES]) {
        let line_base = addr & !(CACHE_LINE_BYTES as u64 - 1);
        let mut bytes = [0u8; CACHE_LINE_BYTES];
        // One bulk copy of the line's overlap with the image (hot path:
        // the SBD fetches a line for every shadow-decoded block).
        let image_end = self.base + self.image.len() as u64;
        let lo = line_base.max(self.base);
        let hi = (line_base + CACHE_LINE_BYTES as u64).min(image_end);
        if lo < hi {
            let dst = (lo - line_base) as usize;
            let src = (lo - self.base) as usize;
            let n = (hi - lo) as usize;
            bytes[dst..dst + n].copy_from_slice(&self.image[src..src + n]);
        }
        (line_base, bytes)
    }

    /// Raw bytes starting at `addr` (up to `len`, truncated at image end).
    #[must_use]
    pub fn bytes_at(&self, addr: u64, len: usize) -> &[u8] {
        if !self.contains(addr) {
            return &[];
        }
        let off = (addr - self.base) as usize;
        &self.image[off..(off + len).min(self.image.len())]
    }

    /// Ground-truth branch metadata at `pc`, if a block terminator lives
    /// there.
    #[must_use]
    pub fn branch_at(&self, pc: u64) -> Option<&BranchMeta> {
        let &(fi, bi) = self.branch_index.get(&pc)?;
        Some(&self.functions[fi as usize].blocks[bi as usize].terminator)
    }

    /// `(function index, block index)` of the block starting at `pc`.
    #[must_use]
    pub fn locate_block(&self, pc: u64) -> Option<(u32, u32)> {
        self.block_index.get(&pc).copied()
    }

    /// `(function index, block index)` of the terminator at `pc`.
    #[must_use]
    pub fn locate_branch(&self, pc: u64) -> Option<(u32, u32)> {
        self.branch_index.get(&pc).copied()
    }

    /// The dense pc-sorted branch side table (built once at generation or
    /// cache load; shared by every simulator over this program).
    #[must_use]
    pub fn branch_table(&self) -> &BranchTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_isa::{decode, InsnKind};

    fn small_spec() -> ProgramSpec {
        ProgramSpec {
            functions: 50,
            ..ProgramSpec::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Program::generate(&small_spec());
        let b = Program::generate(&small_spec());
        assert_eq!(a.code_bytes(), b.code_bytes());
        assert_eq!(a.bytes_at(a.base(), 256), b.bytes_at(b.base(), 256));
    }

    #[test]
    fn every_block_terminator_decodes_to_its_ground_truth() {
        let p = Program::generate(&small_spec());
        for f in p.functions() {
            for b in &f.blocks {
                let t = &b.terminator;
                let bytes = p.bytes_at(t.pc, 15);
                let d = decode::decode(bytes).expect("terminator must decode");
                assert_eq!(d.len, t.len, "length at {:#x}", t.pc);
                match d.kind {
                    InsnKind::Branch(bi) => {
                        assert_eq!(bi.kind, t.kind, "kind at {:#x}", t.pc);
                        if let Some(target) = t.target {
                            assert_eq!(
                                d.branch_target(t.pc),
                                Some(target),
                                "target at {:#x}",
                                t.pc
                            );
                        }
                    }
                    InsnKind::Other => panic!("terminator at {:#x} is not a branch", t.pc),
                }
            }
        }
    }

    #[test]
    fn block_bodies_decode_cleanly_from_start_to_terminator() {
        let p = Program::generate(&small_spec());
        for f in p.functions().iter().take(10) {
            for b in &f.blocks {
                let mut pc = b.start;
                let mut count = 0u32;
                while pc < b.terminator.pc {
                    let d = decode::decode(p.bytes_at(pc, 15)).expect("body instruction");
                    assert_eq!(d.kind, InsnKind::Other, "non-terminator at {pc:#x}");
                    pc += u64::from(d.len);
                    count += 1;
                }
                assert_eq!(pc, b.terminator.pc, "boundaries align");
                assert_eq!(count + 1, b.insns, "instruction count matches");
            }
        }
    }

    #[test]
    fn direct_targets_are_block_starts() {
        let p = Program::generate(&small_spec());
        let starts: std::collections::HashSet<u64> = p
            .functions()
            .iter()
            .flat_map(|f| f.blocks.iter().map(|b| b.start))
            .collect();
        for f in p.functions() {
            for b in &f.blocks {
                if let Some(t) = b.terminator.target {
                    assert!(starts.contains(&t), "target {t:#x} is a block start");
                }
                for &t in &b.terminator.indirect_targets {
                    assert!(starts.contains(&t), "indirect target {t:#x} valid");
                }
            }
        }
    }

    #[test]
    fn last_block_returns() {
        let p = Program::generate(&small_spec());
        for f in p.functions() {
            assert_eq!(f.blocks.last().unwrap().terminator.kind, BranchKind::Return);
        }
    }

    #[test]
    fn backedges_point_backward_and_forward_jumps_forward() {
        let p = Program::generate(&small_spec());
        for f in p.functions() {
            for b in &f.blocks {
                let t = &b.terminator;
                if t.kind == BranchKind::DirectCond {
                    let target = t.target.unwrap();
                    if t.backedge {
                        assert!(target < b.start, "backedge at {:#x}", t.pc);
                    } else {
                        assert!(target > t.pc, "forward cond at {:#x}", t.pc);
                    }
                }
                if t.kind == BranchKind::DirectUncond {
                    assert!(t.target.unwrap() > t.pc, "uncond forward at {:#x}", t.pc);
                }
            }
        }
    }

    #[test]
    fn bolted_layout_packs_hot_functions() {
        let mut spec = small_spec();
        spec.functions = 200;
        let interleaved = Program::generate(&spec);
        spec.layout = Layout::Bolted;
        let bolted = Program::generate(&spec);
        // Same total size, different order.
        assert_eq!(interleaved.code_bytes(), bolted.code_bytes());
        // In the bolted image, the hottest non-dispatcher function should
        // sit earlier (lower address) than in the interleaved image on
        // average: compare mean address of the top decile by weight.
        let mean_hot_addr = |p: &Program| -> f64 {
            let mut fs: Vec<&Function> = p.functions().iter().collect();
            fs.sort_by(|a, b| b.weight.total_cmp(&a.weight));
            let top = &fs[..20];
            top.iter().map(|f| f.entry as f64).sum::<f64>() / top.len() as f64
        };
        assert!(mean_hot_addr(&bolted) < mean_hot_addr(&interleaved));
    }

    #[test]
    fn line_accessor_zero_pads_past_image() {
        let p = Program::generate(&small_spec());
        let end = p.base() + p.code_bytes() as u64;
        let (line_base, bytes) = p.line(end - 1);
        assert!(line_base < end);
        let in_image = (end - line_base) as usize;
        if in_image < CACHE_LINE_BYTES {
            assert!(bytes[in_image..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn branch_lookup_by_pc() {
        let p = Program::generate(&small_spec());
        let f = &p.functions()[0];
        let t = &f.blocks[0].terminator;
        assert_eq!(p.branch_at(t.pc).unwrap().pc, t.pc);
        assert!(p.branch_at(t.pc + 1).is_none());
    }
}

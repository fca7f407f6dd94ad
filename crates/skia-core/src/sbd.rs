//! The Shadow Branch Decoder (paper §3).
//!
//! A cache line fetched by FDIP carries bytes outside the executed basic
//! block: **head** bytes before the entry point (the branch target that
//! brought the line in) and **tail** bytes after the exit point (the taken
//! branch that leaves the line). The SBD decodes those regions for the
//! SBB-eligible branches — direct unconditional jumps, calls and returns.
//!
//! Tail decoding (§3.3) starts at a known instruction boundary (the byte
//! after the taken branch), so a single linear decode suffices.
//!
//! Head decoding (§3.2) does not know where instructions begin. It runs two
//! phases:
//!
//! 1. **Index Computation** — decode at *every* byte offset `0..entry` and
//!    record each candidate instruction's length (0 = undecodable).
//! 2. **Path Validation** — for each start index, chain lengths
//!    (`path += length[path]`) and keep the paths that land exactly on the
//!    entry offset. If more than a configured maximum (six in the paper)
//!    validate, the line is discarded as too ambiguous. The surviving path
//!    whose start index matches the [`IndexPolicy`] supplies the shadow
//!    branches.

use std::collections::HashMap;

use skia_isa::decode::Decoded;
use skia_isa::{decode, BranchKind, InsnKind, CACHE_LINE_BYTES};

/// Which validated path supplies the decoded shadow branches (§3.2.2,
/// "Valid Index" optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexPolicy {
    /// The first (lowest) start index with a valid path — the paper's
    /// empirically best choice and the default.
    #[default]
    First,
    /// Use the path starting at byte 0, if it is one of the valid paths;
    /// otherwise fall back to the first valid path.
    Zero,
    /// The most common *recent* index among all valid paths: the point where
    /// paths merge. Decoding starts at the merge point, so only branches all
    /// paths agree on are extracted.
    Merge,
}

impl IndexPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [IndexPolicy; 3] = [IndexPolicy::First, IndexPolicy::Zero, IndexPolicy::Merge];

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IndexPolicy::First => "first",
            IndexPolicy::Zero => "zero",
            IndexPolicy::Merge => "merge",
        }
    }
}

impl std::str::FromStr for IndexPolicy {
    type Err = ();

    /// Parse a policy by its [`IndexPolicy::label`].
    fn from_str(label: &str) -> Result<IndexPolicy, ()> {
        IndexPolicy::ALL
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or(())
    }
}

/// A branch found in a shadow region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowBranch {
    /// Address of the branch instruction's first byte.
    pub pc: u64,
    /// Encoded instruction length.
    pub len: u8,
    /// Branch classification (always [`BranchKind::sbb_eligible`]).
    pub kind: BranchKind,
    /// Decoded target for jumps/calls; `None` for returns (RAS-supplied).
    pub target: Option<u64>,
    /// Byte offset of the branch within its cache line (the R-SBB's 6-bit
    /// offset field).
    pub line_offset: u8,
}

/// Outcome of head-decoding one cache line.
#[derive(Debug, Clone, Default)]
pub struct HeadDecode {
    /// Shadow branches extracted from the chosen path.
    pub branches: Vec<ShadowBranch>,
    /// Start indices of every validated path (ascending).
    pub valid_starts: Vec<u8>,
    /// The start index the policy chose, if any path validated.
    pub chosen_start: Option<u8>,
    /// Whether the line was discarded for exceeding the valid-path bound.
    pub discarded: bool,
}

skia_telemetry::counter_struct! {
    /// Aggregate SBD counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShadowDecoderStats {
        /// Head regions examined.
        pub head_regions: u64,
        /// Head regions with at least one valid path.
        pub head_regions_valid: u64,
        /// Head regions discarded for exceeding the valid-path bound.
        pub head_regions_discarded: u64,
        /// Tail regions examined.
        pub tail_regions: u64,
        /// Branches found in head regions.
        pub head_branches: u64,
        /// Branches found in tail regions.
        pub tail_branches: u64,
        /// Sum of valid path counts (for mean-paths reporting).
        pub valid_path_sum: u64,
    }
}

/// Entry bound for the region memo (head and tail entries together). At
/// ~40 bytes per entry plus its pooled branches this is ≈16 MB, enough
/// that paper-scale programs (thousands of functions, each contributing a
/// handful of distinct `(line, offset)` regions) stay memo-resident instead
/// of thrashing. The memo and its branch pool are cleared wholesale when
/// either fills (re-decoding is cheap; bookkeeping an LRU here would cost
/// more than it saves). The bound only affects speed, never results: memo
/// hits replay the exact stat increments of a fresh decode.
const MEMO_CAP: usize = 256 * 1024;

/// Branch-pool bound paired with [`MEMO_CAP`] (regions average well under
/// one branch each, so this is rarely the bound that trips).
const POOL_CAP: usize = 2 * MEMO_CAP;

/// `chosen` value of a [`Slot`] whose head region chose no start.
const NO_START: u8 = u8::MAX;

/// Memo key: the region's address, `line_base | slot`, where the slot is
/// `entry - 1` for a head region (entries 1..=64) and `exit` for a tail
/// region (exits 0..=63), with head and tail entries tagged apart.
///
/// The key is exact under the decoder's contract: line bases are
/// line-aligned, and the bytes at a given line base are stable for the
/// decoder's lifetime — true for every production caller, which decodes
/// lines of one immutable [`skia_workloads::Program`]. Release builds key
/// on the address alone, so a memo hit never reads program memory. Debug
/// builds add the region's content hash, so a caller that breaks the
/// stable-content contract (two different lines at one address fed to one
/// decoder) is caught by the `head_memo_distinguishes_content_at_same_address`
/// test rather than silently aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    region: u64,
    tail: bool,
    #[cfg(debug_assertions)]
    content: u64,
}

/// One memoized region decode, held inline in the memo: a range of the
/// decoder's branch pool plus everything the stats and [`HeadDecode`] need.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bit `i` set iff a decoded branch starts at line offset `i`.
    offsets: u64,
    /// Head regions: bit `i` set iff the path from start index `i`
    /// validated (the [`HeadDecode::valid_starts`] set).
    valid_starts: u64,
    /// First pool index of the region's branches.
    start: u32,
    /// Number of branches (at most one per line offset).
    count: u8,
    /// Head regions: the chosen start index, or [`NO_START`].
    chosen: u8,
    /// Head regions: discarded for exceeding the valid-path bound.
    discarded: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        offsets: 0,
        valid_starts: 0,
        start: 0,
        count: 0,
        chosen: NO_START,
        discarded: false,
    };

    fn range(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + usize::from(self.count)
    }
}

/// The shadow branches of one decoded region, borrowed from the decoder's
/// memo.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a> {
    /// The branches, in ascending line-offset order.
    pub branches: &'a [ShadowBranch],
    /// Bit `i` set iff one of `branches` starts at line offset `i`.
    pub offsets: u64,
}

/// The decoder: configuration, counters, and the region memo.
#[derive(Debug, Clone)]
pub struct ShadowDecoder {
    policy: IndexPolicy,
    max_valid_paths: usize,
    stats: ShadowDecoderStats,
    /// FDIP re-fetches the same hot lines at the same entry and exit
    /// points constantly, and head decoding (per-offset Index Computation
    /// and Path Validation) is the most expensive thing the SBD does.
    /// Results are pure given the key and the fixed policy, so hits replay
    /// the stat increments and return the pooled branches.
    memo: HashMap<MemoKey, Slot, MemoBuild>,
    /// Branches of every memoized region, each region a contiguous range.
    pool: Vec<ShadowBranch>,
}

impl Default for ShadowDecoder {
    fn default() -> Self {
        ShadowDecoder::new(IndexPolicy::First, 6)
    }
}

/// Content hash for debug memo keys: FNV-1a-style mixing over 8-byte words.
/// The length is folded in so a short region never collides with a longer
/// one sharing a prefix.
#[cfg(debug_assertions)]
fn content_hash(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        hash ^= u64::from_le_bytes(c.try_into().unwrap());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut tail: u64 = 0;
    for &b in chunks.remainder() {
        tail = (tail << 8) | u64::from(b);
    }
    hash ^= tail;
    hash.wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a table hasher for the memo and the SBB/Skia side maps. The memo
/// is consulted on every shadow-decoded block, and std's default SipHash
/// shows up in profiles; the keys are addresses, so a fast non-keyed hasher
/// loses nothing (the maps are never exposed to untrusted keys).
#[derive(Clone)]
pub(crate) struct FnvTableHasher(u64);

impl Default for FnvTableHasher {
    fn default() -> Self {
        FnvTableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl FnvTableHasher {
    /// One word-sized FNV round plus a xor-shift fold. Memo keys are
    /// word-sized addresses whose entropy sits in the low-middle bits, and a
    /// single multiply only propagates entropy upward — the fold brings the
    /// high bits back down so hashbrown's low-bit bucket index sees them.
    #[inline]
    fn mix(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 = x ^ (x >> 32);
    }
}

impl std::hash::Hasher for FnvTableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

pub(crate) type MemoBuild = std::hash::BuildHasherDefault<FnvTableHasher>;

impl ShadowDecoder {
    /// Create a decoder with the given index policy and valid-path bound
    /// (the paper uses First / 6).
    #[must_use]
    pub fn new(policy: IndexPolicy, max_valid_paths: usize) -> Self {
        assert!(max_valid_paths >= 1);
        ShadowDecoder {
            policy,
            max_valid_paths,
            stats: ShadowDecoderStats::default(),
            memo: HashMap::default(),
            pool: Vec::new(),
        }
    }

    /// The configured index policy.
    #[must_use]
    pub fn policy(&self) -> IndexPolicy {
        self.policy
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ShadowDecoderStats {
        self.stats
    }

    /// Decode the **head** shadow region of the cache line at `line_base`:
    /// bytes `0..entry_offset` (at most [`CACHE_LINE_BYTES`]).
    ///
    /// Runs Index Computation + Path Validation and extracts branches from
    /// the path selected by the [`IndexPolicy`]. `line` supplies the line's
    /// bytes and is called only when the memo misses (debug builds call it
    /// every time to key on content; see the private `MemoKey`). A memo hit replays
    /// the stat increments a fresh decode would make, so counters are
    /// identical with and without the memo.
    pub fn head<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        entry_offset: usize,
        line: impl FnOnce() -> L,
    ) -> Region<'_> {
        let slot = self.head_slot(line_base, entry_offset, line);
        self.region(slot)
    }

    /// Decode the **tail** shadow region of the cache line at `line_base`:
    /// bytes from `exit_offset` (the first byte after the taken branch) to
    /// the end of the line. `line` is read only on a memo miss, as for
    /// [`ShadowDecoder::head`].
    ///
    /// Decoding stops at the first undecodable byte or at an instruction
    /// that spills past the line end (its boundary cannot be known from
    /// this line alone).
    pub fn tail<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        exit_offset: usize,
        line: impl FnOnce() -> L,
    ) -> Region<'_> {
        let slot = self.tail_slot(line_base, exit_offset, line);
        self.region(slot)
    }

    /// [`ShadowDecoder::head`] over an in-memory line, returning an owned
    /// copy of the full outcome (valid starts and chosen index included).
    /// `line_base` is the address of byte 0 of the line.
    pub fn decode_head(&mut self, line: &[u8], line_base: u64, entry_offset: usize) -> HeadDecode {
        let slot = self.head_slot(line_base, entry_offset.min(line.len()), || line);
        let mut valid_starts = Vec::with_capacity(slot.valid_starts.count_ones() as usize);
        let mut mask = slot.valid_starts;
        while mask != 0 {
            valid_starts.push(mask.trailing_zeros() as u8);
            mask &= mask - 1;
        }
        HeadDecode {
            branches: self.pool[slot.range()].to_vec(),
            valid_starts,
            chosen_start: (slot.chosen != NO_START).then_some(slot.chosen),
            discarded: slot.discarded,
        }
    }

    /// [`ShadowDecoder::tail`] over an in-memory line, returning an owned
    /// copy of the branches.
    pub fn decode_tail(
        &mut self,
        line: &[u8],
        line_base: u64,
        exit_offset: usize,
    ) -> Vec<ShadowBranch> {
        self.tail(line_base, exit_offset, || line).branches.to_vec()
    }

    fn region(&self, slot: Slot) -> Region<'_> {
        Region {
            branches: &self.pool[slot.range()],
            offsets: slot.offsets,
        }
    }

    fn head_slot<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        entry_offset: usize,
        line: impl FnOnce() -> L,
    ) -> Slot {
        self.stats.head_regions += 1;
        let entry = entry_offset.min(CACHE_LINE_BYTES);
        if entry == 0 {
            return Slot::EMPTY;
        }
        let (policy, max_valid_paths) = (self.policy, self.max_valid_paths);
        let slot = self.memo(
            line_base,
            entry as u64 - 1,
            false,
            line,
            |bytes| &bytes[..entry.min(bytes.len())],
            |bytes, pool| decode_head_into(policy, max_valid_paths, bytes, line_base, entry, pool),
        );
        // The stat increments one head decode contributes, derived from
        // the outcome so memo hits and fresh decodes count identically.
        let stats = &mut self.stats;
        if slot.discarded {
            stats.head_regions_discarded += 1;
        } else if slot.valid_starts != 0 {
            stats.head_regions_valid += 1;
            stats.valid_path_sum += u64::from(slot.valid_starts.count_ones());
            stats.head_branches += u64::from(slot.count);
        }
        slot
    }

    fn tail_slot<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        exit_offset: usize,
        line: impl FnOnce() -> L,
    ) -> Slot {
        self.stats.tail_regions += 1;
        if exit_offset >= CACHE_LINE_BYTES {
            return Slot::EMPTY;
        }
        let slot = self.memo(
            line_base,
            exit_offset as u64,
            true,
            line,
            |bytes| &bytes[exit_offset.min(bytes.len())..],
            |bytes, pool| decode_tail_into(bytes, line_base, exit_offset, pool),
        );
        self.stats.tail_branches += u64::from(slot.count);
        slot
    }

    /// The memo lookup shared by both regions: `slot` is the region's line
    /// offset (see [`MemoKey`]), `region_bytes` selects the region's bytes
    /// from the line (debug keys), and `decode` fills the pool on a miss.
    fn memo<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        slot: u64,
        tail: bool,
        line: impl FnOnce() -> L,
        region_bytes: impl Fn(&[u8]) -> &[u8],
        decode: impl FnOnce(&[u8], &mut Vec<ShadowBranch>) -> Slot,
    ) -> Slot {
        debug_assert!(
            line_base.is_multiple_of(CACHE_LINE_BYTES as u64),
            "line base {line_base:#x} is not line-aligned"
        );
        // Debug builds read the line up front to key on its content;
        // release builds read it only on a miss.
        #[cfg(debug_assertions)]
        let (content, line) = {
            let bytes = line();
            (content_hash(region_bytes(bytes.as_ref())), move || bytes)
        };
        #[cfg(not(debug_assertions))]
        let _ = region_bytes;
        let key = MemoKey {
            region: line_base | slot,
            tail,
            #[cfg(debug_assertions)]
            content,
        };
        // Cap check up front so the single-lookup `entry` below can insert
        // unconditionally (clearing is unobservable; see `MEMO_CAP`).
        if self.memo.len() >= MEMO_CAP || self.pool.len() >= POOL_CAP {
            self.memo.clear();
            self.pool.clear();
        }
        let pool = &mut self.pool;
        *self
            .memo
            .entry(key)
            .or_insert_with(|| decode(line().as_ref(), pool))
    }
}

/// The shadow branch `d` decoded at line offset `off`, if it is an
/// SBB-eligible branch.
fn shadow_branch(d: &Decoded, line_base: u64, off: usize) -> Option<ShadowBranch> {
    let InsnKind::Branch(b) = d.kind else {
        return None;
    };
    b.kind.sbb_eligible().then(|| {
        let pc = line_base + off as u64;
        ShadowBranch {
            pc,
            len: d.len,
            kind: b.kind,
            target: b.target(pc, d.len),
            line_offset: off as u8,
        }
    })
}

/// Push `branch` onto the pool and account it in `slot`.
fn push_branch(pool: &mut Vec<ShadowBranch>, slot: &mut Slot, branch: ShadowBranch) {
    slot.offsets |= 1 << branch.line_offset;
    slot.count += 1;
    pool.push(branch);
}

/// The tail linear decode (no stats, no memo), appending to `pool`.
fn decode_tail_into(
    line: &[u8],
    line_base: u64,
    exit_offset: usize,
    pool: &mut Vec<ShadowBranch>,
) -> Slot {
    let line = &line[..line.len().min(CACHE_LINE_BYTES)];
    let mut slot = Slot {
        start: pool.len() as u32,
        ..Slot::EMPTY
    };
    let mut off = exit_offset;
    while off < line.len() {
        // Truncated, over-long and invalid encodings all end the walk.
        let Ok(d) = decode::decode(&line[off..]) else {
            break;
        };
        // Bytes after an unconditional branch belong to a new decode
        // context we cannot anchor, but the next byte *is* a known boundary
        // (the next instruction starts right after), matching the paper's
        // "decode until the end of the line".
        if let Some(b) = shadow_branch(&d, line_base, off) {
            push_branch(pool, &mut slot, b);
        }
        off += usize::from(d.len);
    }
    slot
}

/// The actual Index Computation + Path Validation (no stats, no memo),
/// appending the chosen path's branches to `pool`. `entry` is at most
/// [`CACHE_LINE_BYTES`].
fn decode_head_into(
    policy: IndexPolicy,
    max_valid_paths: usize,
    line: &[u8],
    line_base: u64,
    entry: usize,
    pool: &mut Vec<ShadowBranch>,
) -> Slot {
    let entry = entry.min(line.len());
    let mut slot = Slot {
        start: pool.len() as u32,
        ..Slot::EMPTY
    };

    // Phase 1: Index Computation. lengths[i] = instruction length when
    // decoding from byte i, or 0 if no valid instruction starts there.
    // An instruction is only usable on a path if it ends at or before
    // the entry point (the path must *align* with the entry).
    let mut lengths = [0u8; CACHE_LINE_BYTES];
    for (i, slot) in lengths[..entry].iter_mut().enumerate() {
        if let Ok(d) = decode::decode(&line[i..]) {
            if i + usize::from(d.len) <= entry {
                *slot = d.len;
            }
        }
    }

    // Phase 2: Path Validation. Walk each start index; valid iff the
    // chain lands exactly on `entry`. Paths that run into an offset
    // already visited by an earlier valid path *merge* into it (§3.2.2);
    // the ambiguity bound counts distinct non-merging path families —
    // a line is only "too ambiguous" when many chains coexist without
    // ever converging.
    let mut first_start = None;
    let mut last_index: Vec<u8> = Vec::new(); // final hop start per path
    let mut families = 0usize;
    let mut on_valid_path = [false; CACHE_LINE_BYTES];
    for start in 0..entry {
        let mut pos = start;
        let mut last = start;
        let mut merged = false;
        let valid = loop {
            if pos == entry {
                break true;
            }
            if on_valid_path[pos] {
                merged = true;
                // The remainder of this chain is an already-validated
                // path, so it is valid by construction; its last hop is
                // irrelevant for the merge index (an earlier family
                // already recorded the shared suffix).
                break true;
            }
            let len = lengths[pos];
            if len == 0 {
                break false;
            }
            last = pos;
            pos += usize::from(len);
            if pos > entry {
                break false;
            }
        };
        if valid {
            if !merged {
                families += 1;
                if families > max_valid_paths {
                    slot.discarded = true;
                    return slot;
                }
            }
            slot.valid_starts |= 1 << start;
            first_start.get_or_insert(start as u8);
            last_index.push(if merged { pos as u8 } else { last as u8 });
            // Mark every offset on this path as visited.
            let mut p = start;
            while p < entry && !on_valid_path[p] {
                on_valid_path[p] = true;
                let l = lengths[p];
                if l == 0 {
                    break;
                }
                p += usize::from(l);
            }
        }
    }

    let Some(first_start) = first_start else {
        return slot;
    };
    let chosen = match policy {
        IndexPolicy::First => first_start,
        // "upon finding a valid path, byte decoding begins starting from
        // index zero" — even when the zero path itself did not validate;
        // extraction below stops at the first undecodable byte.
        IndexPolicy::Zero => 0,
        IndexPolicy::Merge => {
            // The most common recent (final-hop) index among all valid
            // paths: where they converge. Decode starts there.
            let mut best = (0usize, last_index[0]);
            for &cand in &last_index {
                let count = last_index.iter().filter(|&&x| x == cand).count();
                if count > best.0 || (count == best.0 && cand < best.1) {
                    best = (count, cand);
                }
            }
            best.1
        }
    };
    slot.chosen = chosen;

    // Extract branches along the chosen path.
    let mut pos = usize::from(chosen);
    while pos < entry {
        let len = lengths[pos];
        if len == 0 {
            // Only reachable under the Zero policy when the zero path
            // itself was not among the validated ones.
            break;
        }
        if let Some(b) = decode::decode(&line[pos..])
            .ok()
            .and_then(|d| shadow_branch(&d, line_base, pos))
        {
            push_branch(pool, &mut slot, b);
        }
        pos += usize::from(len);
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_isa::encode;

    #[test]
    fn policies_parse_from_their_labels() {
        for p in IndexPolicy::ALL {
            assert_eq!(p.label().parse(), Ok(p));
        }
        assert_eq!("First".parse::<IndexPolicy>(), Err(()));
    }

    /// Build a 64-byte line from closures writing into it.
    fn pad_to_line(mut bytes: Vec<u8>) -> Vec<u8> {
        while bytes.len() < 64 {
            let gap = (64 - bytes.len()).min(8);
            encode::nop_exact(&mut bytes, gap);
        }
        bytes
    }

    #[test]
    fn tail_finds_return_after_exit() {
        // [taken jmp ends at 5][nop][ret][nops...]
        let mut line = Vec::new();
        encode::jmp_rel32(&mut line, 100); // executed exit branch, bytes 0..5
        encode::nop_exact(&mut line, 2);
        encode::ret(&mut line); // shadow return at offset 7
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x1000, 5);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pc, 0x1007);
        assert_eq!(found[0].kind, BranchKind::Return);
        assert_eq!(found[0].target, None);
        assert_eq!(found[0].line_offset, 7);
    }

    #[test]
    fn tail_finds_jump_with_target() {
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 4); // executed block
        encode::jmp_rel8(&mut line, 10); // exit branch bytes 4..6
        encode::jmp_rel32(&mut line, -64); // shadow jmp at 6, len 5
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x2000, 6);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, BranchKind::DirectUncond);
        // target = pc + len + rel = 0x2006 + 5 - 64
        assert_eq!(found[0].target, Some(0x2006 + 5 - 64));
    }

    #[test]
    fn tail_ignores_conditional_and_indirect() {
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4); // exit at 0..2
        encode::jcc_rel32(&mut line, 2, 50); // conditional: not eligible
        encode::jmp_reg(&mut line, encode::Reg::Rax); // indirect: not eligible
        encode::call_rel32(&mut line, 8); // eligible
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0, 2);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, BranchKind::Call);
    }

    #[test]
    fn tail_stops_at_undecodable_byte() {
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4);
        line.push(0x06); // invalid in 64-bit mode
        encode::ret(&mut line); // unreachable for the decoder
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0, 2);
        assert!(found.is_empty());
    }

    #[test]
    fn tail_stops_at_line_spill() {
        // An instruction that would cross the line end terminates decoding.
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 0);
        while line.len() < 62 {
            encode::nop_exact(&mut line, 1);
        }
        line.push(0xE9); // jmp rel32 needs 5 bytes; only 2 remain
        line.push(0x00);
        assert_eq!(line.len(), 64);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0, 2);
        assert!(found.is_empty(), "spilling instruction must not decode");
    }

    #[test]
    fn head_single_unambiguous_path() {
        // Head region: [nop3][ret][nop4] entry at 8.
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 3);
        encode::ret(&mut line);
        encode::nop_exact(&mut line, 4);
        assert_eq!(line.len(), 8);
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0x3000, 8);
        assert!(!hd.discarded);
        assert_eq!(hd.chosen_start, Some(0));
        assert_eq!(hd.branches.len(), 1);
        assert_eq!(hd.branches[0].pc, 0x3003);
        assert_eq!(hd.branches[0].kind, BranchKind::Return);
    }

    #[test]
    fn head_figure8_merging_paths() {
        // Paper Fig. 8: starting at byte 0 yields xor ebx,eax (2 bytes);
        // starting at byte 1 yields ret (1 byte). Both land on entry = 2,
        // so both paths validate and they merge after the first instruction.
        let line = pad_to_line(vec![0x31, 0xC3]);
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0, 2);
        assert_eq!(hd.valid_starts, vec![0, 1]);
        // First-index policy starts at 0: xor ebx,eax — no branch extracted
        // (the ret at byte 1 is the bogus decode in this reading).
        assert_eq!(hd.chosen_start, Some(0));
        assert!(hd.branches.is_empty());
    }

    #[test]
    fn head_path_that_misaligns_is_rejected() {
        // A 5-byte jmp followed by entry at 4: the jmp overshoots the entry,
        // so starting at 0 is invalid; no other start decodes.
        let mut line = Vec::new();
        encode::jmp_rel32(&mut line, 0); // 5 bytes, but entry is at 4
        let line = pad_to_line(line);
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0, 4);
        // Byte 1..3 are 00 00 00: "add [rax],al" chains of len 2 → 0,2 valid?
        // Whatever validates, the jmp at 0 must not be extracted.
        assert!(hd
            .branches
            .iter()
            .all(|b| b.kind != BranchKind::DirectUncond));
    }

    #[test]
    fn head_extracts_call_with_target() {
        let mut line = Vec::new();
        encode::call_rel32(&mut line, 0x40); // bytes 0..5
        encode::nop_exact(&mut line, 3); // entry at 8
        let line = pad_to_line(line);
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0x8000, 8);
        assert_eq!(hd.chosen_start, Some(0));
        let call = hd
            .branches
            .iter()
            .find(|b| b.kind == BranchKind::Call)
            .expect("call found");
        assert_eq!(call.target, Some(0x8000 + 5 + 0x40));
    }

    #[test]
    fn merging_paths_count_as_one_family() {
        // A run of single-byte instructions (0x50 = push rax) validates from
        // every start index, but every path merges into the first: one
        // family, not 32 — the line is kept (§3.2.2 "merging path").
        let line = pad_to_line(vec![0x50; 32]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::First, 6);
        let hd = sbd.decode_head(&line, 0, 32);
        assert!(!hd.discarded);
        assert_eq!(hd.valid_starts.len(), 32);
        assert_eq!(sbd.stats().head_regions_discarded, 0);
    }

    #[test]
    fn non_merging_families_trigger_discard() {
        // Seven disjoint 2-byte chains that never merge: alternate valid
        // 2-byte instructions offset by one byte cannot coexist... build
        // instead explicit islands separated by undecodable bytes, each
        // island its own family. 0x06 is invalid in 64-bit mode.
        // Island: [0x50, 0x50] then an invalid byte would break the chain to
        // entry, so paths must reach the entry exactly: use a single long
        // region where each family is [push × k] starting after an invalid
        // byte — impossible to validate through. Simplest honest check:
        // bound = 1 and two genuinely distinct families.
        // "31 C3" from 0 is xor (one family through offset 0); from 1 is
        // ret then continues — both land on entry 2 but the ret path merges
        // nowhere (it ends at entry directly). Family count = 2.
        let line = pad_to_line(vec![0x31, 0xC3]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::First, 1);
        let hd = sbd.decode_head(&line, 0, 2);
        assert!(hd.discarded, "two families exceed a bound of one");
    }

    #[test]
    fn head_zero_entry_is_empty() {
        let line = pad_to_line(Vec::new());
        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0, 0);
        assert!(hd.branches.is_empty());
        assert_eq!(hd.chosen_start, None);
    }

    #[test]
    fn merge_policy_starts_at_convergence_point() {
        // Two valid paths that converge: use bytes [0x50, 0x50, ret, ...]
        // entry at 3. Paths from 0, 1, 2 all validate (singles + ret), and
        // all end with final hop at index 2 (the ret). Merge index = 2.
        let line = pad_to_line(vec![0x50, 0x50, 0xC3]);
        let mut sbd = ShadowDecoder::new(IndexPolicy::Merge, 6);
        let hd = sbd.decode_head(&line, 0, 3);
        assert_eq!(hd.chosen_start, Some(2));
        assert_eq!(hd.branches.len(), 1);
        assert_eq!(hd.branches[0].kind, BranchKind::Return);
    }

    #[test]
    fn policy_semantics_on_merging_region() {
        // [jmp rel32 0..5][nop3 5..8], entry at 8. Spurious 2-byte decodes
        // from bytes 1/3 also validate, and every valid path converges on
        // offset 5 (the nop). First/Zero start at 0 and expose the jmp;
        // Merge conservatively starts at the convergence point and sees
        // only the nop.
        let mut bytes = Vec::new();
        encode::jmp_rel32(&mut bytes, 0x100);
        encode::nop_exact(&mut bytes, 3);
        let entry = bytes.len();
        let line = pad_to_line(bytes);
        for policy in [IndexPolicy::First, IndexPolicy::Zero] {
            let mut sbd = ShadowDecoder::new(policy, 6);
            let hd = sbd.decode_head(&line, 0, entry);
            assert_eq!(hd.branches.len(), 1, "policy {policy:?} finds the jmp");
            assert_eq!(hd.branches[0].kind, BranchKind::DirectUncond);
        }
        let mut sbd = ShadowDecoder::new(IndexPolicy::Merge, 6);
        let hd = sbd.decode_head(&line, 0, entry);
        assert_eq!(hd.chosen_start, Some(5), "paths merge at the nop");
        assert!(hd.branches.is_empty(), "merge policy skips pre-merge bytes");
    }

    #[test]
    fn head_and_tail_memo_entries_at_one_offset_stay_apart() {
        // Head entry 8 and tail exit 7 share the memo address
        // `line_base | 7`; only the head/tail tag keeps them apart (release
        // keys carry no content). The head path is call, nop, `xor ebx,eax`
        // (bytes 6..8); the tail, decoding from byte 7, sees that xor's
        // second byte as a return. An alias in either order is visible.
        let line = pad_to_line({
            let mut b = Vec::new();
            encode::call_rel32(&mut b, 0x40);
            encode::nop_exact(&mut b, 1);
            b.extend([0x31, 0xC3]);
            b
        });
        let mut sbd = ShadowDecoder::default();
        for _ in 0..2 {
            let head = sbd.decode_head(&line, 0x7000, 8);
            assert_eq!(head.branches.len(), 1);
            assert_eq!(head.branches[0].kind, BranchKind::Call);
            let tail = sbd.decode_tail(&line, 0x7000, 7);
            assert_eq!(tail.len(), 1);
            assert_eq!(tail[0].kind, BranchKind::Return);
        }
    }

    #[test]
    fn head_memo_hit_replays_identical_stats_and_result() {
        // One valid region, one discarded region, one empty region: decode
        // each twice and require result equality plus exactly doubled stats.
        let valid = pad_to_line({
            let mut b = Vec::new();
            encode::call_rel32(&mut b, 0x40);
            encode::nop_exact(&mut b, 3);
            b
        });
        let discarded = pad_to_line(vec![0x31, 0xC3]);

        let mut once = ShadowDecoder::new(IndexPolicy::First, 1);
        let mut twice = ShadowDecoder::new(IndexPolicy::First, 1);
        for sbd in [&mut once, &mut twice] {
            let a = sbd.decode_head(&valid, 0x8000, 8);
            assert_eq!(a.chosen_start, Some(0));
            let b = sbd.decode_head(&discarded, 0x9000, 2);
            assert!(b.discarded);
            sbd.decode_head(&valid, 0x8000, 0);
        }
        // Second pass on `twice` hits the memo for every region.
        let a2 = twice.decode_head(&valid, 0x8000, 8);
        assert_eq!(
            a2.branches,
            ShadowDecoder::new(IndexPolicy::First, 1)
                .decode_head(&valid, 0x8000, 8)
                .branches
        );
        let b2 = twice.decode_head(&discarded, 0x9000, 2);
        assert!(b2.discarded);
        twice.decode_head(&valid, 0x8000, 0);

        let s1 = once.stats();
        let s2 = twice.stats();
        assert_eq!(s2.head_regions, 2 * s1.head_regions);
        assert_eq!(s2.head_regions_valid, 2 * s1.head_regions_valid);
        assert_eq!(s2.head_regions_discarded, 2 * s1.head_regions_discarded);
        assert_eq!(s2.head_branches, 2 * s1.head_branches);
        assert_eq!(s2.valid_path_sum, 2 * s1.valid_path_sum);
    }

    /// Debug-only: release memo keys rely on the stable-content contract
    /// (see [`MemoKey`]) instead of hashing the bytes.
    #[cfg(debug_assertions)]
    #[test]
    fn head_memo_distinguishes_content_at_same_address() {
        // Same (base, entry) but different bytes must not alias: the first
        // line has a call in the head region, the second has only nops.
        let with_call = pad_to_line({
            let mut b = Vec::new();
            encode::call_rel32(&mut b, 0x40);
            encode::nop_exact(&mut b, 3);
            b
        });
        let nops_only = pad_to_line({
            let mut b = Vec::new();
            encode::nop_exact(&mut b, 8);
            b
        });
        let mut sbd = ShadowDecoder::default();
        let a = sbd.decode_head(&with_call, 0x8000, 8);
        assert_eq!(a.branches.len(), 1);
        let b = sbd.decode_head(&nops_only, 0x8000, 8);
        assert!(b.branches.is_empty(), "different content, different result");
    }

    #[test]
    fn tail_max_length_instruction_at_exact_line_end_decodes_through() {
        // A 15-byte instruction (14 operand-size prefixes + NOP) ending
        // exactly at the line boundary: the tail walk decodes it and stops
        // cleanly at offset 64. The earlier shadow return is still found.
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4); // exit branch, bytes 0..2
        encode::ret(&mut line); // shadow return at 2
        while line.len() < 49 {
            let gap = (49 - line.len()).min(8);
            encode::nop_exact(&mut line, gap);
        }
        line.extend(std::iter::repeat_n(0x66, 14));
        line.push(0x90); // 49 + 15 = 64: fits exactly
        assert_eq!(line.len(), 64);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x1000, 2);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, BranchKind::Return);
    }

    #[test]
    fn tail_max_length_instruction_straddling_line_end_stops_decode() {
        // Shifted one byte later, the same 15-byte instruction straddles the
        // boundary: the line ends inside its prefix run, decode reports
        // Truncated, and the walk stops without panicking or mis-synthesizing
        // a branch from the partial bytes.
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 4);
        encode::ret(&mut line);
        while line.len() < 50 {
            let gap = (50 - line.len()).min(8);
            encode::nop_exact(&mut line, gap);
        }
        line.extend(std::iter::repeat_n(0x66, 14)); // opcode on next line
        assert_eq!(line.len(), 64);

        let mut sbd = ShadowDecoder::default();
        let found = sbd.decode_tail(&line, 0x1040, 2);
        assert_eq!(found.len(), 1, "only the pre-straddle return decodes");
        assert_eq!(found[0].pc, 0x1042);
    }

    #[test]
    fn head_entry_mid_instruction_yields_no_valid_path() {
        // Index Computation when the entry offset lands mid-instruction: the
        // line opens with a 5-byte jmp whose displacement bytes (0x06) are
        // invalid opcodes, and the block entry is at byte 3 — inside the
        // jump. No decode chain can align with the entry: byte 0's length
        // overshoots it and bytes 1..3 do not decode, so the region yields
        // no candidates (and is *not* counted as an ambiguity discard).
        let mut line = Vec::new();
        encode::jmp_rel32(&mut line, 0x0606_0606);
        let line = pad_to_line(line);

        let mut sbd = ShadowDecoder::default();
        let hd = sbd.decode_head(&line, 0x5000, 3);
        assert!(!hd.discarded);
        assert!(hd.valid_starts.is_empty());
        assert!(hd.branches.is_empty());
        assert_eq!(hd.chosen_start, None);
        assert_eq!(sbd.stats().head_regions_discarded, 0);
    }

    #[test]
    fn head_max_length_instruction_aligns_with_entry() {
        // The 15-byte maximum instruction fills the whole head region. Every
        // suffix of the prefix run is itself a complete instruction landing
        // exactly on the entry, and none of those paths share an
        // intermediate hop — 15 genuinely distinct families. Under the
        // default ambiguity bound that correctly discards the region;
        // raising the bound past 15 admits it, with byte 0 among the valid
        // starts and no branch extracted.
        let mut line = vec![0x66u8; 14];
        line.push(0x90);
        let line = pad_to_line(line);

        let mut strict = ShadowDecoder::default();
        assert!(strict.decode_head(&line, 0x6000, 15).discarded);

        let mut lax = ShadowDecoder::new(IndexPolicy::First, 16);
        let hd = lax.decode_head(&line, 0x6000, 15);
        assert!(!hd.discarded);
        assert!(hd.valid_starts.contains(&0));
        assert!(hd.branches.is_empty(), "a long NOP is not a branch");
    }

    #[test]
    fn stats_accumulate() {
        let line = pad_to_line(vec![0xC3]);
        let mut sbd = ShadowDecoder::default();
        sbd.decode_head(&line, 0, 1);
        sbd.decode_tail(&line, 0, 0);
        let s = sbd.stats();
        assert_eq!(s.head_regions, 1);
        assert_eq!(s.tail_regions, 1);
        assert!(s.head_branches + s.tail_branches >= 1);
    }
}

//! The Shadow Branch Buffer (paper §4.2–4.3).
//!
//! A small structure probed **in parallel** with the BTB and filled **off the
//! critical path** by the Shadow Branch Decoder. It is split by branch class
//! to exploit entry-size asymmetry:
//!
//! * **U-SBB** — direct unconditional jumps and calls. An entry needs the
//!   full 64-bit target (plus tag/valid/LRU/retired/type bits): 78 bits.
//! * **R-SBB** — returns. The target comes from the RAS, so an entry only
//!   identifies the return's location: 10-bit tag + 6-bit line offset +
//!   valid + LRU + retired + spare = 20 bits.
//!
//! The paper's default is 768 U-SBB entries (7.3125 KB) + 2024 R-SBB entries
//! (4.9375 KB) = **12.25 KB**, both 4-way.
//!
//! Replacement is LRU with a twist (§4.3): when a branch supplied by the SBB
//! commits, its *retired* bit is set; eviction prefers entries whose retired
//! bit is clear, so bogus branches (artifacts of wrong head-decode paths that
//! will never commit) leave first.

use std::collections::HashMap;
use std::ops::Range;

use skia_isa::{BranchKind, CACHE_LINE_BYTES};
use skia_uarch::TagArray;

use crate::sbd::{MemoBuild, ShadowBranch};

/// Bits per U-SBB entry (Fig. 12).
pub const USBB_ENTRY_BITS: usize = 78;
/// Bits per R-SBB entry (Fig. 12).
pub const RSBB_ENTRY_BITS: usize = 20;

/// SBB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbbConfig {
    /// U-SBB entries (jumps and calls).
    pub u_entries: usize,
    /// R-SBB entries (returns).
    pub r_entries: usize,
    /// Associativity of both structures.
    pub ways: usize,
    /// Prefer evicting entries whose retired bit is clear (§4.3). `false`
    /// degrades to plain LRU (the replacement-policy ablation).
    pub retired_aware: bool,
}

impl Default for SbbConfig {
    /// The paper's preferred 12.25 KB split (§6.2).
    fn default() -> Self {
        SbbConfig {
            u_entries: 768,
            r_entries: 2024,
            ways: 4,
            retired_aware: true,
        }
    }
}

impl SbbConfig {
    /// Total storage in KB at the paper's entry sizes.
    #[must_use]
    pub fn storage_kb(&self) -> f64 {
        (self.u_entries * USBB_ENTRY_BITS + self.r_entries * RSBB_ENTRY_BITS) as f64 / 8.0 / 1024.0
    }

    /// Scale both structures by `factor`, keeping the U:R entry ratio and
    /// rounding to the associativity (the Fig. 17-bottom sweep).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> SbbConfig {
        let round = |n: usize| -> usize {
            let raw = (n as f64 * factor).round() as usize;
            (raw - raw % self.ways).max(self.ways)
        };
        SbbConfig {
            u_entries: round(self.u_entries),
            r_entries: round(self.r_entries),
            ways: self.ways,
            retired_aware: self.retired_aware,
        }
    }

    /// A configuration with `u_entries`/`r_entries` chosen to fill
    /// `budget_kb` at a given U-SBB share of the *storage* (the Fig. 17-top
    /// sweep holds total storage constant while moving the split).
    #[must_use]
    pub fn with_budget(budget_kb: f64, u_share: f64, ways: usize) -> SbbConfig {
        let total_bits = budget_kb * 1024.0 * 8.0;
        let u_bits = total_bits * u_share;
        let r_bits = total_bits - u_bits;
        // Round to the nearest whole number of sets; this reproduces the
        // paper's 768/2024 split from its 7.3125/4.9375 KB budget.
        let round = |bits: f64, entry_bits: usize| -> usize {
            let sets = (bits / entry_bits as f64 / ways as f64).round() as usize;
            sets.max(1) * ways
        };
        SbbConfig {
            u_entries: round(u_bits, USBB_ENTRY_BITS),
            r_entries: round(r_bits, RSBB_ENTRY_BITS),
            ways,
            retired_aware: true,
        }
    }
}

/// U-SBB payload.
#[derive(Debug, Clone, Copy)]
struct UEntry {
    target: u64,
    len: u8,
    is_call: bool,
    retired: bool,
}

/// R-SBB payload. The 6-bit line offset of Fig. 12 is implied by the PC used
/// as the key; we keep it for introspection parity with the hardware layout.
#[derive(Debug, Clone, Copy)]
struct REntry {
    line_offset: u8,
    len: u8,
    retired: bool,
}

/// A successful SBB probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbbHit {
    /// `DirectUncond`, `Call` or `Return`.
    pub kind: BranchKind,
    /// Decoded target for jumps/calls; `None` for returns.
    pub target: Option<u64>,
    /// Encoded length of the shadow branch (predecode metadata).
    pub len: u8,
}

skia_telemetry::counter_struct! {
    /// Hit/fill counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SbbStats {
        /// Lookups that hit in the U-SBB.
        pub u_hits: u64,
        /// Lookups that hit in the R-SBB.
        pub r_hits: u64,
        /// Total lookups.
        pub lookups: u64,
        /// Entries inserted into the U-SBB.
        pub u_inserts: u64,
        /// Entries inserted into the R-SBB.
        pub r_inserts: u64,
        /// Entries whose retired bit was set at commit.
        pub retirements: u64,
        /// Evicted entries that had never retired (bogus-or-unused casualties).
        pub evicted_unretired: u64,
    }
}

/// Per-line bitmaps of resident SBB pcs (both halves): bit `i` of a line's
/// word is set iff the pc `line_base + i` is resident. Lines inside the
/// dense span — the program's branch-table span, where nearly every shadow
/// branch lies — are one word each in a flat array; lines outside it
/// (wrong-path or injected pcs) fall back to a hash map.
#[derive(Debug, Clone)]
struct Residency {
    /// Line-aligned base of the dense span.
    base: u64,
    /// One bitmap per line of the dense span.
    dense: Vec<u64>,
    /// Bitmaps of lines outside the dense span; a line's entry is removed
    /// when its last bit clears.
    sparse: HashMap<u64, u64, MemoBuild>,
}

/// Largest dense span, in lines (32 MB of bitmaps for 256 MB of code); a
/// larger span is mirrored sparsely throughout instead.
const MAX_DENSE_LINES: u64 = 1 << 22;

impl Residency {
    fn new(span: Range<u64>) -> Self {
        let base = span.start & LINE_MASK;
        let lines = span
            .end
            .saturating_sub(base)
            .div_ceil(CACHE_LINE_BYTES as u64);
        let lines = if lines > MAX_DENSE_LINES { 0 } else { lines };
        Residency {
            base,
            dense: vec![0; lines as usize],
            sparse: HashMap::default(),
        }
    }

    /// Index of `line` (a line base) in the dense array, if inside it.
    #[inline]
    fn dense_index(&self, line: u64) -> Option<usize> {
        let i = line.wrapping_sub(self.base) / CACHE_LINE_BYTES as u64;
        (i < self.dense.len() as u64).then_some(i as usize)
    }

    #[inline]
    fn bits(&self, line: u64) -> u64 {
        match self.dense_index(line) {
            Some(i) => self.dense[i],
            None => self.sparse.get(&line).copied().unwrap_or(0),
        }
    }

    fn set(&mut self, pc: u64) {
        let (line, bit) = (pc & LINE_MASK, 1u64 << (pc & !LINE_MASK));
        match self.dense_index(line) {
            Some(i) => self.dense[i] |= bit,
            None => *self.sparse.entry(line).or_insert(0) |= bit,
        }
    }

    fn clear(&mut self, pc: u64) {
        let (line, bit) = (pc & LINE_MASK, 1u64 << (pc & !LINE_MASK));
        match self.dense_index(line) {
            Some(i) => self.dense[i] &= !bit,
            None => {
                if let Some(m) = self.sparse.get_mut(&line) {
                    *m &= !bit;
                    if *m == 0 {
                        self.sparse.remove(&line);
                    }
                }
            }
        }
    }
}

/// The split Shadow Branch Buffer.
///
/// Keeps a per-cache-line bitmap mirror of resident PCs (both halves) so
/// the BPU can scan for "the next shadow branch in this fetch window" with
/// one word read and a trailing-zeros count per window line — the same
/// service the BTB provides through its fetch-block indexing — and the
/// shadow-decode fill can tell in one read whether a decoded region is
/// already wholly resident.
#[derive(Debug, Clone)]
pub struct Sbb {
    u: TagArray<UEntry>,
    r: TagArray<REntry>,
    /// Exactly mirrors TagArray residency of the union of both halves.
    resident: Residency,
    config: SbbConfig,
    stats: SbbStats,
}

/// Line-base mask for the residency bitmaps.
const LINE_MASK: u64 = !(CACHE_LINE_BYTES as u64 - 1);

impl Sbb {
    /// Build an SBB whose residency mirror is hash-mapped throughout (see
    /// [`Sbb::with_dense_span`]).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    #[must_use]
    pub fn new(config: SbbConfig) -> Self {
        Sbb::with_dense_span(config, 0..0)
    }

    /// Build an SBB whose residency mirror stores the lines of `span` (the
    /// program's branch-table span) densely, one word per line. Results
    /// are identical for any span; only the mirror's speed and memory
    /// differ.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    #[must_use]
    pub fn with_dense_span(config: SbbConfig, span: Range<u64>) -> Self {
        assert!(config.u_entries.is_multiple_of(config.ways));
        assert!(config.r_entries.is_multiple_of(config.ways));
        Sbb {
            u: TagArray::new(config.u_entries / config.ways, config.ways),
            r: TagArray::new(config.r_entries / config.ways, config.ways),
            resident: Residency::new(span),
            config,
            stats: SbbStats::default(),
        }
    }

    /// The lowest resident shadow-branch PC in `[start, limit)` — the
    /// BPU's fetch-window scan. Reads one bitmap per window line.
    #[must_use]
    pub fn next_key_in(&self, start: u64, limit: u64) -> Option<u64> {
        let mut base = start & LINE_MASK;
        while base < limit {
            let mut m = self.resident.bits(base);
            if m != 0 {
                if base < start {
                    m &= !0u64 << (start - base);
                }
                if limit - base < CACHE_LINE_BYTES as u64 {
                    m &= (1u64 << (limit - base)) - 1;
                }
                if m != 0 {
                    return Some(base + u64::from(m.trailing_zeros()));
                }
            }
            base = base.checked_add(CACHE_LINE_BYTES as u64)?;
        }
        None
    }

    /// Bitmap of the resident pcs in the cache line at `line_base`: bit `i`
    /// is set iff [`Sbb::probe`] finds `line_base + i`.
    #[must_use]
    #[inline]
    pub fn line_bits(&self, line_base: u64) -> u64 {
        self.resident.bits(line_base & LINE_MASK)
    }

    /// Clear `pc`'s residency bit once neither half holds it (a pc can sit
    /// in both halves only when inserted as two kinds without the fill's
    /// probe-before-insert discipline).
    fn key_remove(&mut self, pc: u64) {
        if self.probe(pc).is_none() {
            self.resident.clear(pc);
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> SbbConfig {
        self.config
    }

    /// Probe both halves at `pc` (parallel with the BTB lookup).
    pub fn lookup(&mut self, pc: u64) -> Option<SbbHit> {
        self.stats.lookups += 1;
        let uset = self.u.set_of(pc);
        if let Some(e) = self.u.access(uset, pc) {
            let hit = SbbHit {
                kind: if e.is_call {
                    BranchKind::Call
                } else {
                    BranchKind::DirectUncond
                },
                target: Some(e.target),
                len: e.len,
            };
            self.stats.u_hits += 1;
            return Some(hit);
        }
        let rset = self.r.set_of(pc);
        if let Some(e) = self.r.access(rset, pc) {
            let len = e.len;
            self.stats.r_hits += 1;
            return Some(SbbHit {
                kind: BranchKind::Return,
                target: None,
                len,
            });
        }
        None
    }

    /// Probe without recency/stat updates.
    #[must_use]
    pub fn probe(&self, pc: u64) -> Option<SbbHit> {
        if let Some(e) = self.u.probe(self.u.set_of(pc), pc) {
            return Some(SbbHit {
                kind: if e.is_call {
                    BranchKind::Call
                } else {
                    BranchKind::DirectUncond
                },
                target: Some(e.target),
                len: e.len,
            });
        }
        if let Some(e) = self.r.probe(self.r.set_of(pc), pc) {
            return Some(SbbHit {
                kind: BranchKind::Return,
                target: None,
                len: e.len,
            });
        }
        None
    }

    /// Insert a shadow branch found by the SBD.
    ///
    /// Jumps and calls go to the U-SBB, returns to the R-SBB. Eviction
    /// prefers entries whose retired bit is clear. Returns the PC of the
    /// entry this insertion displaced, if a *different* entry was evicted
    /// (telemetry uses this to close SBB entry lifetimes).
    pub fn insert(&mut self, branch: &ShadowBranch) -> Option<u64> {
        match branch.kind {
            BranchKind::DirectUncond | BranchKind::Call => {
                let Some(target) = branch.target else {
                    return None; // direct branch without a target cannot help FDIP
                };
                let set = self.u.set_of(branch.pc);
                self.stats.u_inserts += 1;
                let retired_aware = self.config.retired_aware;
                let evicted = self.u.insert_with(
                    set,
                    branch.pc,
                    UEntry {
                        target,
                        len: branch.len,
                        is_call: branch.kind == BranchKind::Call,
                        retired: false,
                    },
                    |e| retired_aware && !e.retired,
                );
                self.resident.set(branch.pc);
                if let Some((tag, old)) = evicted {
                    if tag != branch.pc {
                        self.key_remove(tag);
                        if !old.retired {
                            self.stats.evicted_unretired += 1;
                        }
                        return Some(tag);
                    }
                }
                None
            }
            BranchKind::Return => {
                let set = self.r.set_of(branch.pc);
                self.stats.r_inserts += 1;
                let retired_aware = self.config.retired_aware;
                let evicted = self.r.insert_with(
                    set,
                    branch.pc,
                    REntry {
                        line_offset: branch.line_offset,
                        len: branch.len,
                        retired: false,
                    },
                    |e| retired_aware && !e.retired,
                );
                self.resident.set(branch.pc);
                if let Some((tag, old)) = evicted {
                    if tag != branch.pc {
                        self.key_remove(tag);
                        if !old.retired {
                            self.stats.evicted_unretired += 1;
                        }
                        return Some(tag);
                    }
                }
                None
            }
            _ => {
                debug_assert!(false, "SBD must only produce SBB-eligible branches");
                None
            }
        }
    }

    /// Mark the entry at `pc` retired (called when a branch whose prediction
    /// the SBB supplied commits, §4.3).
    pub fn mark_retired(&mut self, pc: u64) {
        let uset = self.u.set_of(pc);
        if let Some(e) = self.u.peek_mut(uset, pc) {
            if !e.retired {
                e.retired = true;
                self.stats.retirements += 1;
            }
            return;
        }
        let rset = self.r.set_of(pc);
        if let Some(e) = self.r.peek_mut(rset, pc) {
            let _ = e.line_offset;
            if !e.retired {
                e.retired = true;
                self.stats.retirements += 1;
            }
        }
    }

    /// Remove the entry at `pc` (on promotion into the BTB, so the SBB slot
    /// can hold a different shadow branch).
    pub fn invalidate(&mut self, pc: u64) {
        let uset = self.u.set_of(pc);
        if self.u.invalidate(uset, pc).is_some() {
            self.key_remove(pc);
            return;
        }
        let rset = self.r.set_of(pc);
        if self.r.invalidate(rset, pc).is_some() {
            self.key_remove(pc);
        }
    }

    /// `(U-SBB valid, R-SBB valid)` entry counts.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        (self.u.len(), self.r.len())
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> SbbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(pc: u64, kind: BranchKind, target: Option<u64>) -> ShadowBranch {
        ShadowBranch {
            pc,
            len: if kind == BranchKind::Return { 1 } else { 5 },
            kind,
            target,
            line_offset: (pc % 64) as u8,
        }
    }

    #[test]
    fn paper_sizing() {
        let c = SbbConfig::default();
        // 768×78 bits = 7.3125 KB exactly; 2024×20 bits = 4.9414 KB, which
        // the paper rounds to 4.9375 KB. Total ≈ 12.25 KB.
        assert!((c.storage_kb() - 12.25).abs() < 0.01, "{}", c.storage_kb());
        let u_kb = (c.u_entries * USBB_ENTRY_BITS) as f64 / 8.0 / 1024.0;
        let r_kb = (c.r_entries * RSBB_ENTRY_BITS) as f64 / 8.0 / 1024.0;
        assert!((u_kb - 7.3125).abs() < 1e-9);
        assert!((r_kb - 4.9375).abs() < 0.01);
    }

    #[test]
    fn jumps_and_returns_route_to_their_halves() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::DirectUncond, Some(0x900)));
        s.insert(&sb(0x200, BranchKind::Call, Some(0xA00)));
        s.insert(&sb(0x300, BranchKind::Return, None));
        assert_eq!(s.occupancy(), (2, 1));

        let j = s.lookup(0x100).unwrap();
        assert_eq!(j.kind, BranchKind::DirectUncond);
        assert_eq!(j.target, Some(0x900));
        let c = s.lookup(0x200).unwrap();
        assert_eq!(c.kind, BranchKind::Call);
        let r = s.lookup(0x300).unwrap();
        assert_eq!(r.kind, BranchKind::Return);
        assert_eq!(r.target, None);
        assert!(s.lookup(0x400).is_none());
        let st = s.stats();
        assert_eq!(st.u_hits, 2);
        assert_eq!(st.r_hits, 1);
        assert_eq!(st.lookups, 4);
    }

    #[test]
    fn retired_entries_survive_pressure() {
        // 1 set × 4 ways U-SBB.
        let mut s = Sbb::new(SbbConfig {
            u_entries: 4,
            r_entries: 4,
            ways: 4,
            retired_aware: true,
        });
        for pc in [0x10u64, 0x20, 0x30, 0x40] {
            s.insert(&sb(pc, BranchKind::DirectUncond, Some(pc + 1)));
        }
        s.mark_retired(0x10);
        // Three more inserts evict the three unretired entries, not 0x10.
        for pc in [0x50u64, 0x60, 0x70] {
            s.insert(&sb(pc, BranchKind::DirectUncond, Some(pc + 1)));
        }
        assert!(s.probe(0x10).is_some(), "retired entry must survive");
        assert_eq!(s.stats().evicted_unretired, 3);
    }

    #[test]
    fn retirement_counts_once() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::Return, None));
        s.mark_retired(0x100);
        s.mark_retired(0x100);
        assert_eq!(s.stats().retirements, 1);
    }

    #[test]
    fn invalidate_frees_the_slot() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::Call, Some(0x1)));
        s.invalidate(0x100);
        assert!(s.probe(0x100).is_none());
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn direct_branch_without_target_is_not_inserted() {
        let mut s = Sbb::new(SbbConfig::default());
        s.insert(&sb(0x100, BranchKind::DirectUncond, None));
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn budget_split_arithmetic() {
        let c = SbbConfig::with_budget(12.25, 7.3125 / 12.25, 4);
        // Should land on (almost exactly) the paper's split.
        assert_eq!(c.u_entries, 768);
        assert_eq!(c.r_entries, 2024);
        assert!((c.storage_kb() - 12.25).abs() < 0.05);
    }

    /// Residency-mirror invariant: after any sequence of inserts (of any
    /// kind, so a pc can sit in both halves), lookups, retirements and
    /// invalidations, every line's bitmap is exactly the set of pcs
    /// `probe` finds, and the window scan agrees — for lines inside the
    /// dense span and for lines on either side of it (map fallback).
    mod residency {
        use super::*;
        use proptest::prelude::*;

        /// Two dense lines; pcs span one line below and one above them.
        const SPAN: Range<u64> = 0x1000..0x1080;
        const LINES: Range<u64> = 0x0fc0..0x10c0;

        fn pc_of(slot: u16) -> u64 {
            LINES.start + u64::from(slot) % (LINES.end - LINES.start)
        }

        fn check(s: &Sbb) -> Result<(), String> {
            for line in LINES.step_by(CACHE_LINE_BYTES) {
                let probed = (0..64u64)
                    .filter(|&i| s.probe(line + i).is_some())
                    .fold(0u64, |m, i| m | 1 << i);
                if s.line_bits(line) != probed {
                    return Err(format!(
                        "line {line:#x}: bitmap {:#x} != probed {probed:#x}",
                        s.line_bits(line)
                    ));
                }
                let first = (probed != 0).then(|| line + u64::from(probed.trailing_zeros()));
                if s.next_key_in(line, line + 64) != first {
                    return Err(format!("line {line:#x}: window scan disagrees"));
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn line_bitmaps_equal_probed_pcs(
                ops in proptest::collection::vec((0u8..6, any::<u16>(), any::<u16>()), 1..160),
            ) {
                let mut s = Sbb::with_dense_span(
                    SbbConfig {
                        u_entries: 8,
                        r_entries: 8,
                        ways: 2,
                        retired_aware: true,
                    },
                    SPAN,
                );
                for (op, a, b) in ops {
                    let pc = pc_of(a);
                    match op {
                        0 => drop(s.insert(&sb(pc, BranchKind::DirectUncond, Some(pc_of(b))))),
                        1 => drop(s.insert(&sb(pc, BranchKind::Call, Some(pc_of(b))))),
                        2 => drop(s.insert(&sb(pc, BranchKind::Return, None))),
                        3 => drop(s.lookup(pc)),
                        4 => s.mark_retired(pc),
                        _ => s.invalidate(pc),
                    }
                    prop_assert_eq!(check(&s), Ok(()));
                }
            }
        }
    }

    #[test]
    fn scaled_preserves_ratio() {
        let c = SbbConfig::default().scaled(2.0);
        assert_eq!(c.u_entries, 1536);
        assert_eq!(c.r_entries, 4048);
        let half = SbbConfig::default().scaled(0.5);
        assert_eq!(half.u_entries, 384);
        assert_eq!(half.r_entries, 1012);
    }
}

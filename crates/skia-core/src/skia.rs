//! The Skia mechanism: SBD + SBB wired together the way Fig. 11 attaches
//! them to the BPU.
//!
//! The front-end drives this object at three points:
//!
//! * when an FTQ entry's cache line finishes its prefetch, the SBD examines
//!   the line's shadow region(s) — [`Skia::on_line_entered`] for the head
//!   region of the entry's first line, [`Skia::on_line_exited`] for the tail
//!   region of its last line. Both run **off the critical path**; the paper
//!   lets them take multiple cycles because shadow branches are not needed
//!   until much later.
//! * on every BPU lookup, [`Skia::lookup`] is probed in parallel with the
//!   BTB; on a BTB miss it may still supply a target.
//! * at commit, [`Skia::mark_retired`] sets the retired bit so useful
//!   entries outlive bogus ones, and promotion moves the branch into the BTB.

use skia_telemetry::{CounterName, EventKind, EventTrace, Histogram};

use std::ops::Range;

use skia_isa::CACHE_LINE_BYTES;

use crate::sbb::{Sbb, SbbConfig, SbbHit, SbbStats};
use crate::sbd::{IndexPolicy, Region, ShadowBranch, ShadowDecoder, ShadowDecoderStats};

/// Complete Skia configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkiaConfig {
    /// Enable head shadow decoding (§3.2).
    pub head: bool,
    /// Enable tail shadow decoding (§3.3).
    pub tail: bool,
    /// Head-decode start-index policy (paper default: First).
    pub index_policy: IndexPolicy,
    /// Head-decode valid-path bound (paper default: 6).
    pub max_valid_paths: usize,
    /// SBB geometry.
    pub sbb: SbbConfig,
    /// Use the retired-bit eviction preference (§4.3). Disabled only for the
    /// replacement-policy ablation.
    pub retired_bit_replacement: bool,
    /// Skip inserting shadow branches that are currently BTB-resident.
    /// The paper's SBB fills unconditionally (the structures are parallel);
    /// filtering saves SBB space but loses exactly the branches that will
    /// miss right after their BTB eviction. Off by default; exposed for the
    /// ablation bench.
    pub filter_btb_resident: bool,
}

impl Default for SkiaConfig {
    /// The paper's configuration, with one substrate-specific deviation:
    /// the default head-decode index policy here is [`IndexPolicy::Merge`],
    /// not the paper's `First`. On real binaries the first validated start
    /// index is almost always the true boundary (the paper reports First >
    /// Zero > Merge); on this crate's synthetic code the pre-merge prefix
    /// of the first path contains phantom branches often enough to poison
    /// the R-SBB, while the merged suffix is reliable. The policy ablation
    /// bench (`bench/benches/ablations.rs`) quantifies the difference.
    fn default() -> Self {
        SkiaConfig {
            head: true,
            tail: true,
            index_policy: IndexPolicy::Merge,
            max_valid_paths: 6,
            sbb: SbbConfig::default(),
            retired_bit_replacement: true,
            filter_btb_resident: false,
        }
    }
}

impl SkiaConfig {
    /// Head-only configuration (Fig. 14's "head" series).
    #[must_use]
    pub fn head_only() -> Self {
        SkiaConfig {
            tail: false,
            ..SkiaConfig::default()
        }
    }

    /// Tail-only configuration (Fig. 14's "tail" series).
    #[must_use]
    pub fn tail_only() -> Self {
        SkiaConfig {
            head: false,
            ..SkiaConfig::default()
        }
    }
}

/// Aggregated Skia counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SkiaStats {
    /// Decoder counters.
    pub sbd: ShadowDecoderStats,
    /// Buffer counters.
    pub sbb: SbbStats,
    /// Shadow branches the SBD found but the filter said were already known
    /// (typically: already in the BTB).
    pub filtered_known: u64,
    /// SBB-supplied predictions that turned out to be bogus branches
    /// (reported back by the front-end at verification).
    pub bogus_uses: u64,
    /// SBB-supplied predictions confirmed correct at verification.
    pub useful_uses: u64,
}

impl SkiaStats {
    /// The paper's §3.2.2 metric: bogus branches used, relative to total SBB
    /// insertions.
    #[must_use]
    pub fn bogus_rate(&self) -> f64 {
        let inserts = self.sbb.u_inserts + self.sbb.r_inserts;
        if inserts == 0 {
            0.0
        } else {
            self.bogus_uses as f64 / inserts as f64
        }
    }

    /// Visit every counter of `self` beside the same counter of `other`,
    /// with its `skia.*` metric name — the one list of Skia's counters, in
    /// the shape of the [`skia_telemetry::counter_struct!`] visitors: the
    /// decoder's and the buffer's own lists, then Skia's scalars. The full
    /// destructure (no `..`) makes a new field fail to compile until it is
    /// listed here.
    #[inline]
    pub fn zip_counters(
        &mut self,
        other: &SkiaStats,
        f: &mut impl FnMut(CounterName<'_>, &mut u64, u64),
    ) {
        macro_rules! visit {
            ($($field:ident),+) => {
                let SkiaStats { sbd, sbb, $($field),+ } = self;
                sbd.zip_counters(&other.sbd, "skia.sbd", f);
                sbb.zip_counters(&other.sbb, "skia.sbb", f);
                $(
                    let name = CounterName { scope: "skia", leaf: stringify!($field) };
                    f(name, $field, other.$field);
                )+
            };
        }
        visit!(filtered_known, bogus_uses, useful_uses);
    }
}

/// Telemetry attachment: an SBB entry-lifetime histogram plus optional
/// insert/evict event tracing. The front-end advances the clock via
/// [`Skia::set_cycle`]; lifetimes are measured in those cycles.
#[derive(Debug, Clone, Default)]
struct SkiaTelemetry {
    lifetime: Histogram,
    trace: Option<EventTrace>,
    cycle: u64,
    /// Birth cycle of each live SBB entry. Touched on every SBB
    /// insert/evict, so it shares the memo maps' fast FNV hasher.
    born: std::collections::HashMap<u64, u64, crate::sbd::MemoBuild>,
}

impl SkiaTelemetry {
    fn note_insert(&mut self, pc: u64) {
        self.born.entry(pc).or_insert(self.cycle);
        if let Some(t) = &self.trace {
            t.record(self.cycle, EventKind::SbbInsert, pc, 0);
        }
    }

    fn note_remove(&mut self, pc: u64) {
        if let Some(birth) = self.born.remove(&pc) {
            let life = self.cycle.saturating_sub(birth);
            self.lifetime.record(life);
            if let Some(t) = &self.trace {
                t.record(self.cycle, EventKind::SbbEvict, pc, life);
            }
        }
    }
}

/// The Skia mechanism.
#[derive(Debug, Clone)]
pub struct Skia {
    config: SkiaConfig,
    sbd: ShadowDecoder,
    sbb: Sbb,
    filtered_known: u64,
    bogus_uses: u64,
    useful_uses: u64,
    /// Every PC ever inserted into the SBB (diagnostic side-structure, not
    /// hardware state; used to attribute misses to capacity vs. coverage).
    ever_inserted: std::collections::HashSet<u64, crate::sbd::MemoBuild>,
    /// Telemetry attachment, when the host front-end enables it.
    tel: Option<SkiaTelemetry>,
}

impl Skia {
    /// Build Skia from its configuration.
    #[must_use]
    pub fn new(config: SkiaConfig) -> Self {
        Skia::with_dense_span(config, 0..0)
    }

    /// Build Skia with the SBB's residency mirror dense over `span` (the
    /// program's branch-table span; see [`Sbb::with_dense_span`]).
    #[must_use]
    pub fn with_dense_span(config: SkiaConfig, span: Range<u64>) -> Self {
        let sbb_config = SbbConfig {
            retired_aware: config.retired_bit_replacement,
            ..config.sbb
        };
        Skia {
            sbd: ShadowDecoder::new(config.index_policy, config.max_valid_paths),
            sbb: Sbb::with_dense_span(sbb_config, span),
            config,
            filtered_known: 0,
            bogus_uses: 0,
            useful_uses: 0,
            ever_inserted: std::collections::HashSet::default(),
            tel: None,
        }
    }

    /// Attach telemetry: `lifetime` receives the residency (in cycles) of
    /// every SBB entry closed after this call, and `trace` (when given)
    /// receives `SbbInsert`/`SbbEvict` events. The host advances the clock
    /// with [`Skia::set_cycle`].
    pub fn attach_telemetry(&mut self, lifetime: Histogram, trace: Option<EventTrace>) {
        self.tel = Some(SkiaTelemetry {
            lifetime,
            trace,
            cycle: self.tel.as_ref().map_or(0, |t| t.cycle),
            born: self.tel.take().map(|t| t.born).unwrap_or_default(),
        });
    }

    /// Advance the telemetry clock (a no-op without an attachment).
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        if let Some(t) = &mut self.tel {
            t.cycle = cycle;
        }
    }

    /// Whether `pc` was ever inserted into the SBB during this run
    /// (diagnostic; distinguishes SBB capacity misses from shadow-decode
    /// coverage gaps).
    #[must_use]
    pub fn ever_inserted(&self, pc: u64) -> bool {
        self.ever_inserted.contains(&pc)
    }

    /// Number of distinct PCs ever inserted into the SBB this run.
    #[must_use]
    pub fn ever_inserted_count(&self) -> usize {
        self.ever_inserted.len()
    }

    /// Configuration.
    #[must_use]
    pub fn config(&self) -> &SkiaConfig {
        &self.config
    }

    /// Head-decode hook: the FTQ entry beginning at `line_base +
    /// entry_offset` has its line resident; examine bytes `0..entry_offset`.
    ///
    /// Returns the number of shadow branches inserted.
    pub fn on_line_entered(&mut self, line: &[u8], line_base: u64, entry_offset: usize) -> usize {
        let entry_offset = entry_offset.min(line.len());
        self.on_line_entered_filtered(line_base, entry_offset, || line, |_| false)
    }

    /// [`Skia::on_line_entered`] for the cache line at `line_base`, whose
    /// bytes `line` supplies only when the decoder's memo misses, with a
    /// `known` filter: branches for which `known(pc)` returns `true` (e.g.
    /// already BTB-resident) are skipped.
    pub fn on_line_entered_filtered<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        entry_offset: usize,
        line: impl FnOnce() -> L,
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.head || entry_offset == 0 {
            return 0;
        }
        let region = self.sbd.head(line_base, entry_offset, line);
        fill_sbb(
            &mut self.sbb,
            &mut self.ever_inserted,
            &mut self.filtered_known,
            &mut self.tel,
            line_base,
            region,
            known,
        )
    }

    /// Tail-decode hook: the FTQ entry leaves its last line at
    /// `exit_offset` (first byte after the taken branch); examine bytes
    /// `exit_offset..`.
    pub fn on_line_exited(&mut self, line: &[u8], line_base: u64, exit_offset: usize) -> usize {
        if exit_offset >= line.len() {
            return 0;
        }
        self.on_line_exited_filtered(line_base, exit_offset, || line, |_| false)
    }

    /// [`Skia::on_line_exited`] for the cache line at `line_base`, read
    /// lazily, with a `known` filter (see [`Skia::on_line_entered_filtered`]).
    pub fn on_line_exited_filtered<L: AsRef<[u8]>>(
        &mut self,
        line_base: u64,
        exit_offset: usize,
        line: impl FnOnce() -> L,
        known: impl Fn(u64) -> bool,
    ) -> usize {
        if !self.config.tail || exit_offset >= CACHE_LINE_BYTES {
            return 0;
        }
        let region = self.sbd.tail(line_base, exit_offset, line);
        fill_sbb(
            &mut self.sbb,
            &mut self.ever_inserted,
            &mut self.filtered_known,
            &mut self.tel,
            line_base,
            region,
            known,
        )
    }

    /// BPU-parallel probe (Fig. 11): consulted on (or alongside) every BTB
    /// lookup; meaningful on BTB misses.
    pub fn lookup(&mut self, pc: u64) -> Option<SbbHit> {
        self.sbb.lookup(pc)
    }

    /// Probe without recency updates.
    #[must_use]
    pub fn probe(&self, pc: u64) -> Option<SbbHit> {
        self.sbb.probe(pc)
    }

    /// The lowest SBB-resident shadow-branch PC in `[start, limit)` (the
    /// BPU's fetch-window scan, run in parallel with the BTB's).
    #[must_use]
    pub fn next_key_in(&self, start: u64, limit: u64) -> Option<u64> {
        self.sbb.next_key_in(start, limit)
    }

    /// Commit hook: the branch at `pc`, predicted out of the SBB, retired.
    pub fn mark_retired(&mut self, pc: u64) {
        self.useful_uses += 1;
        self.sbb.mark_retired(pc);
    }

    /// Verification hook: an SBB-supplied prediction at `pc` was bogus (no
    /// such branch exists on the true path). The entry is dropped.
    pub fn note_bogus(&mut self, pc: u64) {
        self.bogus_uses += 1;
        self.sbb.invalidate(pc);
        if let Some(t) = &mut self.tel {
            t.note_remove(pc);
        }
    }

    /// Remove an entry (e.g. on promotion into the BTB).
    pub fn invalidate(&mut self, pc: u64) {
        self.sbb.invalidate(pc);
        if let Some(t) = &mut self.tel {
            t.note_remove(pc);
        }
    }

    /// Insert a shadow branch directly, bypassing the decoder (testing and
    /// fault-injection aid — e.g. poisoning the SBB with adversarial
    /// entries to validate front-end robustness).
    pub fn force_insert(&mut self, branch: &ShadowBranch) {
        let evicted = self.sbb.insert(branch);
        self.ever_inserted.insert(branch.pc);
        if let Some(t) = &mut self.tel {
            if let Some(victim) = evicted {
                t.note_remove(victim);
            }
            t.note_insert(branch.pc);
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> SkiaStats {
        SkiaStats {
            sbd: self.sbd.stats(),
            sbb: self.sbb.stats(),
            filtered_known: self.filtered_known,
            bogus_uses: self.bogus_uses,
            useful_uses: self.useful_uses,
        }
    }

    /// `(U-SBB, R-SBB)` occupancy.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        self.sbb.occupancy()
    }
}

/// Insert a decoded region's shadow branches into the SBB (the body of
/// the two shadow-decode hooks). A free function over `Skia`'s disjoint
/// fields so the region may remain borrowed from the SBD memo while the
/// SBB side mutates.
///
/// Fast path: when every branch of the region is already SBB-resident,
/// the per-branch loop would count each one as known and insert nothing,
/// so it is skipped for one bitmap read. This is exact: with no insertion
/// no SBB state can change between the loop's probes, and the `known`
/// filter is never consulted for a resident branch.
fn fill_sbb(
    sbb: &mut Sbb,
    ever_inserted: &mut std::collections::HashSet<u64, crate::sbd::MemoBuild>,
    filtered_known: &mut u64,
    tel: &mut Option<SkiaTelemetry>,
    line_base: u64,
    region: Region<'_>,
    known: impl Fn(u64) -> bool,
) -> usize {
    if region.offsets & !sbb.line_bits(line_base) == 0 {
        *filtered_known += region.branches.len() as u64;
        return 0;
    }
    fill_each(
        sbb,
        ever_inserted,
        filtered_known,
        tel,
        region.branches,
        known,
    )
}

/// The per-branch fill: probe each branch, count known ones, insert the
/// rest.
fn fill_each(
    sbb: &mut Sbb,
    ever_inserted: &mut std::collections::HashSet<u64, crate::sbd::MemoBuild>,
    filtered_known: &mut u64,
    tel: &mut Option<SkiaTelemetry>,
    branches: &[ShadowBranch],
    known: impl Fn(u64) -> bool,
) -> usize {
    let mut inserted = 0;
    for b in branches {
        if known(b.pc) || sbb.probe(b.pc).is_some() {
            *filtered_known += 1;
            continue;
        }
        let evicted = sbb.insert(b);
        ever_inserted.insert(b.pc);
        if let Some(t) = tel {
            if let Some(victim) = evicted {
                t.note_remove(victim);
            }
            t.note_insert(b.pc);
        }
        inserted += 1;
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_isa::{encode, BranchKind};

    /// Hook-plumbing tests pin the First policy so their hand-built head
    /// regions decode from offset 0 regardless of the substrate default.
    fn first_policy() -> SkiaConfig {
        SkiaConfig {
            index_policy: IndexPolicy::First,
            ..SkiaConfig::default()
        }
    }

    fn line_with_head_ret() -> (Vec<u8>, usize, u64) {
        // [nop3][ret][nop4] entry at 8.
        let mut line = Vec::new();
        encode::nop_exact(&mut line, 3);
        encode::ret(&mut line);
        encode::nop_exact(&mut line, 4);
        let entry = line.len();
        while line.len() < 64 {
            encode::nop_exact(&mut line, 1);
        }
        (line, entry, 0x4000)
    }

    fn line_with_tail_jmp() -> (Vec<u8>, usize, u64) {
        // [jmp rel8 exits at 2][jmp rel32 in shadow]
        let mut line = Vec::new();
        encode::jmp_rel8(&mut line, 20);
        let exit = line.len();
        encode::jmp_rel32(&mut line, 0x80);
        while line.len() < 64 {
            encode::nop_exact(&mut line, 1);
        }
        (line, exit, 0x5000)
    }

    #[test]
    fn head_hook_fills_sbb() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let n = skia.on_line_entered(&line, base, entry);
        assert_eq!(n, 1);
        let hit = skia.lookup(base + 3).unwrap();
        assert_eq!(hit.kind, BranchKind::Return);
    }

    #[test]
    fn tail_hook_fills_sbb() {
        let (line, exit, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::default());
        let n = skia.on_line_exited(&line, base, exit);
        assert_eq!(n, 1);
        let hit = skia.lookup(base + exit as u64).unwrap();
        assert_eq!(hit.kind, BranchKind::DirectUncond);
        assert_eq!(hit.target, Some(base + exit as u64 + 5 + 0x80));
    }

    #[test]
    fn head_only_config_ignores_tail() {
        let (line, exit, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::head_only());
        assert_eq!(skia.on_line_exited(&line, base, exit), 0);
        assert!(skia.lookup(base + exit as u64).is_none());
    }

    #[test]
    fn tail_only_config_ignores_head() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(SkiaConfig::tail_only());
        assert_eq!(skia.on_line_entered(&line, base, entry), 0);
    }

    #[test]
    fn known_filter_suppresses_insertion() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let n = skia.on_line_entered_filtered(base, entry, || &line, |pc| pc == base + 3);
        assert_eq!(n, 0);
        assert_eq!(skia.stats().filtered_known, 1);
    }

    #[test]
    fn duplicate_insertion_is_suppressed() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        assert_eq!(skia.on_line_entered(&line, base, entry), 1);
        assert_eq!(skia.on_line_entered(&line, base, entry), 0);
        assert_eq!(skia.stats().sbb.r_inserts, 1);
    }

    #[test]
    fn bogus_report_drops_entry_and_counts() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        skia.on_line_entered(&line, base, entry);
        skia.note_bogus(base + 3);
        assert!(skia.lookup(base + 3).is_none());
        assert!(skia.stats().bogus_rate() > 0.0);
    }

    #[test]
    fn telemetry_records_lifetimes_and_events() {
        use skia_telemetry::TraceConfig;
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        let lifetime = Histogram::new();
        let trace = EventTrace::new(TraceConfig::default());
        skia.attach_telemetry(lifetime.clone(), Some(trace.clone()));

        skia.set_cycle(100);
        assert_eq!(skia.on_line_entered(&line, base, entry), 1);
        skia.set_cycle(250);
        skia.note_bogus(base + 3);

        let s = lifetime.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 150, "lifetime = eviction cycle - birth cycle");
        let kinds: Vec<_> = trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::SbbInsert, EventKind::SbbEvict]);
        assert_eq!(trace.events()[1].arg, 150);
    }

    #[test]
    fn stats_visitor_names_every_counter() {
        let (line, entry, base) = line_with_head_ret();
        let mut skia = Skia::new(first_policy());
        skia.on_line_entered(&line, base, entry);
        let stats = skia.stats();
        let mut seen = std::collections::BTreeMap::new();
        SkiaStats::default().zip_counters(&stats, &mut |name, _, v| {
            assert!(seen.insert(name.to_string(), v).is_none(), "{name} twice");
        });
        assert_eq!(seen.len(), 17, "7 SBD + 7 SBB + 3 Skia counters");
        assert_eq!(seen["skia.sbd.head_regions"], 1);
        assert_eq!(seen["skia.sbb.u_inserts"], 0);
        assert_eq!(seen["skia.sbb.r_inserts"], 1);
        assert_eq!(seen["skia.useful_uses"], 0);
    }

    /// The fill's all-resident fast path against the per-branch loop it
    /// short-cuts: two Skias driven by the same head/tail decodes of
    /// branch-dense lines, one through the hooks (fast path armed) and one
    /// through the decoder plus `fill_each` alone, must end with identical
    /// stats and SBB contents — with the BTB-resident filter on and off.
    #[test]
    fn fill_fast_path_matches_per_branch_loop() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const BASE: u64 = 0x4000;
        const LINES: usize = 6;
        let mut rng = SmallRng::seed_from_u64(17);
        // Lines packed with 1- to 5-byte instructions, most of them
        // SBB-eligible branches, so regions hold several branches each.
        let lines: Vec<Vec<u8>> = (0..LINES)
            .map(|_| {
                let mut line = Vec::new();
                while line.len() < 59 {
                    match rng.gen_range(0..5u32) {
                        0 => encode::ret(&mut line),
                        1 => encode::jmp_rel8(&mut line, 16),
                        2 => encode::call_rel32(&mut line, 0x200),
                        3 => encode::jmp_rel32(&mut line, -0x80),
                        _ => encode::nop_exact(&mut line, 2),
                    };
                }
                let pad = 64 - line.len();
                if pad > 0 {
                    encode::nop_exact(&mut line, pad);
                }
                line
            })
            .collect();

        for filter in [false, true] {
            let config = SkiaConfig {
                index_policy: IndexPolicy::First,
                sbb: SbbConfig {
                    u_entries: 8,
                    r_entries: 8,
                    ways: 2,
                    retired_aware: true,
                },
                filter_btb_resident: filter,
                ..SkiaConfig::default()
            };
            let span = BASE..BASE + 64 * LINES as u64;
            let mut fast = Skia::with_dense_span(config, span.clone());
            let mut slow = Skia::with_dense_span(config, span);
            // Stand-in for "already BTB-resident" under the filter.
            let known = |pc: u64| filter && pc.is_multiple_of(5);
            let mut fast_hits = 0;
            for step in 0..4000u64 {
                let k = rng.gen_range(0..LINES);
                let (line, base) = (&lines[k], BASE + 64 * k as u64);
                let offset = rng.gen_range(1..64usize);
                let head = rng.gen_bool(0.5);
                // Reference: decode, then the per-branch loop alone. Both
                // SBBs agree before this step, so the fast side takes its
                // fast path exactly when this region is wholly resident.
                let region = if head {
                    slow.sbd.head(base, offset, || line)
                } else {
                    slow.sbd.tail(base, offset, || line)
                };
                if region.offsets != 0 && region.offsets & !fast.sbb.line_bits(base) == 0 {
                    fast_hits += 1;
                }
                let n_slow = fill_each(
                    &mut slow.sbb,
                    &mut slow.ever_inserted,
                    &mut slow.filtered_known,
                    &mut slow.tel,
                    region.branches,
                    known,
                );
                let n_fast = if head {
                    fast.on_line_entered_filtered(base, offset, || line, known)
                } else {
                    fast.on_line_exited_filtered(base, offset, || line, known)
                };
                assert_eq!(n_fast, n_slow, "step {step}: inserted counts differ");
                // Churn the SBB the way the front-end does.
                let pc = base + rng.gen_range(0..64u64);
                match step % 7 {
                    0 => {
                        fast.invalidate(pc);
                        slow.invalidate(pc);
                    }
                    1 => {
                        fast.mark_retired(pc);
                        slow.mark_retired(pc);
                    }
                    _ => {}
                }
            }
            assert_eq!(fast.stats(), slow.stats(), "filter={filter}");
            assert_eq!(fast.occupancy(), slow.occupancy());
            assert_eq!(fast.ever_inserted_count(), slow.ever_inserted_count());
            for pc in BASE..BASE + 64 * LINES as u64 {
                assert_eq!(fast.probe(pc), slow.probe(pc), "pc {pc:#x}");
            }
            assert!(fast_hits >= 50, "fast path barely fired: {fast_hits}");
        }
    }

    #[test]
    fn retirement_flows_through() {
        let (line, exit, base) = line_with_tail_jmp();
        let mut skia = Skia::new(SkiaConfig::default());
        skia.on_line_exited(&line, base, exit);
        skia.mark_retired(base + exit as u64);
        assert_eq!(skia.stats().sbb.retirements, 1);
        assert_eq!(skia.stats().useful_uses, 1);
    }
}

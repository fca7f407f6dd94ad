//! TAGE conditional branch predictor with a loop predictor, in the spirit of
//! the TAGE-SC-L predictor the paper uses as its BPU baseline (Seznec,
//! CBP-5).
//!
//! The lockstep front-end trains at commit: it predicts, then calls
//! [`Tage::update`] with the resolved direction and pushes that direction
//! into the global history ([`Tage::push_history`]), so the history never
//! holds a wrong-path bit and needs no checkpoint/restore. Table updates use
//! the indices/tags recorded in the [`TagePrediction`], so a delayed update
//! trains exactly the entries that produced the prediction.

/// A folded (compressed) history register, CBP-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Folded {
    comp: u32,
    olen: usize,
    /// `clen % olen`, precomputed: `update` runs on every history push for
    /// every table, and the modulo is loop-invariant.
    out_shift: u32,
}

impl Folded {
    fn new(clen: usize, olen: usize) -> Self {
        Folded {
            comp: 0,
            olen,
            out_shift: (clen % olen) as u32,
        }
    }

    fn update(&mut self, new_bit: bool, old_bit: bool) {
        self.comp = (self.comp << 1) | u32::from(new_bit);
        self.comp ^= u32::from(old_bit) << self.out_shift;
        self.comp ^= self.comp >> self.olen;
        self.comp &= (1u32 << self.olen) - 1;
    }
}

/// Circular global-history bit buffer sized for deep speculation. The
/// capacity is always a power of two so index wrap is a mask, not a 64-bit
/// division (`bit_ago` runs once per table per history push).
#[derive(Debug, Clone)]
struct GlobalHistory {
    bits: Vec<bool>,
    pos: usize,
    mask: usize,
}

impl GlobalHistory {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        GlobalHistory {
            bits: vec![false; capacity],
            pos: 0,
            mask: capacity - 1,
        }
    }

    fn bit_ago(&self, ago: usize) -> bool {
        self.bits[(self.pos + self.bits.len() - ago) & self.mask]
    }

    fn push(&mut self, bit: bool) {
        self.bits[self.pos] = bit;
        self.pos = (self.pos + 1) & self.mask;
    }
}

/// One entry of a tagged TAGE component.
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    ctr: i8, // 3-bit signed counter, -4..=3
    tag: u16,
    useful: u8, // 2-bit
}

#[derive(Debug, Clone)]
struct TageTable {
    entries: Vec<TageEntry>,
    hist_len: usize,
    index_bits: usize,
    tag_bits: usize,
    idx_fold: Folded,
    tag_fold1: Folded,
    tag_fold2: Folded,
}

impl TageTable {
    fn new(hist_len: usize, index_bits: usize, tag_bits: usize) -> Self {
        TageTable {
            entries: vec![TageEntry::default(); 1 << index_bits],
            hist_len,
            index_bits,
            tag_bits,
            idx_fold: Folded::new(hist_len, index_bits),
            tag_fold1: Folded::new(hist_len, tag_bits),
            tag_fold2: Folded::new(hist_len, tag_bits - 1),
        }
    }

    fn index(&self, pc: u64) -> usize {
        let pc = pc >> 1;
        let mix =
            pc ^ (pc >> self.index_bits) ^ (pc >> (2 * self.index_bits as u32 as u64 as usize));
        ((mix as u32 ^ self.idx_fold.comp) & ((1 << self.index_bits) - 1)) as usize
    }

    fn tag(&self, pc: u64) -> u16 {
        let pc = pc >> 1;
        ((pc as u32 ^ self.tag_fold1.comp ^ (self.tag_fold2.comp << 1))
            & ((1 << self.tag_bits) - 1)) as u16
    }
}

/// Loop predictor entry (64-entry, direct mapped by PC).
#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    trip: u16,
    current: u16,
    confidence: u8,
    valid: bool,
}

/// TAGE geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// Number of tagged components.
    pub num_tables: usize,
    /// Shortest history length (geometric series up to `max_history`).
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// log2 entries per tagged table.
    pub table_index_bits: usize,
    /// Tag width in bits.
    pub tag_bits: usize,
    /// log2 entries of the bimodal base predictor.
    pub base_index_bits: usize,
    /// Enable the loop predictor component.
    pub loop_predictor: bool,
}

impl Default for TageConfig {
    /// A ~64 KB configuration matching the paper's BPU budget.
    fn default() -> Self {
        TageConfig {
            num_tables: 12,
            min_history: 4,
            max_history: 640,
            table_index_bits: 11,
            tag_bits: 12,
            base_index_bits: 14,
            loop_predictor: true,
        }
    }
}

impl TageConfig {
    /// A small configuration for fast unit tests.
    #[must_use]
    pub fn small() -> Self {
        TageConfig {
            num_tables: 4,
            min_history: 2,
            max_history: 64,
            table_index_bits: 8,
            tag_bits: 9,
            base_index_bits: 10,
            loop_predictor: false,
        }
    }

    /// Approximate storage in KB (ctr+tag+u per tagged entry, 2-bit bimodal).
    #[must_use]
    pub fn storage_kb(&self) -> f64 {
        let tagged_bits = self.num_tables * (1 << self.table_index_bits) * (3 + 2 + self.tag_bits);
        let base_bits = (1 << self.base_index_bits) * 2;
        let loop_bits = if self.loop_predictor { 64 * 52 } else { 0 };
        (tagged_bits + base_bits + loop_bits) as f64 / 8.0 / 1024.0
    }
}

const MAX_TABLES: usize = 16;

/// Everything needed to train the entries that produced one prediction.
#[derive(Debug, Clone, Copy)]
pub struct TagePrediction {
    /// Final predicted direction.
    pub taken: bool,
    provider: Option<usize>,
    alt_taken: bool,
    provider_weak: bool,
    indices: [u16; MAX_TABLES],
    tags: [u16; MAX_TABLES],
    base_index: u16,
    from_loop: bool,
    loop_index: usize,
}

/// The predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    config: TageConfig,
    tables: Vec<TageTable>,
    base: Vec<i8>, // 2-bit counters, -2..=1
    ghist: GlobalHistory,
    use_alt_on_na: i8,
    loops: Vec<LoopEntry>,
    rng: u64,
    tick: u64,
    // stats
    predictions: u64,
    mispredictions: u64,
}

impl Tage {
    /// Build a predictor from its geometry.
    #[must_use]
    pub fn new(config: TageConfig) -> Self {
        assert!(config.num_tables >= 2 && config.num_tables <= MAX_TABLES);
        // Prediction metadata stores indices as u16.
        assert!(config.table_index_bits <= 16 && config.base_index_bits <= 16);
        let mut tables = Vec::new();
        // Geometric history lengths between min and max.
        let ratio = (config.max_history as f64 / config.min_history as f64)
            .powf(1.0 / (config.num_tables - 1) as f64);
        for i in 0..config.num_tables {
            let h = (config.min_history as f64 * ratio.powi(i as i32)).round() as usize;
            let h = h.max(i + 1);
            tables.push(TageTable::new(h, config.table_index_bits, config.tag_bits));
        }
        let ghist = GlobalHistory::new((config.max_history + 1).next_power_of_two() * 8);
        Tage {
            base: vec![0; 1 << config.base_index_bits],
            loops: vec![LoopEntry::default(); 64],
            tables,
            ghist,
            config,
            use_alt_on_na: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            tick: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 1) & ((1 << self.config.base_index_bits) - 1)) as usize
    }

    /// Predict the direction of the conditional branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> TagePrediction {
        let mut indices = [0u16; MAX_TABLES];
        let mut tags = [0u16; MAX_TABLES];
        for (i, t) in self.tables.iter().enumerate() {
            indices[i] = t.index(pc) as u16;
            tags[i] = t.tag(pc);
        }
        let base_index = self.base_index(pc) as u16;
        let base_taken = self.base[base_index as usize] >= 0;

        let mut provider = None;
        let mut alt = None;
        for i in (0..self.tables.len()).rev() {
            let e = &self.tables[i].entries[indices[i] as usize];
            if e.tag == tags[i] {
                if provider.is_none() {
                    provider = Some(i);
                } else {
                    alt = Some(i);
                    break;
                }
            }
        }

        let alt_taken = match alt {
            Some(i) => self.tables[i].entries[indices[i] as usize].ctr >= 0,
            None => base_taken,
        };
        let (taken, provider_weak) = match provider {
            Some(i) => {
                let e = &self.tables[i].entries[indices[i] as usize];
                let weak = e.ctr == 0 || e.ctr == -1;
                let newly_alloc = e.useful == 0 && weak;
                if newly_alloc && self.use_alt_on_na >= 0 {
                    (alt_taken, weak)
                } else {
                    (e.ctr >= 0, weak)
                }
            }
            None => (base_taken, false),
        };

        // Loop predictor override when confident.
        let (taken, from_loop, loop_index) = if self.config.loop_predictor {
            // `loops` is a fixed 64-entry table; mask instead of modulo.
            let li = (pc >> 1) as usize & (self.loops.len() - 1);
            let le = &self.loops[li];
            if le.valid && le.tag == ((pc >> 7) & 0xFFFF) as u16 && le.confidence >= 3 {
                // `current` counts taken iterations so far; the loop exits
                // (not-taken) exactly when it reaches the learned trip count.
                (le.current != le.trip, true, li)
            } else {
                (taken, false, li)
            }
        } else {
            (taken, false, 0)
        };

        TagePrediction {
            taken,
            provider,
            alt_taken,
            provider_weak,
            indices,
            tags,
            base_index,
            from_loop,
            loop_index,
        }
    }

    /// Push one outcome bit into the global history (the frontend calls
    /// this once per committed branch, with the resolved direction).
    pub fn push_history(&mut self, taken: bool) {
        // Compute leaving bits before mutating the buffer. A fixed array —
        // this runs once per committed branch and must not heap-allocate.
        let mut olds = [false; MAX_TABLES];
        for (i, t) in self.tables.iter().enumerate() {
            olds[i] = self.ghist.bit_ago(t.hist_len);
        }
        for (t, &old) in self.tables.iter_mut().zip(&olds) {
            t.idx_fold.update(taken, old);
            t.tag_fold1.update(taken, old);
            t.tag_fold2.update(taken, old);
        }
        self.ghist.push(taken);
    }

    /// Train the predictor with the resolved direction of a branch predicted
    /// earlier (the `pred` returned by [`Tage::predict`] for that branch).
    pub fn update(&mut self, pc: u64, pred: &TagePrediction, taken: bool) {
        self.predictions += 1;
        if pred.taken != taken {
            self.mispredictions += 1;
        }
        self.tick += 1;

        // Loop predictor training.
        if self.config.loop_predictor {
            let tag = ((pc >> 7) & 0xFFFF) as u16;
            let le = &mut self.loops[pred.loop_index];
            if le.valid && le.tag == tag {
                if taken {
                    le.current = le.current.saturating_add(1);
                    if le.current > le.trip && le.confidence > 0 {
                        // Longer than learned trip count: distrust.
                        le.confidence -= 1;
                    }
                } else {
                    if le.current == le.trip {
                        le.confidence = (le.confidence + 1).min(7);
                    } else {
                        le.trip = le.current;
                        le.confidence = 0;
                    }
                    le.current = 0;
                }
            } else if !taken {
                // Seed a new loop candidate on a not-taken backedge close.
                *le = LoopEntry {
                    tag,
                    trip: 0,
                    current: 0,
                    confidence: 0,
                    valid: true,
                };
            }
            if pred.from_loop {
                // The tagged tables were bypassed; still train them below.
            }
        }

        let correct = pred.taken == taken;

        match pred.provider {
            Some(p) => {
                let (tables_before, tables_from) = self.tables.split_at_mut(p);
                let _ = tables_before;
                let e = &mut tables_from[0].entries[pred.indices[p] as usize];
                let provider_taken = e.ctr >= 0;

                // use_alt_on_na bookkeeping for newly allocated entries.
                if e.useful == 0 && (e.ctr == 0 || e.ctr == -1) && provider_taken != pred.alt_taken
                {
                    self.use_alt_on_na = if pred.alt_taken == taken {
                        (self.use_alt_on_na + 1).min(7)
                    } else {
                        (self.use_alt_on_na - 1).max(-8)
                    };
                }

                // Useful counter: provider differs from alt and was right.
                if provider_taken != pred.alt_taken {
                    if provider_taken == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // Train provider counter.
                e.ctr = if taken {
                    (e.ctr + 1).min(3)
                } else {
                    (e.ctr - 1).max(-4)
                };
            }
            None => {
                let c = &mut self.base[pred.base_index as usize];
                *c = if taken {
                    (*c + 1).min(1)
                } else {
                    (*c - 1).max(-2)
                };
            }
        }

        // Allocate on misprediction (or on weak correct predictions, rarely).
        let start = pred.provider.map_or(0, |p| p + 1);
        if !correct && start < self.tables.len() {
            let mut free = [0usize; MAX_TABLES];
            let mut nfree = 0usize;
            for i in start..self.tables.len() {
                if self.tables[i].entries[pred.indices[i] as usize].useful == 0 {
                    free[nfree] = i;
                    nfree += 1;
                }
            }
            if nfree == 0 {
                for i in start..self.tables.len() {
                    let e = &mut self.tables[i].entries[pred.indices[i] as usize];
                    e.useful = e.useful.saturating_sub(1);
                }
            } else {
                // Prefer shorter history; skip ahead pseudo-randomly (Seznec).
                let pick = if nfree > 1 && self.next_rand().is_multiple_of(2) {
                    free[1]
                } else {
                    free[0]
                };
                let e = &mut self.tables[pick].entries[pred.indices[pick] as usize];
                e.tag = pred.tags[pick];
                e.ctr = if taken { 0 } else { -1 };
                e.useful = 0;
            }
        }

        // Graceful useful-bit aging.
        if self.tick & 0x3FFFF == 0 {
            for t in &mut self.tables {
                for e in &mut t.entries {
                    e.useful >>= 1;
                }
            }
        }

        let _ = pred.provider_weak;
    }

    /// `(predictions, mispredictions)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Predict each outcome of `pattern`, then train and push the resolved
    /// direction at commit, as `Bpu::commit_branch` does.
    fn run_pattern(tage: &mut Tage, pc: u64, pattern: &[bool], reps: usize) -> (u64, u64) {
        let mut total = 0;
        let mut wrong = 0;
        for _ in 0..reps {
            for &taken in pattern {
                let p = tage.predict(pc);
                if p.taken != taken {
                    wrong += 1;
                }
                tage.update(pc, &p, taken);
                tage.push_history(taken);
                total += 1;
            }
        }
        (total, wrong)
    }

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new(TageConfig::small());
        let (total, wrong) = run_pattern(&mut t, 0x400, &[true], 500);
        assert!(wrong * 20 < total, "{wrong}/{total} mispredictions");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut t = Tage::new(TageConfig::small());
        // Warm up: the pattern is history-predictable, bimodal can't get it.
        let (_, _) = run_pattern(&mut t, 0x400, &[true, false], 100);
        let (total, wrong) = run_pattern(&mut t, 0x400, &[true, false], 200);
        assert!(
            wrong * 10 < total,
            "alternating pattern should be learned: {wrong}/{total}"
        );
    }

    #[test]
    fn learns_short_repeating_pattern() {
        let mut t = Tage::new(TageConfig::small());
        let pat = [true, true, false, true, false, false];
        run_pattern(&mut t, 0x1234, &pat, 150);
        let (total, wrong) = run_pattern(&mut t, 0x1234, &pat, 150);
        assert!(
            wrong * 5 < total,
            "period-6 pattern should be mostly learned: {wrong}/{total}"
        );
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let t = Tage::new(TageConfig::small());
        let a = t.predict(0x1000);
        let b = t.predict(0x2002);
        // Base indices must differ for these PCs.
        assert_ne!(a.base_index, b.base_index);
    }

    #[test]
    fn stats_count() {
        let mut t = Tage::new(TageConfig::small());
        let p = t.predict(0x10);
        t.update(0x10, &p, !p.taken);
        let (n, m) = t.stats();
        assert_eq!(n, 1);
        assert_eq!(m, 1);
    }

    #[test]
    fn storage_is_about_64kb_for_default() {
        let kb = TageConfig::default().storage_kb();
        assert!(
            (40.0..=72.0).contains(&kb),
            "default TAGE should be in the paper's 64KB class, got {kb}"
        );
    }

    #[test]
    fn loop_predictor_locks_onto_fixed_trip_count() {
        let mut cfg = TageConfig::small();
        cfg.loop_predictor = true;
        let mut t = Tage::new(cfg);
        // Loop with trip count 7: taken 6×, not-taken once.
        let mut pattern = vec![true; 6];
        pattern.push(false);
        run_pattern(&mut t, 0x808, &pattern, 120);
        let (total, wrong) = run_pattern(&mut t, 0x808, &pattern, 100);
        assert!(
            wrong * 8 < total,
            "loop predictor should capture trip count: {wrong}/{total}"
        );
    }
}

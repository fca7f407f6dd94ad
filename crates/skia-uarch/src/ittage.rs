//! ITTAGE indirect-branch target predictor (Seznec, CBP-2 "A 64-Kbytes
//! ITTAGE indirect branch predictor").
//!
//! Tagged geometric-history tables store full targets with a 2-bit
//! confidence counter; a PC-indexed base table catches the monomorphic
//! majority. Like [`crate::tage::Tage`], the frontend trains at commit and
//! pushes only resolved outcomes into the history — ITTAGE shares the TAGE
//! history discipline, so we reuse the same folded-register scheme.

/// Folded history register (same arithmetic as in `tage.rs`).
#[derive(Debug, Clone, Copy)]
struct Folded {
    comp: u32,
    olen: usize,
    /// `clen % olen`, precomputed (loop-invariant in `update`).
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

#[derive(Debug, Clone, Copy, Default)]
struct ItEntry {
    tag: u16,
    target: u64,
    confidence: u8, // 2-bit
    useful: u8,     // 1-bit
}

#[derive(Debug, Clone)]
struct ItTable {
    entries: Vec<ItEntry>,
    hist_len: usize,
    index_bits: usize,
    tag_bits: usize,
    idx_fold: Folded,
    tag_fold1: Folded,
    tag_fold2: Folded,
}

impl ItTable {
    fn new(hist_len: usize, index_bits: usize, tag_bits: usize) -> Self {
        ItTable {
            entries: vec![ItEntry::default(); 1 << index_bits],
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
        ((pc as u32 ^ (pc >> self.index_bits as u32 as u64 as usize) as u32 ^ self.idx_fold.comp)
            & ((1 << self.index_bits) - 1)) as usize
    }

    fn tag(&self, pc: u64) -> u16 {
        let pc = pc >> 1;
        ((pc as u32 ^ self.tag_fold1.comp ^ (self.tag_fold2.comp << 1))
            & ((1 << self.tag_bits) - 1)) as u16
    }
}

/// Training handle recorded at prediction time.
#[derive(Debug, Clone, Copy)]
pub struct IttagePrediction {
    /// Predicted target (`None` until the branch has been seen once).
    pub target: Option<u64>,
    provider: Option<usize>,
    indices: [u16; 8],
    tags: [u16; 8],
    base_index: u16,
}

/// The ITTAGE predictor.
#[derive(Debug, Clone)]
pub struct Ittage {
    tables: Vec<ItTable>,
    base: Vec<ItEntry>,
    hist_bits: Vec<bool>,
    hist_pos: usize,
    predictions: u64,
    mispredictions: u64,
}

impl Ittage {
    /// Build an ITTAGE with `num_tables` tagged tables of `2^index_bits`
    /// entries and geometric history lengths up to `max_history`.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables` is 0 or greater than 8.
    #[must_use]
    pub fn new(num_tables: usize, index_bits: usize, max_history: usize) -> Self {
        assert!((1..=8).contains(&num_tables));
        // Prediction metadata stores indices as u16.
        assert!(index_bits <= 16);
        let min_history = 2usize;
        let ratio =
            (max_history as f64 / min_history as f64).powf(1.0 / (num_tables.max(2) - 1) as f64);
        let tables = (0..num_tables)
            .map(|i| {
                let h = (min_history as f64 * ratio.powi(i as i32)).round() as usize;
                ItTable::new(h.max(i + 1), index_bits, 11)
            })
            .collect();
        let capacity = (max_history + 1).next_power_of_two() * 8;
        assert!(capacity.is_power_of_two(), "bit_ago relies on mask wrap");
        Ittage {
            tables,
            base: vec![ItEntry::default(); 1 << index_bits],
            hist_bits: vec![false; capacity],
            hist_pos: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// The paper-scale configuration (~64 KB class).
    #[must_use]
    pub fn default_64kb() -> Self {
        Ittage::new(6, 11, 320)
    }

    fn bit_ago(&self, ago: usize) -> bool {
        // `hist_bits.len()` is a power of two (asserted in `new`), so the
        // circular wrap is a mask instead of a division.
        let n = self.hist_bits.len();
        self.hist_bits[(self.hist_pos + n - ago) & (n - 1)]
    }

    /// Push one path/direction bit into the history.
    pub fn push_history(&mut self, bit: bool) {
        // Fixed array (≤ 8 tables): this runs once per committed branch and
        // must not heap-allocate.
        let mut olds = [false; 8];
        for (i, t) in self.tables.iter().enumerate() {
            olds[i] = self.bit_ago(t.hist_len);
        }
        for (t, &old) in self.tables.iter_mut().zip(&olds) {
            t.idx_fold.update(bit, old);
            t.tag_fold1.update(bit, old);
            t.tag_fold2.update(bit, old);
        }
        let mask = self.hist_bits.len() - 1;
        self.hist_bits[self.hist_pos] = bit;
        self.hist_pos = (self.hist_pos + 1) & mask;
    }

    /// Predict the target of the indirect branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> IttagePrediction {
        let mut indices = [0u16; 8];
        let mut tags = [0u16; 8];
        for (i, t) in self.tables.iter().enumerate() {
            indices[i] = t.index(pc) as u16;
            tags[i] = t.tag(pc);
        }
        let base_index = ((pc >> 1) as usize & (self.base.len() - 1)) as u16;

        let mut provider = None;
        for i in (0..self.tables.len()).rev() {
            let e = &self.tables[i].entries[indices[i] as usize];
            if e.tag == tags[i] && e.confidence > 0 {
                provider = Some(i);
                break;
            }
        }
        let target = match provider {
            Some(i) => Some(self.tables[i].entries[indices[i] as usize].target),
            None => {
                let b = &self.base[base_index as usize];
                if b.confidence > 0 {
                    Some(b.target)
                } else {
                    None
                }
            }
        };
        IttagePrediction {
            target,
            provider,
            indices,
            tags,
            base_index,
        }
    }

    /// Train with the resolved target.
    pub fn update(&mut self, pc: u64, pred: &IttagePrediction, target: u64) {
        let _ = pc;
        self.predictions += 1;
        let correct = pred.target == Some(target);
        if !correct {
            self.mispredictions += 1;
        }

        // Train provider (or base).
        match pred.provider {
            Some(p) => {
                let e = &mut self.tables[p].entries[pred.indices[p] as usize];
                if e.target == target {
                    e.confidence = (e.confidence + 1).min(3);
                    e.useful = 1;
                } else if e.confidence > 1 {
                    e.confidence -= 1;
                } else {
                    e.target = target;
                    e.confidence = 1;
                    e.useful = 0;
                }
            }
            None => {
                let e = &mut self.base[pred.base_index as usize];
                if e.target == target && e.confidence > 0 {
                    e.confidence = (e.confidence + 1).min(3);
                } else if e.confidence > 1 {
                    e.confidence -= 1;
                } else {
                    e.target = target;
                    e.confidence = 1;
                }
            }
        }

        // Allocate a longer-history entry on a wrong target.
        if !correct {
            let start = pred.provider.map_or(0, |p| p + 1);
            for i in start..self.tables.len() {
                let e = &mut self.tables[i].entries[pred.indices[i] as usize];
                if e.useful == 0 {
                    *e = ItEntry {
                        tag: pred.tags[i],
                        target,
                        confidence: 1,
                        useful: 0,
                    };
                    break;
                }
            }
        }
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

    #[test]
    fn monomorphic_target_learned_quickly() {
        let mut it = Ittage::new(4, 8, 64);
        let pc = 0x7000;
        let mut wrong = 0;
        for i in 0..200 {
            let p = it.predict(pc);
            if i > 4 && p.target != Some(0xDEAD) {
                wrong += 1;
            }
            it.update(pc, &p, 0xDEAD);
            it.push_history(i % 2 == 0);
        }
        assert!(wrong < 10, "monomorphic: {wrong} wrong after warmup");
    }

    #[test]
    fn history_correlated_targets() {
        let mut it = Ittage::new(4, 8, 64);
        let pc = 0x9000;
        // Target alternates with the history bit pushed in between.
        let mut wrong = 0;
        let mut total = 0;
        for rep in 0..600 {
            let phase = rep % 2 == 0;
            let target = if phase { 0xAAAA } else { 0xBBBB };
            let p = it.predict(pc);
            if rep > 300 {
                total += 1;
                if p.target != Some(target) {
                    wrong += 1;
                }
            }
            it.update(pc, &p, target);
            it.push_history(phase);
        }
        assert!(
            wrong * 3 < total,
            "history-correlated targets should mostly hit: {wrong}/{total}"
        );
    }

    #[test]
    fn cold_branch_predicts_none() {
        let it = Ittage::new(2, 6, 16);
        assert_eq!(it.predict(0x1234).target, None);
    }
}

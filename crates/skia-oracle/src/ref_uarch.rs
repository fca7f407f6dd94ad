//! Deliberately slow, obviously-correct reference structures for the BTB,
//! the split SBB halves and the RAS.
//!
//! Everything here is a plain `Vec` with linear search: no set slicing, no
//! slot reuse tricks, no ordered mirrors. The structures implement the
//! *paper-literal* policies — one global recency tick per array, true-LRU
//! victim selection with an optional "prefer un-retired" class (§4.3) — and
//! are extensionally equal to `skia_uarch::TagArray`-backed production
//! structures:
//!
//! * tags are unique per set (an insert with a matching tag overwrites), so
//!   linear search finds the same entry a way scan finds;
//! * every insert/access draws a fresh tick, so `last_use` values are unique
//!   across the array and the LRU minimum is unambiguous — slot order, which
//!   the production array's way scan depends on for ties, can never matter.

/// One valid entry of a [`RefArray`].
#[derive(Debug, Clone)]
struct RefSlot<V> {
    set: usize,
    tag: u64,
    last_use: u64,
    value: V,
}

/// A flat-`Vec` reference model of a set-associative tag array with
/// true-LRU replacement and caller-controlled victim preference.
#[derive(Debug, Clone)]
pub struct RefArray<V> {
    sets: usize,
    ways: usize,
    tick: u64,
    entries: Vec<RefSlot<V>>,
}

impl<V> RefArray<V> {
    /// Create an empty array of `sets × ways` capacity.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        RefArray {
            sets,
            ways,
            tick: 0,
            entries: Vec::new(),
        }
    }

    /// Map a key to its set index. The production array uses a mask when the
    /// set count is a power of two; the mask is provably identical to the
    /// modulo there, so the reference always takes the modulo.
    pub fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// Look up without recency update.
    pub fn probe(&self, set: usize, tag: u64) -> Option<&V> {
        self.entries
            .iter()
            .find(|e| e.set == set && e.tag == tag)
            .map(|e| &e.value)
    }

    /// Look up and refresh recency on a hit. The production array advances
    /// its tick on *every* access, hit or miss; so does this one.
    pub fn access(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.access_inner(set, tag, true)
    }

    /// [`RefArray::access`]: advances the tick but — as a deliberate fault
    /// for divergence-detection tests — does **not** refresh `last_use`.
    pub fn access_stale(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.access_inner(set, tag, false)
    }

    fn access_inner(&mut self, set: usize, tag: u64, refresh: bool) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|e| e.set == set && e.tag == tag)
            .map(|e| {
                if refresh {
                    e.last_use = tick;
                }
                &mut e.value
            })
    }

    /// Mutable access without any recency or tick update.
    pub fn peek_mut(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|e| e.set == set && e.tag == tag)
            .map(|e| &mut e.value)
    }

    /// Insert with a victim preference, mirroring
    /// `TagArray::insert_with`: overwrite on tag match (returning the old
    /// value under the same tag), fill a free way, else evict the oldest
    /// entry of the preferred class — oldest overall when no candidate is
    /// preferred. Returns the displaced `(tag, value)`.
    pub fn insert_with(
        &mut self,
        set: usize,
        tag: u64,
        value: V,
        prefer_evict: impl Fn(&V) -> bool,
    ) -> Option<(u64, V)> {
        self.tick += 1;
        let tick = self.tick;

        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.set == set && e.tag == tag)
        {
            e.last_use = tick;
            let old = std::mem::replace(&mut e.value, value);
            return Some((tag, old));
        }

        let in_set = self.entries.iter().filter(|e| e.set == set).count();
        if in_set < self.ways {
            self.entries.push(RefSlot {
                set,
                tag,
                last_use: tick,
                value,
            });
            return None;
        }

        // Victim: preferred class first, then strict LRU. `last_use` values
        // are unique, so `min_by_key` is unambiguous.
        let victim = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.set == set)
            .min_by_key(|(_, e)| (!prefer_evict(&e.value), e.last_use))
            .map(|(i, _)| i)
            .expect("set is full here");
        let old = std::mem::replace(
            &mut self.entries[victim],
            RefSlot {
                set,
                tag,
                last_use: tick,
                value,
            },
        );
        Some((old.tag, old.value))
    }

    /// Plain-LRU insert.
    pub fn insert(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        self.insert_with(set, tag, value, |_| false)
    }

    /// Remove an entry, returning its value.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<V> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.set == set && e.tag == tag)?;
        Some(self.entries.remove(pos).value)
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The lowest resident tag at or after `pc`, across all sets (the
    /// "next known branch" scan the production structures answer through a
    /// `BTreeSet` mirror).
    pub fn next_tag_at_or_after(&self, pc: u64) -> Option<u64> {
        self.entries
            .iter()
            .map(|e| e.tag)
            .filter(|&t| t >= pc)
            .min()
    }
}

use skia_isa::BranchKind;
use skia_uarch::btb::BtbEntry;

/// Reference finite BTB: a [`RefArray`] of [`BtbEntry`] with the production
/// geometry mapping (PC modulo sets) and plain LRU.
#[derive(Debug, Clone)]
pub struct RefBtb {
    arr: RefArray<BtbEntry>,
    /// Fault knob: `lookup` advances the recency tick but leaves `last_use`
    /// stale, perturbing LRU order under set pressure (test-only).
    pub stale_lru: bool,
}

impl RefBtb {
    /// Build from `(entries, ways)` geometry.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries >= ways && entries.is_multiple_of(ways));
        RefBtb {
            arr: RefArray::new(entries / ways, ways),
            stale_lru: false,
        }
    }

    /// Predict-path lookup (recency-updating).
    pub fn lookup(&mut self, pc: u64) -> Option<BtbEntry> {
        let set = self.arr.set_of(pc);
        if self.stale_lru {
            self.arr.access_stale(set, pc).copied()
        } else {
            self.arr.access(set, pc).copied()
        }
    }

    /// Stateless probe.
    pub fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.arr.probe(self.arr.set_of(pc), pc).copied()
    }

    /// Install or refresh the branch at `pc`.
    pub fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        let set = self.arr.set_of(pc);
        self.arr.insert(set, pc, BtbEntry { kind, target, len });
    }

    /// The lowest resident branch PC at or after `pc`.
    pub fn next_branch_at_or_after(&self, pc: u64) -> Option<u64> {
        self.arr.next_tag_at_or_after(pc)
    }
}

/// Reference infinite BTB: an unsorted `Vec` of `(pc, entry)`.
#[derive(Debug, Clone, Default)]
pub struct RefIdealBtb {
    entries: Vec<(u64, BtbEntry)>,
}

impl RefIdealBtb {
    /// Create an empty ideal BTB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<BtbEntry> {
        self.entries.iter().find(|(p, _)| *p == pc).map(|(_, e)| *e)
    }

    /// Install (or overwrite) the branch at `pc`.
    pub fn insert(&mut self, pc: u64, kind: BranchKind, target: u64, len: u8) {
        let entry = BtbEntry { kind, target, len };
        match self.entries.iter_mut().find(|(p, _)| *p == pc) {
            Some(slot) => slot.1 = entry,
            None => self.entries.push((pc, entry)),
        }
    }

    /// The lowest resident branch PC at or after `pc`.
    pub fn next_branch_at_or_after(&self, pc: u64) -> Option<u64> {
        self.entries
            .iter()
            .map(|(p, _)| *p)
            .filter(|&p| p >= pc)
            .min()
    }
}

/// Reference return address stack: a plain `Vec` that drops its *oldest*
/// entry on overflow.
///
/// The production RAS is a fixed circular buffer with a saturating depth
/// counter. The two are extensionally equal for the operations the
/// simulator uses (`push`/`pop`/`peek`):
/// overflow overwrites the slot `depth` entries below the top, which is
/// exactly the oldest *readable* entry — anything deeper was already
/// unreachable because pops stop at depth 0 — and an underflowing pop
/// returns `None` without moving the top in either model.
#[derive(Debug, Clone)]
pub struct RefRas {
    entries: Vec<u64>,
    capacity: usize,
}

impl RefRas {
    /// Create a stack bounded at `capacity` readable entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RefRas {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Push a return address, dropping the oldest on overflow.
    pub fn push(&mut self, return_address: u64) {
        self.entries.push(return_address);
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }

    /// Pop the predicted return address; `None` on underflow.
    pub fn pop(&mut self) -> Option<u64> {
        self.entries.pop()
    }

    /// Peek at the top without popping.
    pub fn peek(&self) -> Option<u64> {
        self.entries.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_matches_insert_order_semantics() {
        let mut a: RefArray<u32> = RefArray::new(1, 2);
        a.insert(0, 1, 10);
        a.insert(0, 2, 20);
        assert!(a.access(0, 1).is_some()); // tag 2 becomes LRU
        let evicted = a.insert(0, 3, 30);
        assert_eq!(evicted.map(|(t, _)| t), Some(2));
    }

    #[test]
    fn preferred_class_evicts_before_lru() {
        let mut a: RefArray<bool> = RefArray::new(1, 2);
        a.insert(0, 1, true); // retired
        a.insert(0, 2, false); // newer but unretired
        let evicted = a.insert_with(0, 3, false, |&retired| !retired);
        assert_eq!(evicted.map(|(t, _)| t), Some(2));
    }

    #[test]
    fn stale_access_still_ticks() {
        let mut a: RefArray<u32> = RefArray::new(1, 2);
        a.insert(0, 1, 10);
        a.insert(0, 2, 20);
        // A stale access to tag 1 does not refresh it: it stays LRU.
        assert!(a.access_stale(0, 1).is_some());
        let evicted = a.insert(0, 3, 30);
        assert_eq!(evicted.map(|(t, _)| t), Some(1));
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = RefRas::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }
}

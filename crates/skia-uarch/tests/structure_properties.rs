//! Property tests on the microarchitectural structures.

use proptest::prelude::*;
use skia_isa::BranchKind;
use skia_uarch::btb::{Btb, BtbConfig};
use skia_uarch::cache::{Cache, CacheConfig};
use skia_uarch::tag_array::TagArray;

proptest! {
    /// A tag array never exceeds capacity and always finds the most
    /// recently inserted entry for a key.
    #[test]
    fn tag_array_capacity_and_mru(
        sets in 1usize..16,
        ways in 1usize..8,
        ops in proptest::collection::vec((any::<u64>(), any::<u32>()), 1..200),
    ) {
        let mut arr: TagArray<u32> = TagArray::new(sets, ways);
        let mut last: std::collections::HashMap<u64, u32> = Default::default();
        for (key, val) in &ops {
            let set = arr.set_of(*key);
            arr.insert(set, *key, *val);
            last.insert(*key, *val);
            prop_assert!(arr.len() <= arr.capacity());
        }
        // Every resident entry must carry the last value written to it.
        for (set, tag, val) in arr.iter() {
            prop_assert_eq!(arr.set_of(tag), set);
            prop_assert_eq!(Some(val), last.get(&tag));
        }
    }

    /// Cache residency is exact: after a fill the line is resident until an
    /// eviction displaces it, and stats add up.
    #[test]
    fn cache_stats_add_up(addrs in proptest::collection::vec(any::<u32>(), 1..300)) {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8 * 64,
            ways: 2,
            line_bytes: 64,
        });
        for &a in &addrs {
            let addr = u64::from(a);
            let hit = c.demand_access(addr);
            if !hit {
                c.fill(addr, false);
                prop_assert!(c.contains(addr));
            }
        }
        let s = c.stats();
        prop_assert_eq!(s.demand_hits + s.demand_misses, addrs.len() as u64);
        prop_assert!(c.resident_lines() <= 8);
    }

    /// Residency reconstructed from insert()'s evicted-pc return value
    /// always agrees with probe() — the contract the BPU's side-table
    /// window scan (probe per static-branch candidate) depends on.
    #[test]
    fn btb_eviction_reports_track_residency(pcs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut btb = Btb::new(BtbConfig { entries: 32, ways: 4 });
        let mut resident = std::collections::BTreeSet::new();
        for &pc in &pcs {
            let pc = u64::from(pc);
            if let Some(evicted) = btb.insert(pc, BranchKind::Call, 0, 5) {
                prop_assert!(resident.remove(&evicted), "evicted {evicted:#x} was not resident");
            }
            resident.insert(pc);
        }
        prop_assert_eq!(resident.len(), btb.len());
        for &pc in &resident {
            prop_assert!(btb.probe(pc).is_some(), "tracked pc {pc:#x} not resident");
        }
        for &pc in &pcs {
            let pc = u64::from(pc);
            prop_assert_eq!(btb.probe(pc).is_some(), resident.contains(&pc));
        }
    }
}

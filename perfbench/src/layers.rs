//! Isolated layer replays: the workload's recorded trace replayed into one
//! layer's public types at a time, so each layer's cost per call is known
//! without instrumenting the simulator.
//!
//! Every call's inputs are prepared before its timed loop, so a loop times
//! the layer's calls and the loop itself, nothing else. The structures use
//! the 8K-BTB baseline geometry and the default Skia configuration.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use skia_core::{Sbb, ShadowBranch, ShadowDecoder, SkiaConfig};
use skia_frontend::{BtbMode, FrontendConfig};
use skia_isa::BranchKind;
use skia_uarch::btb::Btb;
use skia_uarch::cache::Hierarchy;
use skia_uarch::tage::Tage;
use skia_workloads::{Program, RecordedTrace, TraceStep};

/// Steps of each trace the replays cover.
pub const REPLAY_STEPS: usize = 400_000;

/// Time and call count of one layer's replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Nanoseconds spent in the timed loop.
    pub ns: f64,
    /// Calls made.
    pub calls: u64,
}

impl Cost {
    /// Nanoseconds per call (0 when nothing was called).
    #[must_use]
    pub fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Per-layer replay costs, summed over the replayed traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// Trace steps replayed.
    pub steps: u64,
    /// `Btb::lookup` on every branch, `Btb::insert` on taken misses.
    pub btb: Cost,
    /// `Tage::predict` + `update` + `push_history` per conditional branch.
    pub tage: Cost,
    /// `Hierarchy::fetch_line` per line a block spans.
    pub cache: Cost,
    /// `ShadowDecoder::decode_head` at each block's entry line.
    pub sbd_head: Cost,
    /// `ShadowDecoder::decode_tail` at each taken block's exit line.
    pub sbd_tail: Cost,
    /// `Sbb::insert` of each newly decoded shadow branch and `Sbb::lookup`
    /// of each retired branch.
    pub sbb: Cost,
    /// `skia_isa::decode` per instruction of each block (calls = insns).
    pub decode: Cost,
}

impl LayerCosts {
    /// Accumulate another trace's costs.
    pub fn add(&mut self, o: &LayerCosts) {
        self.steps += o.steps;
        self.btb.add(o.btb);
        self.tage.add(o.tage);
        self.cache.add(o.cache);
        self.sbd_head.add(o.sbd_head);
        self.sbd_tail.add(o.sbd_tail);
        self.sbb.add(o.sbb);
        self.decode.add(o.decode);
    }
}

fn timed(calls: u64, f: impl FnOnce()) -> Cost {
    let t = Instant::now();
    f();
    Cost {
        ns: t.elapsed().as_nanos() as f64,
        calls,
    }
}

/// Replay the first [`REPLAY_STEPS`] steps of `trace` into each layer.
#[must_use]
pub fn replay(program: &Program, trace: &RecordedTrace) -> LayerCosts {
    let steps: Vec<TraceStep> = trace.replay().take(REPLAY_STEPS).collect();
    let config = FrontendConfig::alder_lake_like();
    let skia = SkiaConfig::default();
    let mut out = LayerCosts {
        steps: steps.len() as u64,
        ..LayerCosts::default()
    };

    let BtbMode::Finite(btb_config) = config.btb else {
        unreachable!("the baseline BTB is finite")
    };
    let mut btb = Btb::new(btb_config);
    let mut inserts = 0u64;
    out.btb = timed(0, || {
        for s in &steps {
            if btb.lookup(s.branch_pc).is_none() && s.taken {
                black_box(btb.insert(s.branch_pc, s.kind, s.next_pc, s.branch_len));
                inserts += 1;
            }
        }
    });
    out.btb.calls = steps.len() as u64 + inserts;

    let conds: Vec<(u64, bool)> = steps
        .iter()
        .filter(|s| s.kind == BranchKind::DirectCond)
        .map(|s| (s.branch_pc, s.taken))
        .collect();
    let mut tage = Tage::new(config.tage.clone());
    out.tage = timed(conds.len() as u64, || {
        for &(pc, taken) in &conds {
            let p = tage.predict(pc);
            tage.update(pc, &p, taken);
            tage.push_history(taken);
        }
    });

    let mut lines = Vec::new();
    for s in &steps {
        let end = s.branch_pc + u64::from(s.branch_len);
        let mut la = s.block_start & !63;
        while la < end {
            lines.push(la);
            la += 64;
        }
    }
    let mut hier = Hierarchy::new(config.hierarchy);
    out.cache = timed(lines.len() as u64, || {
        for &la in &lines {
            black_box(hier.fetch_line(la, true));
        }
    });

    // Shadow regions: (line index, line base, offset) at each block's entry
    // (head) and each taken block's exit (tail), bytes read up front.
    let mut line_ids: HashMap<u64, usize> = HashMap::new();
    let mut line_bytes: Vec<[u8; 64]> = Vec::new();
    let mut line_of = |addr: u64| -> (usize, u64) {
        let (base, bytes) = program.line(addr);
        let id = *line_ids.entry(base).or_insert_with(|| {
            line_bytes.push(bytes);
            line_bytes.len() - 1
        });
        (id, base)
    };
    let mut heads = Vec::new();
    let mut tails = Vec::new();
    for s in &steps {
        let (id, base) = line_of(s.block_start);
        let entry = (s.block_start - base) as usize;
        if entry != 0 {
            heads.push((id, base, entry));
        }
        if s.taken {
            let end = s.branch_pc + u64::from(s.branch_len);
            let (id, base) = line_of(end - 1);
            let exit = (end - base) as usize;
            if exit < 64 {
                tails.push((id, base, exit));
            }
        }
    }
    let mut sbd = ShadowDecoder::new(skia.index_policy, skia.max_valid_paths);
    out.sbd_head = timed(heads.len() as u64, || {
        for &(id, base, entry) in &heads {
            black_box(sbd.decode_head(&line_bytes[id], base, entry));
        }
    });
    out.sbd_tail = timed(tails.len() as u64, || {
        for &(id, base, exit) in &tails {
            black_box(sbd.decode_tail(&line_bytes[id], base, exit));
        }
    });

    // SBB traffic in step order: the shadow branches found at a step's
    // entry and exit lines, then a lookup of the step's own branch.
    enum Op {
        Insert(ShadowBranch),
        Lookup(u64),
    }
    let (mut h, mut t) = (heads.iter(), tails.iter());
    let mut ops = Vec::new();
    for s in &steps {
        let base = s.block_start & !63;
        if s.block_start != base {
            let &(id, base, entry) = h.next().expect("one head per unaligned block");
            let found = sbd.decode_head(&line_bytes[id], base, entry);
            ops.extend(found.branches.iter().copied().map(Op::Insert));
        }
        let end = s.branch_pc + u64::from(s.branch_len);
        if s.taken && end & 63 != 0 {
            let &(id, base, exit) = t.next().expect("one tail per taken block");
            let found = sbd.decode_tail(&line_bytes[id], base, exit);
            ops.extend(found.iter().copied().map(Op::Insert));
        }
        ops.push(Op::Lookup(s.branch_pc));
    }
    let mut sbb = Sbb::new(skia.sbb);
    out.sbb = timed(ops.len() as u64, || {
        for op in &ops {
            match op {
                Op::Insert(b) => {
                    if sbb.probe(b.pc).is_none() {
                        black_box(sbb.insert(b));
                    }
                }
                Op::Lookup(pc) => {
                    black_box(sbb.lookup(*pc));
                }
            }
        }
    });

    let blocks: Vec<(u64, u64)> = steps.iter().map(|s| (s.block_start, s.branch_pc)).collect();
    let mut insns = 0u64;
    out.decode = timed(0, || {
        for &(start, branch) in &blocks {
            let mut pc = start;
            while pc <= branch {
                let Ok(d) = skia_isa::decode(program.bytes_at(pc, 15)) else {
                    break;
                };
                pc += u64::from(d.len);
                insns += 1;
            }
        }
    });
    out.decode.calls = insns;
    out
}

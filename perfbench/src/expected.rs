//! Expected outputs: a `SimStats` digest per (profile, configuration,
//! steps, mode) over every workload's whole candidate pool, plus the
//! full-replay IPC the sampled workload's error is measured against.
//!
//! The file is tab-separated text, one job key per line:
//! `profile  config  steps  mode  digest  ipc  btb_mpki  effective_mpki`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use skia_frontend::SimStats;

/// How a job's stats were produced.
pub const FULL: &str = "full";
/// A phase-sampled estimate.
pub const SAMPLED: &str = "sampled";

/// Key of one expected output.
pub type Key = (String, String, usize, String);

/// One expected output.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// FNV-1a 64 digest of the stats (see [`digest`]).
    pub digest: u64,
    /// Simulated IPC.
    pub ipc: f64,
    /// BTB misses per kilo-instruction.
    pub btb_mpki: f64,
    /// BTB misses not rescued by the SBB, per kilo-instruction.
    pub effective_mpki: f64,
}

impl Entry {
    /// Summarize `stats`.
    #[must_use]
    pub fn of(stats: &SimStats) -> Entry {
        Entry {
            digest: digest(stats),
            ipc: stats.ipc(),
            btb_mpki: stats.btb_mpki(),
            effective_mpki: (stats.btb_misses - stats.sbb_rescues) as f64 * 1000.0
                / stats.instructions.max(1) as f64,
        }
    }
}

/// Digest of every field of `stats`, floats included bit for bit (the
/// `Debug` form prints each `f64` in its shortest round-trip form).
#[must_use]
pub fn digest(stats: &SimStats) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{stats:?}").bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Build a key.
#[must_use]
pub fn key(profile: &str, config: &str, steps: usize, mode: &str) -> Key {
    (profile.into(), config.into(), steps, mode.into())
}

/// Parse an expected-output file.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse(text: &str) -> Result<BTreeMap<Key, Entry>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("line {}: malformed expected output {line:?}", n + 1);
        if f.len() != 8 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let steps = f[2].parse::<usize>().map_err(|_| bad())?;
        let digest = u64::from_str_radix(f[4], 16).map_err(|_| bad())?;
        let entry = Entry {
            digest,
            ipc: num(f[5])?,
            btb_mpki: num(f[6])?,
            effective_mpki: num(f[7])?,
        };
        if out.insert(key(f[0], f[1], steps, f[3]), entry).is_some() {
            return Err(format!("line {}: duplicate key", n + 1));
        }
    }
    Ok(out)
}

/// Render an expected-output file.
#[must_use]
pub fn render(entries: &BTreeMap<Key, Entry>) -> String {
    let mut out = String::from(
        "# Expected outputs of the perfbench candidate pools (regenerate with `gen-expected`).\n\
         # profile\tconfig\tsteps\tmode\tdigest\tipc\tbtb_mpki\teffective_mpki\n",
    );
    for ((p, c, s, m), e) in entries {
        writeln!(
            out,
            "{p}\t{c}\t{s}\t{m}\t{:016x}\t{:?}\t{:?}\t{:?}",
            e.digest, e.ipc, e.btb_mpki, e.effective_mpki
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Compare the 8K-BTB rows of `entries` with the table of
/// `results/fig16.md`, to the printed two decimals. Returns one message per
/// disagreement (empty when every row matches).
#[must_use]
pub fn check_fig16(entries: &BTreeMap<Key, Entry>, fig16: &str, steps: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let mut rows = 0;
    for line in fig16.lines() {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() != 4 || cells[1].parse::<f64>().is_err() || cells[0].starts_with("**") {
            continue;
        }
        rows += 1;
        let profile = cells[0];
        let got = |config: &str, eff: bool| {
            entries
                .get(&key(profile, config, steps, FULL))
                .map(|e| format!("{:.2}", if eff { e.effective_mpki } else { e.btb_mpki }))
        };
        let columns = [
            ("btb8192", false, cells[1]),
            ("btb8192+budget", false, cells[2]),
            // `BtbPlusSkia(8192)` is the default SBB, drawn as the 1× scale.
            ("btb8192+sbb-scale1x", true, cells[3]),
        ];
        for (config, eff, want) in columns {
            match got(config, eff) {
                Some(g) if g == want => {}
                g => errors.push(format!("{profile} {config}: fig16 {want}, expected {g:?}")),
            }
        }
    }
    if rows == 0 {
        errors.push("no benchmark rows found in fig16".into());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let stats = SimStats {
            instructions: 1000,
            cycles: 700,
            btb_misses: 9,
            sbb_rescues: 2,
            ..SimStats::default()
        };
        let mut entries = BTreeMap::new();
        entries.insert(key("tpcc", "btb8192", 400_000, FULL), Entry::of(&stats));
        assert_eq!(parse(&render(&entries)).unwrap(), entries);
        assert!(parse("tpcc\tbtb8192\t1\tfull\tzz\t1\t1\t1\n").is_err());
    }

    #[test]
    fn digest_sees_every_field() {
        let a = SimStats::default();
        let mut b = a.clone();
        b.mean_ftq_occupancy = f64::from_bits(1);
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn committed_expected_outputs_agree_with_fig16() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let entries = parse(&std::fs::read_to_string(root.join("expected.tsv")).unwrap()).unwrap();
        let fig16 = std::fs::read_to_string(root.join("../results/fig16.md")).unwrap();
        let errors = check_fig16(&entries, &fig16, skia_experiments::DEFAULT_STEPS);
        assert!(errors.is_empty(), "{errors:#?}");
    }
}

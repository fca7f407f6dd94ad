//! The three workloads: their candidate pools and the seeded draw that
//! turns `--seed` into a job list.
//!
//! The program under test only ever sees the drawn job list. The seed
//! picks from pairs balanced to cost about the same (program size for the
//! profiles, host time for the SBB variants), so every seed's list costs
//! about the same and end-to-end figures compare across seeds.

use skia_core::{SbbConfig, SkiaConfig};
use skia_experiments::{StandingConfig, DEFAULT_STEPS};
use skia_frontend::FrontendConfig;

/// Trace length of the sampled workload: well past the 400k default, where
/// sampling pays off.
pub const SAMPLED_STEPS: usize = 2_000_000;

/// The 16 paper profiles in eight pairs: sorted by function count, the
/// i-th smallest program with the i-th largest, so each pair's programs
/// are about the same total size (17–19.5k functions).
pub const PROFILE_PAIRS: [[&str; 2]; 8] = [
    ["finagle-chirper", "verilator"],
    ["speedometer2.0", "voter"],
    ["finagle-http", "sibench"],
    ["noop", "dotty"],
    ["tatp", "tomcat"],
    ["smallbank", "cassandra"],
    ["ycsb", "tpcc"],
    ["twitter", "kafka"],
];

/// Fig. 17's U-SBB shares of a constant 12.25 KB budget.
pub const SBB_SPLITS: [f64; 4] = [0.2, 0.4, 7.3125 / 12.25, 0.8];
/// Fig. 17's total-budget scale factors at the default U:R ratio.
pub const SBB_SCALES: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Fig. 17's ten SBB variants in five pairs of about equal host cost
/// (smaller SBBs cost more per job, so the extremes go together).
pub const SBB_PAIRS: [[Config; 2]; 5] = [
    [
        Config::SbbSplit(SBB_SPLITS[0]),
        Config::SbbSplit(SBB_SPLITS[3]),
    ],
    [
        Config::SbbSplit(SBB_SPLITS[1]),
        Config::SbbSplit(SBB_SPLITS[2]),
    ],
    [Config::SbbScale(0.25), Config::SbbScale(8.0)],
    [Config::SbbScale(0.5), Config::SbbScale(4.0)],
    [Config::SbbScale(1.0), Config::SbbScale(2.0)],
];

/// Fig. 3's Skia-off BTB sizes.
pub const BTB_SIZES: [usize; 6] = [1024, 2048, 4096, 8192, 16384, 32768];

/// How a workload simulates its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full replay, telemetry off.
    Plain,
    /// Full replay with telemetry emission (`--emit-json`).
    Emit,
    /// Phase-sampled replay (`Sweep::sampled`).
    Sampled,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 17's (baseline, Skia-variant) pairs.
    SkiaSbbSweep,
    /// Fig. 3's Skia-off columns with telemetry emission.
    BtbCapacityEmit,
    /// Sampled 2M-step runs from an empty cache.
    SampledLongCold,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [
        Kind::SkiaSbbSweep,
        Kind::BtbCapacityEmit,
        Kind::SampledLongCold,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::SkiaSbbSweep => "skia-sbb-sweep",
            Kind::BtbCapacityEmit => "btb-capacity-emit",
            Kind::SampledLongCold => "sampled-long-cold",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How the workload simulates.
    #[must_use]
    pub fn mode(self) -> Mode {
        match self {
            Kind::SkiaSbbSweep => Mode::Plain,
            Kind::BtbCapacityEmit => Mode::Emit,
            Kind::SampledLongCold => Mode::Sampled,
        }
    }

    /// Steps per job.
    #[must_use]
    pub fn steps(self) -> usize {
        match self {
            Kind::SampledLongCold => SAMPLED_STEPS,
            _ => DEFAULT_STEPS,
        }
    }

    /// Whether every setup starts from an empty cache directory.
    #[must_use]
    pub fn cold(self) -> bool {
        self == Kind::SampledLongCold
    }

    /// Every configuration the workload can draw for one profile.
    #[must_use]
    pub fn pool_configs(self) -> Vec<Config> {
        match self {
            Kind::SkiaSbbSweep => std::iter::once(Config::Standing(StandingConfig::Btb(8192)))
                .chain(SBB_SPLITS.iter().map(|&s| Config::SbbSplit(s)))
                .chain(SBB_SCALES.iter().map(|&f| Config::SbbScale(f)))
                .collect(),
            Kind::BtbCapacityEmit => BTB_SIZES
                .iter()
                .map(|&n| Config::Standing(StandingConfig::Btb(n)))
                .chain([
                    Config::Standing(StandingConfig::BtbPlusBudget(8192)),
                    Config::Standing(StandingConfig::Infinite),
                ])
                .collect(),
            Kind::SampledLongCold => vec![
                Config::Standing(StandingConfig::Btb(8192)),
                Config::Standing(StandingConfig::BtbPlusSkia(8192)),
            ],
        }
    }

    /// Draw the job list for `seed`: one pair of profiles, then
    ///
    /// * `skia-sbb-sweep`: one pair of SBB variants, each as a
    ///   (Btb(8192), Skia-variant) pair per profile;
    /// * `btb-capacity-emit`: every Skia-off configuration per profile;
    /// * `sampled-long-cold`: Btb(8192) and BtbPlusSkia(8192) per profile.
    #[must_use]
    pub fn draw(self, seed: u64) -> Vec<Job> {
        let mut rng = SplitMix64(seed ^ 0x5b1a_5eed ^ self as u64);
        let profiles = rng.pick(&PROFILE_PAIRS);
        let configs: Vec<Config> = match self {
            Kind::SkiaSbbSweep => rng
                .pick(&SBB_PAIRS)
                .iter()
                .flat_map(|&v| [Config::Standing(StandingConfig::Btb(8192)), v])
                .collect(),
            _ => self.pool_configs(),
        };
        let mut jobs = Vec::new();
        for c in configs {
            for p in profiles {
                jobs.push(Job::new(p, c));
            }
        }
        jobs
    }

    /// Setups timed per repetition: warm loads are short, so the sweeps
    /// time several for a steady `setup_s`.
    #[must_use]
    pub fn setups_per_rep(self) -> usize {
        if self.cold() {
            2
        } else {
            4
        }
    }
}

/// One simulator configuration of a candidate pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Config {
    /// A Fig. 3 / Fig. 16 standing configuration.
    Standing(StandingConfig),
    /// Btb(8192) plus an SBB with this U-SBB share of 12.25 KB.
    SbbSplit(f64),
    /// Btb(8192) plus the default SBB scaled by this factor.
    SbbScale(f64),
}

impl Config {
    /// Stable label used as the expected-output key.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Config::Standing(StandingConfig::Btb(n)) => format!("btb{n}"),
            Config::Standing(StandingConfig::BtbPlusBudget(n)) => format!("btb{n}+budget"),
            Config::Standing(StandingConfig::BtbPlusSkia(n)) => format!("btb{n}+skia"),
            Config::Standing(StandingConfig::Infinite) => "infinite".into(),
            Config::SbbSplit(s) => format!("btb8192+sbb-split{:.0}", s * 100.0),
            Config::SbbScale(f) => format!("btb8192+sbb-scale{f}x"),
        }
    }

    /// The frontend configuration the program receives.
    #[must_use]
    pub fn frontend(self) -> FrontendConfig {
        let with_sbb = |sbb: SbbConfig| {
            FrontendConfig::alder_lake_like()
                .with_btb_entries(8192)
                .with_skia(SkiaConfig {
                    sbb,
                    ..SkiaConfig::default()
                })
        };
        match self {
            Config::Standing(s) => s.frontend(),
            Config::SbbSplit(share) => with_sbb(SbbConfig::with_budget(12.25, share, 4)),
            Config::SbbScale(factor) => with_sbb(SbbConfig::default().scaled(factor)),
        }
    }

    /// Whether Skia is on.
    #[must_use]
    pub fn skia(self) -> bool {
        !matches!(
            self,
            Config::Standing(
                StandingConfig::Btb(_)
                    | StandingConfig::BtbPlusBudget(_)
                    | StandingConfig::Infinite
            )
        )
    }
}

/// One drawn job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Benchmark profile name.
    pub profile: &'static str,
    /// Configuration.
    pub config: Config,
    /// The materialized frontend configuration.
    pub frontend: FrontendConfig,
}

impl Job {
    fn new(profile: &'static str, config: Config) -> Job {
        Job {
            profile,
            config,
            frontend: config.frontend(),
        }
    }
}

/// The distinct profiles of a job list, in first-appearance order.
#[must_use]
pub fn profiles(jobs: &[Job]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for j in jobs {
        if !out.contains(&j.profile) {
            out.push(j.profile);
        }
    }
    out
}

/// Jobs whose (profile, configuration) key repeats an earlier job's, ÷ jobs.
#[must_use]
pub fn dup_job_ratio(jobs: &[Job]) -> f64 {
    let dups = jobs
        .iter()
        .enumerate()
        .filter(|(i, j)| {
            jobs[..*i]
                .iter()
                .any(|e| e.profile == j.profile && e.frontend == j.frontend)
        })
        .count();
    dups as f64 / jobs.len().max(1) as f64
}

/// SplitMix64: a tiny, fixed, seedable generator, so a seed's draw never
/// depends on a dependency's version.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_cover_every_paper_profile_and_variant_once() {
        let mut all: Vec<&str> = PROFILE_PAIRS.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut paper = skia_workloads::profiles::PAPER_BENCHMARKS.to_vec();
        paper.sort_unstable();
        assert_eq!(all, paper);
        let mut labels: Vec<String> = SBB_PAIRS.iter().flatten().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), SBB_SPLITS.len() + SBB_SCALES.len());
    }

    #[test]
    fn draws_are_seeded_and_repeat_keys_only_in_the_sbb_sweep() {
        for kind in Kind::ALL {
            let a = kind.draw(7);
            let b = kind.draw(7);
            assert_eq!(
                a.iter()
                    .map(|j| (j.profile, j.config.label()))
                    .collect::<Vec<_>>(),
                b.iter()
                    .map(|j| (j.profile, j.config.label()))
                    .collect::<Vec<_>>()
            );
        }
        assert!(dup_job_ratio(&Kind::SkiaSbbSweep.draw(1)) >= 0.25);
        for seed in 0..32 {
            assert_eq!(dup_job_ratio(&Kind::BtbCapacityEmit.draw(seed)), 0.0);
        }
    }

    #[test]
    fn the_sixty_percent_split_is_the_default_sbb() {
        assert_eq!(
            Config::SbbSplit(SBB_SPLITS[2]).frontend(),
            Config::SbbScale(1.0).frontend()
        );
        assert_eq!(
            Config::SbbScale(1.0).frontend(),
            StandingConfig::BtbPlusSkia(8192).frontend()
        );
    }
}

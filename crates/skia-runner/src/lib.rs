//! Parallel sweep execution engine.
//!
//! The paper's evaluation is a large cartesian sweep — benchmarks ×
//! BPU configurations — whose runs are embarrassingly parallel: every run
//! owns its own simulator, walker and RNG state, and runs are seeded, so a
//! run's result is a pure function of its job description. This crate fans
//! such jobs out across OS threads with **deterministic index-ordered
//! result collection**: `run_indexed(jobs, threads, f)` returns exactly
//! `jobs.iter().map(f)` would, regardless of thread count or scheduling.
//!
//! Built on [`std::thread::scope`] only — the workspace is vendored-only,
//! so no rayon/crossbeam. Work distribution is a single atomic cursor over
//! the job vector (dynamic load balancing: long runs do not convoy short
//! ones); each worker writes results into its job's pre-allocated slot, so
//! collection order is the submission order by construction.
//!
//! The environment knobs are resolved here too, through one parse rule
//! ([`knob`], named as [`positive`], [`unsigned`] and [`flag`]), so every
//! binary and the fuzzer read
//! them identically and junk in any of them exits 2 naming it.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a count knob must be: `SKIA_STEPS`, `SKIA_THREADS`,
/// `SKIA_SAMPLE_INTERVAL`, `SKIA_SAMPLE_K`.
pub const POSITIVE: &str = "a positive integer";

/// What a seed or an optional budget knob must be.
pub const UNSIGNED: &str = "an unsigned integer";

/// A knob's raw value from the process environment: `None` when unset,
/// the (lossily decoded) value otherwise. Pass `&env_var` as the `var` of
/// [`knob`] and [`flag`].
#[must_use]
pub fn env_var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// The one parse rule of every `SKIA_*` knob: `var(name)` (the raw value,
/// `None` when unset) parsed as a `T` that `ok` accepts, or an error
/// `NAME="raw": not <what>` naming the junk. Callers on the process
/// environment hand the error to [`or_exit`]: a typo must not silently run
/// something else.
///
/// # Errors
///
/// The set value does not parse as a `T`, or `ok` rejects it.
pub fn knob<T: std::str::FromStr>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    var(name)
        .map(|raw| match raw.parse::<T>() {
            Ok(v) if ok(&v) => Ok(v),
            _ => Err(format!("{name}={raw:?}: not {what}")),
        })
        .transpose()
}

/// A boolean knob through [`knob`]: `1`/`true`/`on` or `0`/`false`/`off`/
/// empty, in any ASCII case.
///
/// # Errors
///
/// Any other set value.
pub fn flag(var: &impl Fn(&str) -> Option<String>, name: &str) -> Result<Option<bool>, String> {
    struct Switch(bool);
    impl std::str::FromStr for Switch {
        type Err = ();
        fn from_str(raw: &str) -> Result<Switch, ()> {
            match raw.to_ascii_lowercase().as_str() {
                "1" | "true" | "on" => Ok(Switch(true)),
                "0" | "false" | "off" | "" => Ok(Switch(false)),
                _ => Err(()),
            }
        }
    }
    Ok(knob(var, name, "a boolean", |_: &Switch| true)?.map(|s| s.0))
}

/// A count knob through [`knob`]: a [`POSITIVE`] `usize`.
///
/// # Errors
///
/// The set value is not a positive integer.
pub fn positive(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
) -> Result<Option<usize>, String> {
    knob(var, name, POSITIVE, |&n: &usize| n > 0)
}

/// A seed or budget knob through [`knob`]: an [`UNSIGNED`] integer, zero
/// allowed.
///
/// # Errors
///
/// The set value is not an unsigned integer of type `T`.
pub fn unsigned<T: std::str::FromStr>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
) -> Result<Option<T>, String> {
    knob(var, name, UNSIGNED, |_: &T| true)
}

/// Unwrap a resolved knob, or print `error: <msg>` to stderr and exit with
/// status 2 — junk in a knob is as fatal as an unknown command-line flag.
pub fn or_exit<T>(resolved: Result<T, String>) -> T {
    resolved.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Resolve the worker-thread count for a sweep.
///
/// Priority: an explicit `flag` (from `--threads`) wins; otherwise the
/// `SKIA_THREADS` environment variable, a [`positive`] knob; otherwise
/// [`std::thread::available_parallelism`]. Always at least 1.
#[must_use]
pub fn thread_count(flag: Option<usize>) -> usize {
    if let Some(n) = flag {
        return n.max(1);
    }
    or_exit(positive(&env_var, "SKIA_THREADS")).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Phase-sampling knobs resolved from the environment, dependency-free so
/// every binary resolves them identically (the `SKIA_THREADS` pattern).
/// The sweep engines translate this into a
/// `skia_workloads::SamplingConfig`; `None` fields mean "use the scaled
/// default for the run length".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SamplingEnv {
    /// `SKIA_SAMPLE=1`: simulate sampled (weighted representative slices)
    /// instead of replaying every recorded step.
    pub enabled: bool,
    /// `SKIA_SAMPLE_INTERVAL`: steps per interval.
    pub interval: Option<usize>,
    /// `SKIA_SAMPLE_K`: cluster (slice) budget.
    pub k: Option<usize>,
    /// `SKIA_SAMPLE_WARMUP`: unmeasured warmup steps per slice.
    pub warmup: Option<usize>,
    /// `SKIA_SAMPLE_SEED`: k-means seed.
    pub seed: Option<u64>,
}

/// Resolve the sampling knobs from `SKIA_SAMPLE*` environment variables;
/// junk exits through [`or_exit`], even with sampling off.
#[must_use]
pub fn sampling_env() -> SamplingEnv {
    or_exit(parse_sampling(&env_var))
}

/// The testable core of [`sampling_env`]: `SKIA_SAMPLE` is a [`flag`];
/// `SKIA_SAMPLE_INTERVAL` and `SKIA_SAMPLE_K` are [`positive`];
/// `SKIA_SAMPLE_WARMUP` (zero allowed) and `SKIA_SAMPLE_SEED` are
/// [`unsigned`].
fn parse_sampling(var: &impl Fn(&str) -> Option<String>) -> Result<SamplingEnv, String> {
    Ok(SamplingEnv {
        enabled: flag(var, "SKIA_SAMPLE")?.unwrap_or(false),
        interval: positive(var, "SKIA_SAMPLE_INTERVAL")?,
        k: positive(var, "SKIA_SAMPLE_K")?,
        warmup: unsigned(var, "SKIA_SAMPLE_WARMUP")?,
        seed: unsigned(var, "SKIA_SAMPLE_SEED")?,
    })
}

/// One job's result plus its wall time.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// The closure's return value.
    pub value: R,
    /// Wall time the job spent executing (excluding queue wait).
    pub wall: Duration,
}

/// Aggregate timing of one [`run_timed`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct SweepReport {
    /// Number of jobs executed.
    pub runs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Sum of per-job wall times (≈ `wall × threads` at full utilization).
    pub busy: Duration,
}

impl SweepReport {
    /// Jobs completed per second of sweep wall time.
    #[must_use]
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.runs as f64 / secs
        }
    }

    /// Mean per-job wall time.
    #[must_use]
    pub fn mean_run(&self) -> Duration {
        if self.runs == 0 {
            Duration::ZERO
        } else {
            self.busy / self.runs as u32
        }
    }

    /// One-line human summary (the sweep engines print this to stderr).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} runs on {} thread(s) in {:.2}s ({:.2} runs/s, mean {:.3}s/run)",
            self.runs,
            self.threads,
            self.wall.as_secs_f64(),
            self.runs_per_sec(),
            self.mean_run().as_secs_f64(),
        )
    }
}

/// Run `f` over every job and return the results **in job order**, plus the
/// sweep timing report. `f(index, &job)` must be a pure function of its
/// arguments (plus read-only shared state) for the parallel result to be
/// bitwise identical to the serial one; the engine guarantees collection
/// order either way.
///
/// `threads` is clamped to `[1, jobs.len()]`. With one thread (or one job)
/// no worker threads are spawned at all — the jobs run inline, so a serial
/// sweep has zero threading overhead and identical panic behavior.
///
/// # Panics
///
/// Propagates the first panicking job's payload after the scope joins.
pub fn run_timed<T, R, F>(jobs: &[T], threads: usize, f: F) -> (Vec<Timed<R>>, SweepReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let started = Instant::now();
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));

    let timed: Vec<Timed<R>> = if threads <= 1 {
        jobs.iter()
            .enumerate()
            .map(|(i, job)| {
                let t0 = Instant::now();
                let value = f(i, job);
                Timed {
                    value,
                    wall: t0.elapsed(),
                }
            })
            .collect()
    } else {
        // One pre-allocated result slot per job: workers claim jobs through
        // an atomic cursor and deposit into their own slot, so no ordering
        // information survives scheduling. A Mutex per slot is uncontended
        // (each slot is locked exactly once) and keeps the code unsafe-free.
        let slots: Vec<Mutex<Option<Timed<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let value = f(i, &jobs[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(Timed {
                        value,
                        wall: t0.elapsed(),
                    });
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope joined, so every slot is filled")
            })
            .collect()
    };

    let busy = timed.iter().map(|t| t.wall).sum();
    let report = SweepReport {
        runs: n,
        threads,
        wall: started.elapsed(),
        busy,
    };
    (timed, report)
}

/// [`run_timed`] without the per-job timing: results only, in job order.
pub fn run_indexed<T, R, F>(jobs: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_timed(jobs, threads, f)
        .0
        .into_iter()
        .map(|t| t.value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_regardless_of_threads() {
        let jobs: Vec<u64> = (0..97).collect();
        let serial = run_indexed(&jobs, 1, |i, &j| (i as u64) * 1000 + j * j);
        for threads in [2, 3, 8, 64] {
            let parallel = run_indexed(&jobs, threads, |i, &j| (i as u64) * 1000 + j * j);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn uneven_job_durations_do_not_reorder_results() {
        // Early jobs sleep longest: with eager workers the later (fast)
        // jobs finish first, exercising the slot-indexed collection.
        let jobs: Vec<u64> = (0..16).collect();
        let out = run_indexed(&jobs, 4, |_, &j| {
            std::thread::sleep(Duration::from_millis(16 - j));
            j * 2
        });
        assert_eq!(out, (0..16).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job_sweeps() {
        let none: Vec<u32> = Vec::new();
        assert!(run_indexed(&none, 8, |_, &j| j).is_empty());
        assert_eq!(run_indexed(&[41u32], 8, |_, &j| j + 1), vec![42]);
    }

    #[test]
    fn report_counts_and_rates() {
        let jobs = [1u32, 2, 3];
        let (timed, report) = run_timed(&jobs, 2, |_, &j| j);
        assert_eq!(timed.len(), 3);
        assert_eq!(report.runs, 3);
        assert_eq!(report.threads, 2);
        assert!(report.runs_per_sec() > 0.0);
        assert!(report.summary().contains("3 runs"));
    }

    #[test]
    fn thread_clamp_never_exceeds_jobs() {
        let (_, report) = run_timed(&[0u8; 2], 100, |_, &j| j);
        assert_eq!(report.threads, 2);
        let (_, report) = run_timed(&[0u8; 2], 0, |_, &j| j);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn flag_overrides_everything() {
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(0)), 1, "zero clamps to one");
    }

    /// A variable lookup over a fixed list (mutating the real environment
    /// would race other tests in this process).
    fn vars<'a>(list: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            list.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| (*v).to_string())
        }
    }

    /// Every knob's rule in one table: a raw value and what it resolves to
    /// (`Debug` of the value) or the junk error's `not …` tail.
    #[test]
    fn knobs_parse_or_name_the_junk() {
        let count =
            |name: &str, raw: &str| positive(&vars(&[(name, raw)]), name).map(|v| format!("{v:?}"));
        let number = |name: &str, raw: &str| {
            unsigned::<u64>(&vars(&[(name, raw)]), name).map(|v| format!("{v:?}"))
        };
        let boolean =
            |name: &str, raw: &str| flag(&vars(&[(name, raw)]), name).map(|v| format!("{v:?}"));
        let sampling =
            |name: &str, raw: &str| parse_sampling(&vars(&[(name, raw)])).map(|e| format!("{e:?}"));
        type Rule<'a> = &'a dyn Fn(&str, &str) -> Result<String, String>;
        let table: [(Rule, &str, &str, Result<&str, &str>); 31] = [
            (&count, "SKIA_STEPS", "2000", Ok("Some(2000)")),
            (&count, "SKIA_STEPS", "junk", Err(POSITIVE)),
            (&count, "SKIA_STEPS", "0", Err(POSITIVE)),
            (&count, "SKIA_STEPS", "-5", Err(POSITIVE)),
            (&count, "SKIA_STEPS", "1e5", Err(POSITIVE)),
            (&count, "SKIA_STEPS", " 2000", Err(POSITIVE)),
            (&count, "SKIA_THREADS", "4", Ok("Some(4)")),
            (&count, "SKIA_THREADS", "", Err(POSITIVE)),
            (&count, "SKIA_THREADS", "-2", Err(POSITIVE)),
            (&number, "SKIA_FUZZ_SEED", "0", Ok("Some(0)")),
            (&number, "SKIA_FUZZ_ITERS", "5000", Ok("Some(5000)")),
            (&number, "SKIA_FUZZ_MILLIS", "30s", Err(UNSIGNED)),
            (&number, "SKIA_FUZZ_SEED", "-1", Err(UNSIGNED)),
            (&boolean, "SKIA_VERBOSE", "1", Ok("Some(true)")),
            (&boolean, "SKIA_VERBOSE", "0", Ok("Some(false)")),
            (&boolean, "SKIA_SPANS", "ON", Ok("Some(true)")),
            (&boolean, "SKIA_SPANS", "off", Ok("Some(false)")),
            (&boolean, "SKIA_VERBOSE", "", Ok("Some(false)")),
            (&boolean, "SKIA_SPANS", "yes", Err("a boolean")),
            (&boolean, "SKIA_VERBOSE", "2", Err("a boolean")),
            (&sampling, "SKIA_SAMPLE", "true", Ok("SamplingEnv { enabled: true, interval: None, k: None, warmup: None, seed: None }")),
            (&sampling, "SKIA_SAMPLE", "off", Ok("SamplingEnv { enabled: false, interval: None, k: None, warmup: None, seed: None }")),
            (&sampling, "SKIA_SAMPLE", "yes", Err("a boolean")),
            (&sampling, "SKIA_SAMPLE_INTERVAL", "0", Err(POSITIVE)),
            (&sampling, "SKIA_SAMPLE_K", "0", Err(POSITIVE)),
            (&sampling, "SKIA_SAMPLE_K", "three", Err(POSITIVE)),
            (&sampling, "SKIA_SAMPLE_K", "", Err(POSITIVE)),
            (&sampling, "SKIA_SAMPLE_WARMUP", "0", Ok("SamplingEnv { enabled: false, interval: None, k: None, warmup: Some(0), seed: None }")),
            (&sampling, "SKIA_SAMPLE_WARMUP", "-1", Err(UNSIGNED)),
            (&sampling, "SKIA_SAMPLE_SEED", "ninety", Err(UNSIGNED)),
            (&sampling, "SKIA_UNRELATED", "junk", Ok("SamplingEnv { enabled: false, interval: None, k: None, warmup: None, seed: None }")),
        ];
        for (rule, name, raw, want) in table {
            let want = want
                .map(str::to_string)
                .map_err(|what| format!("{name}={raw:?}: not {what}"));
            assert_eq!(rule(name, raw), want, "{name}={raw:?}");
        }
        assert_eq!(flag(&vars(&[]), "SKIA_VERBOSE"), Ok(None), "unset");
        assert_eq!(
            parse_sampling(&vars(&[
                ("SKIA_SAMPLE", "1"),
                ("SKIA_SAMPLE_INTERVAL", "8000"),
                ("SKIA_SAMPLE_K", "5"),
                ("SKIA_SAMPLE_WARMUP", "0"),
                ("SKIA_SAMPLE_SEED", "99"),
            ])),
            Ok(SamplingEnv {
                enabled: true,
                interval: Some(8000),
                k: Some(5),
                warmup: Some(0),
                seed: Some(99),
            })
        );
    }

    #[test]
    fn shared_state_is_readable_from_workers() {
        let table: Vec<u64> = (0..256).map(|i| i * 3).collect();
        let jobs: Vec<usize> = (0..256).collect();
        let out = run_indexed(&jobs, 8, |_, &j| table[j]);
        assert_eq!(out, table);
    }
}

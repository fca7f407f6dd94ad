//! `skia-perfbench`: the repository benchmark's measuring program.
//!
//! It drives the public API the figure binaries use (`Sweep`, `Workload`,
//! `workload`, `recorded_trace`, `Args`/`JsonEmitter`) and measures from
//! outside: wall clocks around public calls, counts read from the public
//! `SimStats` and `Snapshot`. `perfbench/run.py` builds it and prepares its
//! cache directory; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! skia-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    --out <dir> [--workers <n>] [--expected <file>] [--jobs <n>]
//! skia-perfbench prewarm --workload <name> --seed <n> [--workers <n>]
//! skia-perfbench gen-expected --out <file> --fig16 <results/fig16.md> [--workers <n>]
//! ```
//!
//! `SKIA_CACHE` must name the benchmark's own cache directory; any other
//! `SKIA_*` variable is refused, since each one changes what runs.

mod expected;
mod jobs;
mod layers;
mod metrics;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use skia_experiments::{
    recorded_trace, sampling_config_for, workload, Args, JsonEmitter, SamplingEnv, Sweep, Workload,
};
use skia_frontend::SimStats;
use skia_telemetry::Snapshot;
use skia_workloads::{RecordedTrace, SamplingPlan, TraceCacheOutcome};

use crate::expected::Entry;
use crate::jobs::{Job, Kind, Mode};
use crate::metrics::Report;

/// The expected outputs committed beside this program.
const EXPECTED: &str = include_str!("../expected.tsv");

/// Timed repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("skia-perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parsed flags of a subcommand.
#[derive(Debug, Default)]
struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    fn parse(argv: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument {a}"))?;
            let v = it.next().ok_or_else(|| format!("{a} requires a value"))?;
            values.insert(name.to_string(), v.clone());
        }
        Ok(Flags { values })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: invalid value")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Result<Kind, String> {
        let name: String = self.get("workload", None)?;
        Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))
    }

    fn workers(&self) -> Result<usize, String> {
        let n: usize = self.get("workers", Some(2))?;
        if n == 0 {
            return Err("--workers must be at least 1".into());
        }
        Ok(n)
    }
}

fn cli(argv: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "run" => {
            let f = Flags::parse(
                rest,
                &[
                    "workload", "seed", "seconds", "trace", "out", "workers", "expected", "jobs",
                ],
            )?;
            let trace: u8 = f.get("trace", Some(0))?;
            if trace > 1 {
                return Err("--trace must be 0 or 1".into());
            }
            let expected_text = match f.values.get("expected") {
                Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
                None => EXPECTED.to_string(),
            };
            let opts = RunOpts {
                kind: f.workload()?,
                seed: f.get("seed", None)?,
                seconds: f.get("seconds", None)?,
                trace: trace == 1,
                out: PathBuf::from(f.get::<String>("out", None)?),
                workers: f.workers()?,
                expected: expected::parse(&expected_text)?,
                jobs: f.get("jobs", Some(usize::MAX))?,
            };
            let cache = check_env()?;
            std::fs::create_dir_all(&opts.out)
                .map_err(|e| format!("{}: {e}", opts.out.display()))?;
            let report = run(&opts, &cache);
            println!("{}", report.summary());
            println!("{}", report.result_line());
            Ok(if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "prewarm" => {
            let f = Flags::parse(rest, &["workload", "seed", "workers"])?;
            check_env()?;
            let kind = f.workload()?;
            let profiles = jobs::profiles(&kind.draw(f.get("seed", None)?));
            setup(&profiles, kind.steps(), f.workers()?, None);
            Ok(ExitCode::SUCCESS)
        }
        "gen-expected" => {
            let f = Flags::parse(rest, &["out", "fig16", "workers"])?;
            check_env()?;
            let out: String = f.get("out", None)?;
            let fig16: String = f.get("fig16", None)?;
            let fig16 = std::fs::read_to_string(&fig16).map_err(|e| format!("{fig16}: {e}"))?;
            let entries = gen_expected(f.workers()?);
            let errors = expected::check_fig16(&entries, &fig16, skia_experiments::DEFAULT_STEPS);
            if !errors.is_empty() {
                return Err(format!("expected outputs disagree with fig16: {errors:#?}"));
            }
            std::fs::write(&out, expected::render(&entries)).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {} expected outputs to {out}", entries.len());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Refuse every `SKIA_*` variable but `SKIA_CACHE`, which must name a
/// cache directory; returns that directory.
fn check_env() -> Result<PathBuf, String> {
    check_env_vars(std::env::vars_os().map(|(k, v)| {
        (
            k.to_string_lossy().into_owned(),
            v.to_string_lossy().into_owned(),
        )
    }))
}

fn check_env_vars(vars: impl Iterator<Item = (String, String)>) -> Result<PathBuf, String> {
    let mut cache = None;
    let mut refused = Vec::new();
    for (k, v) in vars {
        if k == "SKIA_CACHE" {
            cache = Some(v);
        } else if k.starts_with("SKIA_") {
            refused.push(k);
        }
    }
    if !refused.is_empty() {
        refused.sort();
        return Err(format!(
            "refusing to run with {} set: it changes what the benchmark runs",
            refused.join(", ")
        ));
    }
    match cache {
        Some(v) if !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off")) => {
            Ok(PathBuf::from(v))
        }
        _ => Err("SKIA_CACHE must name the benchmark's own cache directory".into()),
    }
}

/// Options of one measured run.
struct RunOpts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    workers: usize,
    expected: BTreeMap<expected::Key, Entry>,
    jobs: usize,
}

/// One profile made ready: program image plus recorded trace.
struct Ready {
    workload: Workload,
    trace: RecordedTrace,
    outcome: TraceCacheOutcome,
    program: Duration,
    record: Duration,
}

/// Load (or generate) every profile's program and trace, in parallel.
/// With a tracer, each call is recorded as a span.
fn setup(
    profiles: &[&'static str],
    steps: usize,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Vec<Ready> {
    skia_runner::run_indexed(profiles, workers, |_, &name| {
        let t = Instant::now();
        let workload = Workload::by_name(name);
        let program = t.elapsed();
        let (trace, outcome) = workload.record_trace(steps);
        let record = t.elapsed() - program;
        if let Some(tr) = tracer {
            tr.record(format!("workloads.program:{name}"), t, program);
            tr.record(format!("workloads.trace:{name}"), t + program, record);
        }
        Ready {
            workload,
            trace,
            outcome,
            program,
            record,
        }
    })
}

/// Remove the program and trace files of the cache directory.
fn empty_cache(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("program-") || name.starts_with("trace-") {
            std::fs::remove_file(e.path())
                .unwrap_or_else(|err| panic!("removing {}: {err}", e.path().display()));
        }
    }
}

/// Checks each job's stats against the expected outputs.
struct Checker<'a> {
    expected: &'a BTreeMap<expected::Key, Entry>,
    steps: usize,
    mode: &'static str,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker<'_> {
    /// Count `jobs`; `stats` is `None` when the run panicked.
    fn check(&mut self, jobs: &[Job], stats: Option<&[SimStats]>) {
        self.attempted += jobs.len() as u64;
        let Some(stats) = stats.filter(|s| s.len() == jobs.len()) else {
            self.failed += jobs.len() as u64;
            self.notes.push("a run panicked".into());
            return;
        };
        for (j, s) in jobs.iter().zip(stats) {
            let key = expected::key(j.profile, &j.config.label(), self.steps, self.mode);
            match self.expected.get(&key) {
                Some(e) if e.digest == expected::digest(s) => {}
                Some(_) => {
                    self.failed += 1;
                    self.notes.push(format!("digest mismatch: {key:?}"));
                }
                None => {
                    self.failed += 1;
                    self.notes.push(format!("no expected output for {key:?}"));
                }
            }
        }
    }
}

/// One timed repetition of the untraced workload.
struct Rep {
    /// Every setup timed in the repetition; the last one preceded the sweep.
    setups: Vec<f64>,
    sim: f64,
    wall: f64,
    /// Peak resident set size from the last setup to the end of the sweep.
    peak_rss_mb: f64,
    stats: Option<Vec<SimStats>>,
}

/// The emitter of the emitting workload, writing under `out`.
fn emitter(out: &Path) -> JsonEmitter {
    Args {
        emit_json: Some(out.join("telemetry.json")),
        ..Args::default()
    }
    .emitter()
}

fn sweep(kind: Kind, jobs: &[Job], workers: usize) -> Sweep {
    let mut sweep = Sweep::new(workers).quiet();
    if kind.mode() == Mode::Sampled {
        sweep = sweep.sampled(sampling_env());
    }
    for j in jobs {
        sweep.add(j.profile, j.frontend.clone(), kind.steps());
    }
    sweep
}

/// `SKIA_SAMPLE=1` with every other sampling knob at its default.
fn sampling_env() -> SamplingEnv {
    SamplingEnv {
        enabled: true,
        ..SamplingEnv::default()
    }
}

/// Setup, simulate and emit once, the way a figure binary does. Extra
/// setups are timed first, for a steadier `setup_s`.
fn untraced_rep(o: &RunOpts, cache: &Path, jobs: &[Job], profiles: &[&'static str]) -> Rep {
    let mut setups = Vec::new();
    let mut timed_setup = || {
        if o.kind.cold() {
            empty_cache(cache);
        }
        let t0 = Instant::now();
        let ready = setup(profiles, o.kind.steps(), o.workers, None);
        setups.push(t0.elapsed().as_secs_f64());
        (t0, ready)
    };
    for _ in 1..o.kind.setups_per_rep() {
        drop(timed_setup());
    }
    reset_peak_rss();
    let (t0, ready) = timed_setup();
    let t1 = Instant::now();
    let mut sim = 0.0;
    let stats = catch_unwind(AssertUnwindSafe(|| {
        let sweep = sweep(o.kind, jobs, o.workers);
        if o.kind.mode() == Mode::Emit {
            let mut em = emitter(&o.out);
            let stats = sweep.run(&mut em);
            sim = t1.elapsed().as_secs_f64();
            em.finish();
            stats
        } else {
            let stats = sweep.run_collect();
            sim = t1.elapsed().as_secs_f64();
            stats
        }
    }))
    .ok();
    let wall = t0.elapsed().as_secs_f64();
    drop(ready);
    Rep {
        setups,
        sim,
        wall,
        peak_rss_mb: peak_rss_mb(),
        stats,
    }
}

/// One job's outcome in a traced repetition.
struct JobRun {
    stats: SimStats,
    snapshot: Option<Snapshot>,
    /// Steps simulated (warmup and measure slices when sampled).
    replayed: u64,
    /// Steps the stats stand for.
    represented: u64,
    plan: Duration,
    /// Simulation time, the plan build excluded.
    wall: Duration,
}

/// Run one job through the public `Workload` entry points.
fn run_job(
    kind: Kind,
    job: &Job,
    w: &Workload,
    trace: &RecordedTrace,
    instrumented: bool,
) -> JobRun {
    let t = Instant::now();
    let steps = kind.steps();
    let cfg = job.frontend.clone();
    let (stats, snapshot, replayed, plan) = if kind.mode() == Mode::Sampled {
        let p0 = Instant::now();
        let plan = SamplingPlan::build(trace, steps, &sampling_config_for(steps, &sampling_env()));
        let plan_t = p0.elapsed();
        let replayed = plan.replayed_steps() as u64;
        if instrumented {
            let (s, snap) = w.run_sampled_instrumented_trace(cfg, trace, &plan, None);
            (s, Some(snap), replayed, plan_t)
        } else {
            let s = w.run_sampled_trace(cfg, trace, &plan, None);
            (s, None, replayed, plan_t)
        }
    } else if instrumented {
        let (s, snap) = w.run_instrumented_trace(cfg, trace, steps, Some(JsonEmitter::TRACE));
        (s, Some(snap), steps as u64, Duration::ZERO)
    } else {
        let s = w.run_trace(cfg, trace, steps);
        (s, None, steps as u64, Duration::ZERO)
    };
    JobRun {
        stats,
        snapshot,
        replayed,
        represented: steps as u64,
        plan,
        wall: t.elapsed() - plan,
    }
}

/// One timed repetition of the traced workload.
struct TracedRep {
    wall: f64,
    program_s: f64,
    trace_s: f64,
    cache_read: u64,
    cache_written: u64,
    trace_hits: usize,
    traces: usize,
    jobs: Option<Vec<JobRun>>,
    workers: usize,
    busy: f64,
    jobs_wall: f64,
    straggler: f64,
    emit_ms: f64,
    json_bytes: u64,
}

/// The traced counterpart of [`untraced_rep`]: the same setup and jobs,
/// each public call wrapped in a span, jobs run one by one through
/// `skia_runner::run_timed`.
fn traced_rep(
    o: &RunOpts,
    cache: &Path,
    jobs: &[Job],
    profiles: &[&'static str],
    tracer: &Tracer,
) -> TracedRep {
    if o.kind.cold() {
        empty_cache(cache);
    }
    let io0 = skia_workloads::trace_cache_io();
    let t0 = Instant::now();
    let ready = setup(profiles, o.kind.steps(), o.workers, Some(tracer));
    let io1 = skia_workloads::trace_cache_io();
    let emit = o.kind.mode() == Mode::Emit;
    let ends = Mutex::new(BTreeMap::<u64, Instant>::new());
    let tj = Instant::now();
    let runs = catch_unwind(AssertUnwindSafe(|| {
        skia_runner::run_timed(jobs, o.workers, |_, job| {
            let r = &ready[profiles
                .iter()
                .position(|p| *p == job.profile)
                .expect("every job's profile is set up")];
            let start = Instant::now();
            let run = run_job(o.kind, job, &r.workload, &r.trace, emit);
            if !run.plan.is_zero() {
                tracer.record(format!("workloads.plan:{}", job.profile), start, run.plan);
            }
            let name = format!("frontend.job:{}:{}", job.profile, job.config.label());
            tracer.record(name, start + run.plan, run.wall);
            ends.lock()
                .expect("a job panicked while holding the end-time map")
                .insert(thread_index(), Instant::now());
            run
        })
    }))
    .ok();
    let jobs_wall = tj.elapsed().as_secs_f64();
    let (mut emit_ms, mut json_bytes) = (0.0, 0);
    let (busy, runs) = match runs {
        Some((timed, report)) => {
            let runs: Vec<JobRun> = timed.into_iter().map(|t| t.value).collect();
            if emit {
                let te = Instant::now();
                let mut em = emitter(&o.out);
                for r in &runs {
                    em.record(r.snapshot.as_ref().expect("emitting jobs are instrumented"));
                }
                em.finish();
                tracer.record("telemetry.emit".into(), te, te.elapsed());
                emit_ms = te.elapsed().as_secs_f64() * 1e3;
                json_bytes = std::fs::metadata(o.out.join("telemetry.json")).map_or(0, |m| m.len());
            }
            (report.busy.as_secs_f64(), Some(runs))
        }
        None => (0.0, None),
    };
    let wall = t0.elapsed().as_secs_f64();
    let ends: Vec<Instant> = ends
        .into_inner()
        .expect("end-time map")
        .into_values()
        .collect();
    let straggler = match (ends.iter().min(), ends.iter().max()) {
        (Some(a), Some(b)) => (*b - *a).as_secs_f64(),
        _ => 0.0,
    };
    TracedRep {
        wall,
        program_s: ready.iter().map(|r| r.program.as_secs_f64()).sum(),
        trace_s: ready.iter().map(|r| r.record.as_secs_f64()).sum(),
        cache_read: io1.bytes_read - io0.bytes_read,
        cache_written: io1.bytes_written - io0.bytes_written,
        trace_hits: ready
            .iter()
            .filter(|r| r.outcome == TraceCacheOutcome::DiskHit)
            .count(),
        traces: ready.len(),
        jobs: runs,
        workers: o.workers,
        busy,
        jobs_wall,
        straggler,
        emit_ms,
        json_bytes,
    }
}

/// A small per-thread index for span records.
fn thread_index() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// The benchmark's own spans, kept in memory and written out at the end
/// as a Chrome trace.
struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<(String, u64, f64, f64)>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a span named `name` that began at `start` and lasted `dur`.
    fn record(&self, name: String, start: Instant, dur: Duration) {
        let ts = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("span list poisoned").push((
            name,
            thread_index(),
            ts,
            dur.as_secs_f64() * 1e6,
        ));
    }

    /// Time `f` as a span.
    fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name.to_string(), t, t.elapsed());
        r
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let events: Vec<String> = spans
            .iter()
            .map(|(name, tid, ts, dur)| {
                format!(
                    "{{\"name\":{name:?},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.1},\"dur\":{dur:.1}}}"
                )
            })
            .collect();
        std::fs::write(
            path,
            format!(
                "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
                events.join(",\n")
            ),
        )
    }
}

/// Fill the process memos and run one untimed job.
fn warm_up(o: &RunOpts, jobs: &[Job], profiles: &[&'static str]) {
    skia_runner::run_indexed(profiles, o.workers, |_, &p| {
        drop(workload(p));
        drop(recorded_trace(p, o.kind.steps()));
    });
    drop(catch_unwind(AssertUnwindSafe(|| {
        sweep(o.kind, &jobs[..1], 1).run_collect()
    })));
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Return freed heap pages to the kernel, then reset `VmHWM` to the
/// current resident set size, so each repetition's peak is its own live
/// data plus what it allocates, whatever earlier repetitions left in the
/// allocator. Where the kernel does not allow the reset, the peaks read are
/// the process's.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time from any thread; it only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
    drop(std::fs::write("/proc/self/clear_refs", "5"));
}

fn run<'a>(o: &'a RunOpts, cache: &Path) -> Report<'a> {
    let mut jobs = o.kind.draw(o.seed);
    jobs.truncate(o.jobs.max(1));
    let profiles = jobs::profiles(&jobs);
    let mode = if o.kind.mode() == Mode::Sampled {
        expected::SAMPLED
    } else {
        expected::FULL
    };
    let mut ck = Checker {
        expected: &o.expected,
        steps: o.kind.steps(),
        mode,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let tracer = Tracer::new();
    warm_up(o, &jobs, &profiles);

    let start = Instant::now();
    let mut reps = Vec::new();
    let mut traced = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < o.seconds {
        let rep = tracer.span("bench.untraced_rep", || {
            untraced_rep(o, cache, &jobs, &profiles)
        });
        ck.check(&jobs, rep.stats.as_deref());
        reps.push(rep);
        if o.trace {
            let t = tracer.span("bench.traced_rep", || {
                traced_rep(o, cache, &jobs, &profiles, &tracer)
            });
            let stats: Option<Vec<SimStats>> = t
                .jobs
                .as_ref()
                .map(|r| r.iter().map(|j| j.stats.clone()).collect());
            ck.check(&jobs, stats.as_deref());
            if stats != reps[reps.len() - 1].stats {
                ck.notes
                    .push("traced SimStats differ from the untraced run's".into());
            }
            traced.push(t);
        }
    }
    let mut report = Report::new(o.kind, jobs.clone(), &o.expected, ck.steps);
    report.end_to_end(&reps);
    if o.trace {
        // The other mode: snapshots for the plain workloads, plain job
        // times for the emitting one.
        let second: Option<Vec<JobRun>> = catch_unwind(AssertUnwindSafe(|| {
            skia_runner::run_indexed(&jobs, o.workers, |_, job| {
                let w = workload(job.profile);
                let t = recorded_trace(job.profile, o.kind.steps());
                tracer.span("bench.second_pass_job", || {
                    run_job(o.kind, job, &w, &t, o.kind.mode() != Mode::Emit)
                })
            })
        }))
        .ok();
        let stats: Option<Vec<SimStats>> = second
            .as_ref()
            .map(|r| r.iter().map(|j| j.stats.clone()).collect());
        ck.check(&jobs, stats.as_deref());
        let costs = tracer.span("bench.layer_replays", || {
            let mut total = layers::LayerCosts::default();
            for p in &profiles {
                let w = workload(p);
                total.add(&layers::replay(
                    &w.program,
                    &recorded_trace(p, o.kind.steps()),
                ));
            }
            total
        });
        report.per_layer(&reps, &traced, second.as_deref(), &costs);
        if let Err(e) = tracer.write(&o.out.join(format!("trace-{}.json", o.kind.name()))) {
            ck.notes.push(format!("writing the span trace: {e}"));
        }
    }
    report.finish(ck.attempted, ck.failed, ck.notes);
    report
}

/// Simulate every workload's whole candidate pool and summarize each job.
fn gen_expected(workers: usize) -> BTreeMap<expected::Key, Entry> {
    let profiles: Vec<&'static str> = jobs::PROFILE_PAIRS.iter().flatten().copied().collect();
    let mut keys: Vec<(Kind, &'static str, jobs::Config, bool)> = Vec::new();
    for kind in Kind::ALL {
        for p in &profiles {
            for c in kind.pool_configs() {
                keys.push((kind, p, c, false));
                if kind.mode() == Mode::Sampled {
                    keys.push((kind, p, c, true));
                }
            }
        }
    }
    let entries = skia_runner::run_indexed(&keys, workers, |i, &(kind, p, c, sampled)| {
        let w = workload(p);
        let steps = kind.steps();
        let trace = recorded_trace(p, steps);
        let t = Instant::now();
        let stats = if sampled {
            let plan =
                SamplingPlan::build(&trace, steps, &sampling_config_for(steps, &sampling_env()));
            w.run_sampled_trace(c.frontend(), &trace, &plan, None)
        } else {
            w.run_trace(c.frontend(), &trace, steps)
        };
        eprintln!(
            "[{i}/{}] {p} {} {steps} {}: {:.0} ms",
            keys.len(),
            c.label(),
            if sampled { "sampled" } else { "full" },
            t.elapsed().as_secs_f64() * 1e3
        );
        let mode = if sampled {
            expected::SAMPLED
        } else {
            expected::FULL
        };
        (expected::key(p, &c.label(), steps, mode), Entry::of(&stats))
    });
    entries.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(vars: &[(&str, &str)]) -> Result<PathBuf, String> {
        check_env_vars(vars.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn only_the_benchmark_cache_variable_is_accepted() {
        assert_eq!(
            env(&[("SKIA_CACHE", "c"), ("PATH", "/bin")]),
            Ok(PathBuf::from("c"))
        );
        let err = env(&[("SKIA_CACHE", "c"), ("SKIA_STEPS", "1000")]).unwrap_err();
        assert!(err.contains("SKIA_STEPS"), "{err}");
        for knob in ["SKIA_CHUNK", "SKIA_THREADS", "SKIA_SAMPLE", "SKIA_SPANS"] {
            assert!(env(&[("SKIA_CACHE", "c"), (knob, "1")]).is_err(), "{knob}");
        }
        assert!(env(&[]).is_err(), "the cache directory is required");
        assert!(env(&[("SKIA_CACHE", "off")]).is_err(), "caching must be on");
    }

    #[test]
    fn flags_reject_unknown_and_missing_values() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(Flags::parse(&argv(&["--seed", "1"]), &["seed"]).is_ok());
        assert!(Flags::parse(&argv(&["--sed", "1"]), &["seed"]).is_err());
        assert!(Flags::parse(&argv(&["--seed"]), &["seed"]).is_err());
        let f = Flags::parse(&argv(&["--workers", "0"]), &["workers"]).unwrap();
        assert!(f.workers().is_err());
    }
}

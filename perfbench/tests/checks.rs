//! End-to-end tests of the benchmark's own checks, run against the built
//! measuring program on truncated job lists (`--jobs`), each in its own
//! cache directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use skia_telemetry::json::JsonValue;

const BIN: &str = env!("CARGO_BIN_EXE_skia-perfbench");

/// A fresh directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    drop(std::fs::remove_dir_all(&dir));
    std::fs::create_dir_all(dir.join("cache")).unwrap();
    dir
}

struct Outcome {
    code: Option<i32>,
    stdout: String,
}

impl Outcome {
    fn result(&self) -> JsonValue {
        let last = self.stdout.trim().lines().last().expect("some output");
        JsonValue::parse(last).expect("the last line is JSON")
    }

    fn metrics(&self) -> BTreeMap<String, f64> {
        let r = self.result();
        r.get("metrics")
            .and_then(JsonValue::as_object)
            .expect("a metrics object")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("value").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect()
    }
}

/// Run `skia-perfbench run` on the first `jobs` jobs of seed 1.
fn run(dir: &Path, workload: &str, jobs: usize, args: &[&str], env: &[(&str, &str)]) -> Outcome {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0",
    ])
    .args(["--jobs", &jobs.to_string()])
    .arg("--out")
    .arg(dir.join("out"))
    .args(args)
    .env("SKIA_CACHE", dir.join("cache"));
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("the measuring program runs");
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).unwrap(),
    }
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).unwrap();
    let mut names: Vec<String> = doc
        .get(list)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_planted_wrong_digest_is_a_failed_job_and_a_failed_run() {
    let dir = fresh_dir("planted");
    let expected = include_str!("../expected.tsv");
    // The first two jobs of btb-capacity-emit are Btb(1024) on the two
    // drawn profiles; corrupt every Btb(1024) digest.
    let planted: String = expected
        .lines()
        .map(|l| {
            let mut f: Vec<String> = l.split('\t').map(String::from).collect();
            if f.len() == 8 && f[1] == "btb1024" && f[2] == "400000" {
                f[4] = format!("{:016x}", u64::from_str_radix(&f[4], 16).unwrap() ^ 1);
            }
            f.join("\t")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let path = dir.join("planted.tsv");
    std::fs::write(&path, planted).unwrap();
    let out = run(
        &dir,
        "btb-capacity-emit",
        2,
        &["--expected", path.to_str().unwrap()],
        &[],
    );
    assert_ne!(out.code, Some(0), "{}", out.stdout);
    let r = out.result();
    assert_eq!(r.get("correct"), Some(&JsonValue::Bool(false)));
    let attempted = r.get("attempted").and_then(JsonValue::as_u64).unwrap();
    let failed = r.get("failed").and_then(JsonValue::as_u64).unwrap();
    assert!(attempted >= 6, "three repetitions of two jobs");
    assert_eq!(failed, attempted, "{}", out.stdout);

    let clean = run(&dir, "btb-capacity-emit", 2, &[], &[]);
    assert_eq!(clean.code, Some(0), "{}", clean.stdout);
    assert_eq!(
        clean.result().get("failed").and_then(JsonValue::as_u64),
        Some(0)
    );
}

#[test]
fn a_set_skia_knob_is_refused() {
    let dir = fresh_dir("refused");
    for knob in ["SKIA_STEPS", "SKIA_THREADS", "SKIA_SAMPLE"] {
        let out = run(&dir, "btb-capacity-emit", 1, &[], &[(knob, "1000")]);
        assert_eq!(out.code, Some(2), "{knob}");
        assert!(out.stdout.is_empty(), "no result is printed");
    }
}

#[test]
fn printed_metric_names_equal_the_declared_names() {
    let dir = fresh_dir("names");
    let untraced = run(&dir, "btb-capacity-emit", 2, &["--trace", "0"], &[]);
    assert_eq!(untraced.code, Some(0), "{}", untraced.stdout);
    let names: Vec<String> = untraced.metrics().into_keys().collect();
    assert_eq!(names, declared("end_to_end"));
    let traced = run(&dir, "btb-capacity-emit", 2, &["--trace", "1"], &[]);
    assert_eq!(traced.code, Some(0), "{}", traced.stdout);
    let names: Vec<String> = traced.metrics().into_keys().collect();
    assert_eq!(names, declared("per_layer"));
}

/// Metrics that are counts or ratios of counts, which must repeat exactly.
fn deterministic(m: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    m.iter()
        .filter(|(k, _)| {
            k.ends_with("_pk")
                || k.ends_with("_ratio")
                || k.starts_with("sim.")
                || k.starts_with("workloads.cache_mb")
                || *k == "workloads.replayed_steps"
                || *k == "workloads.compression"
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The traced run checks every job of its untraced, traced and second
/// passes against the expected outputs and against each other, so a
/// correct traced run means the traced and untraced `SimStats` are equal;
/// its counts must also not depend on the worker count.
fn traced_counts_repeat_across_workers(workload: &str, jobs: usize) {
    let dir = fresh_dir(workload);
    let mut seen = Vec::new();
    for workers in ["1", "2"] {
        let out = run(
            &dir,
            workload,
            jobs,
            &["--trace", "1", "--workers", workers],
            &[],
        );
        assert_eq!(out.code, Some(0), "{}", out.stdout);
        assert_eq!(
            out.result().get("failed").and_then(JsonValue::as_u64),
            Some(0)
        );
        seen.push(deterministic(&out.metrics()));
    }
    assert!(seen[0].len() > 20, "{:?}", seen[0]);
    assert_eq!(seen[0], seen[1]);
}

#[test]
fn sbb_sweep_counts_are_equal_at_one_and_two_workers() {
    traced_counts_repeat_across_workers("skia-sbb-sweep", 4);
}

#[test]
fn sampled_counts_are_equal_at_one_and_two_workers() {
    traced_counts_repeat_across_workers("sampled-long-cold", 2);
}

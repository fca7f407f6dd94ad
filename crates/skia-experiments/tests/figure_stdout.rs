//! Figure-binary stdout is frozen: every paper table and figure prints
//! byte-identical output to the committed goldens.
//!
//! The oracle lockstep harness covers the simulator core; this suite covers
//! everything between the simulator and the paper — sweep drivers,
//! averaging, table formatting — at the 2000-step CI scale, serially and on
//! a thread pool. To re-bless after an *intentional* results change, rerun
//! each binary with `SKIA_STEPS=2000 SKIA_CACHE=0 SKIA_THREADS=1` and
//! overwrite `tests/golden_stdout/<name>.stdout`.

use std::path::Path;
use std::process::Command;

/// The twelve paper binaries and their compiled paths. `env!` needs a
/// literal per binary, hence the table.
const FIGURES: [(&str, &str); 12] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("fig01", env!("CARGO_BIN_EXE_fig01")),
    ("fig03", env!("CARGO_BIN_EXE_fig03")),
    ("fig06", env!("CARGO_BIN_EXE_fig06")),
    ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ("fig14", env!("CARGO_BIN_EXE_fig14")),
    ("fig15", env!("CARGO_BIN_EXE_fig15")),
    ("fig16", env!("CARGO_BIN_EXE_fig16")),
    ("fig17", env!("CARGO_BIN_EXE_fig17")),
    ("fig18", env!("CARGO_BIN_EXE_fig18")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
];

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_stdout")
        .join(format!("{name}.stdout"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// Run one figure binary at CI scale and return its stdout bytes.
fn run(name: &str, exe: &str, threads: &str) -> Vec<u8> {
    let out = Command::new(exe)
        .env("SKIA_STEPS", "2000")
        .env("SKIA_CACHE", "0")
        .env("SKIA_THREADS", threads)
        .output()
        .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"));
    assert!(
        out.status.success(),
        "{name} exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_matches_golden(threads: &str) {
    let mut diverged = Vec::new();
    for (name, exe) in FIGURES {
        let got = run(name, exe, threads);
        if got != golden(name) {
            diverged.push(name);
        }
    }
    assert!(
        diverged.is_empty(),
        "stdout diverged from golden (threads={threads}): {diverged:?}\n\
         If the results change is intentional, re-bless per the module docs."
    );
}

/// Serial: the exact configuration the goldens were captured under.
#[test]
fn figures_match_golden_serial() {
    assert_matches_golden("1");
}

/// Thread pool: parallel sweep scheduling may not leak into the tables.
#[test]
fn figures_match_golden_threaded() {
    assert_matches_golden("4");
}

/// A junk step budget is fatal, like an unknown flag: the binary exits
/// with an error naming the variable and its value instead of silently
/// running the 400k-step default.
#[test]
fn junk_step_budget_fails_loudly() {
    for junk in ["junk", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig01"))
            .env("SKIA_STEPS", junk)
            .env("SKIA_CACHE", "0")
            .output()
            .expect("fig01 spawns");
        assert_eq!(out.status.code(), Some(2), "SKIA_STEPS={junk}");
        assert!(
            out.stdout.is_empty(),
            "no table printed for SKIA_STEPS={junk}"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("SKIA_STEPS=\"{junk}\"")),
            "error names the variable and value: {err}"
        );
    }
}

/// A junk thread count is fatal too, by the same rule as the step budget.
#[test]
fn junk_thread_count_fails_loudly() {
    for junk in ["junk", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig01"))
            .env("SKIA_STEPS", "2000")
            .env("SKIA_CACHE", "0")
            .env("SKIA_THREADS", junk)
            .output()
            .expect("fig01 spawns");
        assert_eq!(out.status.code(), Some(2), "SKIA_THREADS={junk}");
        assert!(
            out.stdout.is_empty(),
            "no table printed for SKIA_THREADS={junk}"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!(
                "error: SKIA_THREADS=\"{junk}\": not a positive integer"
            )),
            "error names the variable and value: {err}"
        );
    }
}

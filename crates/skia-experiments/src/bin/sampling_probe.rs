//! Sampling probe: measure the sampled-vs-full speedup and error profile at
//! paper scale, and (re)generate the committed error pins.
//!
//! Not a paper figure — the development/CI tool behind the phase-sampling
//! acceptance criteria. For each figure workload it replays the recorded
//! trace twice — full replay, then the default sampling plan — and
//! prints per-workload wall times, the realized compression, and the
//! relative error of every pinned and informational counter. With
//! `--write-pins` it rewrites `ci/sampling-error-pins.json` from the same
//! runs (the file the `sampling_error_pins` test enforces).
//!
//! `SKIA_STEPS` scales the run; the committed pins are only meaningful at
//! the default 400k, so `--write-pins` refuses other step counts.

use std::time::Instant;

use skia_experiments::pins::{PinReport, PIN_COUNTERS, PIN_STEPS, PIN_WORKLOADS};
use skia_experiments::{f2, pct, recorded_trace, row, steps_from_env, workload};
use skia_workloads::{SamplingConfig, SamplingPlan};

fn main() {
    let write_pins = {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            [] => false,
            ["--write-pins"] => true,
            _ => {
                eprintln!("usage: sampling_probe [--write-pins]");
                std::process::exit(2);
            }
        }
    };
    let steps = steps_from_env();
    if write_pins && steps != PIN_STEPS {
        eprintln!("--write-pins requires the default {PIN_STEPS} steps (got SKIA_STEPS={steps})");
        std::process::exit(2);
    }

    let config = skia_experiments::pins::pin_config();
    let mut header = vec!["benchmark".into(), "full s".into(), "sampled s".into()];
    header.extend(["speedup".into(), "compress".into()]);
    header.extend(PIN_COUNTERS.iter().map(|&(n, _)| n.to_string()));
    row(&header);

    let (mut tot_full, mut tot_sampled) = (0.0f64, 0.0f64);
    for name in PIN_WORKLOADS {
        let w = workload(name);
        let trace = recorded_trace(name, steps);

        let t0 = Instant::now();
        let truth = w.run_trace(config.clone(), &trace, steps);
        let full_s = t0.elapsed().as_secs_f64();

        // The sampled side pays plan construction too — that cost is part
        // of the speedup claim, not overhead to hide.
        let t1 = Instant::now();
        let plan = SamplingPlan::build(&trace, steps, &SamplingConfig::for_steps(steps));
        let est = w.run_sampled_trace(config.clone(), &trace, &plan, None);
        let sampled_s = t1.elapsed().as_secs_f64();

        tot_full += full_s;
        tot_sampled += sampled_s;
        let mut cells = vec![
            name.to_string(),
            format!("{full_s:.3}"),
            format!("{sampled_s:.3}"),
            f2(full_s / sampled_s),
            f2(plan.compression()),
        ];
        cells.extend(
            PIN_COUNTERS
                .iter()
                .map(|&(_, get)| pct(skia_experiments::pins::rel_err(get(&est), get(&truth)))),
        );
        row(&cells);
    }
    println!();
    println!(
        "total: full {:.2}s, sampled {:.2}s, speedup {:.2}x",
        tot_full,
        tot_sampled,
        tot_full / tot_sampled
    );

    if write_pins {
        // Recompute through the shared pins path (workload + trace memos
        // make the extra replays cheap relative to clarity: the committed
        // file comes from exactly the code the test recomputes with).
        let report = PinReport::compute(steps);
        report
            .validate()
            .unwrap_or_else(|e| panic!("refusing to write failing pins: {e}"));
        let path = PinReport::committed_path();
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("pins written to {}", path.display());
    }
}

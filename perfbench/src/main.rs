//! Wall-clock benchmark of the Vortex engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|scan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives a `Region` built with `RegionConfig::default()` (instant
//! storage, no faults) with one of two workloads (see `BENCHMARK.json`
//! and the workload modules), checks every answer against an oracle
//! built from the generated inputs, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run measures an
//! untraced and then a traced phase, half the time each, reports the
//! per-layer metrics, the end-to-end detail and the tracing overhead, and
//! writes its spans to `perfbench/out/`.
//!
//! One workload per process: the engine's metrics registry is
//! process-global, and the layer counts are deltas of it.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod common;
mod ingest;
mod inputs;
mod report;
mod scan;
mod trace;
mod workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <ingest|scan> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let run = match args.workload.as_str() {
        "ingest" => workload::run(&ingest::Ingest, &ingest::inputs(seed), secs, traced),
        "scan" => workload::run(&scan::Scan, &scan::inputs(seed), secs, traced),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = &run.verdict {
        eprintln!(
            "perfbench: {} seed {}: WRONG ANSWER: {e}",
            args.workload, args.seed
        );
    }
    let mut attempted = run.untraced.attempted;
    let mut failed = run.untraced.failed;
    eprintln!("untraced: {}", report::summary(&run.untraced));
    let line = match &run.traced {
        None => report::render(
            run.verdict.is_ok(),
            attempted,
            failed,
            &report::END_TO_END,
            &report::end_to_end(&run.untraced, &run.setup_s),
        ),
        Some(t) => {
            eprintln!("traced: {}", report::summary(t));
            attempted += t.attempted;
            failed += t.failed;
            let mut spans = run.setup_spans.clone();
            spans.extend_from_slice(&t.spans);
            let path = std::path::PathBuf::from(format!(
                "{}/out/{}-seed{}-spans.jsonl",
                env!("CARGO_MANIFEST_DIR"),
                args.workload,
                args.seed
            ));
            match trace::write_jsonl(&path, &spans) {
                Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
            report::render(
                run.verdict.is_ok(),
                attempted,
                failed,
                &report::PER_LAYER,
                &report::per_layer(&run),
            )
        }
    };
    eprintln!("setup_s: {:?}", run.setup_s);
    println!("{line}");
}

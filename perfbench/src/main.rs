//! End-to-end benchmark of the Clio log service on file-backed WORM
//! devices.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload forced_log|buffered_ingest|history_read \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload for `S` seconds with
//! tracing off and reports the end-to-end metrics. With `--trace 1` it
//! measures `S/2` seconds untraced, then `S/2` seconds with spans on, and
//! reports the per-layer metrics plus the tracing overhead. Either way it
//! prints a human-readable table, then one JSON object as its last line,
//! and exits non-zero if any output check failed.

mod check;
mod device;
mod host;
mod metrics;
mod series;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The default config reads this variable; a run with it set would not
    // be comparable with the baseline.
    if let Ok(v) = std::env::var("CLIO_GROUP_COMMIT") {
        eprintln!("perfbench: CLIO_GROUP_COMMIT={v} is set; unset it so the shipped config runs");
        return ExitCode::from(2);
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} host_cores={host_cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("config: {:?}", workload::config());

    let scratch = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // Pay for the deletion here rather than in the next run's syncs.
    let _ = device::settle(std::path::Path::new(".bench_tmp"));
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args, scratch: &std::path::Path) -> Result<bool, String> {
    let mk = |seconds: f64, traced: bool, tag: &str| Run {
        workload: args.workload,
        seed: args.seed,
        seconds,
        traced,
        dir: scratch.join(tag),
    };
    let mut report = if args.trace {
        let plain = workload::execute(&mk(args.seconds / 2.0, false, "plain"))
            .map_err(|e| format!("untraced run: {e}"))?;
        let traced = workload::execute(&mk(args.seconds / 2.0, true, "traced"))
            .map_err(|e| format!("traced run: {e}"))?;
        let out = PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        metrics::write_spans(&out, &traced.spans).map_err(|e| format!("writing spans: {e}"))?;
        println!("spans: {} written to {}", traced.spans.len(), out.display());
        metrics::per_layer(args.workload, &plain, &traced)
    } else {
        let s =
            workload::execute(&mk(args.seconds, false, "run")).map_err(|e| format!("run: {e}"))?;
        metrics::end_to_end(args.workload, &s)
    };
    report.print();
    Ok(report.correct)
}

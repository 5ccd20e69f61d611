//! Command-line entry of the repository benchmark.
//!
//! ```text
//! elmrl-perfbench --workload <fig5-h64|population-h256|serve-10k>
//!                 --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a header (host, toolchain, seed), the metrics as a table with
//! units and sample counts, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones; both are the same on
//! every workload. Exits 1 when an output check failed or a metric was not
//! measured, and 2 on a usage error.

use elmrl_linalg::matmul::DEFAULT_PARALLEL_FLOP_THRESHOLD;
use elmrl_perfbench::{
    fig5, host, population, result_json, result_metrics, serve, Metric, RunReport, WORKLOADS,
};
use std::process::ExitCode;

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
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
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
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: elmrl-perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Pin everything that steers execution: the work-sharing pool to the
    // host's cores, the kernels' parallel threshold to the library default
    // (ignoring `ELMRL_PAR_THRESHOLD`), and program telemetry off.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_num_threads(nproc);
    elmrl_linalg::set_parallel_flop_threshold(DEFAULT_PARALLEL_FLOP_THRESHOLD);
    elmrl_telemetry::set_enabled(false);

    for line in host::header_lines() {
        println!("# {line}");
    }
    println!(
        "# workload: {}  seed: {}  seconds: {}  trace: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report: RunReport = match args.workload.as_str() {
        "fig5-h64" => fig5::run(args.seed, args.seconds, args.trace),
        "population-h256" => population::run(args.seed, args.seconds, args.trace),
        "serve-10k" => serve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated in parse_args"),
    };
    match host::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
        None => report.error("peak RSS is unavailable on this host"),
    }

    for note in &report.notes {
        println!("# {note}");
    }
    let names = result_metrics(args.trace);
    for &(name, _) in names {
        if !report.metrics.contains_key(name) {
            report.error(format!("metric {name} was not measured"));
        }
    }
    // The result line's metrics first, then the workload's detail figures.
    let row = |name: &str, m: &Metric| {
        println!(
            "# {name:<40} {:>20.6} {:<12} n={}",
            m.value, m.unit, m.samples
        )
    };
    println!("# {:<40} {:>20} {:<12} samples", "metric", "value", "unit");
    for &(name, _) in names {
        if let Some(m) = report.metrics.get(name) {
            row(name, m);
        }
    }
    println!("# detail:");
    for (name, m) in &report.metrics {
        if !names.iter().any(|&(n, _)| n == name) {
            row(name, m);
        }
    }
    println!(
        "# operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for e in &report.errors {
        println!("# FAILED CHECK: {e}");
    }
    println!("{}", result_json(&report, names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

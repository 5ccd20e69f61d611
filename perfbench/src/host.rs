//! Host description for the output header, and the process's peak RSS.
//!
//! Every lookup is best-effort: a value the host does not expose prints as
//! `unknown` instead of failing the run.

use std::fs;

/// The header lines printed before any measurement.
pub fn header_lines() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("nproc: {nproc}"),
        format!("pool_threads: {}", rayon::current_num_threads()),
        format!("cpu: {}", cpu_model().unwrap_or_else(|| "unknown".into())),
        format!(
            "l1d: {}",
            cache_size(1, "Data").unwrap_or_else(|| "unknown".into())
        ),
        format!(
            "l2: {}",
            cache_size(2, "Unified").unwrap_or_else(|| "unknown".into())
        ),
        format!("rustc: {}", env!("PERFBENCH_RUSTC_VERSION")),
        format!(
            "parallel_flop_threshold: {}",
            elmrl_linalg::parallel_flop_threshold()
        ),
        format!(
            "telemetry: {}",
            if elmrl_telemetry::enabled() {
                "on"
            } else {
                "off"
            }
        ),
    ]
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Size string (e.g. `48K`) of CPU 0's cache at `level` of `kind`.
fn cache_size(level: u32, kind: &str) -> Option<String> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |f: &str| {
            fs::read_to_string(path.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if read("level").as_deref() == Some(&level.to_string())
            && read("type").as_deref() == Some(kind)
        {
            return read("size");
        }
    }
    None
}

/// Peak resident set size of this process so far, in MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would not do: it keeps
/// the high-water mark of the parent image across `exec`, so under
/// `cargo run` it reports cargo's memory.)
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    (kib > 0.0).then_some(kib / 1024.0)
}

/// Peak resident set size is only read on Linux.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> Option<f64> {
    None
}

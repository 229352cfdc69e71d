//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary in `src/bin/` reproduces one table or figure (see
//! `DESIGN.md` for the index). They share the conventions here:
//!
//! - `SCALE` environment variable (default in each binary) divides the
//!   per-tenant request counts of Table III; `SCALE=1` runs paper-sized
//!   traces.
//! - `MAX_TENANTS` caps tenant sweeps for quicker runs.
//! - `JOBS` sets the worker-thread count for the parallel sweep executor
//!   (default: all available cores; `JOBS=1` forces the serial path).
//! - Output is a plain text table with one row per x-axis point and one
//!   column per series, mirroring the paper's figure structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod schema;

use std::fmt::Display;
use std::time::Instant;

/// Reads a `u64` environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Proportional trace shortening, mirroring
/// [`hypersio_sim::SweepSpec::effective_scale`]: `scale` is relative to the
/// 1024-tenant traces, so small tenant counts get longer per-tenant streams
/// and comparable statistical weight.
pub fn proportional_scale(scale: u64, tenants: u32) -> u64 {
    (scale * tenants as u64 / 1024).max(1)
}

/// The paper's tenant-count x-axis (4 … 1024), capped by `MAX_TENANTS`.
pub fn tenant_axis(max: u32) -> Vec<u32> {
    hypersio_sim::PAPER_TENANT_COUNTS
        .into_iter()
        .filter(|&t| t <= max)
        .collect()
}

/// Prints a table header: an x-axis label plus one column per series.
pub fn print_header(x: &str, series: &[&str]) {
    print!("{x:>10}");
    for s in series {
        print!(" {s:>14}");
    }
    println!();
}

/// Prints one table row.
pub fn print_row<X: Display>(x: X, values: &[f64]) {
    print!("{x:>10}");
    for v in values {
        print!(" {v:>14.2}");
    }
    println!();
}

/// Prints the standard experiment banner.
pub fn banner(experiment: &str, detail: &str) {
    println!("==============================================================");
    println!("{experiment}");
    println!("{detail}");
    println!("==============================================================");
}

/// Worker-thread count for the parallel sweep executor: the `JOBS`
/// environment knob, defaulting to all available cores.
pub fn jobs() -> usize {
    std::env::var("JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&j: &usize| j > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Times `f` over `iters` iterations (after one untimed warm-up) and prints
/// a `name: total / per-iter` line. A minimal stand-in for an external
/// benchmark harness; wall-clock only, no statistics.
pub fn time_case<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    assert!(iters > 0, "need at least one iteration");
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed();
    println!(
        "{name:<40} {:>10.3} ms total / {iters:>4} iters = {:>10.3} ms/iter",
        total.as_secs_f64() * 1e3,
        total.as_secs_f64() * 1e3 / iters as f64,
    );
}

/// Returns this process's peak resident set size in bytes, or 0 when the
/// platform does not expose it (`/proc/self/status` `VmHWM`, Linux only).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }

    #[test]
    fn tenant_axis_caps() {
        assert_eq!(tenant_axis(64), vec![4, 8, 16, 32, 64]);
        assert_eq!(tenant_axis(1024).len(), 9);
    }

    #[test]
    fn env_u64_default_when_unset() {
        assert_eq!(env_u64("HYPERSIO_BENCH_UNSET_VAR_XYZ", 7), 7);
    }

    #[test]
    fn proportional_scale_clamps() {
        assert_eq!(proportional_scale(400, 1024), 400);
        assert_eq!(proportional_scale(400, 128), 50);
        assert_eq!(proportional_scale(400, 2), 1);
    }
}

//! Memory-bounded scale-out benchmark: tenants versus throughput and RSS.
//!
//! The figure binaries stop at the paper's 1024 tenants; this harness
//! pushes the same engine to a million. Each point runs the HyperTRIO
//! configuration over a streaming trace with a fixed number of requests
//! per tenant, then records wall-clock throughput and the process peak
//! RSS. Every tenant translates through one canonical page-table build,
//! so no point copies per-tenant tables. The output (`BENCH_scale.json`,
//! schema `bench_scale/v2`) is the committed evidence of how throughput
//! and host memory move while the tenant count grows three orders of
//! magnitude.
//!
//! The points run smallest-first and the schema validator enforces that
//! order: the peak-RSS probe is Linux's `VmHWM` watermark, which is
//! monotone over the process lifetime, so a per-point reading is an
//! honest upper bound only when no larger run preceded it.
//!
//! Usage:
//!
//! ```text
//! bench_scale [--out FILE] [--rss-limit-mb N]
//! bench_scale --validate FILE
//! ```
//!
//! - `--out FILE` — output path (default `BENCH_scale.json`).
//! - `--rss-limit-mb N` — fail (exit nonzero) if peak RSS exceeds N MiB
//!   after any point; the CI smoke job uses this as a hard ceiling.
//! - `--validate FILE` — schema-check an existing output file and exit
//!   non-zero on failure. No thresholds: CI machines are not comparable,
//!   only the shape (and the point ordering) is pinned.
//!
//! Environment: `MAX_TENANTS` caps the tenant axis (default 1000000),
//! `REQS` sets the per-tenant translation-request count (default 24,
//! i.e. 8 packets per tenant), `WARMUP` the packets excluded from the
//! simulated-bandwidth measurement (default 1000).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bench::schema;
use hypersio_sim::{SimParams, Simulation};
use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
use hypersio_types::json;
use hypertrio_core::TranslationConfig;

/// The tenant axis: three orders of magnitude past the paper's largest
/// scale. Ascending order is load-bearing (see the module docs).
const TENANT_POINTS: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

struct PointResult {
    tenants: u32,
    wall_s: f64,
    packets: u64,
    requests: u64,
    utilization: f64,
    peak_rss_bytes: u64,
}

fn run_point(tenants: u32, reqs: u64, warmup: u64) -> PointResult {
    let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
        .requests_per_tenant(reqs)
        .build();
    let params = SimParams::paper().with_warmup(warmup);
    let start = Instant::now();
    let report = Simulation::new(TranslationConfig::hypertrio(), params, trace).run();
    let wall_s = start.elapsed().as_secs_f64();
    PointResult {
        tenants,
        wall_s,
        packets: report.packets_processed,
        requests: report.translation_requests,
        utilization: report.utilization,
        peak_rss_bytes: bench::peak_rss_bytes(),
    }
}

fn emit(points: &[PointResult], reqs: u64, warmup: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"bench_scale/v2\",\n");
    let _ = writeln!(out, "  \"requests_per_tenant\": {reqs},");
    let _ = writeln!(out, "  \"warmup_packets\": {warmup},");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"tenants\": {}, \"wall_s\": {:.6}, \"packets\": {}, \
             \"packets_per_sec\": {:.1}, \"translation_requests\": {}, \
             \"utilization\": {:.6}, \"peak_rss_bytes\": {}}}",
            p.tenants,
            p.wall_s,
            p.packets,
            p.packets as f64 / p.wall_s.max(1e-9),
            p.requests,
            p.utilization,
            p.peak_rss_bytes,
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn validate_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_scale: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_scale: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match schema::validate_scale_schema(&doc) {
        Ok(()) => {
            println!("{path}: schema bench_scale/v2 OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_scale: {path}: schema violation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_scale.json".to_string();
    let mut rss_limit_mb: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--validate" => {
                let Some(path) = args.next() else {
                    eprintln!("bench_scale: --validate needs a file argument");
                    return ExitCode::FAILURE;
                };
                return validate_file(&path);
            }
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("bench_scale: --out needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--rss-limit-mb" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(mb) if mb > 0 => rss_limit_mb = Some(mb),
                _ => {
                    eprintln!("bench_scale: --rss-limit-mb needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench_scale: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let max_tenants = bench::env_u64("MAX_TENANTS", 1_000_000) as u32;
    let reqs = bench::env_u64("REQS", 24);
    let warmup = bench::env_u64("WARMUP", 1000);

    bench::banner(
        "BENCH scale — tenants vs throughput and peak RSS",
        &format!(
            "reqs/tenant={reqs}, warmup={warmup}, max_tenants={max_tenants}, output={out_path}"
        ),
    );
    let mut points = Vec::new();
    for tenants in TENANT_POINTS.into_iter().filter(|&t| t <= max_tenants) {
        let p = run_point(tenants, reqs, warmup);
        println!(
            "{:>9} tenants: {:>8.3} s wall, {:>12.0} packets/s, util {:.3}, peak RSS {:>6} MiB",
            p.tenants,
            p.wall_s,
            p.packets as f64 / p.wall_s.max(1e-9),
            p.utilization,
            p.peak_rss_bytes >> 20,
        );
        if let Some(limit_mb) = rss_limit_mb {
            if p.peak_rss_bytes > limit_mb << 20 {
                eprintln!(
                    "bench_scale: peak RSS {} MiB exceeds the {limit_mb} MiB limit \
                     after the {}-tenant point",
                    p.peak_rss_bytes >> 20,
                    p.tenants
                );
                return ExitCode::FAILURE;
            }
        }
        points.push(p);
    }
    if points.is_empty() {
        eprintln!("bench_scale: MAX_TENANTS={max_tenants} leaves no points to run");
        return ExitCode::FAILURE;
    }
    let doc = emit(&points, reqs, warmup);
    let parsed = json::parse(&doc).expect("harness emits valid JSON");
    schema::validate_scale_schema(&parsed).expect("harness output matches its own schema");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("bench_scale: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path} (peak RSS {} MiB)",
        bench::peak_rss_bytes() >> 20
    );
    ExitCode::SUCCESS
}

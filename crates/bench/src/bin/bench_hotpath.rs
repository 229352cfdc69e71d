//! Wall-clock benchmark of the translation-cache hot path.
//!
//! Unlike the figure binaries (which report *simulated* bandwidth), this
//! harness measures how fast the simulator itself runs: every simulated
//! packet performs three DevTLB probes plus Prefetch-Buffer and L2/L3
//! walk-cache accesses, so the cache substrate dominates the wall-clock of
//! every sweep. The harness runs a fixed 128- and 1024-tenant sweep and
//! writes `BENCH_hotpath.json` so each perf PR records a comparable
//! trajectory point. Each case carries a `stages` block attributing
//! wall-clock to the five pipeline stages; it comes from a second,
//! instrumented run (`Simulation::run_timed`) so the timing probes cannot
//! inflate the headline numbers, which come from the untimed run.
//!
//! Usage:
//!
//! ```text
//! bench_hotpath [--out FILE] [--baseline FILE]
//! bench_hotpath --validate FILE
//! ```
//!
//! - `--out FILE` — output path (default `BENCH_hotpath.json`).
//! - `--baseline FILE` — embed a previous run (e.g. the pre-change build's
//!   output) under the `baseline` key for before/after comparison.
//! - `--validate FILE` — schema-check an existing output file and exit
//!   non-zero on failure; used by the CI smoke job. No thresholds are
//!   applied: CI machines are not comparable, only the shape is pinned.
//!
//! Environment: `SCALE` (trace length divisor relative to paper-sized
//! 1024-tenant traces, default 200 as in the figure binaries; smaller =
//! longer run), `WARMUP` (packets excluded from the simulated-bandwidth
//! measurement, default 2000 — wall-clock timing always covers the whole
//! run).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bench::schema;
use hypersio_sim::{SimParams, StageTimings, SweepSpec};
use hypersio_trace::WorkloadKind;
use hypersio_types::json;
use hypertrio_core::TranslationConfig;

/// The fixed sweep: the paper's hyper-tenant regimes. 128 tenants is the
/// first point where Base has collapsed, 1024 is the paper's largest scale.
const CASES: [(fn() -> TranslationConfig, u32); 4] = [
    (TranslationConfig::base, 128),
    (TranslationConfig::hypertrio, 128),
    (TranslationConfig::base, 1024),
    (TranslationConfig::hypertrio, 1024),
];

struct CaseResult {
    config: String,
    arch: &'static str,
    tenants: u32,
    wall_s: f64,
    packets: u64,
    requests: u64,
    utilization: f64,
    stages: StageTimings,
}

fn run_case(config: TranslationConfig, tenants: u32, scale: u64, warmup: u64) -> CaseResult {
    let name = config.name.clone();
    let params = SimParams::paper().with_warmup(warmup);
    let arch = params.walk_geometry.cli_name();
    let spec = SweepSpec::new(WorkloadKind::Iperf3, config, scale).with_params(params);
    let start = Instant::now();
    let report = spec.run_at(tenants);
    let wall_s = start.elapsed().as_secs_f64();
    // Second, instrumented pass for the per-stage breakdown. The headline
    // wall number stays the untimed run above: stage attribution costs two
    // clock reads per stage transition, which would inflate it.
    let (timed_report, stages) = spec.run_timed_at(tenants);
    assert_eq!(
        timed_report, report,
        "timing instrumentation changed the simulation"
    );
    CaseResult {
        config: name,
        arch,
        tenants,
        wall_s,
        packets: report.packets_processed,
        requests: report.translation_requests,
        utilization: report.utilization,
        stages,
    }
}

fn emit(results: &[CaseResult], scale: u64, warmup: u64, baseline: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"bench_hotpath/v1\",\n");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"warmup_packets\": {warmup},");
    let _ = writeln!(out, "  \"peak_rss_bytes\": {},", bench::peak_rss_bytes());
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let pps = r.packets as f64 / r.wall_s;
        let ns_per_req = r.wall_s * 1e9 / r.requests.max(1) as f64;
        let _ = write!(
            out,
            "    {{\"config\": \"{}\", \"arch\": \"{}\", \"tenants\": {}, \
             \"wall_s\": {:.6}, \
             \"packets\": {}, \"packets_per_sec\": {:.1}, \
             \"translation_requests\": {}, \"ns_per_translation\": {:.2}, \
             \"utilization\": {:.6}, \
             \"stages\": {{\"arrival_ns\": {}, \"prefetch_ns\": {}, \
             \"lookup_ns\": {}, \"walk_ns\": {}, \"completion_ns\": {}}}}}",
            json::escape(&r.config),
            r.arch,
            r.tenants,
            r.wall_s,
            r.packets,
            pps,
            r.requests,
            ns_per_req,
            r.utilization,
            r.stages.arrival_ns,
            r.stages.prefetch_ns,
            r.stages.lookup_ns,
            r.stages.walk_ns,
            r.stages.completion_ns,
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if let Some(doc) = baseline {
        out.push_str(",\n  \"baseline\": ");
        // Indent the embedded document to keep the file readable.
        out.push_str(&doc.trim().replace('\n', "\n  "));
    }
    out.push_str("\n}\n");
    out
}

fn validate_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_hotpath: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_hotpath: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match schema::validate_hotpath_schema(&doc) {
        Ok(()) => {
            println!("{path}: schema bench_hotpath/v1 OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_hotpath: {path}: schema violation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--validate" => {
                let Some(path) = args.next() else {
                    eprintln!("bench_hotpath: --validate needs a file argument");
                    return ExitCode::FAILURE;
                };
                return validate_file(&path);
            }
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("bench_hotpath: --out needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(p),
                None => {
                    eprintln!("bench_hotpath: --baseline needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench_hotpath: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let scale = bench::env_u64("SCALE", 200);
    let warmup = bench::env_u64("WARMUP", 2000);
    let baseline = match &baseline_path {
        None => None,
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => {
                // Only a schema-valid document may be embedded (lenient on
                // `stages`: the baseline may predate per-stage timing).
                match json::parse(&text).map_err(|e| e.to_string()).and_then(|d| {
                    schema::validate_hotpath_baseline(&d)?;
                    Ok(())
                }) {
                    Ok(()) => Some(text),
                    Err(e) => {
                        eprintln!("bench_hotpath: baseline {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("bench_hotpath: cannot read baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    bench::banner(
        "BENCH hotpath — wall-clock of the translation-cache hot path",
        &format!("scale={scale}, warmup={warmup}, serial (1 thread), output={out_path}"),
    );
    let mut results = Vec::new();
    for (make_config, tenants) in CASES {
        let r = run_case(make_config(), tenants, scale, warmup);
        println!(
            "{:<10} {:>5} tenants: {:>8.3} s wall, {:>12.0} packets/s, {:>8.1} ns/translation",
            r.config,
            r.tenants,
            r.wall_s,
            r.packets as f64 / r.wall_s,
            r.wall_s * 1e9 / r.requests.max(1) as f64,
        );
        let total = r.stages.total_ns().max(1) as f64;
        println!(
            "{:<18} stages: arrival {:>4.1}%  prefetch {:>4.1}%  lookup {:>4.1}%  \
             walk {:>4.1}%  completion {:>4.1}%",
            "",
            r.stages.arrival_ns as f64 * 100.0 / total,
            r.stages.prefetch_ns as f64 * 100.0 / total,
            r.stages.lookup_ns as f64 * 100.0 / total,
            r.stages.walk_ns as f64 * 100.0 / total,
            r.stages.completion_ns as f64 * 100.0 / total,
        );
        results.push(r);
    }
    let doc = emit(&results, scale, warmup, baseline.as_deref());
    let parsed = json::parse(&doc).expect("harness emits valid JSON");
    schema::validate_hotpath_schema(&parsed).expect("harness output matches its own schema");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("bench_hotpath: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path} (peak RSS {} MiB)",
        bench::peak_rss_bytes() >> 20
    );
    ExitCode::SUCCESS
}

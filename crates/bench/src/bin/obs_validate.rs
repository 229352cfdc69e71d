//! Validates observability output files against their pinned schemas.
//!
//! CI runs the `hypertrio` CLI with `--trace-out`, `--timeseries-out`, and
//! `--report-json` at a tiny scale and feeds the resulting files through
//! this tool; a schema drift (renamed field, wrong type, broken JSONL
//! framing) fails the build rather than silently shipping unparseable
//! artifacts.
//!
//! Usage: `obs_validate <file>...` — each file's format is detected from
//! its content:
//!
//! - a first line tagged `hypersio-checkpoint/` → binary checkpoint
//!   (`v2` header fields plus the body's length and FNV-1a-64 checksum;
//!   other versions are reported as an unknown schema),
//! - a first line tagged `hypersio-events/v1` → JSON Lines event trace,
//! - a `.csv` suffix or a `window_start_us,` header → time-series CSV,
//! - otherwise a JSON document dispatched on its `schema` field
//!   (`sim_report/v1`, `hypersio-timeseries/v1`, `hypersio-spans/v1`,
//!   `bench_hotpath/v1`, `bench_scale/v1`).
//!
//! Exits non-zero after printing one line per failing file.

use std::process::ExitCode;

use bench::schema::{
    validate_checkpoint, validate_events_jsonl, validate_hotpath_schema, validate_report_schema,
    validate_scale_schema, validate_spans_schema, validate_timeseries_schema,
};
use hypersio_types::json::{self, Json};

/// The time-series CSV header pinned by `TimeSeriesSampler::to_csv`.
const TIMESERIES_CSV_HEADER: &str = "window_start_us,packets,drops,gbps,utilization,\
                                     devtlb_hit_rate,pb_hits,walks_done,ptb_occupancy,\
                                     walks_in_flight,faulted_drops";

fn validate_timeseries_csv(text: &str) -> Result<(), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    if header != TIMESERIES_CSV_HEADER {
        return Err(format!("unexpected CSV header '{header}'"));
    }
    let columns = header.split(',').count();
    for (i, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != columns {
            return Err(format!(
                "row {}: expected {columns} columns, found {}",
                i + 1,
                fields.len()
            ));
        }
        for field in fields {
            field
                .parse::<f64>()
                .map_err(|_| format!("row {}: non-numeric cell '{field}'", i + 1))?;
        }
    }
    Ok(())
}

fn validate_file(path: &str) -> Result<&'static str, String> {
    // Read as bytes first: a checkpoint's body is binary, not UTF-8.
    let raw = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    let first_raw = raw.split(|&b| b == b'\n').next().unwrap_or(&[]);
    if String::from_utf8_lossy(first_raw).contains("hypersio-checkpoint/") {
        return validate_checkpoint(&raw).map(|()| "run checkpoint (hypersio-checkpoint/v2)");
    }
    let text = String::from_utf8(raw).map_err(|_| "cannot read: file is not UTF-8".to_string())?;
    let first_line = text.lines().next().unwrap_or("");
    if first_line.contains("hypersio-events/v1") {
        return validate_events_jsonl(&text).map(|()| "event trace (hypersio-events/v1)");
    }
    if path.ends_with(".csv") || first_line.starts_with("window_start_us,") {
        return validate_timeseries_csv(&text).map(|()| "time-series CSV");
    }
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sim_report/v1") => {
            validate_report_schema(&doc).map(|()| "simulation report (sim_report/v1)")
        }
        Some("hypersio-timeseries/v1") => {
            validate_timeseries_schema(&doc).map(|()| "time series (hypersio-timeseries/v1)")
        }
        Some("hypersio-spans/v1") => {
            validate_spans_schema(&doc).map(|()| "packet spans (hypersio-spans/v1)")
        }
        Some("bench_hotpath/v1") => {
            validate_hotpath_schema(&doc).map(|()| "hot-path benchmark (bench_hotpath/v1)")
        }
        Some("bench_scale/v1") => {
            validate_scale_schema(&doc).map(|()| "scale benchmark (bench_scale/v1)")
        }
        Some(other) => Err(format!("unknown schema '{other}'")),
        None => Err("missing string field 'schema'".into()),
    }
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: obs_validate <file>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match validate_file(path) {
            Ok(format) => println!("{path}: ok ({format})"),
            Err(err) => {
                eprintln!("{path}: INVALID: {err}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

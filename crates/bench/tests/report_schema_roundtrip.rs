//! Round-trip test for the machine-readable observability outputs: a real
//! simulation's `--report-json` / `--timeseries-out` / `--trace-out`
//! payloads must parse with the workspace's JSON parser, validate against
//! their pinned schemas, and agree with the in-memory values.

use bench::schema::{validate_events_jsonl, validate_report_schema, validate_timeseries_schema};
use hypersio_sim::{RingRecorder, SimParams, Simulation, TimeSeriesSampler};
use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
use hypersio_types::json::{self, Json};
use hypertrio_core::TranslationConfig;

fn instrumented_run() -> (hypersio_sim::SimReport, RingRecorder, TimeSeriesSampler) {
    let config = TranslationConfig::hypertrio();
    let params = SimParams::paper().with_per_tenant();
    let trace = HyperTraceBuilder::new(WorkloadKind::Websearch, 16)
        .scale(500)
        .build();
    // Large enough that this run never wraps: the trace-JSONL test relies
    // on the ring holding every event.
    let mut ring = RingRecorder::new(32768);
    let mut series = TimeSeriesSampler::new(
        10_000_000,
        params.link.bytes_delivered(1).raw(),
        params.link.bandwidth().gbps(),
        config.ptb_entries as u64,
    );
    let report = Simulation::new(config, params, trace).run_with(&mut (&mut ring, &mut series));
    (report, ring, series)
}

#[test]
fn report_json_round_trips_through_schema_validation() {
    let (report, _, _) = instrumented_run();
    let doc = json::parse(&report.to_json()).expect("report JSON parses");
    validate_report_schema(&doc).expect("report JSON matches sim_report/v1");

    // The parsed document agrees with the in-memory report.
    let num = |field: &str| doc.get(field).and_then(Json::as_num).unwrap();
    assert_eq!(num("packets_processed") as u64, report.packets_processed);
    assert_eq!(num("packets_dropped") as u64, report.packets_dropped);
    assert_eq!(
        num("translation_requests") as u64,
        report.translation_requests
    );
    assert_eq!(num("bytes") as u64, report.bytes.raw());
    assert_eq!(num("tenants") as u32, report.tenants);
    assert!((num("utilization") - report.utilization).abs() < 1e-9);

    let per_tenant = report.per_tenant.as_ref().expect("per-tenant was enabled");
    let tenants = doc
        .get("per_tenant")
        .and_then(|pt| pt.get("tenants"))
        .and_then(Json::as_arr)
        .expect("per_tenant.tenants array");
    assert_eq!(tenants.len(), per_tenant.tenants.len());
    for (parsed, stat) in tenants.iter().zip(&per_tenant.tenants) {
        assert_eq!(
            parsed.get("did").and_then(Json::as_num).unwrap() as u32,
            stat.did
        );
        assert_eq!(
            parsed.get("packets").and_then(Json::as_num).unwrap() as u64,
            stat.packets
        );
    }
    let jain = doc
        .get("per_tenant")
        .and_then(|pt| pt.get("fairness"))
        .and_then(|f| f.get("jain"))
        .and_then(Json::as_num)
        .unwrap();
    assert!((jain - per_tenant.fairness().jain).abs() < 1e-9);
}

#[test]
fn timeseries_json_round_trips_through_schema_validation() {
    let (_, _, series) = instrumented_run();
    let doc = json::parse(&series.to_json()).expect("time-series JSON parses");
    validate_timeseries_schema(&doc).expect("matches hypersio-timeseries/v1");
    let windows = doc.get("windows").and_then(Json::as_arr).unwrap();
    assert_eq!(windows.len(), series.rows().len());
    // Per-window packet counts sum to what the sampler accumulated.
    let total: u64 = windows
        .iter()
        .map(|w| w.get("packets").and_then(Json::as_num).unwrap() as u64)
        .sum();
    let expected: u64 = series.rows().iter().map(|r| r.packets).sum();
    assert_eq!(total, expected);
    assert!(total > 0, "a 500-scale run completes packets");
}

#[test]
fn event_trace_jsonl_round_trips_through_schema_validation() {
    let (report, ring, _) = instrumented_run();
    assert!(!ring.is_empty());
    let mut out = Vec::new();
    ring.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    validate_events_jsonl(&text).expect("matches hypersio-events/v1");
    // Every line after the meta line is itself a complete JSON document
    // whose kind is one of the taxonomy's names.
    let names: Vec<&str> = hypersio_obs::ALL_EVENT_KINDS
        .iter()
        .map(|k| k.name())
        .collect();
    for line in text.lines().skip(1) {
        let ev = json::parse(line).unwrap();
        let kind = ev.get("kind").and_then(Json::as_str).unwrap();
        assert!(names.contains(&kind), "unknown kind {kind}");
    }
    // The ring held every event (capacity was not exceeded), so completed
    // packets in the trace match the report exactly.
    assert_eq!(ring.overwritten(), 0);
    let completes = text
        .lines()
        .filter(|l| l.contains(r#""kind":"packet_complete""#))
        .count() as u64;
    assert_eq!(completes, report.packets_processed);
}

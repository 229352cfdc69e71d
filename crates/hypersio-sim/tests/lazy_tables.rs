//! Canonical-view translation reproduces the eagerly built reference
//! exactly.
//!
//! Every tenant translates through a view of one canonical page-table
//! build — the build plus the tenant's host-slab delta — instead of its
//! own copy of the tables. The layout is affine in the DID, so **every run
//! must produce the results of tables built up front, one per DID**. The
//! simulator used to have exactly that eager path; its reports at 128 and
//! 1024 tenants for Base and HyperTRIO are frozen under `fixtures/`
//! (`eager_<config>_<tenants>.json`, `SimReport::to_json`), together with
//! the FNV-1a-64 digest of each run's JSONL event stream
//! ([`EAGER_EVENT_DIGESTS`]). This suite pins the contract against them:
//!
//! 1. **Report equivalence**: the run produces the frozen report.
//! 2. **Event-stream equivalence**: the recorded JSONL event stream
//!    hashes to the frozen digest — emission *order*, not just totals, is
//!    that of per-DID tables.
//! 3. **Memory pressure**: shedding the walk memo at every watchdog poll
//!    leaves the report unchanged.

use hypersio_sim::{RingRecorder, SimParams, SimReport, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, WorkloadKind};
use hypertrio_core::TranslationConfig;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15; // the SplitMix64 increment
const RING_CAPACITY: usize = 1 << 20;

/// FNV-1a-64 of the eager runs' JSONL event streams, by (config, tenants).
const EAGER_EVENT_DIGESTS: [(&str, u32, u64); 4] = [
    ("Base", 128, 0x4ea7_dad7_b1ad_b529),
    ("HyperTRIO", 128, 0x0bca_7c34_a6bf_9b52),
    ("Base", 1024, 0xc007_7c20_1306_5040),
    ("HyperTRIO", 1024, 0x904a_7eb7_bcda_450e),
];

fn configs() -> Vec<TranslationConfig> {
    vec![TranslationConfig::base(), TranslationConfig::hypertrio()]
}

/// A seeded trace; `scale` shrinks with tenant count so both scales run in
/// comparable time.
fn seeded_trace(tenants: u32) -> HyperTrace {
    HyperTraceBuilder::new(WorkloadKind::Websearch, tenants)
        .scale(2000 * tenants as u64 / 128)
        .seed(SEED)
        .build()
}

fn params() -> SimParams {
    SimParams::paper().with_warmup(200).with_per_tenant()
}

/// The frozen eager report for `config` at `tenants`.
fn eager_report(config: &TranslationConfig, tenants: u32) -> String {
    let path = format!(
        "{}/tests/fixtures/eager_{}_{tenants}.json",
        env!("CARGO_MANIFEST_DIR"),
        config.name.to_lowercase()
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn eager_event_digest(config: &TranslationConfig, tenants: u32) -> u64 {
    EAGER_EVENT_DIGESTS
        .iter()
        .find(|&&(name, t, _)| name == config.name && t == tenants)
        .map(|&(_, _, digest)| digest)
        .expect("a digest for every config and scale")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one observed simulation, returning the report and the full
/// JSONL-encoded event stream.
fn run_recorded(config: &TranslationConfig, tenants: u32) -> (SimReport, Vec<u8>) {
    let mut ring = RingRecorder::new(RING_CAPACITY);
    let report =
        Simulation::new(config.clone(), params(), seeded_trace(tenants)).run_with(&mut ring);
    let mut jsonl = Vec::new();
    ring.write_jsonl(&mut jsonl).expect("in-memory write");
    (report, jsonl)
}

fn assert_runs_match_eager(tenants: u32) {
    for config in configs() {
        let (report, events) = run_recorded(&config, tenants);
        assert_eq!(
            report.to_json(),
            eager_report(&config, tenants),
            "{} @ {tenants} tenants: report diverged from eager",
            config.name
        );
        assert_eq!(
            fnv1a64(&events),
            eager_event_digest(&config, tenants),
            "{} @ {tenants} tenants: event stream diverged from eager",
            config.name
        );
    }
}

#[test]
fn lazy_tables_match_eager_at_128_tenants() {
    assert_runs_match_eager(128);
}

#[test]
fn lazy_tables_match_eager_at_1024_tenants() {
    assert_runs_match_eager(1024);
}

/// Memory pressure sheds the walk memo transparently. With a 1-byte RSS
/// limit the watchdog fires at every poll and drops the memo each time;
/// the report still equals the plain run's and the frozen eager report,
/// and the pressure events count the memo entries shed.
#[test]
fn memory_pressure_sheds_the_memo_transparently() {
    use hypersio_sim::{current_rss_bytes, Event, RunControl, RunOutcome};
    if current_rss_bytes().is_none() {
        return; // no procfs: the watchdog cannot poll
    }
    for config in configs() {
        let mut ring = RingRecorder::new(RING_CAPACITY);
        let mut ctl = RunControl {
            rss_limit_bytes: Some(1),
            ..RunControl::default()
        };
        let sim = Simulation::new(config.clone(), params(), seeded_trace(1024));
        let RunOutcome::Completed(report) = sim.run_controlled(&mut ring, &mut ctl) else {
            panic!("no stop was requested");
        };
        let shed: Vec<u64> = ring
            .iter()
            .filter_map(|r| match r.event() {
                Event::MemoryPressure { shed_entries, .. } => Some(shed_entries),
                _ => None,
            })
            .collect();
        let plain = Simulation::new(config.clone(), params(), seeded_trace(1024)).run();
        assert_eq!(
            *report, plain,
            "{}: shedding changed the report",
            config.name
        );
        assert_eq!(report.to_json(), eager_report(&config, 1024));
        assert!(
            shed.len() > 1,
            "{}: the watchdog fired {} times",
            config.name,
            shed.len()
        );
        assert!(
            shed.iter().skip(1).any(|&n| n > 0),
            "{}: the memo refilled between polls but nothing was shed",
            config.name
        );
    }
}

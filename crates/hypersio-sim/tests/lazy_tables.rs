//! Every table budget reproduces the eagerly built reference exactly.
//!
//! Per-tenant page tables are stamped from one canonical build on first
//! touch and, under `SimParams::with_table_budget`, LRU-evicted to stay
//! under a host-memory budget. Stamping is deterministic, so a rebuilt
//! space is bit-identical to the evicted one and **every budget must
//! produce the results of tables built up front, one per DID**. The
//! simulator used to have exactly that eager path; its reports at 128 and
//! 1024 tenants for Base and HyperTRIO are frozen under `fixtures/`
//! (`eager_<config>_<tenants>.json`, `SimReport::to_json`), together with
//! the FNV-1a-64 digest of each run's JSONL event stream
//! ([`EAGER_EVENT_DIGESTS`]). This suite pins the contract against them:
//!
//! 1. **Report equivalence**: an unbounded pool and a one-resident
//!    (budget = 1 byte) pool both produce the frozen report.
//! 2. **Event-stream equivalence**: the recorded JSONL event streams hash
//!    to the frozen digests — emission *order*, not just totals, is
//!    invariant under stamping and eviction.
//! 3. **Re-touch correctness**: with a one-resident pool and round-robin
//!    interleaving, every tenant switch after the first round evicts the
//!    resident space and re-stamps the next from the canonical build
//!    (tenants × rounds rebuilds); the run still matches the frozen
//!    report exactly, so evicted state is provably reconstructed, not
//!    approximated.

use hypersio_sim::{RingRecorder, SimParams, SimReport, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, WorkloadKind};
use hypertrio_core::TranslationConfig;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15; // the SplitMix64 increment
const RING_CAPACITY: usize = 1 << 20;

/// Unbounded residency, then the harshest budget: one resident space.
const BUDGETS: [Option<u64>; 2] = [None, Some(1)];

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

fn params(table_budget: Option<u64>) -> SimParams {
    let params = SimParams::paper().with_warmup(200).with_per_tenant();
    match table_budget {
        Some(bytes) => params.with_table_budget(bytes),
        None => params,
    }
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
fn run_recorded(
    config: &TranslationConfig,
    tenants: u32,
    table_budget: Option<u64>,
) -> (SimReport, Vec<u8>) {
    let mut ring = RingRecorder::new(RING_CAPACITY);
    let report = Simulation::new(config.clone(), params(table_budget), seeded_trace(tenants))
        .run_with(&mut ring);
    let mut jsonl = Vec::new();
    ring.write_jsonl(&mut jsonl).expect("in-memory write");
    (report, jsonl)
}

fn assert_budgets_match_eager(tenants: u32) {
    for config in configs() {
        let want_report = eager_report(&config, tenants);
        let want_events = eager_event_digest(&config, tenants);
        for budget in BUDGETS {
            let (report, events) = run_recorded(&config, tenants, budget);
            assert_eq!(
                report.to_json(),
                want_report,
                "{} @ {tenants} tenants, budget {budget:?}: report diverged from eager",
                config.name
            );
            assert_eq!(
                fnv1a64(&events),
                want_events,
                "{} @ {tenants} tenants, budget {budget:?}: event stream diverged from eager",
                config.name
            );
        }
    }
}

#[test]
fn lazy_tables_match_eager_at_128_tenants() {
    assert_budgets_match_eager(128);
}

#[test]
fn lazy_tables_match_eager_at_1024_tenants() {
    assert_budgets_match_eager(1024);
}

/// The re-touch contract in isolation: a one-resident pool under RR1
/// round-robin evicts and re-stamps on every tenant switch — each of the
/// 128 tenants is rebuilt once per round for the whole run — yet the
/// report (including per-tenant rows, which would expose any
/// cross-tenant leakage of a mis-stamped table) equals the eager run's.
#[test]
fn one_resident_pool_rebuilds_evicted_tenants_exactly() {
    let config = TranslationConfig::hypertrio();
    let trace = seeded_trace(128);
    assert_eq!(
        trace.interleaving().to_string(),
        "RR1",
        "the test needs per-packet tenant switches to force churn"
    );
    let report = Simulation::new(config.clone(), params(Some(1)), trace).run();
    assert_eq!(report.to_json(), eager_report(&config, 128));
    let per_tenant = report.per_tenant.expect("per-tenant rows were requested");
    assert_eq!(per_tenant.tenants.len(), 128);
    assert!(
        per_tenant.tenants.iter().all(|t| t.packets > 0),
        "every tenant must have survived eviction churn with traffic intact"
    );
}

/// Memory pressure sheds table spaces even without a budget. With a
/// 1-byte RSS limit the watchdog fires at every poll; each firing halves
/// the pool's residency and drops the walk memo, and the report still
/// equals the plain run's. The walk memo's contents do not depend on the
/// table budget, so a one-resident pool — which has no spaces left to
/// shed — sheds exactly the memo share at the same polls, and the
/// difference is the evicted spaces.
#[test]
fn memory_pressure_evicts_unbudgeted_spaces() {
    use hypersio_sim::{current_rss_bytes, Event, RunControl, RunOutcome};
    if current_rss_bytes().is_none() {
        return; // no procfs: the watchdog cannot poll
    }
    let shed_under = |config: &TranslationConfig, table_budget| {
        let mut ring = RingRecorder::new(RING_CAPACITY);
        let mut ctl = RunControl {
            rss_limit_bytes: Some(1),
            ..RunControl::default()
        };
        let sim = Simulation::new(config.clone(), params(table_budget), seeded_trace(1024));
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
        (report, shed)
    };
    for config in configs() {
        let plain = Simulation::new(config.clone(), params(None), seeded_trace(1024)).run();
        let (report, shed) = shed_under(&config, None);
        assert_eq!(
            *report, plain,
            "{}: shedding changed the report",
            config.name
        );
        assert_eq!(report.to_json(), eager_report(&config, 1024));
        let (_, memo_only) = shed_under(&config, Some(1));
        assert!(
            !shed.is_empty(),
            "{}: the watchdog never fired",
            config.name
        );
        assert_eq!(shed.len(), memo_only.len(), "{}", config.name);
        assert!(
            shed.iter().zip(&memo_only).all(|(a, b)| a >= b),
            "{}: the memo share must not depend on the table budget",
            config.name
        );
        let (total, memo): (u64, u64) = (shed.iter().sum(), memo_only.iter().sum());
        assert!(
            total > memo,
            "{}: memory pressure shed no table spaces ({total} entries, {memo} of them memo)",
            config.name
        );
    }
}

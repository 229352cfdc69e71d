//! Checks on the run loop's prefetch paths and timing instrumentation.
//!
//! The run loop processes arrival slots in frames of eight and serves each
//! packet's three requests one at a time: a DevTLB probe, a Prefetch
//! Buffer probe on a DevTLB miss, and an IOMMU walk on a PB miss. (The
//! file name is historical: these checks once compared a batched probe
//! path against the scalar one.) On seeded (SplitMix64-derived) packet
//! streams this suite pins:
//!
//! 1. **Prefetch coverage**: the HyperTRIO runs at 128 and 1024 tenants
//!    exercise the PB probe and prefetch issue.
//! 2. **Timed-run equivalence**: the stage-timing instrumentation of
//!    `Simulation::run_timed` is behaviour-free — its report equals the
//!    untimed one.

use hypersio_sim::{SimParams, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, WorkloadKind};
use hypertrio_core::TranslationConfig;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15; // the SplitMix64 increment

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

/// The batched probes must not be vacuous for the prefetch branches: the
/// HyperTRIO runs exercise the PB probe and prefetch-issue batches.
#[test]
fn batched_runs_exercise_the_prefetch_paths() {
    for tenants in [128u32, 1024] {
        let report = Simulation::new(
            TranslationConfig::hypertrio(),
            SimParams::paper(),
            seeded_trace(tenants),
        )
        .run();
        assert!(report.prefetches_issued > 0, "@{tenants} tenants");
        assert!(report.pb_served_fraction > 0.0, "@{tenants} tenants");
    }
}

#[test]
fn timed_run_matches_untimed_run() {
    for config in configs() {
        let name = config.name.clone();
        let untimed = Simulation::new(config.clone(), SimParams::paper(), seeded_trace(128)).run();
        let (timed, stages) =
            Simulation::new(config, SimParams::paper(), seeded_trace(128)).run_timed();
        assert_eq!(
            timed, untimed,
            "{name}: timing instrumentation changed the run"
        );
        assert!(
            stages.total_ns() > 0,
            "{name}: instrumented run recorded no stage time"
        );
    }
}

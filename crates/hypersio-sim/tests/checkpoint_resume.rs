//! Interrupt–resume determinism, end to end.
//!
//! The contract of `hypersio-checkpoint/v3` (DESIGN.md §16) is that an
//! interrupted run, resumed from its checkpoint, is indistinguishable from
//! a run that was never interrupted: the final report is byte-identical
//! and the pre-interrupt event stream concatenated with the post-resume
//! stream equals the uninterrupted stream exactly. These tests pin that
//! contract at the nastiest interrupt points — mid invalidation storm and
//! mid PRI retry — across small and large tenant counts and both
//! translation designs, and then fuzz the two operator
//! inputs (checkpoint files, fault-plan JSON) with seeded corruption to
//! check that damage always surfaces as a typed error, never a panic and
//! never a silently wrong resume.

use hypersio_sim::{FaultPlan, RingRecorder, RunControl, RunOutcome, SimParams, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, Interleaving, WorkloadKind};
use hypersio_types::{SimDuration, SimTime, SplitMix64};
use hypertrio_core::TranslationConfig;

fn trace(tenants: u32, scale: u64, seed: u64) -> HyperTrace {
    HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
        .interleaving(Interleaving::round_robin(1))
        .scale(scale)
        .seed(seed)
        .build()
}

/// Elapsed simulated time of a plain (fault-free, default-params) run of
/// `t` — the yardstick the scenarios use to place storms and interrupt
/// points inside the run rather than guessing absolute times.
fn plain_elapsed_ps(config: &TranslationConfig, t: &HyperTrace) -> u64 {
    Simulation::new(config.clone(), SimParams::paper(), t.clone())
        .run()
        .elapsed
        .as_ps()
}

/// The core property: run `config`/`params`/`t` to completion, then run
/// the identical simulation again but interrupt it half-way and resume a
/// third instance from the interrupt checkpoint. The resumed report must
/// be byte-identical to the uninterrupted one, and the two event streams
/// must concatenate to the uninterrupted stream exactly.
fn assert_resume_is_bit_exact(
    config: TranslationConfig,
    params: SimParams,
    t: HyperTrace,
    label: &str,
) {
    // Size the rings from a one-record probe run so the exact stream
    // comparison never loses events to overwriting.
    let ring = {
        let mut probe = RingRecorder::new(1);
        Simulation::new(config.clone(), params.clone(), t.clone()).run_with(&mut probe);
        probe.len() + probe.overwritten() as usize + 1
    };
    let mut full_ring = RingRecorder::new(ring);
    let full = Simulation::new(config.clone(), params.clone(), t.clone()).run_with(&mut full_ring);
    assert_eq!(
        full_ring.overwritten(),
        0,
        "{label}: ring too small for exact stream comparison"
    );

    let stop_at = SimDuration::from_ps(full.elapsed.as_ps() / 2);
    let mut part1 = RingRecorder::new(ring);
    let mut ctl = RunControl {
        stop_after: Some(stop_at),
        ..RunControl::default()
    };
    let outcome = Simulation::new(config.clone(), params.clone(), t.clone())
        .run_controlled(&mut part1, &mut ctl);
    let RunOutcome::Interrupted { checkpoint } = outcome else {
        panic!("{label}: a half-way stop_after must interrupt the run");
    };

    let mut part2 = RingRecorder::new(ring);
    let mut resumed_sim = Simulation::new(config, params, t);
    resumed_sim
        .resume_from_bytes(&checkpoint)
        .expect("a run restores its own checkpoint");
    let resumed = resumed_sim.run_with(&mut part2);

    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "{label}: resumed report must be byte-identical to the uninterrupted run"
    );
    let stitched: Vec<_> = part1.iter().chain(part2.iter()).copied().collect();
    let uninterrupted: Vec<_> = full_ring.iter().copied().collect();
    assert_eq!(
        stitched, uninterrupted,
        "{label}: part1 ++ part2 must equal the uninterrupted event stream"
    );
}

/// The two tenant counts × two designs every scenario covers. `scale`
/// *divides* per-tenant request counts, so the large-tenant rows carry a
/// larger divisor to stay test-sized.
fn matrix() -> Vec<(TranslationConfig, u32, u64)> {
    vec![
        (TranslationConfig::base(), 128, 2000),
        (TranslationConfig::hypertrio(), 128, 2000),
        (TranslationConfig::base(), 1024, 4000),
        (TranslationConfig::hypertrio(), 1024, 4000),
    ]
}

#[test]
fn resume_mid_invalidation_storm_is_bit_exact() {
    for (config, tenants, scale) in matrix() {
        let t = trace(tenants, scale, 7);
        let plain = plain_elapsed_ps(&config, &t);
        // Recurring global storms starting a third of the way in: the
        // half-way interrupt lands with invalidations in flight.
        let plan = FaultPlan::none()
            .with_global_storm(SimTime::from_ps(plain / 3))
            .with_storm_period(SimDuration::from_ps((plain / 5).max(1)))
            .with_seed(11);
        assert_resume_is_bit_exact(
            config.clone(),
            SimParams::paper().with_fault_plan(plan),
            t,
            &format!("storm/{}/{}t", config.name, tenants),
        );
    }
}

#[test]
fn resume_mid_pri_retry_is_bit_exact() {
    for (config, tenants, scale) in matrix() {
        let t = trace(tenants, scale, 3);
        // A fault rate high enough that PRI round trips (5 µs — long
        // against these short runs) are always pending at the interrupt.
        let plan = FaultPlan::none()
            .with_fault_rate(0.05)
            .with_pri_latency(SimDuration::from_us(5))
            .with_seed(23);
        assert_resume_is_bit_exact(
            config.clone(),
            SimParams::paper().with_fault_plan(plan),
            t,
            &format!("pri/{}/{}t", config.name, tenants),
        );
    }
}

/// Seeded corruption fuzz over a real mid-run checkpoint: truncations,
/// bit flips, and byte splats at pseudo-random offsets. Every mutation
/// must either surface as a typed [`CheckpointError`] or — when it lands
/// on a byte no validation layer reads (say the header's opening brace) —
/// leave the restored state exactly equal to a clean resume. Nothing may
/// panic.
///
/// [`CheckpointError`]: hypersio_sim::CheckpointError
#[test]
fn corrupted_checkpoints_error_and_never_panic() {
    let config = TranslationConfig::hypertrio();
    let t = trace(64, 1000, 9);
    let full = Simulation::new(config.clone(), SimParams::paper(), t.clone()).run();
    let mut ctl = RunControl {
        stop_after: Some(SimDuration::from_ps(full.elapsed.as_ps() / 2)),
        ..RunControl::default()
    };
    let outcome = Simulation::new(config.clone(), SimParams::paper(), t.clone())
        .run_controlled(&mut hypersio_sim::NullObserver, &mut ctl);
    let RunOutcome::Interrupted { checkpoint } = outcome else {
        panic!("half-way stop must interrupt");
    };

    // What a clean resume produces, for the rare harmless mutation.
    let clean = {
        let mut sim = Simulation::new(config.clone(), SimParams::paper(), t.clone());
        sim.resume_from_bytes(&checkpoint).expect("clean resume");
        sim.run().to_json()
    };

    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..200 {
        let mut bytes = checkpoint.clone();
        match rng.below(3) {
            0 => bytes.truncate(rng.index(bytes.len())),
            1 => {
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            _ => {
                let at = rng.index(bytes.len());
                bytes[at] = rng.next_u64() as u8;
            }
        }
        let mut sim = Simulation::new(config.clone(), SimParams::paper(), t.clone());
        match sim.resume_from_bytes(&bytes) {
            // A typed error with a working Display — the CLI prints it.
            Err(e) => assert!(!e.to_string().is_empty()),
            // The mutation was invisible to every layer: the resume must
            // then be exactly the clean one, not silently divergent.
            Ok(()) => assert_eq!(sim.run().to_json(), clean),
        }
    }
}

/// The same treatment for the other operator-supplied file: seeded byte
/// corruption of a valid `fault_plan/v1` document must always come back
/// as `Ok` (the damage happened to still parse) or a descriptive `Err` —
/// never a panic.
#[test]
fn corrupted_fault_plans_error_and_never_panic() {
    let valid = br#"{"schema": "fault_plan/v1", "seed": 7, "fault_rate": 0.02,
 "pri_latency_us": 5.0, "storm_period_us": 40,
 "storms": [{"at_us": 10, "global": true}, {"at_us": 25, "did": 2}],
 "churns": [{"at_us": 30, "did": 1}],
 "backoff": {"base_slots": 1, "cap_slots": 32, "max_retries": 6}}"#;
    assert!(FaultPlan::from_json(std::str::from_utf8(valid).unwrap()).is_ok());

    let mut rng = SplitMix64::new(0xFAB);
    for _ in 0..300 {
        let mut bytes = valid.to_vec();
        match rng.below(3) {
            0 => bytes.truncate(rng.index(bytes.len())),
            1 => {
                let at = rng.index(bytes.len());
                bytes[at] = rng.next_u64() as u8;
            }
            _ => {
                // Splice a chunk out of the middle.
                let a = rng.index(bytes.len());
                let b = rng.index(bytes.len());
                bytes.drain(a.min(b)..a.max(b));
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = FaultPlan::from_json(&text) {
            assert!(!e.is_empty(), "errors must say what went wrong");
        }
    }
}

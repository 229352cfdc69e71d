//! DID-sharded intra-run parallelism.
//!
//! A single simulation is inherently sequential — every arrival slot
//! depends on the previous one through the DevTLB, PTB, and clock state.
//! What *can* run in parallel is a model decomposition: split the tenant
//! population across `S` independent device queues (shard `s` owns the
//! tenants whose DID ≡ `s` mod `S`), give each queue its own full link and
//! translation hardware, and run the `S` queues on a thread pool. Each
//! shard's packet streams are bit-identical to the corresponding lanes of
//! the full trace (the lane state depends only on the workload parameters,
//! the seed, and the global DID — see `HyperTraceBuilder::shard`), so the
//! decomposition is exact at the lane level; only the inter-tenant
//! interleaving and the edge-effect cutoff are per-queue.
//!
//! The merge is deterministic: shard reports are combined in shard-index
//! order regardless of which worker thread finished first, so
//! `jobs = N` is bit-identical to `jobs = 1` for any fixed shard count.
//! `shards = 1` degenerates to the plain unsharded run and returns its
//! report unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hypersio_cache::CacheStats;
use hypersio_mem::IommuStats;
use hypersio_obs::{Event, NullObserver, Observer, RingRecorder};
use hypersio_trace::HyperTraceBuilder;
use hypersio_types::{Bandwidth, Bytes, SimDuration};
use hypertrio_core::TranslationConfig;

use crate::control::{RunControl, RunOutcome};
use crate::error::SimError;
use crate::experiment::parallel_map;
use crate::latency::LatencyStats;
use crate::model::Simulation;
use crate::params::SimParams;
use crate::per_tenant::{PerTenantReport, TenantStat};
use crate::report::SimReport;

/// Frames an injected failure waits before panicking
/// ([`ShardRun::fail_shard_once`]); deep enough into the run that a retry
/// exercises real resume, shallow enough to fire before even a short test
/// trace is exhausted.
const FAIL_AFTER_FRAMES: u64 = 8;

/// How [`run_sharded`] runs a trace: the shard count, the worker pool,
/// event recording, and worker supervision. Each setting is independent
/// of the others.
///
/// Every worker runs under the same supervisor. A worker that panics (a
/// model bug, a poisoned allocation) is contained instead of tearing down
/// the whole run: the panic is caught, the shard is retried up to
/// [`ShardRun::max_attempts`] times, and only when every attempt fails
/// does the run surface [`SimError::ShardFailed`]. The default of one
/// attempt therefore turns a panic into that error without a retry.
/// Unrecorded workers resume each retry from the shard's last in-memory
/// checkpoint (taken at the [`ShardRun::checkpoint_every`] cadence);
/// recorded workers restart from scratch — a half-filled event ring
/// cannot be reconstructed mid-stream — and stamp an
/// [`Event::ShardRetry`] at the head of the fresh ring so the event
/// stream discloses the restart. Either way the merged report of a
/// retried run is bit-identical to a run that never panicked.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Independent device queues; shard `s` owns the tenants whose DID is
    /// `s` mod `shards`. At least 1.
    pub shards: u32,
    /// Worker threads the shards fan out over.
    pub jobs: usize,
    /// Records each shard's lifecycle events into its own
    /// [`RingRecorder`] of this many events; `None` records nothing.
    pub record: Option<usize>,
    /// Total attempts per shard (first run included); at least 1.
    pub max_attempts: u32,
    /// In-memory checkpoint cadence (simulated time) for unrecorded
    /// workers; `None` retries from the start of the shard.
    pub checkpoint_every: Option<SimDuration>,
    /// Test knob: the named shard panics once, on its first attempt,
    /// `FAIL_AFTER_FRAMES` (8) frames in. Exercises containment and retry
    /// deterministically; never set it in production runs.
    pub fail_shard_once: Option<u32>,
}

impl Default for ShardRun {
    /// One shard on one thread, no recording, one attempt: the plain run.
    fn default() -> Self {
        ShardRun {
            shards: 1,
            jobs: 1,
            record: None,
            max_attempts: 1,
            checkpoint_every: None,
            fail_shard_once: None,
        }
    }
}

/// Runs `builder`'s trace as `run.shards` independent DID-sharded device
/// queues on up to `run.jobs` threads and merges the per-shard reports.
///
/// Each shard builds its own sub-trace (`builder.shard(s, shards)`), runs
/// the full five-stage pipeline in its worker thread, and reports like any
/// other run; the merged report models the aggregate of `S` queues:
///
/// - counters (packets, drops, bytes, cache statistics, IOMMU traffic) are
///   summed in shard order;
/// - `elapsed` is the slowest queue's elapsed time, and `achieved` is the
///   total bytes over that interval;
/// - `utilization` is measured against `S×` the per-queue link bandwidth,
///   clamped to 1.0;
/// - `pb_served_fraction` is re-weighted by each shard's request count;
/// - the latency histogram is merged in shard order, and per-tenant rows
///   (when collected) are concatenated and sorted by global DID.
///
/// With [`ShardRun::record`] set, the per-shard rings come back in shard
/// order — concatenating them (e.g. with
/// [`hypersio_obs::write_jsonl_many`]) yields the deterministic merged
/// event stream; otherwise the vector is empty. Recording never changes
/// the report.
///
/// The result is bit-identical for every `jobs` value. `shards = 1` is the
/// plain unsharded run. Note that `shards > 1` legitimately changes the
/// model (S queues instead of one), so its report is *not* expected to
/// match the single-queue report.
///
/// # Errors
///
/// Returns [`SimError::NoShards`] when `shards` is zero,
/// [`SimError::ShardsExceedTenants`] when a shard would own no tenants,
/// [`SimError::FaultPlanSharded`] when a non-empty fault plan is combined
/// with `shards > 1` (the injector's schedule is defined over the full DID
/// population), and [`SimError::ShardFailed`] when a shard panics on every
/// attempt.
pub fn run_sharded(
    config: &TranslationConfig,
    params: &SimParams,
    builder: &HyperTraceBuilder,
    run: &ShardRun,
) -> Result<(SimReport, Vec<RingRecorder>), SimError> {
    let shards = run.shards;
    if shards == 0 {
        return Err(SimError::NoShards);
    }
    let tenants = builder.tenant_count();
    if shards > tenants {
        return Err(SimError::ShardsExceedTenants { shards, tenants });
    }
    if shards > 1 && !params.fault_plan.is_none() {
        return Err(SimError::FaultPlanSharded { shards });
    }
    let indices: Vec<u32> = (0..shards).collect();
    let results = parallel_map(&indices, run.jobs, |&s| {
        run_one_shard(config, params, builder, s, run)
    });
    // Collecting stops at the lowest failing shard index, so the error is
    // deterministic.
    let results: Vec<(SimReport, Option<RingRecorder>)> =
        results.into_iter().collect::<Result<_, _>>()?;
    let (reports, rings): (Vec<SimReport>, Vec<Option<RingRecorder>>) = results.into_iter().unzip();
    let rings = rings.into_iter().flatten().collect();
    Ok((merge_reports(reports, shards, params), rings))
}

/// One worker: runs shard `s` with up to `max_attempts` tries, containing
/// panics with [`catch_unwind`]. Unrecorded workers checkpoint at the
/// [`ShardRun::checkpoint_every`] cadence and resume a retry from the last
/// checkpoint; recorded workers restart from scratch and open the fresh
/// ring with an [`Event::ShardRetry`].
fn run_one_shard(
    config: &TranslationConfig,
    params: &SimParams,
    builder: &HyperTraceBuilder,
    s: u32,
    run: &ShardRun,
) -> Result<(SimReport, Option<RingRecorder>), SimError> {
    let max_attempts = run.max_attempts.max(1);
    // The last good checkpoint of this shard, held in memory; retries of
    // an unrecorded shard resume here instead of replaying the whole shard.
    let mut resume_point: Option<Vec<u8>> = None;
    for attempt in 1..=max_attempts {
        let mut latest: Option<Vec<u8>> = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let trace = builder.clone().shard(s, run.shards).build();
            let mut sim = Simulation::new(config.clone(), params.clone(), trace);
            let mut ring = run.record.map(RingRecorder::new);
            match (ring.as_mut(), &resume_point) {
                // A recorded retry restarts from scratch: the previous
                // attempt's half-filled ring is gone with its stack.
                // Disclose the restart as the first event.
                (Some(ring), _) if attempt > 1 => ring.record(
                    0,
                    Event::ShardRetry {
                        shard: s,
                        attempt: attempt as u64,
                    },
                ),
                (None, Some(bytes)) => sim
                    .resume_from_bytes(bytes)
                    .expect("in-memory checkpoint from this very run"),
                _ => {}
            }
            let mut sink = |bytes: Vec<u8>| latest = Some(bytes);
            let mut ctl = RunControl {
                // Only an unrecorded shard resumes, so only it checkpoints.
                checkpoint_every: run.checkpoint_every.filter(|_| ring.is_none()),
                checkpoint_sink: Some(&mut sink),
                panic_after_frames: (run.fail_shard_once == Some(s) && attempt == 1)
                    .then_some(FAIL_AFTER_FRAMES),
                ..RunControl::default()
            };
            let outcome = match ring.as_mut() {
                None => sim.run_controlled(&mut NullObserver, &mut ctl),
                Some(ring) => sim.run_controlled(ring, &mut ctl),
            };
            match outcome {
                RunOutcome::Completed(report) => (*report, ring),
                RunOutcome::Interrupted { .. } => {
                    unreachable!("no stop flag is wired into shard workers")
                }
            }
        }));
        // Keep the furthest checkpoint even from a failed attempt: the
        // panic happened after it was taken, so it is still a good state.
        if latest.is_some() {
            resume_point = latest;
        }
        if let Ok(result) = outcome {
            return Ok(result);
        }
    }
    Err(SimError::ShardFailed {
        shard: s,
        attempts: max_attempts,
    })
}

/// Merges per-shard reports in shard-index order (see [`run_sharded`] for
/// the field-by-field rules). A single report passes through unchanged.
fn merge_reports(mut reports: Vec<SimReport>, shards: u32, params: &SimParams) -> SimReport {
    assert!(!reports.is_empty(), "at least one shard report");
    if reports.len() == 1 {
        return reports.pop().expect("length checked above");
    }

    let collect_per_tenant = reports.iter().all(|r| r.per_tenant.is_some());
    let mut rows: Vec<TenantStat> = Vec::new();
    let mut packet_latency = LatencyStats::new();
    let mut pb_served_weighted = 0.0f64;

    let mut tenants = 0u32;
    let mut packets_processed = 0u64;
    let mut packets_dropped = 0u64;
    let mut bytes_raw = 0u64;
    let mut elapsed = SimDuration::ZERO;
    let mut devtlb = CacheStats::new();
    let mut prefetch_buffer = CacheStats::new();
    let mut prefetches_issued = 0u64;
    let mut prefetch_fills_late = 0u64;
    let mut prefetch_fills_expired = 0u64;
    let mut page_faults = 0u64;
    let mut pri_requests = 0u64;
    let mut faulted_drops = 0u64;
    let mut inv_storms = 0u64;
    let mut tenant_remaps = 0u64;
    let mut iommu = IommuStats::default();
    let mut l2_cache = CacheStats::new();
    let mut l3_cache = CacheStats::new();
    let mut translation_requests = 0u64;

    for r in &mut reports {
        tenants += r.tenants;
        packets_processed += r.packets_processed;
        packets_dropped += r.packets_dropped;
        bytes_raw += r.bytes.raw();
        elapsed = elapsed.max(r.elapsed);
        devtlb += r.devtlb;
        prefetch_buffer += r.prefetch_buffer;
        prefetches_issued += r.prefetches_issued;
        prefetch_fills_late += r.prefetch_fills_late;
        prefetch_fills_expired += r.prefetch_fills_expired;
        page_faults += r.page_faults;
        pri_requests += r.pri_requests;
        faulted_drops += r.faulted_drops;
        inv_storms += r.inv_storms;
        tenant_remaps += r.tenant_remaps;
        iommu.requests += r.iommu.requests;
        iommu.dram_accesses += r.iommu.dram_accesses;
        iommu.full_walks += r.iommu.full_walks;
        iommu.faults += r.iommu.faults;
        l2_cache += r.l2_cache;
        l3_cache += r.l3_cache;
        translation_requests += r.translation_requests;
        pb_served_weighted += r.pb_served_fraction * r.translation_requests as f64;
        packet_latency.merge(&r.packet_latency);
        if collect_per_tenant {
            rows.extend(r.per_tenant.take().expect("presence checked above").tenants);
        }
    }
    rows.sort_by_key(|t| t.did);

    let bytes = Bytes::new(bytes_raw);
    let achieved = Bandwidth::achieved(bytes, elapsed.max(SimDuration::from_ps(1)));
    // S queues, each with the full per-queue link.
    let aggregate_link = Bandwidth::from_bps(params.link.bandwidth().bps() * shards as u64);
    let utilization = achieved.utilization_of(aggregate_link).min(1.0);
    let pb_served_fraction = if translation_requests == 0 {
        0.0
    } else {
        pb_served_weighted / translation_requests as f64
    };

    let first = &reports[0];
    SimReport {
        config_name: first.config_name.clone(),
        workload: first.workload,
        interleaving: first.interleaving,
        tenants,
        packets_processed,
        packets_dropped,
        bytes,
        elapsed,
        achieved,
        utilization,
        devtlb,
        prefetch_buffer,
        pb_served_fraction,
        prefetches_issued,
        prefetch_fills_late,
        prefetch_fills_expired,
        page_faults,
        pri_requests,
        faulted_drops,
        inv_storms,
        tenant_remaps,
        iommu,
        l2_cache,
        l3_cache,
        translation_requests,
        packet_latency,
        per_tenant: collect_per_tenant.then_some(PerTenantReport { tenants: rows }),
        // Sharded runs never carry spans (the CLI rejects --spans-out with
        // --shards > 1), so the merged report has no breakdown to carry.
        latency_breakdown: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_trace::{HyperTraceBuilder, Interleaving, WorkloadKind};

    fn builder(tenants: u32, scale: u64) -> HyperTraceBuilder {
        HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
            .interleaving(Interleaving::round_robin(1))
            .scale(scale)
            .seed(11)
    }

    /// `shards` queues on `jobs` threads, otherwise the defaults.
    fn sharded(shards: u32, jobs: usize) -> ShardRun {
        ShardRun {
            shards,
            jobs,
            ..ShardRun::default()
        }
    }

    /// The merged report of an unrecorded run.
    fn report_of(
        config: &TranslationConfig,
        params: &SimParams,
        b: &HyperTraceBuilder,
        run: &ShardRun,
    ) -> Result<SimReport, SimError> {
        run_sharded(config, params, b, run).map(|(report, _)| report)
    }

    #[test]
    fn single_shard_is_the_unsharded_run() {
        let b = builder(16, 2000);
        let (sharded, rings) = run_sharded(
            &TranslationConfig::hypertrio(),
            &SimParams::paper(),
            &b,
            &ShardRun::default(),
        )
        .expect("valid single-shard run");
        assert!(rings.is_empty(), "nothing was recorded");
        let plain = Simulation::new(
            TranslationConfig::hypertrio(),
            SimParams::paper(),
            b.build(),
        )
        .run();
        assert_eq!(sharded, plain);
    }

    #[test]
    fn one_recorded_shard_writes_the_single_queue_stream() {
        let b = builder(16, 2000);
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper();
        let run = ShardRun {
            record: Some(1 << 16),
            ..ShardRun::default()
        };
        let (sharded, rings) = run_sharded(&config, &params, &b, &run).expect("valid run");
        assert_eq!(rings.len(), 1);
        let mut many = Vec::new();
        hypersio_obs::write_jsonl_many(&rings, &mut many).expect("in-memory write");

        let mut ring = RingRecorder::new(1 << 16);
        let plain = Simulation::new(config, params, b.build()).run_with(&mut ring);
        let mut single = Vec::new();
        ring.write_jsonl(&mut single).expect("in-memory write");
        assert_eq!(ring.overwritten(), 0, "the ring must hold the whole run");
        assert_eq!(sharded, plain);
        assert_eq!(many, single);
    }

    #[test]
    fn jobs_do_not_change_the_merged_report() {
        let b = builder(16, 1000);
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper().with_per_tenant();
        let serial = report_of(&config, &params, &b, &sharded(4, 1)).expect("valid run");
        let threaded = report_of(&config, &params, &b, &sharded(4, 3)).expect("valid run");
        assert_eq!(serial, threaded);
    }

    #[test]
    fn merged_counters_sum_the_shards() {
        let b = builder(8, 1000);
        let config = TranslationConfig::base();
        let params = SimParams::paper();
        let merged = report_of(&config, &params, &b, &sharded(2, 1)).expect("valid run");
        let shard0 = Simulation::new(
            config.clone(),
            params.clone(),
            b.clone().shard(0, 2).build(),
        )
        .run();
        let shard1 = Simulation::new(
            config.clone(),
            params.clone(),
            b.clone().shard(1, 2).build(),
        )
        .run();
        assert_eq!(merged.tenants, 8);
        assert_eq!(
            merged.packets_processed,
            shard0.packets_processed + shard1.packets_processed
        );
        assert_eq!(merged.bytes.raw(), shard0.bytes.raw() + shard1.bytes.raw());
        assert_eq!(merged.elapsed, shard0.elapsed.max(shard1.elapsed));
        assert_eq!(
            merged.iommu.dram_accesses,
            shard0.iommu.dram_accesses + shard1.iommu.dram_accesses
        );
        assert_eq!(
            merged.packet_latency.count(),
            shard0.packet_latency.count() + shard1.packet_latency.count()
        );
    }

    #[test]
    fn per_tenant_rows_cover_all_global_dids_in_order() {
        let b = builder(9, 1000);
        let merged = report_of(
            &TranslationConfig::hypertrio(),
            &SimParams::paper().with_per_tenant(),
            &b,
            &sharded(3, 2),
        )
        .expect("valid run");
        let pt = merged.per_tenant.as_ref().expect("per-tenant opted in");
        let dids: Vec<u32> = pt.tenants.iter().map(|t| t.did).collect();
        assert_eq!(dids, (0..9).collect::<Vec<u32>>());
        let packets: u64 = pt.tenants.iter().map(|t| t.packets).sum();
        assert_eq!(packets, merged.packets_processed);
    }

    #[test]
    fn recording_never_changes_the_report() {
        let b = builder(8, 1000);
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper();
        let plain = report_of(&config, &params, &b, &sharded(2, 2)).expect("valid run");
        let run = ShardRun {
            record: Some(4096),
            ..sharded(2, 2)
        };
        let (recorded, rings) = run_sharded(&config, &params, &b, &run).expect("valid run");
        assert_eq!(plain, recorded);
        assert_eq!(rings.len(), 2);
        assert!(rings.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn aggregate_utilization_measures_against_all_queues() {
        // 2 tenants per queue saturate even Base. With equal-length lanes
        // both queues finish together, so the merged utilization must stay
        // near 1.0 — i.e. measured against S×link, not one link — and the
        // merged achieved bandwidth must exceed what one link can carry.
        let b = builder(4, 1).requests_per_tenant(3000);
        let params = SimParams::paper().with_warmup(500);
        let merged =
            report_of(&TranslationConfig::base(), &params, &b, &sharded(2, 1)).expect("valid run");
        let one_queue = Simulation::new(
            TranslationConfig::base(),
            params.clone(),
            b.clone().shard(0, 2).build(),
        )
        .run();
        // Symmetric queues: the aggregate utilization equals the per-queue
        // utilization (against S×link), not half of it.
        assert!(
            (merged.utilization - one_queue.utilization).abs() < 0.02,
            "merged {} vs per-queue {}",
            merged.utilization,
            one_queue.utilization
        );
        assert!(merged.utilization <= 1.0);
        assert!(
            merged.achieved.gbps() > params.link.bandwidth().gbps(),
            "aggregate throughput {} must exceed one link",
            merged.achieved.gbps()
        );
    }

    #[test]
    fn fault_plans_reject_multiple_shards() {
        let plan = crate::faults::FaultPlan::none().with_fault_rate(0.01);
        let err = report_of(
            &TranslationConfig::base(),
            &SimParams::paper().with_fault_plan(plan),
            &builder(8, 1000),
            &sharded(2, 1),
        )
        .expect_err("fault plans must reject multiple shards");
        assert_eq!(err, SimError::FaultPlanSharded { shards: 2 });
    }

    #[test]
    fn precondition_violations_are_typed_errors() {
        let config = TranslationConfig::base();
        let params = SimParams::paper();
        let err = report_of(&config, &params, &builder(8, 1000), &sharded(0, 1))
            .expect_err("zero shards is invalid");
        assert_eq!(err, SimError::NoShards);
        let err = report_of(&config, &params, &builder(4, 1000), &sharded(5, 1))
            .expect_err("a shard would own no tenants");
        assert_eq!(
            err,
            SimError::ShardsExceedTenants {
                shards: 5,
                tenants: 4
            }
        );
    }

    #[test]
    fn a_panicking_shard_is_retried_and_merges_identically() {
        let b = builder(8, 1000);
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper();
        let clean = report_of(&config, &params, &b, &sharded(2, 1)).expect("valid run");
        let run = ShardRun {
            max_attempts: 2,
            // ~4 frames apart at this scale: the retry resumes from a real
            // mid-run checkpoint rather than restarting from scratch.
            checkpoint_every: Some(SimDuration::from_us(1)),
            fail_shard_once: Some(1),
            ..sharded(2, 1)
        };
        let survived =
            report_of(&config, &params, &b, &run).expect("one panic is within the retry budget");
        assert_eq!(clean, survived);
    }

    #[test]
    fn retry_exhaustion_is_a_shard_failed_error() {
        let b = builder(8, 1000);
        // The default single attempt: the injected panic consumes it, and
        // the run reports the shard instead of unwinding into the caller.
        let run = ShardRun {
            checkpoint_every: Some(SimDuration::from_us(1)),
            fail_shard_once: Some(0),
            ..sharded(2, 2)
        };
        let err = report_of(
            &TranslationConfig::hypertrio(),
            &SimParams::paper(),
            &b,
            &run,
        )
        .expect_err("the failing shard has no retry budget");
        assert_eq!(
            err,
            SimError::ShardFailed {
                shard: 0,
                attempts: 1
            }
        );
    }

    #[test]
    fn recorded_retry_discloses_itself_and_merges_identically() {
        let b = builder(8, 1000);
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper();
        let recorded = ShardRun {
            record: Some(4096),
            ..sharded(2, 1)
        };
        let (clean, clean_rings) = run_sharded(&config, &params, &b, &recorded).expect("valid run");
        let run = ShardRun {
            max_attempts: 3,
            fail_shard_once: Some(0),
            ..recorded
        };
        let (survived, rings) =
            run_sharded(&config, &params, &b, &run).expect("one panic is within the retry budget");
        assert_eq!(clean, survived);
        // The retried shard's ring opens with the ShardRetry marker; apart
        // from that one extra event the streams are identical.
        let head = rings[0].iter().next().expect("ring is non-empty");
        assert_eq!(head.at_ps, 0);
        assert_eq!(
            head.kind.decode(head.did, head.a, head.b),
            Event::ShardRetry {
                shard: 0,
                attempt: 2
            }
        );
        let tail: Vec<_> = rings[0].iter().skip(1).collect();
        let clean0: Vec<_> = clean_rings[0].iter().collect();
        assert_eq!(tail, clean0);
        // The shard that never panicked records the clean stream verbatim.
        let clean1: Vec<_> = clean_rings[1].iter().collect();
        let survived1: Vec<_> = rings[1].iter().collect();
        assert_eq!(survived1, clean1);
    }

    #[test]
    fn supervised_without_failures_matches_unsupervised() {
        let b = builder(8, 1000);
        let config = TranslationConfig::base();
        let params = SimParams::paper();
        let plain = report_of(&config, &params, &b, &sharded(2, 1)).expect("valid run");
        let run = ShardRun {
            max_attempts: 3,
            checkpoint_every: Some(SimDuration::from_us(3)),
            ..sharded(2, 1)
        };
        let supervised = report_of(&config, &params, &b, &run).expect("valid run");
        assert_eq!(plain, supervised);
    }
}

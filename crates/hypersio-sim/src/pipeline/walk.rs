//! Walk stage: PTB admission/occupancy and the IOMMU translation engine.

use hypersio_cache::CacheStats;
use hypersio_mem::{Iommu, IommuResponse, IommuStats, TranslationFault};
use hypersio_obs::{Event, Observer, SpanComponents};
use hypersio_types::{Did, GIova, Sid, SimDuration, SimTime};
use hypertrio_core::TlbEntry;

use super::lookup::LookupStage;
use super::{page_base, Deferred, ReqClock};
use crate::slot_pool::SlotPool;

/// Stage 4 — the Pending Translation Buffer and the IOMMU behind it.
///
/// Owns the PTB slot pool (admission control: a packet must find at least
/// one free slot at arrival or it is dropped, §IV-C), the optional IOMMU
/// walker pool (walker contention), and the IOMMU itself (context fetch +
/// two-dimensional walk, or flat-table reads).
///
/// Every in-flight translation — hit or miss — occupies a PTB slot, which
/// is what gives the single-entry Base PTB its head-of-line blocking: one
/// outstanding walk blocks even packets that would have hit.
///
/// Emits [`Event::PtbAlloc`]/[`Event::PtbRelease`] and, for demand walks,
/// [`Event::WalkStart`]/[`Event::WalkDone`] (prefetch walks are run
/// through [`WalkStage::translate`] and stamped by the prefetch stage,
/// interleaved with its `Prefetch*` events).
pub(crate) struct WalkStage {
    iommu: Iommu,
    ptb: SlotPool,
    walkers: Option<SlotPool>,
    pcie_round: SimDuration,
    hit_latency: SimDuration,
}

impl WalkStage {
    /// Creates the stage around a constructed IOMMU and PTB.
    pub(crate) fn new(
        iommu: Iommu,
        ptb: SlotPool,
        walkers: Option<SlotPool>,
        pcie_round: SimDuration,
        hit_latency: SimDuration,
    ) -> Self {
        WalkStage {
            iommu,
            ptb,
            walkers,
            pcie_round,
            hit_latency,
        }
    }

    /// Admission: can a packet allocate into the PTB at `now`? Native
    /// bypass mode admits unconditionally (nothing is tracked).
    pub(crate) fn admit(&self, now: SimTime, bypass: bool) -> bool {
        bypass || self.ptb.has_free(now)
    }

    /// The earliest time any PTB slot becomes free (the first arrival slot
    /// at or after this instant will pass admission).
    pub(crate) fn ptb_earliest_free(&self) -> SimTime {
        self.ptb.earliest_free()
    }

    /// Serves an admitted packet: hits occupy a PTB slot for the hit
    /// latency, misses for the PCIe round trip plus the walk; walked
    /// translations are installed into the DevTLB. Returns the packet's
    /// completion time (when its last translation finishes) together with
    /// the service-side latency decomposition of the *critical*
    /// (latest-finishing) translation — `ptb_wait + lookup + pcie + walk`
    /// sums exactly to `completion - now`. The decomposition is tracked
    /// only when the observer's compile-time
    /// [`SPANS`](Observer::SPANS) gate is on; otherwise the returned
    /// components are zeroed and the tracking compiles away.
    ///
    /// Each miss takes its own request tick and IOMMU translation, then
    /// its PTB slot, events and DevTLB install, in request order.
    pub(crate) fn serve<O: Observer>(
        &mut self,
        work: &Deferred,
        now: SimTime,
        lookup: &mut LookupStage,
        clock: &mut ReqClock,
        obs: &mut O,
    ) -> (SimTime, SpanComponents) {
        let mut completion = now + self.hit_latency;
        // The critical path starts as the in-slot hit latency (the floor
        // every packet pays) and is replaced whenever a scheduled
        // translation finishes at or after the running completion — ties
        // resolve to the last translation reaching the maximum, matching
        // `SimTime::max`. Each candidate's components sum to `end - now`,
        // so the final components sum to `completion - now` exactly.
        let mut parts = SpanComponents::default();
        if O::SPANS {
            parts.lookup_ps = self.hit_latency.as_ps();
        }
        for _ in 0..work.hits {
            let (start, end) = self.ptb.schedule(now, self.hit_latency);
            if O::SPANS && end >= completion {
                parts = SpanComponents {
                    lookup_ps: self.hit_latency.as_ps(),
                    ptb_wait_ps: start.duration_since(now).as_ps(),
                    ..SpanComponents::default()
                };
            }
            completion = completion.max(end);
            if O::ENABLED {
                obs.record(
                    start.as_ps(),
                    Event::PtbAlloc {
                        start_ps: start.as_ps(),
                        end_ps: end.as_ps(),
                    },
                );
                obs.record(end.as_ps(), Event::PtbRelease);
            }
        }
        for &iova in work.misses.as_slice() {
            let req = clock.tick();
            let resp = self
                .iommu
                .translate(work.packet.sid, work.packet.did, iova, req);
            if O::ENABLED {
                obs.record(
                    now.as_ps(),
                    Event::WalkStart {
                        did: work.packet.did,
                        iova,
                    },
                );
            }
            match resp {
                Ok(resp) => {
                    let walk = self.walk_latency(now, resp.latency);
                    let (start, end) = self.ptb.schedule(now, self.pcie_round + walk);
                    if O::SPANS && end >= completion {
                        parts = SpanComponents {
                            ptb_wait_ps: start.duration_since(now).as_ps(),
                            pcie_ps: self.pcie_round.as_ps(),
                            walk_ps: walk.as_ps(),
                            ..SpanComponents::default()
                        };
                    }
                    completion = completion.max(end);
                    if O::ENABLED {
                        obs.record(
                            start.as_ps(),
                            Event::PtbAlloc {
                                start_ps: start.as_ps(),
                                end_ps: end.as_ps(),
                            },
                        );
                        obs.record(end.as_ps(), Event::PtbRelease);
                        obs.record(
                            end.as_ps(),
                            Event::WalkDone {
                                did: work.packet.did,
                                latency_ps: walk.as_ps(),
                            },
                        );
                    }
                    lookup.install(
                        work.packet.sid,
                        work.packet.did,
                        iova,
                        TlbEntry {
                            hpa_base: page_base(resp.hpa, resp.size),
                            size: resp.size,
                        },
                        req,
                        now,
                        obs,
                    );
                }
                Err(fault) => {
                    // Synthetic inventories map every trace page; a fault
                    // here is a construction bug.
                    panic!("unexpected translation fault: {fault}");
                }
            }
        }
        (completion, parts)
    }

    /// One raw IOMMU translation on behalf of the prefetch stage (which
    /// stamps the walk events itself, interleaved with its own).
    pub(crate) fn translate(
        &mut self,
        sid: Sid,
        did: Did,
        iova: GIova,
        req: u64,
    ) -> Result<IommuResponse, TranslationFault> {
        self.iommu.translate(sid, did, iova, req)
    }

    /// IOMMU-side latency for one walk, accounting for walker contention
    /// when a walker cap is configured.
    pub(crate) fn walk_latency(&mut self, at: SimTime, walk: SimDuration) -> SimDuration {
        match self.walkers.as_mut() {
            None => walk,
            Some(pool) => {
                let (_, end) = pool.schedule(at, walk);
                end.duration_since(at)
            }
        }
    }

    /// Shoots down one tenant's IOMMU-side walk-cache entries (L2, L3,
    /// nested), returning how many were removed.
    pub(crate) fn invalidate_did(&mut self, did: Did) -> usize {
        self.iommu.invalidate_did(did)
    }

    /// Flushes every IOMMU-side walk cache (global invalidation).
    pub(crate) fn invalidate_all(&mut self) {
        self.iommu.flush();
    }

    /// Migrates `did` to host slab `slab`: its page tables are rebuilt at
    /// the new host addresses and the IOMMU's cached state (walk caches +
    /// context entry) is invalidated. Returns the walk-cache entries
    /// removed.
    pub(crate) fn migrate_tenant(&mut self, did: Did, slab: u64) -> usize {
        self.iommu.migrate_tenant(did, slab)
    }

    /// Aggregate IOMMU statistics.
    pub(crate) fn iommu_stats(&self) -> IommuStats {
        self.iommu.stats()
    }

    /// (L2, L3) walk-cache statistics.
    pub(crate) fn walk_cache_stats(&self) -> (CacheStats, CacheStats) {
        self.iommu.walk_cache_stats()
    }

    /// Sheds re-derivable IOMMU memory (the walk memo) under memory
    /// pressure; returns the memo entries dropped. Model-transparent: the
    /// memo is rebuilt bit-identically on demand.
    pub(crate) fn relieve_memory_pressure(&mut self) -> u64 {
        self.iommu.relieve_memory_pressure()
    }

    /// Appends the stage's state for a run checkpoint: the IOMMU (stats,
    /// context cache, walk caches, migrated tenants' slabs), the PTB
    /// occupancy, and the optional walker pool.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.iommu.snapshot_words(out);
        self.ptb.snapshot_words(out);
        match &self.walkers {
            None => out.push(0),
            Some(pool) => {
                out.push(1);
                pool.snapshot_words(out);
            }
        }
    }

    /// Restores the stage from a checkpoint stream; the walker-pool flag
    /// must match this stage's configuration.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.iommu.restore_words(r)?;
        self.ptb.restore_words(r)?;
        match (r.next()?, self.walkers.as_mut()) {
            (0, None) => Some(()),
            (1, Some(pool)) => pool.restore_words(r),
            _ => None,
        }
    }
}

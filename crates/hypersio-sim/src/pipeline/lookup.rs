//! Lookup stage: the per-request DevTLB / Prefetch Buffer probe.

use hypersio_cache::CacheStats;
use hypersio_obs::{Event, Observer};
use hypersio_trace::TracePacket;
use hypersio_types::{Did, GIova, Sid, SimTime};
use hypertrio_core::{DevTlb, TlbEntry};

use super::arrival::{Misses, SpanSeed};
use super::completion::CompletionStage;
use super::prefetch::PrefetchStage;
use super::{Deferred, ReqClock};
use crate::sid_map::SidMap;

/// Stage 3 — one DevTLB/PB probe per translation request, once per packet.
///
/// Owns the DevTLB and the translation-request counters.
///
/// Probes are performed exactly once per packet even across PTB-full
/// retries, so oracle replacement sees each request exactly once. Native
/// mode (Fig 5 host-interface runs) bypasses the probe entirely but still
/// counts and clocks the requests.
///
/// Emits [`Event::DevTlbHit`]/[`Event::DevTlbMiss`]/[`Event::DevTlbEvict`]
/// and [`Event::PbHit`]/[`Event::PbMiss`].
pub(crate) struct LookupStage {
    devtlb: DevTlb,
    bypass: bool,
    requests: u64,
    pb_served: u64,
}

impl LookupStage {
    /// Creates the stage around a constructed DevTLB.
    pub(crate) fn new(devtlb: DevTlb, bypass: bool) -> Self {
        LookupStage {
            devtlb,
            bypass,
            requests: 0,
            pb_served: 0,
        }
    }

    /// True when translation is bypassed (native host interface).
    pub(crate) fn bypass(&self) -> bool {
        self.bypass
    }

    /// Probes all of a fresh packet's requests against the DevTLB and (on
    /// DevTLB miss) the Prefetch Buffer, producing the packet's precomputed
    /// translation outcome for admission and service.
    ///
    /// Requests are probed one at a time in request order, each at its own
    /// request tick, and each request's events are emitted as it resolves.
    // Sibling stages are threaded explicitly — that is the pipeline's
    // interface style, not incidental parameter sprawl.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe<O: Observer>(
        &mut self,
        packet: TracePacket,
        now: SimTime,
        prefetch: &mut PrefetchStage,
        tenants: &mut CompletionStage,
        clock: &mut ReqClock,
        sids: &mut SidMap,
        obs: &mut O,
    ) -> Deferred {
        // The packet path resolves SIDs through the same shared map as the
        // prefetch path; the trace generator guarantees they agree.
        debug_assert_eq!(
            sids.resolve(packet.sid.raw()),
            packet.did,
            "trace packet carries a foreign DID"
        );
        let mut misses = Misses::default();
        let mut hits = 0u32;
        let n = packet.iovas.len() as u64;
        self.requests += n;
        if self.bypass {
            clock.advance(n);
        } else {
            let did = packet.did;
            for iova in packet.iovas {
                let req = clock.tick();
                if self.devtlb.lookup(packet.sid, did, iova, req).is_some() {
                    hits += 1;
                    if O::ENABLED {
                        obs.record(now.as_ps(), Event::DevTlbHit { did });
                    }
                    tenants.note_devtlb(did, true);
                    continue;
                }
                if O::ENABLED {
                    obs.record(now.as_ps(), Event::DevTlbMiss { did });
                }
                tenants.note_devtlb(did, false);
                // `None` means the design has no prefetch unit at all (no
                // PbMiss events, matching the pinned-silent Base taxonomy).
                match prefetch.probe_buffer(did, iova, req) {
                    Some(true) => {
                        self.pb_served += 1;
                        hits += 1;
                        if O::ENABLED {
                            obs.record(now.as_ps(), Event::PbHit { did });
                        }
                        tenants.note_pb_hit(did);
                        continue;
                    }
                    Some(false) if O::ENABLED => {
                        obs.record(now.as_ps(), Event::PbMiss { did });
                    }
                    _ => {}
                }
                misses.push(iova);
            }
        }
        Deferred {
            packet,
            misses,
            hits,
            fault_retries: 0,
            span: SpanSeed::default(),
        }
    }

    /// Shoots down one tenant's DevTLB entries (hypervisor-initiated
    /// invalidation), returning how many were removed.
    pub(crate) fn invalidate_did(&mut self, did: Did) -> usize {
        self.devtlb.invalidate_did(did)
    }

    /// Shoots down the whole DevTLB (global invalidation).
    pub(crate) fn invalidate_all(&mut self) {
        self.devtlb.clear();
    }

    /// Installs a walked translation into the DevTLB, reporting the
    /// tenant-visible eviction if the fill displaced one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install<O: Observer>(
        &mut self,
        sid: Sid,
        did: Did,
        iova: GIova,
        entry: TlbEntry,
        req: u64,
        now: SimTime,
        obs: &mut O,
    ) {
        let evicted = self.devtlb.insert(sid, did, iova, entry, req);
        if O::ENABLED {
            if let Some((old, _)) = evicted {
                obs.record(now.as_ps(), Event::DevTlbEvict { did: old.did });
            }
        }
    }

    /// Total translation requests (three per processed packet).
    pub(crate) fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests served from the Prefetch Buffer.
    pub(crate) fn pb_served(&self) -> u64 {
        self.pb_served
    }

    /// DevTLB access statistics.
    pub(crate) fn devtlb_stats(&self) -> &CacheStats {
        self.devtlb.stats()
    }

    /// Appends the stage's state for a run checkpoint: the DevTLB contents
    /// and the request counters.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.devtlb.snapshot_words(out);
        out.push(self.requests);
        out.push(self.pb_served);
    }

    /// Restores the stage from a checkpoint stream.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.devtlb.restore_words(r)?;
        self.requests = r.next()?;
        self.pb_served = r.next()?;
        Some(())
    }
}

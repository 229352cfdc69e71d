//! Prefetch stage: SID-predictor observation, prefetch planning/issue,
//! and the pending-fill delivery heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hypersio_cache::{CacheStats, WordCodec};
use hypersio_obs::{Event, Observer};
use hypersio_trace::TracePacket;
use hypersio_types::{Did, GIova, Sid, SimDuration, SimTime};
use hypertrio_core::{PrefetchUnit, TlbEntry};

use super::{page_base, walk::WalkStage};
use crate::faults::FaultInjector;
use crate::sid_map::SidMap;

/// A prefetched translation waiting to be delivered to the Prefetch Buffer.
///
/// Delivery is pegged to the device's *observed-access* counter, not to
/// simulated time: the SID-predictor predicts the tenant `history_len`
/// observed packets ahead, so the chipset schedules the response for just
/// before that access (`due_obs`, computed by [`fill_due_obs`]). A walk
/// that has not finished by then (`done_ps`) is late and the fill is
/// discarded; an instant fill would be churned out of the 8-entry PB long
/// before use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingFill {
    /// Observed-packet count at which the fill becomes deliverable
    /// (delivered once `observed >= due_obs`).
    pub(crate) due_obs: u64,
    /// Simulated time at which the prefetch walk completes.
    pub(crate) done_ps: u64,
    /// Tenant prefetched for.
    pub(crate) did: Did,
    /// Page prefetched.
    pub(crate) iova: GIova,
    /// The translation to install.
    pub(crate) entry: TlbEntry,
}

impl WordCodec for PendingFill {
    // [due_obs, done_ps, did, iova, entry(2)]
    const WORDS: usize = 6;

    fn encode_words(&self, out: &mut Vec<u64>) {
        out.push(self.due_obs);
        out.push(self.done_ps);
        self.did.encode_words(out);
        self.iova.encode_words(out);
        self.entry.encode_words(out);
    }

    fn decode_words(words: &[u64]) -> Option<Self> {
        let (head, rest) = words.split_at_checked(2)?;
        let &[due_obs, done_ps] = head else {
            return None;
        };
        let (did, rest) = rest.split_at_checked(1)?;
        let (iova, entry) = rest.split_at_checked(1)?;
        Some(PendingFill {
            due_obs,
            done_ps,
            did: Did::decode_words(did)?,
            iova: GIova::decode_words(iova)?,
            entry: TlbEntry::decode_words(entry)?,
        })
    }
}

impl PartialOrd for PendingFill {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingFill {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_obs, self.done_ps, self.did, self.iova.raw()).cmp(&(
            other.due_obs,
            other.done_ps,
            other.did,
            other.iova.raw(),
        ))
    }
}

/// Delivery point of a prefetch triggered at observed-access `observed`
/// with predictor history length `history_len`.
///
/// The predicted access is expected `history_len` packets after the
/// trigger; the chipset holds the completed walk and delivers it **two
/// packets early** (a lead of `history_len - 2`): one slot for the trigger
/// packet itself and one slot of slack, so the entry is resident when the
/// predicted tenant's access probes the PB. History 8 therefore yields a
/// lead of 6, history 3 a lead of 1, and history 2 sits exactly on the
/// boundary where the two-packet early delivery cancels the lead.
///
/// Histories **under 2 cannot lead** and are handled explicitly rather
/// than by saturating arithmetic (the old `saturating_sub(2)` silently
/// collapsed 0, 1, and 2 without saying which were degenerate and why):
///
/// * `history_len == 1` — the predictor fires on the very next packet;
///   there is no room for early delivery, so the fill is due at the
///   trigger's own observed count. It is delivered at the next arrival's
///   delivery scan (which runs before that packet's probe) and can still
///   serve that access if the walk beat the inter-arrival gap.
/// * `history_len == 0` — no predictor exists (prefetch is off); the
///   due-point is never consumed, and the trigger's own count is the
///   inert value.
///
/// All three degenerate-or-boundary cases thus *coincide in value* —
/// `fill_due_obs(t, 0) == fill_due_obs(t, 1) == fill_due_obs(t, 2) == t`
/// — but each for its own documented reason; from history 3 upward every
/// extra history slot adds one slot of lead.
pub(crate) fn fill_due_obs(observed: u64, history_len: usize) -> u64 {
    match history_len as u64 {
        // Degenerate predictors (see above): due at the trigger itself.
        0 | 1 => observed,
        n => observed + (n - 2),
    }
}

/// Stage 2 — the translation prefetcher (§III).
///
/// Owns the optional [`PrefetchUnit`] (SID-predictor + IOVA history +
/// Prefetch Buffer) and the heap of [`PendingFill`]s scheduled for future
/// delivery. Consulted twice per fresh packet: once to deliver fills that
/// have come due, once to observe the arrival and issue new prefetches
/// (which borrows the [`WalkStage`] for the actual IOMMU translations —
/// the stages are separate fields of the pipeline state, so no
/// detach/re-attach dance is needed).
///
/// Emits `PrefetchPredict`/`PrefetchIssue`/`PrefetchFill`/`PrefetchLate`/
/// `PrefetchExpire` and `PbEvict`, plus `WalkStart`/`WalkDone` for the
/// walks issued on its behalf (stamped interleaved with the prefetch
/// events, exactly as the hardware would overlap them).
pub(crate) struct PrefetchStage {
    unit: Option<PrefetchUnit>,
    fills: BinaryHeap<Reverse<PendingFill>>,
    /// Recycled buffer for prefetch plans: `observe_and_issue` runs once
    /// per fresh packet, and planning into this buffer keeps the hot path
    /// free of per-packet heap allocation.
    plan_buf: Vec<GIova>,
    /// Configured SID-predictor history length (0 when prefetch is off).
    history_len: usize,
    /// Memory latency of one IOVA-history fetch.
    history_read: SimDuration,
    /// Device ↔ chipset PCIe round trip (prefetch responses cross it).
    pcie_round: SimDuration,
    issued: u64,
    fills_late: u64,
}

impl PrefetchStage {
    /// Creates the stage; `unit` is `None` for non-prefetching designs.
    pub(crate) fn new(
        unit: Option<PrefetchUnit>,
        history_read: SimDuration,
        pcie_round: SimDuration,
    ) -> Self {
        let history_len = unit.as_ref().map(|u| u.history_len()).unwrap_or(0);
        PrefetchStage {
            unit,
            fills: BinaryHeap::new(),
            plan_buf: Vec::new(),
            history_len,
            history_read,
            pcie_round,
            issued: 0,
            fills_late: 0,
        }
    }

    /// Delivers every pending fill scheduled for this point in the access
    /// stream; completed walks enter the PB, unfinished ones are late and
    /// discarded.
    pub(crate) fn deliver_due<O: Observer>(
        &mut self,
        observed: u64,
        now: SimTime,
        req_now: u64,
        obs: &mut O,
    ) {
        while let Some(Reverse(fill)) = self.fills.peek().copied() {
            if fill.due_obs > observed {
                break;
            }
            self.fills.pop();
            if fill.done_ps <= now.as_ps() {
                let evicted = self
                    .unit
                    .as_mut()
                    .and_then(|pf| pf.fill(fill.did, fill.iova, fill.entry, req_now));
                if O::ENABLED {
                    obs.record(
                        now.as_ps(),
                        Event::PrefetchFill {
                            did: fill.did,
                            iova: fill.iova,
                        },
                    );
                    if let Some((old, _)) = evicted {
                        obs.record(now.as_ps(), Event::PbEvict { did: old.did });
                    }
                }
            } else {
                self.fills_late += 1;
                if O::ENABLED {
                    obs.record(
                        now.as_ps(),
                        Event::PrefetchLate {
                            did: fill.did,
                            iova: fill.iova,
                        },
                    );
                }
            }
        }
    }

    /// Observes an arrival from `sid`; if the predictor proposes a tenant,
    /// plans and issues the prefetch walks through `walk` and schedules
    /// their deliveries.
    // Sibling stages are threaded explicitly — that is the pipeline's
    // interface style, not incidental parameter sprawl.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe_and_issue<O: Observer>(
        &mut self,
        sid: Sid,
        now: SimTime,
        observed: u64,
        sids: &mut SidMap,
        walk: &mut WalkStage,
        faults: Option<&FaultInjector>,
        req_now: u64,
        obs: &mut O,
    ) {
        let Some(req) = self.unit.as_mut().and_then(|pf| pf.observe(sid)) else {
            return;
        };
        if O::ENABLED {
            obs.record(now.as_ps(), Event::PrefetchPredict { sid: req.sid });
        }
        let did = sids.resolve(req.sid.raw());
        // Take the recycled buffer out of `self` so the unit can plan into
        // it while the loop below still mutates sibling fields.
        let mut pages = std::mem::take(&mut self.plan_buf);
        self.unit
            .as_mut()
            .expect("a prediction implies a unit")
            .plan_into(did, req_now, &mut pages);
        for &iova in &pages {
            // Never install a translation for a page that is currently
            // not-present: the demand path would trust the stale PB entry.
            if faults.is_some_and(|f| f.page_unmapped(did, iova)) {
                continue;
            }
            if O::ENABLED {
                obs.record(now.as_ps(), Event::WalkStart { did, iova });
            }
            // Translate ahead of time; warms the walk caches and fills the
            // PB later.
            let Ok(resp) = walk.translate(req.sid, did, iova, req_now) else {
                continue;
            };
            self.issued += 1;
            let latency = walk.walk_latency(now, resp.latency);
            let done = now + self.history_read + self.pcie_round + latency;
            if O::ENABLED {
                obs.record(now.as_ps(), Event::PrefetchIssue { did, iova });
                obs.record(
                    done.as_ps(),
                    Event::WalkDone {
                        did,
                        latency_ps: latency.as_ps(),
                    },
                );
            }
            self.fills.push(Reverse(PendingFill {
                due_obs: fill_due_obs(observed, self.history_len),
                done_ps: done.as_ps(),
                did,
                iova,
                entry: TlbEntry {
                    hpa_base: page_base(resp.hpa, resp.size),
                    size: resp.size,
                },
            }));
        }
        self.plan_buf = pages;
    }

    /// Shoots down one tenant's prefetch state: its Prefetch Buffer
    /// entries, its IOVA history, and every pending fill queued for it
    /// (the heap is rebuilt from the surviving fills, deterministically).
    pub(crate) fn invalidate_did(&mut self, did: Did) {
        if let Some(pf) = self.unit.as_mut() {
            pf.invalidate_did(did);
        }
        let fills = std::mem::take(&mut self.fills).into_vec();
        self.fills = fills
            .into_iter()
            .filter(|Reverse(f)| f.did != did)
            .collect();
    }

    /// Shoots down every tenant's prefetch state (global invalidation).
    pub(crate) fn invalidate_all(&mut self) {
        if let Some(pf) = self.unit.as_mut() {
            pf.invalidate_all();
        }
        self.fills.clear();
    }

    /// Probes the Prefetch Buffer for `iova`. `None` when no unit is
    /// configured; `Some(hit)` otherwise (the probe counts in the PB's
    /// cache statistics either way it resolves).
    pub(crate) fn probe_buffer(&mut self, did: Did, iova: GIova, req_now: u64) -> Option<bool> {
        self.unit
            .as_mut()
            .map(|pf| pf.lookup(did, iova, req_now).is_some())
    }

    /// Records a served packet's gIOVAs in the per-DID history.
    pub(crate) fn record_history(&mut self, packet: &TracePacket) {
        if let Some(pf) = self.unit.as_mut() {
            for iova in packet.iovas {
                pf.record_history(packet.did, iova);
            }
        }
    }

    /// Drains fills still queued at the end of the run — their predicted
    /// access never arrived — and returns how many expired. Events are
    /// emitted in deterministic heap order, stamped at `at` (the end of
    /// simulated time).
    pub(crate) fn expire_remaining<O: Observer>(&mut self, at: SimTime, obs: &mut O) -> u64 {
        let expired = self.fills.len() as u64;
        if O::ENABLED {
            while let Some(Reverse(fill)) = self.fills.pop() {
                obs.record(
                    at.as_ps(),
                    Event::PrefetchExpire {
                        did: fill.did,
                        iova: fill.iova,
                    },
                );
            }
        }
        expired
    }

    /// Prefetch walks issued to the IOMMU.
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }

    /// Fills discarded because their walk outlived the delivery point.
    pub(crate) fn fills_late(&self) -> u64 {
        self.fills_late
    }

    /// Prefetch Buffer statistics (zeroed default when prefetch is off).
    pub(crate) fn buffer_stats(&self) -> CacheStats {
        self.unit
            .as_ref()
            .map(|pf| *pf.buffer_stats())
            .unwrap_or_default()
    }

    /// Appends the stage's full state for a run checkpoint: the unit's
    /// presence flag and contents, the pending fills in canonical (sorted)
    /// order, and the issue counters.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        match &self.unit {
            None => out.push(0),
            Some(pf) => {
                out.push(1);
                pf.snapshot_words(out);
            }
        }
        let mut fills: Vec<&PendingFill> = self.fills.iter().map(|Reverse(f)| f).collect();
        fills.sort();
        out.push(fills.len() as u64);
        for fill in fills {
            fill.encode_words(out);
        }
        out.push(self.issued);
        out.push(self.fills_late);
    }

    /// Restores the stage from a checkpoint stream; the unit flag must
    /// match this stage's configuration (prefetch on vs off).
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        match (r.next()?, self.unit.as_mut()) {
            (0, None) => {}
            (1, Some(pf)) => pf.restore_words(r)?,
            _ => return None,
        }
        let n = r.len_capped(r.remaining() / PendingFill::WORDS)?;
        self.fills.clear();
        for _ in 0..n {
            self.fills.push(Reverse(r.decode::<PendingFill>()?));
        }
        self.issued = r.next()?;
        self.fills_late = r.next()?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_obs::{CountingObserver, EventKind, NullObserver};
    use hypersio_types::{HPa, PageSize};

    fn entry() -> TlbEntry {
        TlbEntry {
            hpa_base: HPa::new(0x7000_0000),
            size: PageSize::Size4K,
        }
    }

    fn fill(due_obs: u64, done_ps: u64) -> Reverse<PendingFill> {
        Reverse(PendingFill {
            due_obs,
            done_ps,
            did: Did::new(1),
            iova: GIova::new(0x1000),
            entry: entry(),
        })
    }

    fn stage() -> PrefetchStage {
        PrefetchStage::new(
            Some(PrefetchUnit::new(8, 48, 2)),
            SimDuration::from_ns(50),
            SimDuration::from_ns(900),
        )
    }

    // ---- fill_due_obs semantics (pinned; see the function docs) ----

    #[test]
    fn due_obs_leads_by_history_minus_two_at_history_8() {
        assert_eq!(fill_due_obs(10, 8), 16);
        assert_eq!(fill_due_obs(0, 8), 6);
    }

    #[test]
    fn due_obs_gains_one_lead_slot_per_history_slot_from_3() {
        // History 3 is the smallest history with a real (one-slot) lead;
        // each further slot adds exactly one.
        assert_eq!(fill_due_obs(10, 3), 11);
        assert_eq!(fill_due_obs(10, 4), 12);
        for h in 3..10 {
            assert_eq!(fill_due_obs(10, h + 1), fill_due_obs(10, h) + 1);
        }
    }

    #[test]
    fn due_obs_collapses_to_zero_lead_at_history_2() {
        // history_len = 2 is the boundary: the two-packet early delivery
        // exactly cancels the lead, so the fill is due at the trigger.
        assert_eq!(fill_due_obs(10, 2), 10);
    }

    #[test]
    fn due_obs_is_the_trigger_itself_for_degenerate_histories() {
        // history_len = 1: the predictor fires on the very next packet, so
        // there is no room to lead — due at the trigger.
        assert_eq!(fill_due_obs(10, 1), 10);
        // history_len = 0: no predictor exists; the inert value is the
        // trigger's own count.
        assert_eq!(fill_due_obs(10, 0), 10);
        // The degenerate cases coincide in value with the history-2
        // boundary — each for its own documented reason — and are the only
        // coincidences: history 3 is already distinct.
        assert_eq!(fill_due_obs(10, 0), fill_due_obs(10, 2));
        assert_eq!(fill_due_obs(10, 1), fill_due_obs(10, 2));
        assert_ne!(fill_due_obs(10, 3), fill_due_obs(10, 2));
    }

    // ---- delivery behaviour around the due point ----

    #[test]
    fn fill_delivered_once_observed_reaches_due() {
        let mut st = stage();
        st.fills.push(fill(5, 1_000));
        let mut counts = CountingObserver::new();
        // observed < due_obs: stays queued.
        st.deliver_due(4, SimTime::from_ps(2_000), 0, &mut counts);
        assert_eq!(st.fills.len(), 1);
        // observed == due_obs and the walk is done: delivered.
        st.deliver_due(5, SimTime::from_ps(2_000), 0, &mut counts);
        assert!(st.fills.is_empty());
        assert_eq!(counts.count(EventKind::PrefetchFill), 1);
        assert_eq!(st.fills_late(), 0);
    }

    #[test]
    fn unfinished_walk_at_due_point_is_late() {
        let mut st = stage();
        st.fills.push(fill(5, 10_000));
        let mut counts = CountingObserver::new();
        st.deliver_due(5, SimTime::from_ps(2_000), 0, &mut counts);
        assert!(st.fills.is_empty());
        assert_eq!(st.fills_late(), 1);
        assert_eq!(counts.count(EventKind::PrefetchLate), 1);
        assert_eq!(counts.count(EventKind::PrefetchFill), 0);
    }

    #[test]
    fn undelivered_fills_expire_in_heap_order() {
        let mut st = stage();
        st.fills.push(fill(9, 1));
        st.fills.push(fill(7, 1));
        let mut counts = CountingObserver::new();
        let expired = st.expire_remaining(SimTime::from_ps(123), &mut counts);
        assert_eq!(expired, 2);
        assert_eq!(counts.count(EventKind::PrefetchExpire), 2);
        assert!(st.fills.is_empty());
        // The count is identical with a disabled observer.
        let mut st = stage();
        st.fills.push(fill(9, 1));
        assert_eq!(
            st.expire_remaining(SimTime::from_ps(123), &mut NullObserver),
            1
        );
    }

    #[test]
    fn shootdown_purges_pending_fills_for_that_tenant_only() {
        let mut st = stage();
        st.fills.push(fill(5, 1)); // did 1
        st.fills.push(Reverse(PendingFill {
            due_obs: 6,
            done_ps: 1,
            did: Did::new(2),
            iova: GIova::new(0x2000),
            entry: entry(),
        }));
        st.invalidate_did(Did::new(1));
        assert_eq!(st.fills.len(), 1);
        assert_eq!(
            st.fills.peek().expect("one fill survives").0.did,
            Did::new(2)
        );
        st.invalidate_all();
        assert!(st.fills.is_empty());
    }

    #[test]
    fn probe_buffer_is_none_without_a_unit() {
        let mut st = PrefetchStage::new(None, SimDuration::from_ns(50), SimDuration::from_ns(900));
        assert_eq!(st.probe_buffer(Did::new(0), GIova::new(0x1000), 0), None);
        assert_eq!(st.buffer_stats(), CacheStats::default());
        assert_eq!(st.expire_remaining(SimTime::ZERO, &mut NullObserver), 0);
    }
}

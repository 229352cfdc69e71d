//! The staged translation pipeline behind [`crate::Simulation`].
//!
//! The paper models a fixed hardware pipeline — link arrival → Prefetch
//! Unit → DevTLB/PB probe → PTB allocation → nested walk → completion —
//! and this module mirrors it as five concrete stages with narrow typed
//! interfaces (see `DESIGN.md` §10 for the stage graph and event-emission
//! ownership):
//!
//! * [`ArrivalSource`] — trace iteration, the retry/deferred slot, and the
//!   arrival/observed counters (`PacketArrival`/`PacketRetry`).
//! * [`PrefetchStage`] — SID-predictor observation, prefetch planning and
//!   issue, and the [`PendingFill`] delivery heap (`PrefetchPredict`/
//!   `PrefetchIssue`/`PrefetchFill`/`PrefetchLate`/`PrefetchExpire`,
//!   `PbEvict`, plus `WalkStart`/`WalkDone` for walks it issues).
//! * [`LookupStage`] — the per-request DevTLB/PB probe (`DevTlbHit`/
//!   `DevTlbMiss`/`DevTlbEvict`, `PbHit`/`PbMiss`).
//! * [`WalkStage`] — PTB admission/occupancy, IOMMU translation, and
//!   walker contention (`PtbAlloc`/`PtbRelease`, demand `WalkStart`/
//!   `WalkDone`).
//! * [`CompletionStage`] — packet latency, warm-up bookkeeping, and the
//!   per-tenant accumulators (`PacketDrop`/`PacketComplete`).
//!
//! Every stage is a concrete struct and every observer parameter is a
//! generic monomorphized into the caller (the [`hypersio_obs::Observer`]
//! pattern) — there are **no trait objects on the per-packet path**, so
//! the staged engine compiles to the same flat code as the monolithic
//! loop it replaced. Cross-stage effects are method calls taking the
//! sibling stage `&mut`: the stages live side by side in
//! [`PipelineState`], so split borrows replace the old
//! `Option::take`/re-attach dance around the prefetch unit.

pub(crate) mod arrival;
pub(crate) mod completion;
pub(crate) mod lookup;
pub(crate) mod prefetch;
pub(crate) mod walk;

pub(crate) use arrival::{ArrivalSource, Deferred, Fetched};
pub(crate) use completion::CompletionStage;
pub(crate) use lookup::LookupStage;
pub(crate) use prefetch::PrefetchStage;
pub(crate) use walk::WalkStage;

use crate::sid_map::SidMap;

/// The logical request clock: one tick per translation request.
///
/// Cache replacement (LRU recency, oracle positions) is keyed by this
/// counter, not by simulated time — the DevTLB sees exactly one probe per
/// request in trace order, which is what makes the Belady oracle of
/// [`crate::devtlb_oracle_for`] line up with the run.
///
/// Each request's DevTLB/PB probe takes one [`ReqClock::tick`] and each
/// demand walk takes another, in request order. Native bypass mode
/// [advances](ReqClock::advance) past requests it never probes, and the
/// prefetch stage runs its residency probes, walks and fills at the
/// [current](ReqClock::current) tick without taking one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReqClock {
    next: u64,
}

impl ReqClock {
    /// Returns the current tick and advances the clock by one (one
    /// translation request).
    pub(crate) fn tick(&mut self) -> u64 {
        let now = self.next;
        self.next += 1;
        now
    }

    /// Advances the clock by `n` without observing individual ticks
    /// (native bypass mode: requests exist but are never probed).
    pub(crate) fn advance(&mut self, n: u64) {
        self.next += n;
    }

    /// Returns the current tick without advancing.
    pub(crate) fn current(&self) -> u64 {
        self.next
    }

    /// Appends the clock for a run checkpoint (one word).
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.next);
    }

    /// Restores the clock from a checkpoint stream.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.next = r.next()?;
        Some(())
    }
}

/// The mutable state of one simulation run: the five pipeline stages plus
/// the cross-stage request clock and SID map.
///
/// This replaces the ~15 ad-hoc mutable locals the monolithic loop used to
/// thread through 400 lines of control flow. Stages are separate fields,
/// so the orchestrator in [`crate::Simulation::run_with`] can hand any
/// stage a `&mut` sibling without borrow-juggling.
pub(crate) struct PipelineState {
    /// Link arrival + retry slot.
    pub(crate) arrival: ArrivalSource,
    /// Prefetch Unit + pending-fill scheduler.
    pub(crate) prefetch: PrefetchStage,
    /// DevTLB / Prefetch Buffer probe.
    pub(crate) lookup: LookupStage,
    /// PTB + IOMMU walk engine.
    pub(crate) walk: WalkStage,
    /// Latency / per-tenant / report accumulation.
    pub(crate) completion: CompletionStage,
    /// Shared SID → DID resolution (arrival + prefetch paths).
    pub(crate) sids: SidMap,
    /// Logical per-request clock.
    pub(crate) clock: ReqClock,
    /// Fault injector, only constructed when the run has a non-empty
    /// [`FaultPlan`](crate::FaultPlan) — `None` keeps the fault-free path
    /// byte-identical to a build without fault injection.
    pub(crate) faults: Option<crate::faults::FaultInjector>,
}

/// Truncates a translated address back to its page base for caching.
pub(crate) fn page_base(
    hpa: hypersio_types::HPa,
    size: hypersio_types::PageSize,
) -> hypersio_types::HPa {
    hypersio_types::HPa::new(hpa.raw() & !size.offset_mask())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_clock_ticks_and_advances() {
        let mut clock = ReqClock::default();
        assert_eq!(clock.tick(), 0);
        assert_eq!(clock.tick(), 1);
        clock.advance(3);
        assert_eq!(clock.current(), 5);
        assert_eq!(clock.tick(), 5);
    }

    #[test]
    fn page_base_masks_offset() {
        use hypersio_types::{HPa, PageSize};
        let base = page_base(HPa::new(0x7000_1234), PageSize::Size4K);
        assert_eq!(base.raw(), 0x7000_1000);
        let base = page_base(HPa::new(0x7012_3456), PageSize::Size2M);
        assert_eq!(base.raw(), 0x7000_0000);
    }
}

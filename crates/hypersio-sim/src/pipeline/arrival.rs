//! Link-arrival stage: trace iteration and the retry/deferred queue.

use std::collections::VecDeque;

use hypersio_obs::{Event, Observer};
use hypersio_trace::{HyperTrace, TracePacket};
use hypersio_types::{GIova, SimDuration, SimTime};

/// Arrival-side span bookkeeping carried through a packet's drop/retry
/// lifecycle: the accumulated wait-side latency components and the drop
/// counts that end up in the packet's
/// [`PacketSpan`](hypersio_obs::PacketSpan).
///
/// Inert (default-constructed and never touched) unless the observer's
/// compile-time [`SPANS`](hypersio_obs::Observer::SPANS) gate is on and
/// it [wants spans](hypersio_obs::Observer::wants_spans) at run time, so
/// span assembly costs nothing on the plain path. Wait segments are
/// measured from `wait_from_ps` to the *actual* re-fetch slot, so the
/// totals stay exact whether the drop/retry spin is iterated per slot or
/// bulk fast-forwarded (`ArrivalSource::fast_forward_drops` skips only
/// re-park slots, which contribute no service time).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanSeed {
    /// 0-based packet sequence number (trace-observation order).
    pub(crate) seq: u64,
    /// First arrival time on the link.
    pub(crate) arrival_ps: u64,
    /// Accumulated backoff spent re-trying after PTB-full drops.
    pub(crate) retry_wait_ps: u64,
    /// Accumulated backoff spent waiting for PRI fault service.
    pub(crate) pri_wait_ps: u64,
    /// Start of the wait segment currently accruing.
    pub(crate) wait_from_ps: u64,
    /// PTB-full drops so far.
    pub(crate) ptb_retries: u32,
    /// Cause of the pending wait segment: PRI fault service vs PTB retry.
    pub(crate) wait_is_fault: bool,
}

impl SpanSeed {
    /// Notes a drop at `now_ps`: opens a wait segment of the given cause
    /// (PTB-full drops also count a retry; fault drops are counted by the
    /// caller via `Deferred::fault_retries`).
    pub(crate) fn note_drop(&mut self, now_ps: u64, is_fault: bool) {
        if !is_fault {
            self.ptb_retries += 1;
        }
        self.wait_is_fault = is_fault;
        self.wait_from_ps = now_ps;
    }

    /// Notes the packet's re-fetch at `now_ps`: closes the pending wait
    /// segment into the component its cause selects.
    pub(crate) fn note_refetch(&mut self, now_ps: u64) {
        let seg = now_ps.saturating_sub(self.wait_from_ps);
        if self.wait_is_fault {
            self.pri_wait_ps += seg;
        } else {
            self.retry_wait_ps += seg;
        }
        self.wait_from_ps = now_ps;
    }

    /// Accounts the `skipped` re-drops of a bulk fast-forwarded retry
    /// spin (every skipped slot was a PTB-full drop; the wait time itself
    /// is picked up by [`SpanSeed::note_refetch`] at the real retry slot).
    pub(crate) fn note_bulk_drops(&mut self, skipped: u64) {
        self.ptb_retries = self
            .ptb_retries
            .saturating_add(skipped.min(u32::MAX as u64) as u32);
    }

    /// Appends the seed's state for a run checkpoint (7 words).
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.extend([
            self.seq,
            self.arrival_ps,
            self.retry_wait_ps,
            self.pri_wait_ps,
            self.wait_from_ps,
            self.ptb_retries as u64,
            self.wait_is_fault as u64,
        ]);
    }

    /// Decodes a seed from a checkpoint stream.
    pub(crate) fn decode(r: &mut hypersio_cache::WordReader<'_>) -> Option<Self> {
        Some(SpanSeed {
            seq: r.next()?,
            arrival_ps: r.next()?,
            retry_wait_ps: r.next()?,
            pri_wait_ps: r.next()?,
            wait_from_ps: r.next()?,
            ptb_retries: u32::try_from(r.next()?).ok()?,
            wait_is_fault: r.decode::<bool>()?,
        })
    }
}

/// The requests of one packet that missed both the DevTLB and the
/// Prefetch Buffer, in request order. A packet issues exactly three
/// translation requests, so the list is inline.
pub(crate) struct Misses {
    iovas: [GIova; 3],
    len: u8,
}

impl Default for Misses {
    fn default() -> Self {
        Misses {
            iovas: [GIova::new(0); 3],
            len: 0,
        }
    }
}

impl Misses {
    /// Appends a missed request.
    ///
    /// # Panics
    ///
    /// Panics if the packet already holds three misses.
    pub(crate) fn push(&mut self, iova: GIova) {
        self.iovas[usize::from(self.len)] = iova;
        self.len += 1;
    }

    /// The missed requests, in request order.
    pub(crate) fn as_slice(&self) -> &[GIova] {
        &self.iovas[..usize::from(self.len)]
    }
}

/// A packet waiting for retry after a drop, with its pre-computed
/// translation outcome (lookups are performed once per packet so that
/// oracle replacement sees each request exactly once).
pub(crate) struct Deferred {
    /// The packet occupying the retry slot.
    pub(crate) packet: TracePacket,
    /// Requests that missed both the DevTLB and the Prefetch Buffer.
    pub(crate) misses: Misses,
    /// Requests that hit the DevTLB or Prefetch Buffer; they still occupy
    /// a PTB slot for the hit latency (every in-flight translation is
    /// tracked, which is what gives the single-entry Base design its
    /// head-of-line blocking).
    pub(crate) hits: u32,
    /// Slots this packet was dropped for a not-present page (the fault
    /// injector's backoff counter; always 0 without fault injection).
    pub(crate) fault_retries: u32,
    /// Wait-side latency attribution (inert unless the observer assembles
    /// spans).
    pub(crate) span: SpanSeed,
}

impl Deferred {
    /// Appends the deferred packet's state for a run checkpoint.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        use hypersio_cache::WordCodec;
        self.packet.encode_words(out);
        let misses = self.misses.as_slice();
        out.push(misses.len() as u64);
        for iova in misses {
            iova.encode_words(out);
        }
        out.push(self.hits as u64);
        out.push(self.fault_retries as u64);
        self.span.snapshot_words(out);
    }

    /// Decodes a deferred packet from a checkpoint stream. A packet issues
    /// exactly three translation requests, so more than three recorded
    /// hits and misses together is corruption.
    pub(crate) fn decode(r: &mut hypersio_cache::WordReader<'_>) -> Option<Self> {
        let packet: TracePacket = r.decode()?;
        let n = r.len_capped(3)?;
        let mut misses = Misses::default();
        for _ in 0..n {
            misses.push(r.decode::<GIova>()?);
        }
        let hits = u32::try_from(r.next()?).ok()?;
        if hits as usize + n > 3 {
            return None;
        }
        let fault_retries = u32::try_from(r.next()?).ok()?;
        let span = SpanSeed::decode(r)?;
        Some(Deferred {
            packet,
            misses,
            hits,
            fault_retries,
            span,
        })
    }
}

/// One parked packet and the slot at which it becomes eligible again.
struct Parked {
    eligible_slot: u64,
    work: Deferred,
}

/// What the arrival stage produced for one slot.
pub(crate) enum Fetched {
    /// The trace is exhausted and no retry is pending: the run is over.
    Exhausted,
    /// The trace is exhausted but backed-off packets are still parked:
    /// the slot passes with no packet (fault injection only — without it
    /// at most one packet is parked and it is always eligible).
    Idle,
    /// A previously dropped packet re-enters service (already probed).
    Retry(Deferred),
    /// A fresh trace packet arrived; it still needs its DevTLB/PB probe.
    Fresh(TracePacket),
}

/// Stage 1 — packets enter the device from the link.
///
/// Owns the trace iterator, the retry queue (a PTB-dropped packet is
/// retried at the next arrival slot, §IV-C; a fault-blocked packet after
/// its backoff delay), and the arrival-side counters: `slot` (arrival
/// slots elapsed, which fixes simulated time), `arrivals` (slots that
/// carried a packet), and `observed` (trace packets seen by the device,
/// the clock against which prefetch fills are scheduled).
///
/// Emits [`Event::PacketArrival`] and [`Event::PacketRetry`].
pub(crate) struct ArrivalSource {
    trace: HyperTrace,
    gap: SimDuration,
    parked: VecDeque<Parked>,
    /// Arrival slots elapsed (consumed or idle).
    slot: u64,
    /// Slots that carried a packet.
    arrivals: u64,
    observed: u64,
}

impl ArrivalSource {
    /// Creates the stage over `trace` with the link's inter-arrival gap.
    pub(crate) fn new(trace: HyperTrace, gap: SimDuration) -> Self {
        ArrivalSource {
            trace,
            gap,
            parked: VecDeque::new(),
            slot: 0,
            arrivals: 0,
            observed: 0,
        }
    }

    /// Start time of the current arrival slot (also: end of simulated time
    /// once the loop has finished, since every slot advances it).
    pub(crate) fn slot_time(&self) -> SimTime {
        SimTime::ZERO + self.gap * self.slot
    }

    /// Produces the packet for the slot starting at `now`: the first
    /// eligible parked retry if one exists, otherwise the next trace
    /// packet.
    pub(crate) fn fetch<O: Observer>(&mut self, now: SimTime, obs: &mut O) -> Fetched {
        if let Some(idx) = self
            .parked
            .iter()
            .position(|p| p.eligible_slot <= self.slot)
        {
            let parked = self.parked.remove(idx).expect("position() is in range");
            if O::ENABLED {
                obs.record(
                    now.as_ps(),
                    Event::PacketRetry {
                        did: parked.work.packet.did,
                    },
                );
            }
            return Fetched::Retry(parked.work);
        }
        match self.trace.next() {
            None if self.parked.is_empty() => Fetched::Exhausted,
            None => Fetched::Idle,
            Some(packet) => {
                self.observed += 1;
                if O::ENABLED {
                    obs.record(
                        now.as_ps(),
                        Event::PacketArrival {
                            sid: packet.sid,
                            did: packet.did,
                        },
                    );
                }
                Fetched::Fresh(packet)
            }
        }
    }

    /// Marks the current slot as consumed by a packet (admitted or
    /// dropped). The exhausted case never reaches this, so `arrivals`
    /// counts exactly the slots that carried a packet.
    pub(crate) fn consume_slot(&mut self) {
        self.slot += 1;
        self.arrivals += 1;
    }

    /// Advances past an idle slot (no packet was eligible; time still
    /// passes on the link).
    pub(crate) fn skip_slot(&mut self) {
        self.slot += 1;
    }

    /// Parks a dropped packet for retry at the next arrival slot.
    pub(crate) fn defer(&mut self, work: Deferred) {
        self.defer_after(work, 1);
    }

    /// Parks a dropped packet for retry `delay_slots` slots after the one
    /// it was dropped in: a delay of 0 means "the same slot" (the packet
    /// is immediately eligible again), a delay of `n` means eligible at
    /// drop slot + `n` (so 1 is the next slot).
    ///
    /// Called after [`ArrivalSource::consume_slot`], so the drop slot is
    /// `self.slot - 1`. The previous formula anchored the delay at
    /// `self.slot` and subtracted one from the delay instead, which
    /// collapsed delays 0 and 1 into the same retry slot; anchoring at the
    /// drop slot keeps every delay distinct. (Production backoffs are
    /// always ≥ 1, for which both formulas agree.) The subtraction
    /// saturates for the degenerate park-before-any-slot case, anchoring
    /// at slot 0.
    pub(crate) fn defer_after(&mut self, work: Deferred, delay_slots: u64) {
        self.parked.push_back(Parked {
            eligible_slot: self.slot.saturating_sub(1) + delay_slots,
            work,
        });
    }

    /// Bulk-advances past the drop/retry spin of a PTB-blocked packet.
    ///
    /// Precondition (guaranteed on the fault-free path): exactly one packet
    /// is parked and it is eligible every slot, so each slot strictly
    /// before `until` would fetch it, fail admission (the PTB stays busy
    /// until `until`), drop it, and re-park it. This method accounts all
    /// of those slots at once — each carried the packet, so both `slot`
    /// and `arrivals` advance — and leaves the source positioned at the
    /// first slot whose arrival time is at or after `until`, where the
    /// retry will pass admission. Returns the number of slots skipped (the
    /// caller owes one recorded drop per slot).
    pub(crate) fn fast_forward_drops(&mut self, until: SimTime) -> u64 {
        let gap = self.gap.as_ps();
        debug_assert!(gap > 0, "a link never has a zero inter-arrival gap");
        let target_slot = until.as_ps().div_ceil(gap);
        let skipped = target_slot.saturating_sub(self.slot);
        self.slot += skipped;
        self.arrivals += skipped;
        skipped
    }

    /// Trace packets seen by the device so far.
    pub(crate) fn observed(&self) -> u64 {
        self.observed
    }

    /// Arrival slots consumed so far.
    #[cfg(test)]
    pub(crate) fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// The underlying trace (workload metadata for the report).
    pub(crate) fn trace(&self) -> &HyperTrace {
        &self.trace
    }

    /// Appends the stage's full state for a run checkpoint: the trace
    /// cursor, the slot/arrival/observed counters, and the parked queue in
    /// front-to-back order.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.trace.snapshot_words(out);
        out.push(self.slot);
        out.push(self.arrivals);
        out.push(self.observed);
        out.push(self.parked.len() as u64);
        for p in &self.parked {
            out.push(p.eligible_slot);
            p.work.snapshot_words(out);
        }
    }

    /// Restores the stage from a checkpoint stream. The trace restore
    /// validates the lane layout, so a foreign stream is rejected before
    /// any counter is touched.
    ///
    /// `max_delay` is the longest retry delay the run can park a packet
    /// for (the fault plan's backoff cap, or 1 without faults): a parked
    /// packet eligible later than `max_delay` slots past the current slot
    /// cannot come from this run, and is rejected rather than resumed into
    /// a run that idles until it.
    pub(crate) fn restore_words(
        &mut self,
        r: &mut hypersio_cache::WordReader<'_>,
        max_delay: u64,
    ) -> Option<()> {
        self.trace.restore_words(r)?;
        self.slot = r.next()?;
        self.arrivals = r.next()?;
        self.observed = r.next()?;
        // Each parked entry is at least 16 words (slot + packet + miss
        // count + counters + span), so the remaining stream length bounds
        // the queue.
        let n = r.len_capped(r.remaining() / 16)?;
        self.parked.clear();
        for _ in 0..n {
            let eligible_slot = r.next()?;
            if eligible_slot > self.slot.saturating_add(max_delay) {
                return None;
            }
            let work = Deferred::decode(r)?;
            self.parked.push_back(Parked {
                eligible_slot,
                work,
            });
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_obs::NullObserver;
    use hypersio_trace::{HyperTraceBuilder, WorkloadKind};

    fn tiny_trace() -> HyperTrace {
        HyperTraceBuilder::new(WorkloadKind::Iperf3, 2)
            .scale(5000)
            .build()
    }

    fn deferred(packet: TracePacket) -> Deferred {
        Deferred {
            packet,
            misses: Misses::default(),
            hits: 0,
            fault_retries: 0,
            span: SpanSeed::default(),
        }
    }

    /// A checkpointed deferred packet with `hits` hits and `misses` misses.
    fn deferred_words(packet: TracePacket, hits: u64, misses: u64) -> Vec<u64> {
        use hypersio_cache::WordCodec;
        let mut words = Vec::new();
        packet.encode_words(&mut words);
        words.push(misses);
        for i in 0..misses {
            GIova::new(0x1000 * (i + 1)).encode_words(&mut words);
        }
        words.extend([hits, 0]);
        SpanSeed::default().snapshot_words(&mut words);
        words
    }

    #[test]
    fn deferred_decode_rejects_more_than_three_requests() {
        use hypersio_cache::WordReader;
        let packet = tiny_trace().next().expect("trace is non-empty");
        for (hits, misses) in [(0, 3), (1, 2), (3, 0), (0, 0)] {
            let words = deferred_words(packet, hits, misses);
            let work = Deferred::decode(&mut WordReader::new(&words))
                .unwrap_or_else(|| panic!("{hits} hits + {misses} misses must decode"));
            assert_eq!(work.hits as u64, hits);
            assert_eq!(work.misses.as_slice().len() as u64, misses);
        }
        // Each count fits the cap on its own, but a packet never serves
        // more than three translations.
        for (hits, misses) in [(3, 3), (1, 3), (3, 1), (2, 2)] {
            let words = deferred_words(packet, hits, misses);
            assert!(
                Deferred::decode(&mut WordReader::new(&words)).is_none(),
                "{hits} hits + {misses} misses decoded"
            );
        }
    }

    #[test]
    fn fresh_packets_bump_observed_and_slots_advance() {
        let gap = SimDuration::from_ns(10);
        let mut src = ArrivalSource::new(tiny_trace(), gap);
        assert_eq!(src.slot_time(), SimTime::ZERO);
        let Fetched::Fresh(_) = src.fetch(src.slot_time(), &mut NullObserver) else {
            panic!("expected a fresh packet");
        };
        assert_eq!(src.observed(), 1);
        src.consume_slot();
        assert_eq!(src.arrivals(), 1);
        assert_eq!(src.slot_time().as_ns(), 10);
    }

    #[test]
    fn deferred_packet_takes_priority_without_observing() {
        let mut src = ArrivalSource::new(tiny_trace(), SimDuration::from_ns(10));
        let Fetched::Fresh(packet) = src.fetch(SimTime::ZERO, &mut NullObserver) else {
            panic!("expected a fresh packet");
        };
        src.consume_slot();
        src.defer(deferred(packet));
        let observed = src.observed();
        let Fetched::Retry(_) = src.fetch(src.slot_time(), &mut NullObserver) else {
            panic!("expected the retry");
        };
        assert_eq!(src.observed(), observed, "retries are not re-observed");
    }

    #[test]
    fn exhaustion_after_trace_ends() {
        let mut src = ArrivalSource::new(tiny_trace(), SimDuration::from_ns(10));
        loop {
            match src.fetch(SimTime::ZERO, &mut NullObserver) {
                Fetched::Exhausted => break,
                Fetched::Idle => unreachable!("nothing is ever parked here"),
                _ => src.consume_slot(),
            }
        }
        assert_eq!(src.arrivals(), src.observed());
        assert!(src.observed() > 0);
    }

    #[test]
    fn backoff_delay_holds_the_packet_for_its_slots() {
        let mut src = ArrivalSource::new(tiny_trace(), SimDuration::from_ns(10));
        let Fetched::Fresh(packet) = src.fetch(SimTime::ZERO, &mut NullObserver) else {
            panic!("expected a fresh packet");
        };
        src.consume_slot(); // slot 0 consumed; next slot is 1
        src.defer_after(deferred(packet), 3); // eligible at slot 3
        for _ in 0..2 {
            // Slots 1 and 2: the parked packet is not eligible, fresh
            // packets flow instead.
            let Fetched::Fresh(_) = src.fetch(src.slot_time(), &mut NullObserver) else {
                panic!("parked packet must not be eligible yet");
            };
            src.consume_slot();
        }
        let Fetched::Retry(work) = src.fetch(src.slot_time(), &mut NullObserver) else {
            panic!("expected the retry at its eligible slot");
        };
        assert_eq!(work.fault_retries, 0);
    }

    #[test]
    fn idle_slots_pass_when_only_ineligible_packets_remain() {
        let mut trace = tiny_trace();
        // Drain the trace so only the parked packet remains.
        let mut last = None;
        for p in trace.by_ref() {
            last = Some(p);
        }
        let mut src = ArrivalSource::new(trace, SimDuration::from_ns(10));
        // Parked before any slot was consumed: the delay anchors at slot 0,
        // so a delay of 3 is eligible at slot 3.
        src.defer_after(deferred(last.expect("trace is non-empty")), 3);
        for _ in 0..3 {
            let Fetched::Idle = src.fetch(src.slot_time(), &mut NullObserver) else {
                panic!("parked packet must not be eligible yet");
            };
            src.skip_slot();
        }
        let Fetched::Retry(_) = src.fetch(src.slot_time(), &mut NullObserver) else {
            panic!("expected the retry after the idle slots");
        };
        let Fetched::Exhausted = src.fetch(src.slot_time(), &mut NullObserver) else {
            panic!("expected exhaustion once the queue drained");
        };
        assert_eq!(src.slot_time().as_ns(), 30, "idle slots advance time");
    }

    /// Pins the documented `defer_after` semantics: a delay of `n` means
    /// eligible exactly `n` slots after the drop slot, and 0 means the
    /// same slot (immediately eligible) — every delay is distinct, unlike
    /// the old arithmetic that collapsed 0 and 1.
    #[test]
    fn defer_delay_counts_slots_from_the_drop_slot() {
        for (delay, blocked_slots) in [(0u64, 0u64), (1, 0), (2, 1), (3, 2)] {
            let mut src = ArrivalSource::new(tiny_trace(), SimDuration::from_ns(10));
            let Fetched::Fresh(packet) = src.fetch(SimTime::ZERO, &mut NullObserver) else {
                panic!("expected a fresh packet");
            };
            src.consume_slot(); // dropped in slot 0; next slot is 1
            src.defer_after(deferred(packet), delay);
            // Slots 1 ..= delay-1 must serve fresh packets instead (for
            // delays 0 and 1 the retry is already eligible at slot 1).
            for slot in 0..blocked_slots {
                let Fetched::Fresh(_) = src.fetch(src.slot_time(), &mut NullObserver) else {
                    panic!("delay {delay}: parked packet eligible {slot} slots early");
                };
                src.consume_slot();
            }
            let Fetched::Retry(_) = src.fetch(src.slot_time(), &mut NullObserver) else {
                panic!("delay {delay}: expected the retry at its eligible slot");
            };
        }
    }
}

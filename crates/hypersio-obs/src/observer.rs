//! The `Observer` trait, its zero-cost null implementation, and the
//! combinators (`&mut O`, `Option<O>`, pairs) that compose observers into
//! the one observer a simulation run takes.

use crate::event::{Event, EventKind, EVENT_KINDS};
use crate::span::PacketSpan;

/// A sink for simulation lifecycle events.
///
/// `Simulation::run_with` is generic over its observer, so every
/// implementation is monomorphized into the simulation loop. The loop
/// guards each emission site with `if O::ENABLED`, which the compiler
/// resolves at monomorphization time: with [`NullObserver`] (the default
/// used by `Simulation::run`) the event construction and the call compile
/// to *nothing* — the instrumented loop is bit-identical in behaviour and
/// indistinguishable in cost from an uninstrumented one.
///
/// Implementations receive events in nondecreasing arrival-slot order, but
/// individual stamps may jump forward (e.g. [`Event::WalkDone`] is stamped
/// at the walk's completion time, [`Event::PtbRelease`] at the slot's
/// release time). Consumers that bucket by time should index windows by
/// `at_ps` rather than assume monotonicity.
pub trait Observer {
    /// Compile-time gate: when `false`, emission sites are eliminated
    /// entirely. Leave at the default `true` for any real observer.
    const ENABLED: bool = true;

    /// Compile-time gate for per-packet span assembly: when `false` (the
    /// default), the simulation loop's latency-attribution bookkeeping and
    /// every [`Observer::record_span`] call compile to nothing. Only span
    /// consumers (e.g. [`crate::SpanCollector`]) set it to `true` — the
    /// two gates are independent, so a span collector can run with the
    /// per-event stream disabled and vice versa.
    const SPANS: bool = false;

    /// Receives one event stamped with simulated time `at_ps`.
    fn record(&mut self, at_ps: u64, event: Event);

    /// Receives one completed packet's lifecycle span (arrival →
    /// completion, with its additive latency decomposition). Only called
    /// when [`Observer::wants_spans`] is `true`; the default is a no-op.
    #[inline(always)]
    fn record_span(&mut self, _span: PacketSpan) {}

    /// Run-time refinement of [`Observer::SPANS`]: whether a span
    /// consumer is actually present. The loop carries span bookkeeping
    /// only when this is `true`, so an empty span slot leaves the run
    /// state (and any checkpoint of it) exactly as without one. Defaults
    /// to `SPANS`, which keeps it a constant for every plain observer.
    #[inline(always)]
    fn wants_spans(&self) -> bool {
        Self::SPANS
    }
}

/// The no-op observer: [`Observer::ENABLED`] is `false`, so a simulation
/// run with it compiles to exactly the uninstrumented loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _at_ps: u64, _event: Event) {}
}

/// Forwarding impl so `&mut O` observers can be composed in tuples.
impl<O: Observer> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;
    const SPANS: bool = O::SPANS;

    #[inline(always)]
    fn record(&mut self, at_ps: u64, event: Event) {
        (**self).record(at_ps, event);
    }

    #[inline(always)]
    fn record_span(&mut self, span: PacketSpan) {
        (**self).record_span(span);
    }

    #[inline(always)]
    fn wants_spans(&self) -> bool {
        (**self).wants_spans()
    }
}

/// An optional observer: `Some` forwards every event and span, `None`
/// drops them. The gates are the inner observer's, so they hold for both
/// variants — a `None` still pays the per-event emission of an enabled
/// observer, but it never [wants spans](Observer::wants_spans). This lets
/// one monomorphization serve any subset of requested outputs, e.g.
/// `(Option<A>, (Option<B>, Option<C>))`.
impl<O: Observer> Observer for Option<O> {
    const ENABLED: bool = O::ENABLED;
    const SPANS: bool = O::SPANS;

    #[inline(always)]
    fn record(&mut self, at_ps: u64, event: Event) {
        if let Some(obs) = self {
            obs.record(at_ps, event);
        }
    }

    #[inline(always)]
    fn record_span(&mut self, span: PacketSpan) {
        if let Some(obs) = self {
            obs.record_span(span);
        }
    }

    #[inline(always)]
    fn wants_spans(&self) -> bool {
        self.as_ref().is_some_and(O::wants_spans)
    }
}

/// Fan-out: a pair of observers both receive every event. Pairs nest, so
/// any number of observers can be combined: `((a, b), c)`.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const SPANS: bool = A::SPANS || B::SPANS;

    #[inline(always)]
    fn record(&mut self, at_ps: u64, event: Event) {
        self.0.record(at_ps, event);
        self.1.record(at_ps, event);
    }

    #[inline(always)]
    fn record_span(&mut self, span: PacketSpan) {
        self.0.record_span(span);
        self.1.record_span(span);
    }

    #[inline(always)]
    fn wants_spans(&self) -> bool {
        self.0.wants_spans() || self.1.wants_spans()
    }
}

/// An observer that counts events per [`EventKind`].
///
/// Its totals reconcile exactly with the end-of-run `SimReport`
/// aggregates (the integration test `observer_reconciliation` pins the
/// correspondence): `PacketComplete` counts equal `packets_processed`,
/// `DevTlbHit + DevTlbMiss` equals `translation_requests`, and so on.
///
/// # Examples
///
/// ```
/// use hypersio_obs::{CountingObserver, Event, EventKind, Observer};
/// use hypersio_types::Did;
///
/// let mut counts = CountingObserver::new();
/// counts.record(0, Event::DevTlbHit { did: Did::new(0) });
/// counts.record(5, Event::DevTlbHit { did: Did::new(1) });
/// assert_eq!(counts.count(EventKind::DevTlbHit), 2);
/// assert_eq!(counts.count(EventKind::DevTlbMiss), 0);
/// assert_eq!(counts.total(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingObserver {
    counts: [u64; EVENT_KINDS],
}

impl CountingObserver {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        CountingObserver::default()
    }

    /// Returns the number of events of `kind` seen.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Returns the total number of events seen.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Observer for CountingObserver {
    #[inline]
    fn record(&mut self, _at_ps: u64, event: Event) {
        self.counts[event.kind() as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_types::Did;

    // The ENABLED/SPANS gates are compile-time facts; pin them as such.
    const _: () = assert!(!NullObserver::ENABLED);
    const _: () = assert!(<(NullObserver, CountingObserver) as Observer>::ENABLED);
    const _: () = assert!(!<(NullObserver, NullObserver) as Observer>::ENABLED);
    const _: () = assert!(!NullObserver::SPANS);
    const _: () = assert!(!CountingObserver::SPANS);
    const _: () = assert!(!<(NullObserver, CountingObserver) as Observer>::SPANS);
    const _: () = assert!(<(NullObserver, crate::SpanCollector) as Observer>::SPANS);
    // A span collector leaves the per-event stream disabled: attaching one
    // must not force the slow per-slot drop path.
    const _: () = assert!(!crate::SpanCollector::ENABLED);
    // An optional observer carries the inner observer's gates, whichever
    // variant it holds at run time.
    const _: () = assert!(<Option<CountingObserver> as Observer>::ENABLED);
    const _: () = assert!(!<Option<CountingObserver> as Observer>::SPANS);
    const _: () = assert!(!<Option<NullObserver> as Observer>::ENABLED);
    const _: () = assert!(<Option<crate::SpanCollector> as Observer>::SPANS);
    const _: () = assert!(!<Option<crate::SpanCollector> as Observer>::ENABLED);

    #[test]
    fn null_observer_is_callable_without_effect() {
        NullObserver.record(1, Event::PtbRelease);
    }

    #[test]
    fn pair_fans_out() {
        let mut pair = (CountingObserver::new(), CountingObserver::new());
        pair.record(3, Event::PacketDrop { did: Did::new(0) });
        assert_eq!(pair.0.count(EventKind::PacketDrop), 1);
        assert_eq!(pair.1.count(EventKind::PacketDrop), 1);
    }

    #[test]
    fn some_forwards_and_none_records_nothing() {
        let mut some = Some(CountingObserver::new());
        some.record(1, Event::PtbRelease);
        assert_eq!(some.as_ref().map(|c| c.total()), Some(1));
        let mut none: Option<CountingObserver> = None;
        none.record(1, Event::PtbRelease);
        assert!(none.is_none());
        // Spans follow the same rule.
        let span = PacketSpan {
            seq: 0,
            did: 0,
            sid: 0,
            arrival_ps: 0,
            service_ps: 0,
            complete_ps: 0,
            ptb_retries: 0,
            fault_retries: 0,
            components: crate::SpanComponents::default(),
        };
        let mut spans = Some(crate::SpanCollector::new(4));
        spans.record_span(span);
        assert_eq!(spans.as_ref().map(|c| c.len()), Some(1));
        let mut no_spans: Option<crate::SpanCollector> = None;
        no_spans.record_span(span);
        assert!(no_spans.is_none());
        // Only a present span consumer asks the loop for span bookkeeping.
        assert!(spans.wants_spans());
        assert!(!no_spans.wants_spans());
        assert!(!(some, no_spans).wants_spans());
        assert!((None::<CountingObserver>, spans).wants_spans());
    }

    #[test]
    fn mut_ref_forwards() {
        fn record_one<O: Observer>(mut obs: O) {
            obs.record(0, Event::PtbRelease);
        }
        let mut counts = CountingObserver::new();
        record_one(&mut counts);
        assert_eq!(counts.count(EventKind::PtbRelease), 1);
    }
}

//! The translation prefetching scheme (§III): Prefetch Buffer,
//! SID-predictor, and per-DID IOVA history reader.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use hypersio_cache::{CacheStats, FullyAssocCache, PolicyKind, WordReader};
use hypersio_types::fxhash::FxBuildHasher;
use hypersio_types::{Did, GIova, Sid};

use crate::devtlb::{DevTlbKey, TlbEntry};

/// A prefetch decision: which tenant to prefetch for next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// The predicted next Source ID.
    pub sid: Sid,
}

/// The SID-predictor: a direct-mapped table from the currently active SID
/// to the SID predicted to be active `history_len` requests later.
///
/// Hardware load balancing gives each tenant a regular share of the request
/// stream (§III), so "who comes `H` requests after tenant *s*" is highly
/// stable (for RR arbitration it is exactly periodic). The predictor learns
/// it online: when a request from SID *t* arrives, the SID seen `H` requests
/// earlier is recorded as predicting *t*. Predicting `H` ahead gives the
/// prefetch enough lead time to hide the memory latency of the history
/// fetch and translation.
///
/// # Examples
///
/// ```
/// use hypersio_types::Sid;
/// use hypertrio_core::SidPredictor;
///
/// let mut p = SidPredictor::new(2);
/// // Round-robin arrivals 0,1,2,0,1,2...
/// for i in 0..12u32 {
///     p.observe(Sid::new(i % 3));
/// }
/// // Two steps after tenant 0 comes tenant 2.
/// assert_eq!(p.predict(Sid::new(0)), Some(Sid::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct SidPredictor {
    history_len: usize,
    window: VecDeque<Sid>,
    /// Learned `predecessor -> successor` mappings. Probed and updated once
    /// per observed request, so it uses the cheap Fx hasher (SIDs are
    /// attacker-free small integers) and is never iterated — behaviour is
    /// independent of hash order.
    table: HashMap<Sid, Sid, FxBuildHasher>,
    predictions: u64,
    hits_possible: u64,
}

impl SidPredictor {
    /// Creates a predictor with the given history length (the paper finds
    /// 48 optimal for its system, Table IV).
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn new(history_len: usize) -> Self {
        assert!(history_len > 0, "history length must be at least 1");
        SidPredictor {
            history_len,
            window: VecDeque::with_capacity(history_len + 1),
            table: HashMap::default(),
            predictions: 0,
            hits_possible: 0,
        }
    }

    /// Returns the configured history length.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Reconfigures the history length (the host updates this register when
    /// tenants are added/removed or bandwidth allocations change).
    ///
    /// Learned mappings are kept; the observation window is trimmed.
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn set_history_len(&mut self, history_len: usize) {
        assert!(history_len > 0, "history length must be at least 1");
        self.history_len = history_len;
        while self.window.len() > self.history_len + 1 {
            self.window.pop_front();
        }
    }

    /// Records an arrival from `sid`, training the table.
    pub fn observe(&mut self, sid: Sid) {
        self.window.push_back(sid);
        if self.window.len() > self.history_len {
            // The SID `history_len` steps back now predicts `sid`.
            let past = self.window[self.window.len() - 1 - self.history_len];
            self.table.insert(past, sid);
            if self.window.len() > self.history_len + 1 {
                self.window.pop_front();
            }
        }
    }

    /// Predicts the SID expected `history_len` requests after `current`.
    pub fn predict(&mut self, current: Sid) -> Option<Sid> {
        self.predictions += 1;
        let p = self.table.get(&current).copied();
        if p.is_some() {
            self.hits_possible += 1;
        }
        p
    }

    /// Returns (predictions made, predictions that had a table entry).
    pub fn coverage(&self) -> (u64, u64) {
        (self.predictions, self.hits_possible)
    }

    /// Appends the predictor's mutable state (observation window, learned
    /// table in sorted-key order, coverage counters) to a checkpoint word
    /// stream. Sorting makes the encoding independent of hash order.
    fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.window.len() as u64);
        out.extend(self.window.iter().map(|s| s.raw() as u64));
        let mut entries: Vec<(Sid, Sid)> = self.table.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        out.push(entries.len() as u64);
        for (k, v) in entries {
            out.push(k.raw() as u64);
            out.push(v.raw() as u64);
        }
        out.push(self.predictions);
        out.push(self.hits_possible);
    }

    /// Restores the state written by [`SidPredictor::snapshot_words`].
    fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        let n = r.len_capped(self.history_len + 1)?;
        self.window.clear();
        for _ in 0..n {
            self.window.push_back(r.decode()?);
        }
        let n = r.len_capped(r.remaining() / 2)?;
        self.table.clear();
        for _ in 0..n {
            let key: Sid = r.decode()?;
            let value: Sid = r.decode()?;
            self.table.insert(key, value);
        }
        self.predictions = r.next()?;
        self.hits_possible = r.next()?;
        Some(())
    }
}

/// The per-DID history of recently used gIOVAs, kept in main memory.
///
/// The chipset-side IOVA history reader fetches the most recent entries for
/// a predicted tenant and issues translation requests for them. Keeping the
/// history in main memory makes the hardware cost independent of tenant
/// count (§III) — only the small reader state machine lives on the chipset.
///
/// # Examples
///
/// ```
/// use hypersio_types::{Did, GIova};
/// use hypertrio_core::IovaHistoryReader;
///
/// let mut h = IovaHistoryReader::new(8);
/// h.record(Did::new(0), GIova::new(0xbbe0_0000));
/// h.record(Did::new(0), GIova::new(0xbbe0_0042)); // same page: coalesced
/// h.record(Did::new(0), GIova::new(0x3480_0000));
/// let mut pages = Vec::new();
/// h.recent_into(Did::new(0), 2, &mut pages);
/// assert_eq!(pages, [GIova::new(0x3480_0000), GIova::new(0xbbe0_0000)]);
/// ```
#[derive(Debug, Clone)]
pub struct IovaHistoryReader {
    depth: usize,
    /// Most-recent-first page-granule history per DID.
    /// Per-tenant recent-IOVA rings. Touched on every observed request
    /// (record) and every prefetch plan (read), so it uses the Fx hasher;
    /// the map is never iterated, keeping behaviour hash-order independent.
    histories: HashMap<Did, VecDeque<GIova>, FxBuildHasher>,
    fetches: u64,
}

/// Granule at which history entries are coalesced (4 KB pages; consecutive
/// accesses to the same page collapse into one entry).
const HISTORY_PAGE_SHIFT: u32 = 12;

impl IovaHistoryReader {
    /// Creates a history with `depth` remembered pages per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        IovaHistoryReader {
            depth,
            histories: HashMap::default(),
            fetches: 0,
        }
    }

    /// Records a translated gIOVA for `did` (called on every completed
    /// translation, as the IOMMU writes the running history to memory).
    pub fn record(&mut self, did: Did, iova: GIova) {
        let page = GIova::new(iova.raw() >> HISTORY_PAGE_SHIFT << HISTORY_PAGE_SHIFT);
        let h = self.histories.entry(did).or_default();
        if let Some(pos) = h.iter().position(|&p| p == page) {
            h.remove(pos);
        }
        h.push_front(page);
        h.truncate(self.depth);
    }

    /// Clears `out` and fills it with the `n` most recently used pages of
    /// `did`, most recent first.
    ///
    /// Each call models one memory fetch by the history reader.
    pub fn recent_into(&mut self, did: Did, n: usize, out: &mut Vec<GIova>) {
        self.fetches += 1;
        out.clear();
        if let Some(h) = self.histories.get(&did) {
            out.extend(h.iter().take(n).copied());
        }
    }

    /// Returns the number of history fetches performed.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Discards the remembered pages of `did` (the hypervisor resets the
    /// in-memory history when it shoots down that domain's translations —
    /// the recorded gIOVAs would otherwise drive prefetches of mappings
    /// that no longer exist).
    pub fn forget(&mut self, did: Did) {
        self.histories.remove(&did);
    }

    /// Discards every tenant's remembered pages (global shootdown).
    pub fn forget_all(&mut self) {
        self.histories.clear();
    }

    /// Appends the reader's mutable state (per-DID rings in sorted-DID
    /// order, fetch counter) to a checkpoint word stream.
    fn snapshot_words(&self, out: &mut Vec<u64>) {
        let mut dids: Vec<Did> = self.histories.keys().copied().collect();
        dids.sort_unstable();
        out.push(dids.len() as u64);
        for did in dids {
            let ring = &self.histories[&did];
            out.push(did.raw() as u64);
            out.push(ring.len() as u64);
            out.extend(ring.iter().map(|p| p.raw()));
        }
        out.push(self.fetches);
    }

    /// Restores the state written by [`IovaHistoryReader::snapshot_words`].
    fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        let tenants = r.len_capped(r.remaining())?;
        self.histories.clear();
        for _ in 0..tenants {
            let did: Did = r.decode()?;
            let len = r.len_capped(self.depth)?;
            let mut ring = VecDeque::with_capacity(len);
            for _ in 0..len {
                ring.push_back(r.decode()?);
            }
            self.histories.insert(did, ring);
        }
        self.fetches = r.next()?;
        Some(())
    }
}

/// Configuration and state of the on-device Prefetch Unit plus the
/// chipset-side history reader.
///
/// The unit is consulted *concurrently* with the DevTLB: a PB hit supplies
/// the translation without any PCIe traffic. On a PB miss the SID-predictor
/// proposes a tenant to prefetch for; the model then reads that tenant's
/// two most-recent gIOVAs from memory and translates them through the
/// IOMMU, filling the PB (and warming the walk caches as a side effect).
pub struct PrefetchUnit {
    buffer: FullyAssocCache<DevTlbKey, TlbEntry>,
    predictor: SidPredictor,
    history: IovaHistoryReader,
    pages_per_prefetch: usize,
}

impl PrefetchUnit {
    /// Creates a prefetch unit.
    ///
    /// The paper's configuration (Table IV): `pb_entries = 8`,
    /// `history_len = 48`, `pages_per_prefetch = 2`, with a history depth
    /// matching the pages fetched per prefetch.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(pb_entries: usize, history_len: usize, pages_per_prefetch: usize) -> Self {
        assert!(pages_per_prefetch > 0, "must prefetch at least one page");
        PrefetchUnit {
            buffer: FullyAssocCache::new(pb_entries, PolicyKind::Lru),
            predictor: SidPredictor::new(history_len),
            history: IovaHistoryReader::new(pages_per_prefetch.max(4)),
            pages_per_prefetch,
        }
    }

    /// Returns the number of pages fetched per prefetch (paper: 2).
    pub fn pages_per_prefetch(&self) -> usize {
        self.pages_per_prefetch
    }

    /// Returns the SID-predictor history length (paper: 48).
    pub fn history_len(&self) -> usize {
        self.predictor.history_len()
    }

    /// Checks the Prefetch Buffer for `iova` (probing 2 MB then 4 KB tags).
    ///
    /// The two granule tags are probed in one fused pass; exactly one hit
    /// or miss is recorded, identical to a 2 MB peek followed by a single
    /// policy-visible lookup.
    pub fn lookup(&mut self, did: Did, iova: GIova, now: u64) -> Option<TlbEntry> {
        use hypersio_types::PageSize;
        let key_2m = DevTlbKey::new(did, iova, PageSize::Size2M);
        let key_4k = DevTlbKey::new(did, iova, PageSize::Size4K);
        self.buffer.lookup_fused(&key_2m, &key_4k, now).copied()
    }

    /// Observes an arrival from `sid` and, if the predictor has a mapping,
    /// returns the prefetch to launch.
    pub fn observe(&mut self, sid: Sid) -> Option<PrefetchRequest> {
        self.predictor.observe(sid);
        self.predictor
            .predict(sid)
            .map(|sid| PrefetchRequest { sid })
    }

    /// Records a completed translation in the per-DID history.
    pub fn record_history(&mut self, did: Did, iova: GIova) {
        self.history.record(did, iova);
    }

    /// Plans one prefetch for `did`: clears `out`, reads the tenant's
    /// recent pages from history into it (one memory fetch), and filters
    /// out pages already resident in the Prefetch Buffer, leaving the pages
    /// the caller should translate and later [`PrefetchUnit::fill`].
    ///
    /// The residency probes count in the PB statistics exactly like demand
    /// lookups (hardware shares the tag port).
    pub fn plan_into(&mut self, did: Did, now: u64, out: &mut Vec<GIova>) {
        let n = self.pages_per_prefetch;
        self.history.recent_into(did, n, out);
        out.retain(|&iova| self.lookup(did, iova, now).is_none());
    }

    /// Installs a prefetched translation into the Prefetch Buffer.
    ///
    /// Returns the entry evicted to make room, if any (the 8-entry PB
    /// churns under load; eviction visibility is what the observability
    /// layer uses to report PB pressure).
    pub fn fill(
        &mut self,
        did: Did,
        iova: GIova,
        entry: TlbEntry,
        now: u64,
    ) -> Option<(DevTlbKey, TlbEntry)> {
        let key = DevTlbKey::new(did, iova, entry.size);
        self.buffer.insert(key, entry, now)
    }

    /// Shoots down everything the unit holds for `did`: the Prefetch
    /// Buffer entries (which would otherwise keep serving stale gIOVA→hPA
    /// translations after an invalidation) and the per-DID IOVA history
    /// (which would re-prefetch the invalidated pages). Returns the number
    /// of PB entries removed.
    pub fn invalidate_did(&mut self, did: Did) -> usize {
        self.history.forget(did);
        self.buffer.invalidate_matching(|k| k.did == did)
    }

    /// Global shootdown: drops every PB entry and every tenant's history.
    /// Returns the number of PB entries removed.
    pub fn invalidate_all(&mut self) -> usize {
        self.history.forget_all();
        let removed = self.buffer.len();
        self.buffer.clear();
        removed
    }

    /// Returns Prefetch Buffer statistics (hits = requests served without
    /// touching the DevTLB/IOMMU path).
    pub fn buffer_stats(&self) -> &CacheStats {
        self.buffer.stats()
    }

    /// Returns predictor coverage: (predictions made, table hits).
    pub fn predictor_coverage(&self) -> (u64, u64) {
        self.predictor.coverage()
    }

    /// Returns the number of history fetches performed.
    pub fn history_fetches(&self) -> u64 {
        self.history.fetches()
    }

    /// Appends the unit's full mutable state — Prefetch Buffer slab,
    /// SID-predictor, and IOVA histories — to a checkpoint word stream.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.buffer.snapshot_words(out);
        self.predictor.snapshot_words(out);
        self.history.snapshot_words(out);
    }

    /// Restores the state written by [`PrefetchUnit::snapshot_words`] into
    /// this identically configured unit. Returns `None` on a corrupt
    /// stream.
    pub fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        self.buffer.restore_words(r)?;
        self.predictor.restore_words(r)?;
        self.history.restore_words(r)
    }
}

impl fmt::Debug for PrefetchUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrefetchUnit")
            .field("pb_capacity", &self.buffer.capacity())
            .field("history_len", &self.predictor.history_len())
            .field("pages_per_prefetch", &self.pages_per_prefetch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_types::{HPa, PageSize};

    /// The `n` most recent pages of `did`, through one history fetch.
    fn recent(h: &mut IovaHistoryReader, did: Did, n: usize) -> Vec<GIova> {
        let mut pages = Vec::new();
        h.recent_into(did, n, &mut pages);
        pages
    }

    #[test]
    fn predictor_learns_round_robin() {
        let mut p = SidPredictor::new(4);
        for round in 0..8u32 {
            for t in 0..8u32 {
                p.observe(Sid::new(t));
                let _ = round;
            }
        }
        // Four steps after tenant 1 comes tenant 5.
        assert_eq!(p.predict(Sid::new(1)), Some(Sid::new(5)));
        // Wrap-around: four steps after 6 comes 2.
        assert_eq!(p.predict(Sid::new(6)), Some(Sid::new(2)));
    }

    #[test]
    fn predictor_needs_warmup() {
        let mut p = SidPredictor::new(4);
        p.observe(Sid::new(0));
        assert_eq!(p.predict(Sid::new(0)), None);
        let (asked, hit) = p.coverage();
        assert_eq!((asked, hit), (1, 0));
    }

    #[test]
    fn predictor_adapts_to_changed_order() {
        let mut p = SidPredictor::new(1);
        for _ in 0..4 {
            p.observe(Sid::new(0));
            p.observe(Sid::new(1));
        }
        assert_eq!(p.predict(Sid::new(0)), Some(Sid::new(1)));
        // Tenant 2 replaces tenant 1 in the rotation.
        for _ in 0..4 {
            p.observe(Sid::new(0));
            p.observe(Sid::new(2));
        }
        assert_eq!(p.predict(Sid::new(0)), Some(Sid::new(2)));
    }

    #[test]
    fn set_history_len_trims_window() {
        let mut p = SidPredictor::new(16);
        for t in 0..32u32 {
            p.observe(Sid::new(t));
        }
        p.set_history_len(2);
        p.observe(Sid::new(100));
        p.observe(Sid::new(101));
        // Window is now short but training continues.
        assert_eq!(p.predict(Sid::new(100)), None); // 100 maps 2 ahead, not yet seen
        p.observe(Sid::new(102));
        assert_eq!(p.predict(Sid::new(100)), Some(Sid::new(102)));
    }

    #[test]
    fn history_is_mru_first_and_coalesced() {
        let mut h = IovaHistoryReader::new(4);
        let did = Did::new(0);
        h.record(did, GIova::new(0x1000));
        h.record(did, GIova::new(0x2000));
        h.record(did, GIova::new(0x1abc)); // page 0x1000 again -> moves to front
        assert_eq!(
            recent(&mut h, did, 4),
            vec![GIova::new(0x1000), GIova::new(0x2000)]
        );
    }

    #[test]
    fn history_depth_is_bounded() {
        let mut h = IovaHistoryReader::new(2);
        let did = Did::new(3);
        for i in 0..10u64 {
            h.record(did, GIova::new(i * 0x1000));
        }
        assert_eq!(recent(&mut h, did, 10).len(), 2);
    }

    #[test]
    fn history_unknown_did_is_empty() {
        let mut h = IovaHistoryReader::new(2);
        assert!(recent(&mut h, Did::new(42), 2).is_empty());
        assert_eq!(h.fetches(), 1);
    }

    #[test]
    fn unit_end_to_end_prefetch_flow() {
        let mut pu = PrefetchUnit::new(8, 2, 2);
        let entry = TlbEntry {
            hpa_base: HPa::new(0x7000_0000),
            size: PageSize::Size2M,
        };
        // Tenant 1's history is populated by earlier completions.
        pu.record_history(Did::new(1), GIova::new(0xbbe0_0000));
        // Warm the predictor with RR over 3 tenants.
        let mut req = None;
        for _ in 0..6 {
            for t in 0..3u32 {
                req = pu.observe(Sid::new(t));
            }
        }
        // After observing tenant 2, the predictor proposes a tenant (2 steps
        // ahead of 2 in RR(3) = tenant 1).
        let req = req.expect("predictor trained");
        assert_eq!(req.sid, Sid::new(1));
        // The model fetches tenant 1's recent pages and fills the PB.
        let mut pages = Vec::new();
        pu.plan_into(Did::new(1), 99, &mut pages);
        assert_eq!(pages, vec![GIova::new(0xbbe0_0000)]);
        pu.fill(Did::new(1), pages[0], entry, 100);
        // A later request from tenant 1 hits the PB.
        let hit = pu
            .lookup(Did::new(1), GIova::new(0xbbe0_1234), 101)
            .unwrap();
        assert_eq!(hit.translate(GIova::new(0xbbe0_1234)).raw(), 0x7000_1234);
        assert_eq!(pu.buffer_stats().hits(), 1);
    }

    #[test]
    fn shootdown_regression_pb_must_not_serve_stale_entries() {
        // Regression for the latent invalidation gap: before
        // `invalidate_did` existed, a DID shootdown cleared the DevTLB but
        // the PB kept serving the stale gIOVA→hPA mapping and the history
        // kept re-planning prefetches of it.
        let mut pu = PrefetchUnit::new(8, 48, 2);
        let did = Did::new(3);
        let iova = GIova::new(0xbbe0_0000);
        let entry = TlbEntry {
            hpa_base: HPa::new(0x7000_0000),
            size: PageSize::Size2M,
        };
        pu.record_history(did, iova);
        pu.fill(did, iova, entry, 0);
        assert!(pu.lookup(did, iova, 1).is_some());
        assert_eq!(
            recent(&mut pu.history, did, 2),
            vec![GIova::new(0xbbe0_0000)]
        );

        assert_eq!(pu.invalidate_did(did), 1);
        assert!(
            pu.lookup(did, iova, 2).is_none(),
            "PB served a stale translation after its DID was shot down"
        );
        assert!(
            recent(&mut pu.history, did, 2).is_empty(),
            "history would re-prefetch invalidated pages"
        );

        // Another tenant's state is untouched.
        let other = Did::new(4);
        pu.record_history(other, GIova::new(0x1000));
        pu.fill(
            other,
            GIova::new(0x1000),
            TlbEntry {
                hpa_base: HPa::new(0x8000_0000),
                size: PageSize::Size4K,
            },
            3,
        );
        pu.invalidate_did(did);
        assert!(pu.lookup(other, GIova::new(0x1000), 4).is_some());

        // Global shootdown drops everything.
        assert_eq!(pu.invalidate_all(), 1);
        assert!(pu.lookup(other, GIova::new(0x1000), 5).is_none());
        assert!(recent(&mut pu.history, other, 2).is_empty());
    }

    #[test]
    fn pb_miss_is_single_stat() {
        let mut pu = PrefetchUnit::new(8, 48, 2);
        assert!(pu.lookup(Did::new(0), GIova::new(0x1000), 0).is_none());
        assert_eq!(pu.buffer_stats().accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_history_rejected() {
        let _ = SidPredictor::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_prefetch_pages_rejected() {
        let _ = PrefetchUnit::new(8, 48, 0);
    }
}

//! The assembled IOMMU translation pipeline.

use std::fmt;

use hypersio_types::fxhash::FxBuildHasher;
use hypersio_types::{Bdf, Did, GIova, HPa, PageSize, Sid, SimDuration};

use crate::context::ContextCache;
use crate::dram::Dram;
use crate::space::TenantSpace;
use crate::walk_cache::{WalkCacheConfig, WalkCaches};
use crate::walker::{TranslationFault, TwoDimWalker, WalkMemo};

type FxMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// How the IOMMU resolves a gIOVA (the paper's design vs the related-work
/// alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranslationScheme {
    /// The two-dimensional nested page-table walk of §II (the paper's
    /// setting and the default).
    #[default]
    TwoDimensional,
    /// An rIOMMU-style flat per-ring translation table (Malka et al.,
    /// cited as \[28\]): one memory read resolves a device-visible page.
    /// The paper dismisses this for hyper-tenant setups because it needs
    /// modified guest drivers/OSes; the `abl_flat_table` ablation
    /// quantifies what that software change would buy.
    FlatTable,
}

/// Configuration of the chipset-side translation machinery.
///
/// # Examples
///
/// ```
/// use hypersio_mem::{IommuParams, TranslationScheme};
///
/// let params = IommuParams::paper();
/// assert_eq!(params.dram_latency.as_ns(), 50);
/// assert_eq!(params.scheme, TranslationScheme::TwoDimensional);
/// ```
#[derive(Debug, Clone)]
pub struct IommuParams {
    /// Per-access DRAM latency (Table II: 50 ns).
    pub dram_latency: SimDuration,
    /// Walk-cache configuration (Table II geometries; Table IV partitions).
    pub walk_caches: WalkCacheConfig,
    /// Context-cache entries.
    pub context_entries: usize,
    /// How gIOVAs are resolved.
    pub scheme: TranslationScheme,
}

impl IommuParams {
    /// The paper's Table II parameters with Base (unpartitioned) caches.
    pub fn paper() -> Self {
        IommuParams {
            dram_latency: SimDuration::from_ns(50),
            walk_caches: WalkCacheConfig::paper_base(),
            context_entries: 64,
            scheme: TranslationScheme::default(),
        }
    }

    /// Switches to the rIOMMU-style flat-table scheme.
    pub fn with_flat_tables(mut self) -> Self {
        self.scheme = TranslationScheme::FlatTable;
        self
    }

    /// Table II parameters with HyperTRIO's partitioned walk caches.
    pub fn paper_hypertrio() -> Self {
        IommuParams {
            walk_caches: WalkCacheConfig::paper_hypertrio(),
            ..IommuParams::paper()
        }
    }
}

impl Default for IommuParams {
    fn default() -> Self {
        IommuParams::paper()
    }
}

/// A completed IOMMU translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IommuResponse {
    /// The translated host-physical address.
    pub hpa: HPa,
    /// Page size of the mapping (cacheable granule for the DevTLB).
    pub size: PageSize,
    /// DRAM reads this translation performed.
    pub dram_accesses: u64,
    /// Chipset-side latency: context fetch + walk, excluding PCIe.
    pub latency: SimDuration,
}

/// Aggregate IOMMU statistics for reports (Fig 4's miss-rate/page-read
/// curves are derived from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// Total translation requests received.
    pub requests: u64,
    /// Total DRAM reads performed (nested page reads included).
    pub dram_accesses: u64,
    /// Requests that performed a full first-level walk (starting at the
    /// geometry's guest root level, with no walk-cache skip).
    pub full_walks: u64,
    /// Translation faults returned.
    pub faults: u64,
}

/// The chipset IOMMU: context cache + walk caches + two-dimensional walker
/// over the tenants' page tables.
///
/// Every tenant runs the same OS and driver (§IV-D), so the IOMMU holds
/// one canonical [`TenantSpace`] and translates each tenant through its
/// [view](TenantSpace::view): the DID plus the tenant's host slab, which
/// is the DID itself unless a migration moved it. Per-tenant state is
/// therefore only the migrated tenants' slabs.
///
/// Latency model: every DRAM read costs `dram_latency` and reads are
/// dependent (pointer chase). Walk-cache and context-cache hit latencies
/// are folded into the device/IOMMU fixed costs by the simulator (Table II
/// charges an explicit hit latency only for the IOTLB/DevTLB).
pub struct Iommu {
    params: IommuParams,
    /// The canonical (DID-0, slab-0) build every tenant is a view of.
    canonical: TenantSpace,
    /// DIDs `0..tenants` are configured.
    tenants: u32,
    /// Host slab of each tenant migrated away from its default
    /// (`slab == did`).
    slab_overrides: FxMap<u32, u64>,
    caches: WalkCaches,
    context: ContextCache,
    dram: Dram,
    stats: IommuStats,
    /// Coalesces the functional radix traversals of walks to the same
    /// page — see [`WalkMemo`]. Its entries are in canonical coordinates,
    /// so migration never invalidates them.
    memo: WalkMemo,
}

impl Iommu {
    /// Creates an IOMMU serving DIDs `0..tenants`, every one a view of
    /// `canonical` (a slab-0 build of the shared page inventory).
    ///
    /// Context entries follow the 1 VF : 1 tenant model of the paper's
    /// emulated system (`Bdf = did` for every configured DID). The context
    /// *cache* starts cold, so a tenant's first translation pays the
    /// context fetch.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn new(params: IommuParams, canonical: TenantSpace, tenants: u32) -> Self {
        assert!(tenants > 0, "at least one tenant is required");
        let context = ContextCache::new(params.context_entries, tenants);
        let caches = WalkCaches::new(&params.walk_caches);
        let dram = Dram::new(params.dram_latency);
        Iommu {
            params,
            canonical,
            tenants,
            slab_overrides: FxMap::default(),
            caches,
            context,
            dram,
            stats: IommuStats::default(),
            memo: WalkMemo::default(),
        }
    }

    /// Returns the configured parameters.
    pub fn params(&self) -> &IommuParams {
        &self.params
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Returns (L2 walk-cache stats, L3 walk-cache stats).
    pub fn walk_cache_stats(&self) -> (hypersio_cache::CacheStats, hypersio_cache::CacheStats) {
        self.caches.stats()
    }

    /// Returns total DRAM accesses performed.
    pub fn dram_accesses(&self) -> u64 {
        self.dram.accesses()
    }

    /// Panics unless `did` is a configured tenant.
    fn check_did(&self, did: Did) {
        assert!(
            did.raw() < self.tenants,
            "unknown tenant {did}; only {} tenants configured",
            self.tenants
        );
    }

    /// Translates (`sid`, `did`, `iova`) at trace position `now`.
    ///
    /// `did` selects the tenant (the paper's 1:1 VF model also makes it
    /// the BDF for the context lookup).
    ///
    /// # Errors
    ///
    /// Returns a [`TranslationFault`] for unmapped addresses.
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range for the configured tenants.
    pub fn translate(
        &mut self,
        sid: Sid,
        did: Did,
        iova: GIova,
        now: u64,
    ) -> Result<IommuResponse, TranslationFault> {
        self.check_did(did);
        self.stats.requests += 1;

        // 1. Context lookup: find the DID/table roots for the requester.
        let (entry, context_reads) = self
            .context
            .lookup_or_fetch(Bdf::from_routing_id(did.raw()), now)
            .expect("every configured tenant has a context entry");
        debug_assert_eq!(entry.did(), did);
        let mut latency = self.dram.read_many(context_reads);

        let slab = self
            .slab_overrides
            .get(&did.raw())
            .copied()
            .unwrap_or(did.raw() as u64);
        let view = self.canonical.view(did, slab);

        // rIOMMU-style flat table: one memory read resolves the mapping
        // (the guest driver registered it directly, no nested walk).
        if self.params.scheme == TranslationScheme::FlatTable {
            return match view.lookup(iova) {
                Some((hpa, size)) => {
                    latency += self.dram.read();
                    self.stats.dram_accesses += context_reads + 1;
                    Ok(IommuResponse {
                        hpa,
                        size,
                        dram_accesses: context_reads + 1,
                        latency,
                    })
                }
                None => {
                    self.stats.faults += 1;
                    self.stats.dram_accesses += context_reads;
                    Err(TranslationFault::GuestNotMapped { iova })
                }
            };
        }

        // 2. Two-dimensional walk through the tenant's tables. Walks to
        // the same page coalesce their functional traversals in the memo;
        // charging stays per-request (see `WalkMemo`).
        match TwoDimWalker::walk_memoized(
            view,
            sid,
            iova,
            &mut self.caches,
            Some(&mut self.memo),
            now,
        ) {
            Ok(outcome) => {
                latency += self.dram.read_many(outcome.dram_accesses);
                if outcome.start_level == self.canonical.geometry().guest_levels() {
                    self.stats.full_walks += 1;
                }
                self.stats.dram_accesses += context_reads + outcome.dram_accesses;
                Ok(IommuResponse {
                    hpa: outcome.hpa,
                    size: outcome.size,
                    dram_accesses: context_reads + outcome.dram_accesses,
                    latency,
                })
            }
            Err(fault) => {
                self.stats.faults += 1;
                self.stats.dram_accesses += context_reads;
                Err(fault)
            }
        }
    }

    /// Clears all caching state (walk caches and context cache contents),
    /// as after a global invalidation. Statistics are kept.
    pub fn flush(&mut self) {
        self.caches.clear();
    }

    /// Shoots down every walk-cache entry (L2, L3, and nested TLB)
    /// belonging to `did`, as a DID-addressed IOTLB invalidation command
    /// does. Returns the number of entries removed.
    pub fn invalidate_did(&mut self, did: Did) -> usize {
        self.caches.invalidate_did(did)
    }

    /// Sheds reclaimable memory under host pressure: the walk memo is
    /// dropped (its entries are pure-function results, rebuilt on demand),
    /// which is transparent to the model — a degraded run produces
    /// bit-identical translations. Returns the memo entries dropped.
    pub fn relieve_memory_pressure(&mut self) -> u64 {
        let dropped = self.memo.len() as u64;
        self.memo.clear();
        dropped
    }

    /// Appends every piece of mutable IOMMU state a resumed run needs to a
    /// checkpoint stream: statistics, the DRAM access counter, context
    /// cache, walk caches, the tenant count, and the migrated tenants'
    /// slabs in ascending DID order. The walk memo is deliberately
    /// excluded — it is a pure coalescing cache, re-derived on demand with
    /// no effect on results or charging.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.stats.requests);
        out.push(self.stats.dram_accesses);
        out.push(self.stats.full_walks);
        out.push(self.stats.faults);
        out.push(self.dram.accesses());
        self.context.snapshot_words(out);
        self.caches.snapshot_words(out);
        out.push(self.tenants as u64);
        let mut overrides: Vec<(u32, u64)> =
            self.slab_overrides.iter().map(|(&d, &s)| (d, s)).collect();
        overrides.sort_unstable();
        out.push(overrides.len() as u64);
        for (did, slab) in overrides {
            out.push(did as u64);
            out.push(slab);
        }
    }

    /// Restores state captured by [`Self::snapshot_words`] into a freshly
    /// constructed IOMMU of the same configuration; the walk memo starts
    /// empty. Returns `None` on a corrupt stream (including overrides out
    /// of DID order or out of range) or a configuration mismatch.
    pub fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.stats.requests = r.next()?;
        self.stats.dram_accesses = r.next()?;
        self.stats.full_walks = r.next()?;
        self.stats.faults = r.next()?;
        let dram_accesses = r.next()?;
        self.dram.set_accesses(dram_accesses);
        self.context.restore_words(r)?;
        self.caches.restore_words(r)?;
        if r.next()? != self.tenants as u64 {
            return None;
        }
        self.slab_overrides.clear();
        let mut last = None;
        for _ in 0..r.len_capped(r.remaining() / 2)? {
            let did = u32::try_from(r.next()?)
                .ok()
                .filter(|&did| did < self.tenants && last.is_none_or(|prev| did > prev))?;
            last = Some(did);
            self.slab_overrides.insert(did, r.next()?);
        }
        self.memo.clear();
        Some(())
    }

    /// Migrates tenant `did` to host slab `slab`: the tenant's view moves
    /// to the new slab, the cached context entry is invalidated (the
    /// hypervisor rewrites it during the hand-over), and every walk-cache
    /// entry of the DID is shot down — the cached nested translations
    /// point into the old slab. Returns the walk-cache entries removed.
    ///
    /// The caller must also shoot down device-side state (DevTLB, Prefetch
    /// Buffer) for the DID; those caches live outside the IOMMU.
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range for the configured tenants.
    pub fn migrate_tenant(&mut self, did: Did, slab: u64) -> usize {
        self.check_did(did);
        self.slab_overrides.insert(did.raw(), slab);
        self.context.invalidate(Bdf::from_routing_id(did.raw()));
        // The walk memo needs no shootdown: its entries live in canonical
        // coordinates and the tenant's slab delta is applied per walk.
        self.caches.invalidate_did(did)
    }
}

impl fmt::Debug for Iommu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Iommu")
            .field("tenants", &self.tenants)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantSpace;
    use hypersio_types::PageSize;

    fn tenant(did: u32) -> TenantSpace {
        let mut b = TenantSpace::builder(Did::new(did));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        b.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        b.build()
    }

    fn iommu_with(params: IommuParams, tenants: u32) -> Iommu {
        Iommu::new(params, tenant(0), tenants)
    }

    fn iommu(tenants: u32) -> Iommu {
        iommu_with(IommuParams::paper(), tenants)
    }

    #[test]
    fn cold_translation_charges_context_plus_walk() {
        let mut m = iommu(1);
        let r = m
            .translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 0)
            .unwrap();
        // 2 context reads + 19-access 2 MB walk.
        assert_eq!(r.dram_accesses, 21);
        assert_eq!(r.latency.as_ns(), 21 * 50);
        assert_eq!(m.stats().full_walks, 1);
    }

    #[test]
    fn warm_translation_is_cheap() {
        let mut m = iommu(1);
        m.translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 0)
            .unwrap();
        let r = m
            .translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 1)
            .unwrap();
        // Context hit (0) + L2 leaf hit (final host walk only: 4 reads).
        assert_eq!(r.dram_accesses, 4);
        assert_eq!(m.stats().full_walks, 1);
    }

    #[test]
    fn translation_matches_functional_lookup() {
        let mut m = iommu(2);
        let iova = GIova::new(0xbbe0_0000 + 0x555);
        let want = tenant(1).lookup(iova).unwrap().0;
        let got = m.translate(Sid::new(1), Did::new(1), iova, 0).unwrap().hpa;
        assert_eq!(got, want);
    }

    #[test]
    fn faults_are_counted() {
        let mut m = iommu(1);
        let err = m.translate(Sid::new(0), Did::new(0), GIova::new(0x1), 0);
        assert!(err.is_err());
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn out_of_range_did_panics() {
        let mut m = iommu(1);
        let _ = m.translate(Sid::new(9), Did::new(9), GIova::new(0x3480_0000), 0);
    }

    #[test]
    fn flush_forces_full_walks_again() {
        let mut m = iommu(1);
        m.translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 0)
            .unwrap();
        m.flush();
        let r = m
            .translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 1)
            .unwrap();
        assert_eq!(r.dram_accesses, 19); // context still cached, walk cold
        assert_eq!(m.stats().full_walks, 2);
    }

    #[test]
    fn invalidate_did_isolates_other_tenants() {
        let mut m = iommu(2);
        let iova = GIova::new(0xbbe0_0000);
        m.translate(Sid::new(0), Did::new(0), iova, 0).unwrap();
        m.translate(Sid::new(1), Did::new(1), iova, 1).unwrap();
        assert!(m.invalidate_did(Did::new(0)) > 0);
        // DID 0 must re-walk in full; DID 1's caches survive.
        let r0 = m.translate(Sid::new(0), Did::new(0), iova, 2).unwrap();
        assert_eq!(r0.dram_accesses, 19); // context warm, walk cold
        let r1 = m.translate(Sid::new(1), Did::new(1), iova, 3).unwrap();
        assert_eq!(r1.dram_accesses, 4); // L2 leaf still cached
    }

    #[test]
    fn migration_remaps_and_invalidates() {
        let mut m = iommu(2);
        let iova = GIova::new(0xbbe0_0042);
        let before = m.translate(Sid::new(0), Did::new(0), iova, 0).unwrap().hpa;
        m.migrate_tenant(Did::new(0), 7);
        let after = m.translate(Sid::new(0), Did::new(0), iova, 1).unwrap();
        assert_ne!(after.hpa, before, "migration must move the host frame");
        // Slab 7 holds exactly what a DID-7 build places there.
        assert_eq!(after.hpa, tenant(7).lookup(iova).unwrap().0);
        // Walk caches were shot down and the context entry refetched:
        // 2 context reads + full 19-access walk.
        assert_eq!(after.dram_accesses, 21);
        // The other tenant still translates to its original frame.
        let other = m.translate(Sid::new(1), Did::new(1), iova, 2).unwrap();
        assert_eq!(other.hpa, tenant(1).lookup(iova).unwrap().0);
    }

    #[test]
    fn stats_accumulate_dram_reads() {
        let mut m = iommu(1);
        m.translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 0)
            .unwrap();
        m.translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 1)
            .unwrap();
        assert_eq!(m.stats().dram_accesses, 21 + 4);
        assert_eq!(m.dram_accesses(), 21 + 4);
        assert_eq!(m.stats().requests, 2);
    }

    #[test]
    fn wide_dids_do_not_collide_in_the_context_path() {
        // DIDs beyond 65536 used to truncate to 16-bit BDFs; the routing-id
        // widening must keep them distinct.
        let far = 70_000u32;
        let mut m = iommu(far + 1);
        let iova = GIova::new(0xbbe0_0000);
        let a = m.translate(Sid::new(4), Did::new(4), iova, 0).unwrap().hpa;
        let b = m
            .translate(Sid::new(far), Did::new(far), iova, 1)
            .unwrap()
            .hpa;
        assert_ne!(a, b, "DID 4 and DID 70000 must map to distinct slabs");
        assert_ne!(
            Bdf::from_routing_id(4 + 65_536).raw() as u32,
            Bdf::from_routing_id(4 + 65_536).routing_id(),
            "the wide BDF actually exercises a nonzero segment"
        );
    }

    #[test]
    fn flat_tables_cost_one_read() {
        let mut m = iommu_with(IommuParams::paper().with_flat_tables(), 1);
        let iova = GIova::new(0xbbe0_0042);
        let r = m.translate(Sid::new(0), Did::new(0), iova, 0).unwrap();
        // 2 context reads + 1 flat entry read.
        assert_eq!(r.dram_accesses, 3);
        // Warm context: a single read per translation.
        let r = m.translate(Sid::new(0), Did::new(0), iova, 1).unwrap();
        assert_eq!(r.dram_accesses, 1);
        assert_eq!(r.latency.as_ns(), 50);
        // Functionally identical to the nested walk.
        let want = tenant(0).lookup(iova).unwrap().0;
        assert_eq!(r.hpa, want);
    }

    #[test]
    fn flat_tables_still_fault_on_unmapped() {
        let mut m = iommu_with(IommuParams::paper().with_flat_tables(), 1);
        assert!(m
            .translate(Sid::new(0), Did::new(0), GIova::new(0x1), 0)
            .is_err());
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn tenants_thrash_unpartitioned_walk_caches() {
        // Many tenants mapping identical gIOVAs contend for the same walk
        // cache sets; with enough tenants, L2 hit rate collapses.
        let tenants = 128u32;
        let mut m = iommu(tenants);
        let iova = GIova::new(0xbbe0_0000);
        for round in 0..4u64 {
            for t in 0..tenants {
                m.translate(
                    Sid::new(t),
                    Did::new(t),
                    iova,
                    round * tenants as u64 + t as u64,
                )
                .unwrap();
            }
        }
        let (l2, _) = m.walk_cache_stats();
        // The L2 cache has 512 entries but all 128 tenants pile into the
        // same few sets (identical tags): hit rate must be far below 100%.
        assert!(
            l2.hit_rate() < 0.5,
            "expected thrashing, got hit rate {}",
            l2.hit_rate()
        );
    }

    /// Snapshot `src`, restore into `dst`, and check both then translate
    /// identically for a probe sequence.
    fn assert_snapshot_transfers(mut src: Iommu, mut dst: Iommu, tenants: u32) {
        let mut words = Vec::new();
        src.snapshot_words(&mut words);
        let mut r = hypersio_cache::WordReader::new(&words);
        dst.restore_words(&mut r).expect("restore must succeed");
        assert!(r.is_empty(), "restore must consume the whole stream");
        assert_eq!(src.stats(), dst.stats());
        assert_eq!(src.walk_cache_stats(), dst.walk_cache_stats());
        assert_eq!(src.dram_accesses(), dst.dram_accesses());
        let mut now = 1_000_000;
        for t in 0..tenants {
            for iova in [0xbbe0_0000u64, 0x3480_0000, 0x1] {
                let iova = GIova::new(iova);
                let a = src.translate(Sid::new(t), Did::new(t), iova, now);
                let b = dst.translate(Sid::new(t), Did::new(t), iova, now);
                assert_eq!(a, b, "tenant {t} {iova:?}");
                now += 1;
            }
        }
        assert_eq!(src.stats(), dst.stats());
        assert_eq!(src.dram_accesses(), dst.dram_accesses());
    }

    #[test]
    fn snapshot_round_trips_an_unbounded_iommu_with_migrations() {
        let mut src = iommu(4);
        let iova = GIova::new(0xbbe0_0000);
        for t in 0..4u32 {
            src.translate(Sid::new(t), Did::new(t), iova, t as u64)
                .unwrap();
        }
        src.migrate_tenant(Did::new(2), 9);
        src.translate(Sid::new(2), Did::new(2), iova, 10).unwrap();
        assert_snapshot_transfers(src, iommu(4), 4);
    }

    #[test]
    fn snapshot_rejects_configuration_mismatches_and_corruption() {
        let mut src = iommu(2);
        src.translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 0)
            .unwrap();
        let mut words = Vec::new();
        src.snapshot_words(&mut words);

        // An IOMMU over a different tenant count cannot restore it.
        let mut wider = iommu(3);
        let mut r = hypersio_cache::WordReader::new(&words);
        assert!(wider.restore_words(&mut r).is_none());

        // A nested-TLB IOMMU cannot restore a flat-config snapshot.
        let params = IommuParams {
            walk_caches: WalkCacheConfig::paper_base()
                .with_nested_tlb(hypersio_cache::CacheGeometry::new(64, 8)),
            ..IommuParams::paper()
        };
        let mut nested = iommu_with(params, 2);
        let mut r = hypersio_cache::WordReader::new(&words);
        assert!(nested.restore_words(&mut r).is_none());

        // Every truncation of the stream is rejected, never a panic.
        for len in 0..words.len() {
            let mut dst = iommu(2);
            let mut r = hypersio_cache::WordReader::new(&words[..len]);
            assert!(dst.restore_words(&mut r).is_none(), "prefix {len}");
        }

        // Slab overrides must name distinct in-range DIDs in ascending
        // order.
        let mut src = iommu(4);
        src.migrate_tenant(Did::new(1), 8);
        src.migrate_tenant(Did::new(3), 9);
        let mut words = Vec::new();
        src.snapshot_words(&mut words);
        let n = words.len();
        assert_eq!(words[n - 6..], [4, 2, 1, 8, 3, 9]);
        let mut r = hypersio_cache::WordReader::new(&words);
        iommu(4)
            .restore_words(&mut r)
            .expect("ordered overrides restore");
        for (at, bad, why) in [
            (n - 2, 1, "duplicate"),
            (n - 2, 0, "descending"),
            (n - 2, 4, "out of range"),
            (n - 4, u64::MAX, "too wide"),
        ] {
            let mut corrupt = words.clone();
            corrupt[at] = bad;
            let mut r = hypersio_cache::WordReader::new(&corrupt);
            assert!(iommu(4).restore_words(&mut r).is_none(), "{why}");
        }
    }

    #[test]
    fn memory_pressure_relief_is_model_transparent() {
        let mut plain = iommu(8);
        let mut squeezed = iommu(8);
        let iova = GIova::new(0xbbe0_0042);
        let mut now = 0;
        for t in 0..4u32 {
            plain
                .translate(Sid::new(t), Did::new(t), iova, now)
                .unwrap();
            squeezed
                .translate(Sid::new(t), Did::new(t), iova, now)
                .unwrap();
            now += 1;
        }
        let memo_dropped = squeezed.relieve_memory_pressure();
        assert!(memo_dropped > 0, "warm memo must have entries to drop");
        assert_eq!(squeezed.relieve_memory_pressure(), 0, "memo is empty");
        for round in 0..2 {
            for t in 0..8u32 {
                let a = plain.translate(Sid::new(t), Did::new(t), iova, now);
                let b = squeezed.translate(Sid::new(t), Did::new(t), iova, now);
                assert_eq!(a, b, "round {round} tenant {t}");
                now += 1;
            }
        }
        assert_eq!(plain.stats(), squeezed.stats());
        assert_eq!(plain.walk_cache_stats(), squeezed.walk_cache_stats());
    }
}

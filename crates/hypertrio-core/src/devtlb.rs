//! The device-side translation cache, with HyperTRIO's SID partitioning.

use std::fmt;

use hypersio_cache::{
    CacheGeometry, CacheKey, CacheStats, OracleKey, PartitionSpec, PartitionedCache, PolicyKind,
    WordCodec, WordReader,
};
use hypersio_types::{Did, GIova, HPa, PageSize, Sid};

/// One cached device-side translation: the host frame and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbEntry {
    /// Base host-physical address of the mapped frame.
    pub hpa_base: HPa,
    /// Size of the mapped page.
    pub size: PageSize,
}

impl TlbEntry {
    /// Applies the entry to a full gIOVA, producing the translated address.
    pub fn translate(&self, iova: GIova) -> HPa {
        HPa::new(self.hpa_base.raw() + iova.page_offset(self.size))
    }
}

/// A DevTLB tag: tenant, virtual page number, and page granule.
///
/// The virtual page number doubles as the set selector, so tenants with
/// identical driver layouts (the §IV-D observation) collide in the same
/// rows of an unpartitioned DevTLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevTlbKey {
    /// The owning tenant's domain ID.
    pub did: Did,
    /// `iova >> size.shift()`.
    pub vpn: u64,
    /// Page granule of the cached mapping.
    pub size: PageSize,
}

impl DevTlbKey {
    /// Builds the key for the page of `iova` at granule `size`.
    pub fn new(did: Did, iova: GIova, size: PageSize) -> Self {
        DevTlbKey {
            did,
            vpn: iova.raw() >> size.shift(),
            size,
        }
    }
}

impl CacheKey for DevTlbKey {
    fn set_selector(&self) -> u64 {
        self.vpn
    }
}

impl WordCodec for TlbEntry {
    const WORDS: usize = 2;

    fn encode_words(&self, out: &mut Vec<u64>) {
        self.hpa_base.encode_words(out);
        self.size.encode_words(out);
    }

    fn decode_words(words: &[u64]) -> Option<Self> {
        let (hpa, size) = words.split_at_checked(1)?;
        Some(TlbEntry {
            hpa_base: HPa::decode_words(hpa)?,
            size: PageSize::decode_words(size)?,
        })
    }
}

impl WordCodec for DevTlbKey {
    const WORDS: usize = 3;

    fn encode_words(&self, out: &mut Vec<u64>) {
        self.did.encode_words(out);
        out.push(self.vpn);
        self.size.encode_words(out);
    }

    fn decode_words(words: &[u64]) -> Option<Self> {
        let (did, rest) = words.split_at_checked(1)?;
        let (vpn, size) = rest.split_at_checked(1)?;
        Some(DevTlbKey {
            did: Did::decode_words(did)?,
            vpn: u64::decode_words(vpn)?,
            size: PageSize::decode_words(size)?,
        })
    }
}

impl OracleKey for DevTlbKey {
    fn oracle_code(&self) -> u64 {
        // did (20 bits) | vpn (42 bits) | granule level (2 bits) — injective
        // for the workloads' address ranges.
        ((self.did.raw() as u64) << 44)
            | ((self.vpn & ((1 << 42) - 1)) << 2)
            | self.size.level() as u64
    }
}

/// The Device TLB ("DevTLB"), optionally partitioned by SID.
///
/// Lookups probe the 2 MB granule first, then 4 KB (hardware probes both
/// tag arrays in parallel); exactly one hit or one miss is recorded per
/// lookup.
///
/// # Examples
///
/// ```
/// use hypersio_cache::{CacheGeometry, PartitionSpec, PolicyKind};
/// use hypersio_types::{Did, GIova, HPa, PageSize, Sid};
/// use hypertrio_core::{DevTlb, TlbEntry};
///
/// let mut tlb = DevTlb::new(
///     CacheGeometry::new(64, 8),
///     PartitionSpec::new(8),
///     PolicyKind::Lfu,
/// );
/// let entry = TlbEntry { hpa_base: HPa::new(0x10_0000_0000), size: PageSize::Size2M };
/// tlb.insert(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), entry, 0);
/// let hit = tlb.lookup(Sid::new(0), Did::new(0), GIova::new(0xbbe0_1234), 1).unwrap();
/// assert_eq!(hit.translate(GIova::new(0xbbe0_1234)).raw(), 0x10_0000_1234);
/// ```
pub struct DevTlb {
    cache: PartitionedCache<DevTlbKey, TlbEntry>,
}

impl DevTlb {
    /// Creates a DevTLB.
    ///
    /// The paper's Base design is `CacheGeometry::new(64, 8)` with a unified
    /// partition and LFU; HyperTRIO partitions the same geometry 8 ways
    /// (Table IV).
    ///
    /// # Panics
    ///
    /// Panics if the partition count does not divide the number of sets.
    pub fn new(geometry: CacheGeometry, partitions: PartitionSpec, policy: PolicyKind) -> Self {
        DevTlb {
            cache: PartitionedCache::new(geometry, partitions, policy),
        }
    }

    /// Returns the geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.cache.geometry()
    }

    /// Returns the partition spec.
    pub fn partitions(&self) -> PartitionSpec {
        self.cache.spec()
    }

    /// Looks up the translation for `iova`, probing 2 MB then 4 KB granules.
    ///
    /// Records exactly one hit or one miss in the statistics. The two
    /// granule rows are probed in one fused pass (hardware probes both tag
    /// arrays in parallel); hit/miss accounting is identical to a 2 MB peek
    /// followed by a single policy-visible lookup.
    pub fn lookup(&mut self, sid: Sid, did: Did, iova: GIova, now: u64) -> Option<TlbEntry> {
        let key_2m = DevTlbKey::new(did, iova, PageSize::Size2M);
        let key_4k = DevTlbKey::new(did, iova, PageSize::Size4K);
        self.cache.lookup_fused(sid, &key_2m, &key_4k, now).copied()
    }

    /// Inserts a translation completed by the IOMMU.
    ///
    /// Returns the evicted entry, if any.
    pub fn insert(
        &mut self,
        sid: Sid,
        did: Did,
        iova: GIova,
        entry: TlbEntry,
        now: u64,
    ) -> Option<(DevTlbKey, TlbEntry)> {
        let key = DevTlbKey::new(did, iova, entry.size);
        self.cache.insert(sid, key, entry, now)
    }

    /// Invalidates the translation for (`did`, `iova`) at granule `size`.
    pub fn invalidate(&mut self, sid: Sid, did: Did, iova: GIova, size: PageSize) -> bool {
        self.cache
            .invalidate(sid, &DevTlbKey::new(did, iova, size))
            .is_some()
    }

    /// Invalidates every entry belonging to `did` (a per-domain shootdown,
    /// as an IOTLB invalidation command addressed to one DID would).
    /// Returns the number of entries removed.
    pub fn invalidate_did(&mut self, did: Did) -> usize {
        self.cache.invalidate_matching(|k| k.did == did)
    }

    /// Removes every entry (statistics are kept).
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Returns accumulated access statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Returns the number of occupied entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns true if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Appends the DevTLB's full mutable state (entries, replacement
    /// metadata, statistics) to a checkpoint word stream.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.cache.snapshot_words(out);
    }

    /// Restores the state written by [`DevTlb::snapshot_words`] into this
    /// identically configured DevTLB. Returns `None` on a corrupt stream.
    pub fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        self.cache.restore_words(r)
    }
}

impl fmt::Debug for DevTlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DevTlb")
            .field("geometry", &self.cache.geometry())
            .field("partitions", &self.cache.spec())
            .field("occupied", &self.cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_2m(hpa: u64) -> TlbEntry {
        TlbEntry {
            hpa_base: HPa::new(hpa),
            size: PageSize::Size2M,
        }
    }

    fn entry_4k(hpa: u64) -> TlbEntry {
        TlbEntry {
            hpa_base: HPa::new(hpa),
            size: PageSize::Size4K,
        }
    }

    fn base_tlb() -> DevTlb {
        DevTlb::new(
            CacheGeometry::new(64, 8),
            PartitionSpec::unified(),
            PolicyKind::Lfu,
        )
    }

    #[test]
    fn hit_covers_whole_huge_page() {
        let mut tlb = base_tlb();
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0xbbe0_0000),
            entry_2m(0x1000_0000),
            0,
        );
        // Any offset inside the 2 MB page hits.
        let hit = tlb
            .lookup(Sid::new(0), Did::new(0), GIova::new(0xbbff_ffff), 1)
            .unwrap();
        assert_eq!(hit.translate(GIova::new(0xbbff_ffff)).raw(), 0x101f_ffff);
        assert_eq!(tlb.stats().hits(), 1);
    }

    #[test]
    fn four_kb_entries_do_not_cover_neighbours() {
        let mut tlb = base_tlb();
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x3480_0000),
            entry_4k(0x5000),
            0,
        );
        assert!(tlb
            .lookup(Sid::new(0), Did::new(0), GIova::new(0x3480_0fff), 1)
            .is_some());
        assert!(tlb
            .lookup(Sid::new(0), Did::new(0), GIova::new(0x3480_1000), 2)
            .is_none());
        assert_eq!(tlb.stats().misses(), 1);
    }

    #[test]
    fn one_access_one_stat() {
        let mut tlb = base_tlb();
        tlb.lookup(Sid::new(0), Did::new(0), GIova::new(0x1000), 0);
        assert_eq!(tlb.stats().accesses(), 1);
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x1000),
            entry_4k(0x1),
            1,
        );
        tlb.lookup(Sid::new(0), Did::new(0), GIova::new(0x1000), 2);
        assert_eq!(tlb.stats().accesses(), 2);
        assert_eq!(tlb.stats().hits(), 1);
        assert_eq!(tlb.stats().misses(), 1);
    }

    #[test]
    fn tenants_do_not_alias_even_unpartitioned() {
        let mut tlb = base_tlb();
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0xbbe0_0000),
            entry_2m(0xa0_0000),
            0,
        );
        assert!(tlb
            .lookup(Sid::new(1), Did::new(1), GIova::new(0xbbe0_0000), 1)
            .is_none());
    }

    #[test]
    fn partitioning_protects_quiet_tenant() {
        let mut tlb = DevTlb::new(
            CacheGeometry::new(64, 8),
            PartitionSpec::new(8),
            PolicyKind::Lfu,
        );
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0xbbe0_0000),
            entry_2m(0x1),
            0,
        );
        // Tenant 1 floods its own partition with hundreds of pages.
        for i in 0..500u64 {
            tlb.insert(
                Sid::new(1),
                Did::new(1),
                GIova::new(i << 21),
                entry_2m(i),
                1 + i,
            );
        }
        assert!(
            tlb.lookup(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 1000)
                .is_some(),
            "partitioned DevTLB must isolate tenant 0"
        );
    }

    #[test]
    fn unpartitioned_tlb_lets_flood_evict() {
        let mut tlb = base_tlb();
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0xbbe0_0000),
            entry_2m(0x1),
            0,
        );
        for i in 0..5000u64 {
            tlb.insert(
                Sid::new(1),
                Did::new(1),
                GIova::new(i << 21),
                entry_2m(i),
                1 + i,
            );
        }
        assert!(
            tlb.lookup(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 9000)
                .is_none(),
            "Base DevTLB thrashes under a flood"
        );
    }

    #[test]
    fn invalidate_and_clear() {
        let mut tlb = base_tlb();
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x1000),
            entry_4k(0x9),
            0,
        );
        assert!(tlb.invalidate(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x1000),
            PageSize::Size4K
        ));
        assert!(!tlb.invalidate(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x1000),
            PageSize::Size4K
        ));
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x2000),
            entry_4k(0x9),
            1,
        );
        tlb.clear();
        assert!(tlb.is_empty());
    }

    #[test]
    fn invalidate_did_removes_only_that_tenant() {
        let mut tlb = base_tlb();
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0x1000),
            entry_4k(0x1),
            0,
        );
        tlb.insert(
            Sid::new(0),
            Did::new(0),
            GIova::new(0xbbe0_0000),
            entry_2m(0x2),
            1,
        );
        tlb.insert(
            Sid::new(1),
            Did::new(1),
            GIova::new(0x1000),
            entry_4k(0x3),
            2,
        );
        assert_eq!(tlb.invalidate_did(Did::new(0)), 2);
        assert!(tlb
            .lookup(Sid::new(0), Did::new(0), GIova::new(0x1000), 3)
            .is_none());
        assert!(tlb
            .lookup(Sid::new(0), Did::new(0), GIova::new(0xbbe0_0000), 4)
            .is_none());
        assert!(tlb
            .lookup(Sid::new(1), Did::new(1), GIova::new(0x1000), 5)
            .is_some());
        assert_eq!(tlb.invalidate_did(Did::new(0)), 0);
    }

    #[test]
    fn oracle_codes_distinguish_granules_and_tenants() {
        let a = DevTlbKey::new(Did::new(0), GIova::new(0xbbe0_0000), PageSize::Size2M);
        let b = DevTlbKey::new(Did::new(0), GIova::new(0xbbe0_0000), PageSize::Size4K);
        let c = DevTlbKey::new(Did::new(1), GIova::new(0xbbe0_0000), PageSize::Size2M);
        assert_ne!(a.oracle_code(), b.oracle_code());
        assert_ne!(a.oracle_code(), c.oracle_code());
    }

    #[test]
    fn entry_translate_preserves_offset() {
        let e = entry_2m(0x4000_0000);
        assert_eq!(e.translate(GIova::new(0xbbe1_2345)).raw(), 0x4001_2345);
    }
}

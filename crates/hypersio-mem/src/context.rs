//! Context cache: BDF → context-entry lookup ("CC"/"CE" in the paper's
//! Fig 3).

use hypersio_cache::{CacheKey, FullyAssocCache, OracleKey, PolicyKind};
use hypersio_types::{Bdf, Did};

/// A context entry: the per-device configuration the IOMMU reads before it
/// can translate for that device.
///
/// Holds the domain ID assigned by the host and (implicitly, via the DID)
/// the roots of the tenant's translation tables.
///
/// # Examples
///
/// ```
/// use hypersio_mem::ContextEntry;
/// use hypersio_types::Did;
///
/// let ce = ContextEntry::new(Did::new(5));
/// assert_eq!(ce.did(), Did::new(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextEntry {
    did: Did,
}

impl ContextEntry {
    /// Creates a context entry for domain `did`.
    pub fn new(did: Did) -> Self {
        ContextEntry { did }
    }

    /// Returns the domain ID.
    pub fn did(&self) -> Did {
        self.did
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BdfKey(Bdf);

impl CacheKey for BdfKey {
    fn set_selector(&self) -> u64 {
        self.0.routing_id() as u64
    }
}

impl OracleKey for BdfKey {
    fn oracle_code(&self) -> u64 {
        self.0.routing_id() as u64
    }
}

impl hypersio_cache::WordCodec for BdfKey {
    const WORDS: usize = 1;

    fn encode_words(&self, out: &mut Vec<u64>) {
        out.push(self.0.routing_id() as u64);
    }

    fn decode_words(words: &[u64]) -> Option<Self> {
        let raw = u32::try_from(*words.first()?).ok()?;
        Some(BdfKey(Bdf::from_routing_id(raw)))
    }
}

/// The IOMMU's context cache.
///
/// On a miss, hardware reads the root-table entry and the context entry
/// from memory (two DRAM accesses) — [`ContextCache::lookup_or_fetch`]
/// reports how many such reads the access cost so the caller can charge
/// them.
///
/// The architected context table behind the cache follows the paper's
/// 1 VF : 1 tenant model: every device with a routing ID below the
/// configured device count is assigned, to the domain of the same number,
/// so the table is a function of the BDF and holds no storage.
///
/// # Examples
///
/// ```
/// use hypersio_mem::ContextCache;
/// use hypersio_types::{Bdf, Did};
///
/// let mut cc = ContextCache::new(64, 8);
/// let (ce, memory_reads) = cc.lookup_or_fetch(Bdf::new(7), 0).unwrap();
/// assert_eq!(ce.did(), Did::new(7));
/// assert_eq!(memory_reads, 2); // cold miss fetches root + context entry
/// let (_, memory_reads) = cc.lookup_or_fetch(Bdf::new(7), 1).unwrap();
/// assert_eq!(memory_reads, 0); // now cached
/// assert!(cc.lookup_or_fetch(Bdf::new(8), 2).is_none()); // not assigned
/// ```
#[derive(Debug)]
pub struct ContextCache {
    /// Devices with a context entry: routing IDs `0..devices`.
    devices: u32,
    cache: FullyAssocCache<BdfKey, ContextEntry>,
}

/// DRAM reads charged for a context-cache miss (root entry + context entry).
pub(crate) const CONTEXT_MISS_READS: u64 = 2;

impl ContextCache {
    /// Creates a context cache with `entries` slots (LRU) in front of a
    /// context table assigning routing IDs `0..devices` to the domains of
    /// the same number.
    pub fn new(entries: usize, devices: u32) -> Self {
        ContextCache {
            devices,
            cache: FullyAssocCache::new(entries, PolicyKind::Lru),
        }
    }

    /// Looks up the context entry for `bdf`, fetching from memory on a miss.
    ///
    /// Returns the entry and the number of DRAM reads the lookup cost
    /// (0 on a cache hit, 2 on a miss).
    ///
    /// Returns `None` if `bdf` has no context entry — the device is not
    /// configured and the request must fault.
    pub fn lookup_or_fetch(&mut self, bdf: Bdf, now: u64) -> Option<(ContextEntry, u64)> {
        let key = BdfKey(bdf);
        if let Some(entry) = self.cache.lookup(&key, now) {
            return Some((*entry, 0));
        }
        let routing_id = bdf.routing_id();
        if routing_id >= self.devices {
            return None;
        }
        let entry = ContextEntry::new(Did::new(routing_id));
        self.cache.insert(key, entry, now);
        Some((entry, CONTEXT_MISS_READS))
    }

    /// Invalidates the cached entry for `bdf` (e.g. after reassignment).
    pub fn invalidate(&mut self, bdf: Bdf) {
        let _ = self.cache.invalidate(&BdfKey(bdf));
    }

    /// Returns cache statistics.
    pub fn stats(&self) -> &hypersio_cache::CacheStats {
        self.cache.stats()
    }

    /// Appends the cache contents to a checkpoint stream (the context
    /// table is a function of the BDF and needs no state).
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.cache.snapshot_words(out);
    }

    /// Restores the cache contents captured by [`Self::snapshot_words`].
    /// Returns `None` (leaving the cache in an unspecified but safe state)
    /// if the stream is corrupt.
    pub fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.cache.restore_words(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_device_is_none() {
        let mut cc = ContextCache::new(4, 1);
        assert_eq!(cc.lookup_or_fetch(Bdf::new(1), 0), None);
    }

    #[test]
    fn miss_then_hit_costs() {
        let mut cc = ContextCache::new(4, 2);
        let (ce, reads) = cc.lookup_or_fetch(Bdf::new(1), 0).unwrap();
        assert_eq!(ce.did(), Did::new(1));
        assert_eq!(reads, 2);
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(1), 1).unwrap();
        assert_eq!(reads, 0);
    }

    #[test]
    fn capacity_evictions_refetch() {
        let mut cc = ContextCache::new(2, 3);
        for i in 0..3u16 {
            cc.lookup_or_fetch(Bdf::new(i), i as u64).unwrap();
        }
        // Bdf 0 was LRU-evicted by the third fill.
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(0), 10).unwrap();
        assert_eq!(reads, 2);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut cc = ContextCache::new(4, 10);
        cc.lookup_or_fetch(Bdf::new(9), 0).unwrap();
        cc.invalidate(Bdf::new(9));
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(9), 1).unwrap();
        assert_eq!(reads, 2);
    }
}

//! SID-partitioned cache: the P-DevTLB mechanism (§III of the paper).

use std::fmt;

use hypersio_types::Sid;

use crate::geometry::CacheGeometry;
use crate::policy::{OracleKey, PolicyKind};
use crate::set_assoc::{CacheKey, SetAssocCache};
use crate::stats::CacheStats;

/// How cache rows are divided between tenants.
///
/// HyperTRIO adds a partition tag (PTag) to every DevTLB row and requires it
/// to match the request's SID for a translation to be cached there. A full
/// match dedicates rows to single tenants; matching only the low bits of the
/// SID groups multiple tenants per partition. This spec captures both as a
/// partition count: with `p` partitions a request from SID `s` may only use
/// the rows of partition `s mod p`.
///
/// # Examples
///
/// ```
/// use hypersio_cache::PartitionSpec;
/// use hypersio_types::Sid;
///
/// let spec = PartitionSpec::new(8);
/// assert_eq!(spec.partition_of(Sid::new(3)), 3);
/// assert_eq!(spec.partition_of(Sid::new(11)), 3); // 11 mod 8
/// assert_eq!(PartitionSpec::unified().partition_of(Sid::new(11)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    partitions: usize,
}

impl PartitionSpec {
    /// Creates a spec with `partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "at least one partition is required");
        PartitionSpec { partitions }
    }

    /// The unpartitioned (Base-design) spec: a single shared partition.
    pub fn unified() -> Self {
        PartitionSpec { partitions: 1 }
    }

    /// Returns the number of partitions.
    pub const fn partitions(self) -> usize {
        self.partitions
    }

    /// Returns the partition index assigned to `sid` (low-bit PTag match).
    pub fn partition_of(self, sid: Sid) -> usize {
        (sid.raw() as usize) % self.partitions
    }

    /// Returns true if this is the single-partition (unpartitioned) spec.
    pub const fn is_unified(self) -> bool {
        self.partitions == 1
    }
}

impl Default for PartitionSpec {
    fn default() -> Self {
        PartitionSpec::unified()
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}p", self.partitions)
    }
}

/// Key wrapper routing a request to the rows of its SID's partition.
///
/// Entries are tagged with the full SID (as in hardware, where the DevTLB
/// tag includes the requester ID), so translations from different tenants
/// are always distinct entries even when their gIOVAs are identical —
/// partitioning governs *placement and eviction interference*, not identity.
/// The set index is `partition * rows_per_partition +
/// (selector % rows_per_partition)`, confining each SID group to its slice
/// of rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PartitionedKey<K> {
    sid: Sid,
    partition: usize,
    rows_per_partition: u64,
    inner: K,
}

impl<K: CacheKey> CacheKey for PartitionedKey<K> {
    fn set_selector(&self) -> u64 {
        self.partition as u64 * self.rows_per_partition
            + self.inner.set_selector() % self.rows_per_partition
    }
}

impl<K: OracleKey> OracleKey for PartitionedKey<K> {
    fn oracle_code(&self) -> u64 {
        // The oracle sequence is built over inner keys; partitioning does not
        // change when a translation is next used. Inner keys must therefore
        // be globally unique (encode the tenant) when the Oracle policy is
        // used — the simulator's TLB keys include the DID for this reason.
        self.inner.oracle_code()
    }
}

impl<K: crate::snapshot::WordCodec> crate::snapshot::WordCodec for PartitionedKey<K> {
    const WORDS: usize = 3 + K::WORDS;

    fn encode_words(&self, out: &mut Vec<u64>) {
        out.push(self.sid.raw() as u64);
        out.push(self.partition as u64);
        out.push(self.rows_per_partition);
        self.inner.encode_words(out);
    }

    fn decode_words(words: &[u64]) -> Option<Self> {
        let (head, inner) = words.split_at_checked(3)?;
        let &[sid, partition, rows_per_partition] = head else {
            return None;
        };
        Some(PartitionedKey {
            sid: Sid::new(u32::try_from(sid).ok()?),
            partition: usize::try_from(partition).ok()?,
            rows_per_partition,
            inner: K::decode_words(inner)?,
        })
    }
}

/// A set-associative cache whose rows are partitioned by SID (PTag match).
///
/// With [`PartitionSpec::unified`] this degenerates to a plain shared cache
/// (the Base design); with more partitions, each SID group gets a private
/// slice of the rows, providing the performance isolation of §III.
///
/// # Examples
///
/// ```
/// use hypersio_cache::{CacheGeometry, PartitionSpec, PartitionedCache, PolicyKind};
/// use hypersio_types::Sid;
///
/// // Paper DevTLB: 64 entries, 8 ways, 8 partitions -> one row per tenant group.
/// let mut devtlb: PartitionedCache<u64, u64> = PartitionedCache::new(
///     CacheGeometry::new(64, 8),
///     PartitionSpec::new(8),
///     PolicyKind::Lfu,
/// );
/// devtlb.insert(Sid::new(0), 0xbbe00, 0x1000, 0);
/// assert_eq!(devtlb.lookup(Sid::new(0), &0xbbe00, 1), Some(&0x1000));
/// // A different tenant with the same gIOVA page does not hit tenant 0's entry.
/// assert_eq!(devtlb.lookup(Sid::new(1), &0xbbe00, 2), None);
/// ```
pub struct PartitionedCache<K, V> {
    inner: SetAssocCache<PartitionedKey<K>, V>,
    spec: PartitionSpec,
    rows_per_partition: u64,
}

impl<K: CacheKey + OracleKey, V> PartitionedCache<K, V> {
    /// Creates a partitioned cache.
    ///
    /// # Panics
    ///
    /// Panics if the partition count does not divide the number of sets: the
    /// PTag scheme assigns whole rows to partitions.
    pub fn new(geometry: CacheGeometry, spec: PartitionSpec, policy: PolicyKind) -> Self {
        assert!(
            geometry.sets().is_multiple_of(spec.partitions()),
            "partitions ({}) must divide sets ({})",
            spec.partitions(),
            geometry.sets()
        );
        let rows_per_partition = (geometry.sets() / spec.partitions()) as u64;
        PartitionedCache {
            inner: SetAssocCache::new(geometry, policy),
            spec,
            rows_per_partition,
        }
    }

    fn wrap(&self, sid: Sid, key: K) -> PartitionedKey<K> {
        PartitionedKey {
            sid,
            partition: self.spec.partition_of(sid),
            rows_per_partition: self.rows_per_partition,
            inner: key,
        }
    }

    /// Returns the cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    /// Returns the partition spec.
    pub fn spec(&self) -> PartitionSpec {
        self.spec
    }

    /// Looks up `key` on behalf of `sid`, confined to its partition's rows.
    pub fn lookup(&mut self, sid: Sid, key: &K, now: u64) -> Option<&V> {
        let wrapped = self.wrap(sid, key.clone());
        self.inner.lookup(&wrapped, now)
    }

    /// Looks up `primary` and, only if absent, `secondary` on behalf of
    /// `sid`, recording exactly one hit or miss; see
    /// [`SetAssocCache::lookup_fused`].
    pub fn lookup_fused(&mut self, sid: Sid, primary: &K, secondary: &K, now: u64) -> Option<&V> {
        let primary = self.wrap(sid, primary.clone());
        let secondary = self.wrap(sid, secondary.clone());
        self.inner.lookup_fused(&primary, &secondary, now)
    }

    /// Returns the cached value without touching statistics or policy state.
    pub fn peek(&self, sid: Sid, key: &K) -> Option<&V> {
        self.inner.peek(&self.wrap(sid, key.clone()))
    }

    /// Returns true if (`sid`, `key`) is cached, without recording an access.
    pub fn contains(&self, sid: Sid, key: &K) -> bool {
        self.peek(sid, key).is_some()
    }

    /// Inserts a translation for `sid`; evictions can only hit rows of the
    /// same partition. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, sid: Sid, key: K, value: V, now: u64) -> Option<(K, V)> {
        self.inner
            .insert(self.wrap(sid, key), value, now)
            .map(|(k, v)| (k.inner, v))
    }

    /// Removes (`sid`, `key`) if present, returning its value.
    pub fn invalidate(&mut self, sid: Sid, key: &K) -> Option<V> {
        let wrapped = self.wrap(sid, key.clone());
        self.inner.invalidate(&wrapped)
    }

    /// Removes every entry whose inner key matches `pred`, regardless of
    /// which partition holds it (shootdowns address translations, not
    /// partitions). Returns the number removed.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize {
        self.inner.invalidate_matching(|k| pred(&k.inner))
    }

    /// Removes every entry (statistics are kept).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Returns the number of occupied entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns true if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Returns accumulated access statistics.
    pub fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

impl<K, V> PartitionedCache<K, V>
where
    K: CacheKey + OracleKey + crate::snapshot::WordCodec,
    V: crate::snapshot::WordCodec,
{
    /// Appends the cache's full mutable state to a checkpoint word stream;
    /// see [`SetAssocCache::snapshot_words`].
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.inner.snapshot_words(out);
    }

    /// Restores the state written by [`PartitionedCache::snapshot_words`];
    /// see [`SetAssocCache::restore_words`].
    pub fn restore_words(&mut self, r: &mut crate::snapshot::WordReader<'_>) -> Option<()> {
        self.inner.restore_words(r)
    }
}

impl<K: CacheKey, V> fmt::Debug for PartitionedCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionedCache")
            .field("geometry", &self.inner.geometry())
            .field("spec", &self.spec)
            .field("occupied", &self.inner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devtlb(partitions: usize) -> PartitionedCache<u64, u64> {
        PartitionedCache::new(
            CacheGeometry::new(64, 8),
            PartitionSpec::new(partitions),
            PolicyKind::Lru,
        )
    }

    #[test]
    fn unified_spec_is_default() {
        assert_eq!(PartitionSpec::default(), PartitionSpec::unified());
        assert!(PartitionSpec::unified().is_unified());
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = PartitionSpec::new(0);
    }

    #[test]
    #[should_panic(expected = "must divide sets")]
    fn partitions_must_divide_sets() {
        // 64/8 = 8 sets; 3 partitions do not divide 8.
        let _: PartitionedCache<u64, u64> = PartitionedCache::new(
            CacheGeometry::new(64, 8),
            PartitionSpec::new(3),
            PolicyKind::Lru,
        );
    }

    #[test]
    fn tenants_in_different_partitions_do_not_alias() {
        let mut c = devtlb(8);
        c.insert(Sid::new(0), 0x34800, 1, 0);
        assert_eq!(c.lookup(Sid::new(1), &0x34800, 1), None);
        assert_eq!(c.lookup(Sid::new(0), &0x34800, 2), Some(&1));
    }

    #[test]
    fn grouped_tenants_share_a_partition() {
        let mut c = devtlb(8);
        // SIDs 0 and 8 map to partition 0: same rows, distinct keys.
        c.insert(Sid::new(0), 0x100, 10, 0);
        c.insert(Sid::new(8), 0x100, 80, 1);
        assert_eq!(c.lookup(Sid::new(0), &0x100, 2), Some(&10));
        assert_eq!(c.lookup(Sid::new(8), &0x100, 3), Some(&80));
    }

    #[test]
    fn low_bandwidth_tenant_cannot_evict_other_partition() {
        // 8 partitions of one 8-way row each. Tenant 1 floods its row;
        // tenant 0's single entry must survive.
        let mut c = devtlb(8);
        c.insert(Sid::new(0), 0xaaaa, 7, 0);
        for i in 0..100u64 {
            c.insert(Sid::new(1), i * 8, i, 1 + i);
        }
        assert_eq!(c.peek(Sid::new(0), &0xaaaa), Some(&7));
    }

    #[test]
    fn unified_cache_lets_tenants_thrash_each_other() {
        // With one partition the same flood evicts tenant 0's entry —
        // the Base-design behaviour the paper measures.
        let mut c = devtlb(1);
        c.insert(Sid::new(0), 0xaaa0, 7, 0);
        for i in 0..200u64 {
            c.insert(Sid::new(1), i, i, 1 + i);
        }
        assert_eq!(c.peek(Sid::new(0), &0xaaa0), None);
    }

    #[test]
    fn partition_rows_are_contiguous_slices() {
        // With 2 partitions over 8 sets, partition 1 owns sets 4..8.
        let spec = PartitionSpec::new(2);
        assert_eq!(spec.partition_of(Sid::new(1)), 1);
        let key = PartitionedKey {
            sid: Sid::new(1),
            partition: 1,
            rows_per_partition: 4,
            inner: 5u64,
        };
        assert_eq!(key.set_selector(), 4 + 5 % 4);
    }

    #[test]
    fn capacity_is_bounded_per_partition() {
        // One row (8 ways) per partition: a tenant can cache at most 8 pages.
        let mut c = devtlb(8);
        for i in 0..20u64 {
            c.insert(Sid::new(2), i, i, i);
        }
        let tenant_entries = (0..20u64).filter(|i| c.contains(Sid::new(2), i)).count();
        assert_eq!(tenant_entries, 8);
    }

    #[test]
    fn invalidate_matching_crosses_partitions() {
        let mut c = devtlb(8);
        // The same inner key cached for tenants in different partitions.
        c.insert(Sid::new(0), 0x55, 50, 0);
        c.insert(Sid::new(1), 0x55, 51, 1);
        c.insert(Sid::new(2), 0x77, 72, 2);
        let removed = c.invalidate_matching(|k| *k == 0x55);
        assert_eq!(removed, 2);
        assert!(!c.contains(Sid::new(0), &0x55));
        assert!(!c.contains(Sid::new(1), &0x55));
        assert!(c.contains(Sid::new(2), &0x77));
    }

    #[test]
    fn invalidate_by_sid_and_key() {
        let mut c = devtlb(8);
        c.insert(Sid::new(3), 0x55, 5, 0);
        assert_eq!(c.invalidate(Sid::new(3), &0x55), Some(5));
        assert_eq!(c.invalidate(Sid::new(3), &0x55), None);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", PartitionSpec::new(8)), "8p");
        let c = devtlb(8);
        assert!(format!("{c:?}").contains("spec"));
    }
}

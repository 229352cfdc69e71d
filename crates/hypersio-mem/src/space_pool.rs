//! The tenant-space pool: per-DID page tables stamped on first touch.
//!
//! A [`SpacePool`] is the IOMMU's view of "which tenants have page
//! tables". Every tenant runs the same OS and driver (§IV-D), so every
//! per-tenant table is a stamp of one canonical build: the pool holds
//! that build, stamps a tenant's [`TenantSpace`] the first time the DID
//! is touched ([`TenantSpace::stamp`]), and — under a host-memory budget —
//! evicts the least-recently-touched resident space to make room. With no
//! budget nothing is ever evicted and the pool ends up holding exactly
//! the tenants the trace touched. Per-tenant cost is one `u32` slot index
//! plus, while resident, one rebased host table; that is what makes
//! million-tenant runs fit in bounded RSS.
//!
//! Residency is indexed by DID: `slot_of[did]` names the tenant's entry
//! in a dense resident arena (0 = not resident), and the arena entries
//! form an index-linked LRU list — a touch moves the entry to the back,
//! eviction pops the front and swap-removes it, dropping the space. The
//! arena is two parallel vectors, the 12-byte links and the spaces, so
//! relinking on a touch stays within a few small cache lines. A pool
//! without a budget never evicts, so it does not track recency: its list
//! stays in stamp order until memory pressure first caps it.
//!
//! Eviction is *transparent to the model*: stamping is deterministic, so
//! a rebuilt space is bit-identical to the evicted one and every cached
//! translation (DevTLB, walk caches, memo) remains correct without
//! shootdowns. Eviction models the simulator reclaiming its own memory,
//! not the hypervisor unmapping a tenant.

use hypersio_types::fxhash::FxBuildHasher;
use hypersio_types::Did;

use crate::space::TenantSpace;

type FxMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// End-of-list marker for the LRU links.
const NIL: u32 = u32::MAX;

/// Counters describing a pool's build/eviction behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Spaces stamped on demand.
    pub builds: u64,
    /// Spaces evicted to stay under the budget.
    pub evictions: u64,
    /// Spaces currently resident.
    pub resident: usize,
    /// Residency cap derived from the budget (`usize::MAX` = unbounded).
    pub max_resident: usize,
}

/// A pool of per-tenant address spaces, stamped on first touch from one
/// canonical build and LRU-evicted under an optional byte budget.
///
/// # Examples
///
/// ```
/// use hypersio_mem::{SpacePool, TenantSpace};
/// use hypersio_types::{Did, GIova, PageSize};
///
/// let mut b = TenantSpace::builder(Did::new(0));
/// b.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
/// let canonical = b.build();
/// // Budget for roughly two resident tenants out of 100.
/// let budget = canonical.per_tenant_bytes() * 2;
/// let mut pool = SpacePool::new(canonical, 100, Some(budget));
/// pool.ensure(Did::new(77));
/// assert!(pool.get(Did::new(77)).lookup(GIova::new(0xbbe0_0042)).is_some());
/// assert_eq!(pool.stats().builds, 1);
/// ```
pub struct SpacePool {
    /// The canonical (DID-0, slab-0) build every space is stamped from.
    canonical: TenantSpace,
    /// Per DID: arena index of its resident space plus one; 0 = not
    /// resident. Allocated zeroed, so a million-tenant pool costs no
    /// up-front page touches.
    slot_of: Vec<u32>,
    /// The resident arena's LRU list, threaded by index from `head` to
    /// `tail`; `spaces[i]` is the space of `links[i].did`.
    links: Vec<Link>,
    spaces: Vec<TenantSpace>,
    /// Least recently touched arena entry (the next victim), or `NIL`.
    head: u32,
    /// Most recently touched arena entry, or `NIL`.
    tail: u32,
    /// Current host slab of tenants migrated away from their default
    /// (`slab == did`); consulted when re-stamping after eviction.
    slab_overrides: FxMap<u32, u64>,
    max_resident: usize,
    builds: u64,
    evictions: u64,
}

#[derive(Clone, Copy)]
struct Link {
    did: u32,
    prev: u32,
    next: u32,
}

impl SpacePool {
    /// Creates a pool over DIDs `0..tenants` stamped on demand from
    /// `canonical` (a slab-0 build of the shared page inventory).
    ///
    /// `budget_bytes` caps the resident spaces' estimated heap footprint
    /// ([`TenantSpace::per_tenant_bytes`] each); at least one space is
    /// always allowed. `None` means unbounded residency (no eviction).
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn new(canonical: TenantSpace, tenants: u32, budget_bytes: Option<u64>) -> Self {
        assert!(tenants > 0, "at least one tenant is required");
        let per_space = canonical.per_tenant_bytes().max(1);
        let max_resident = match budget_bytes {
            None => usize::MAX,
            Some(b) => ((b / per_space) as usize).max(1),
        };
        SpacePool {
            canonical,
            slot_of: vec![0; tenants as usize],
            links: Vec::new(),
            spaces: Vec::new(),
            head: NIL,
            tail: NIL,
            slab_overrides: FxMap::default(),
            max_resident,
            builds: 0,
            evictions: 0,
        }
    }

    /// Returns the number of tenants the pool can serve.
    pub fn tenants(&self) -> u32 {
        self.slot_of.len() as u32
    }

    /// Makes `did`'s space resident (stamping and, if needed, evicting)
    /// and refreshes its recency. Returns `true` when the space was newly
    /// built — the caller owes the on-demand context-entry install.
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range.
    pub fn ensure(&mut self, did: Did) -> bool {
        assert!(did.index() < self.slot_of.len(), "unknown tenant {did}");
        match self.slot_of[did.index()] {
            0 => {
                while self.links.len() >= self.max_resident {
                    self.evict_lru();
                }
                self.stamp_back(did.raw());
                self.builds += 1;
                true
            }
            slot => {
                // Recency only picks eviction victims, so a pool without a
                // cap leaves its residents in stamp order.
                let i = slot - 1;
                if self.max_resident != usize::MAX && i != self.tail {
                    self.unlink(i);
                    self.link_back(i);
                }
                false
            }
        }
    }

    /// Returns `did`'s space. Requires a preceding [`SpacePool::ensure`]
    /// for the same DID (the translate path always pairs them).
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range or not resident.
    pub fn get(&self, did: Did) -> &TenantSpace {
        match self.slot_of[did.index()] {
            0 => panic!("ensure() must materialise a space before get()"),
            slot => &self.spaces[slot as usize - 1],
        }
    }

    /// Relocates `did`'s host-side memory to slab `slab` (see
    /// [`TenantSpace::migrate_to_slab`]). The new slab is also recorded so
    /// a post-eviction rebuild re-stamps at the tenant's *current* home,
    /// not its original one.
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range.
    pub fn migrate(&mut self, did: Did, slab: u64) {
        assert!(did.index() < self.slot_of.len(), "unknown tenant {did}");
        self.slab_overrides.insert(did.raw(), slab);
        if let Some(slot) = self.slot_of[did.index()].checked_sub(1) {
            self.spaces[slot as usize].migrate_to_slab(slab);
        }
    }

    /// Returns build/eviction counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            builds: self.builds,
            evictions: self.evictions,
            resident: self.links.len(),
            max_resident: self.max_resident,
        }
    }

    /// DIDs of currently resident spaces, least recently touched first.
    pub(crate) fn resident_dids(&self) -> impl Iterator<Item = Did> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), |&i| {
            let next = self.links[i as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|i| Did::new(self.links[i as usize].did))
    }

    /// Halves the residency cap (never below one space) and evicts
    /// least-recently-touched spaces until the survivors fit — the
    /// graceful-degradation response to host memory pressure. A pool
    /// without a budget is capped at half its current residency, shedding
    /// its earliest-stamped spaces, and tracks recency from then on. Safe
    /// because eviction is model-transparent (see the module docs): a
    /// later touch re-stamps a bit-identical space. Returns the number of
    /// spaces evicted.
    pub fn shrink_residency(&mut self) -> u64 {
        self.max_resident = if self.max_resident == usize::MAX {
            (self.links.len() / 2).max(1)
        } else {
            (self.max_resident / 2).max(1)
        };
        let before = self.evictions;
        while self.links.len() > self.max_resident {
            self.evict_lru();
        }
        self.evictions - before
    }

    /// Appends the pool's mutable state to a checkpoint stream: tenant
    /// count, residency cap, counters, slab overrides (ascending DID), and
    /// the resident DIDs in LRU order, least recently touched first.
    /// Resident spaces are *not* serialised — stamping is deterministic,
    /// so restore rebuilds them bit-identically from the canonical build.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.tenants() as u64);
        out.push(self.max_resident as u64);
        out.push(self.builds);
        out.push(self.evictions);
        let mut overrides: Vec<(u32, u64)> =
            self.slab_overrides.iter().map(|(&d, &s)| (d, s)).collect();
        overrides.sort_unstable();
        out.push(overrides.len() as u64);
        for (did, slab) in overrides {
            out.push(did as u64);
            out.push(slab);
        }
        out.push(self.links.len() as u64);
        out.extend(self.resident_dids().map(|did| did.raw() as u64));
    }

    /// Restores state captured by [`Self::snapshot_words`] into a pool
    /// over the same tenant count: residents are re-stamped from the
    /// canonical build at their recorded slabs and relinked in the
    /// recorded recency order. Returns `None` on a corrupt stream, a
    /// tenant-count mismatch, a duplicate or out-of-range DID, or more
    /// residents than the recorded cap.
    pub fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        if r.next()? != self.tenants() as u64 {
            return None;
        }
        let max_resident = usize::try_from(r.next()?).ok()?;
        if max_resident == 0 {
            return None;
        }
        self.max_resident = max_resident;
        self.builds = r.next()?;
        self.evictions = r.next()?;
        self.slab_overrides.clear();
        for _ in 0..r.len_capped(r.remaining() / 2)? {
            let did = self.checked_did(r.next()?)?;
            let slab = r.next()?;
            self.slab_overrides.insert(did, slab);
        }
        for link in self.links.drain(..) {
            self.slot_of[link.did as usize] = 0;
        }
        self.spaces.clear();
        (self.head, self.tail) = (NIL, NIL);
        let resident = r.len_capped(r.remaining().min(max_resident))?;
        for _ in 0..resident {
            let did = self.checked_did(r.next()?)?;
            if self.slot_of[did as usize] != 0 {
                return None;
            }
            self.stamp_back(did);
        }
        Some(())
    }

    /// `raw` as an in-range DID.
    fn checked_did(&self, raw: u64) -> Option<u32> {
        u32::try_from(raw)
            .ok()
            .filter(|&did| (did as usize) < self.slot_of.len())
    }

    /// Stamps `did`'s space at its current slab and links it as the most
    /// recently touched resident.
    fn stamp_back(&mut self, did: u32) {
        let slab = self.slab_overrides.get(&did).copied().unwrap_or(did as u64);
        let i = self.links.len() as u32;
        self.links.push(Link {
            did,
            prev: NIL,
            next: NIL,
        });
        self.spaces.push(self.canonical.stamp(Did::new(did), slab));
        self.slot_of[did as usize] = i + 1;
        self.link_back(i);
    }

    /// Evicts the least recently touched resident, dropping its space.
    /// The arena's last entry moves into the freed index, so the arena
    /// stays dense.
    fn evict_lru(&mut self) {
        let i = self.head;
        self.unlink(i);
        let gone = self.links.swap_remove(i as usize);
        self.spaces.swap_remove(i as usize);
        self.slot_of[gone.did as usize] = 0;
        if let Some(&Link { did, prev, next }) = self.links.get(i as usize) {
            self.slot_of[did as usize] = i + 1;
            match prev {
                NIL => self.head = i,
                p => self.links[p as usize].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.links[n as usize].prev = i,
            }
        }
        self.evictions += 1;
    }

    fn unlink(&mut self, i: u32) {
        let Link { prev, next, .. } = self.links[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    fn link_back(&mut self, i: u32) {
        let link = &mut self.links[i as usize];
        link.prev = self.tail;
        link.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.links[t as usize].next = i,
        }
        self.tail = i;
    }
}

impl std::fmt::Debug for SpacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpacePool")
            .field("tenants", &self.tenants())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_types::{GIova, PageSize};

    fn builder(did: u32) -> crate::TenantSpaceBuilder {
        let mut b = TenantSpace::builder(Did::new(did));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        b.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        b
    }

    fn canonical() -> TenantSpace {
        builder(0).build()
    }

    fn budget_for(spaces: usize) -> Option<u64> {
        Some(canonical().per_tenant_bytes() * spaces as u64)
    }

    fn resident(pool: &SpacePool) -> Vec<u32> {
        pool.resident_dids().map(Did::raw).collect()
    }

    #[test]
    fn stamped_spaces_match_per_did_builds() {
        let mut pool = SpacePool::new(canonical(), 8, budget_for(2));
        for did in (0..8).map(Did::new) {
            pool.ensure(did);
            let iova = GIova::new(0xbbe0_0042);
            assert_eq!(
                pool.get(did).lookup(iova).unwrap(),
                builder(did.raw()).build().lookup(iova).unwrap(),
                "{did}"
            );
        }
    }

    #[test]
    fn budget_caps_residency_and_evicts_lru() {
        let mut pool = SpacePool::new(canonical(), 100, budget_for(2));
        assert!(pool.ensure(Did::new(0)));
        assert!(pool.ensure(Did::new(1)));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(!pool.ensure(Did::new(0)));
        assert!(pool.ensure(Did::new(2)));
        let stats = pool.stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.max_resident, 2);
        // 1 was evicted; re-touching rebuilds it.
        assert!(pool.ensure(Did::new(1)));
        assert_eq!(pool.stats().builds, 4);
    }

    #[test]
    fn rebuild_after_eviction_is_bit_identical() {
        let mut pool = SpacePool::new(canonical(), 100, budget_for(1));
        pool.ensure(Did::new(7));
        let before = pool
            .get(Did::new(7))
            .lookup(GIova::new(0xbbe0_0042))
            .unwrap();
        let layout_before = pool.get(Did::new(7)).layout_id();
        pool.ensure(Did::new(8)); // evicts 7
        pool.ensure(Did::new(7)); // rebuilds 7
        let space = pool.get(Did::new(7));
        assert_eq!(space.lookup(GIova::new(0xbbe0_0042)).unwrap(), before);
        assert_eq!(
            space.layout_id(),
            layout_before,
            "memo sharing must survive"
        );
    }

    #[test]
    fn migration_survives_eviction() {
        let mut pool = SpacePool::new(canonical(), 100, budget_for(1));
        pool.ensure(Did::new(3));
        pool.migrate(Did::new(3), 55);
        let after_migrate = pool
            .get(Did::new(3))
            .lookup(GIova::new(0xbbe0_0000))
            .unwrap();
        pool.ensure(Did::new(4)); // evicts 3
        pool.ensure(Did::new(3)); // rebuild must land in slab 55
        assert_eq!(pool.get(Did::new(3)).host_slab(), 55);
        assert_eq!(
            pool.get(Did::new(3))
                .lookup(GIova::new(0xbbe0_0000))
                .unwrap(),
            after_migrate
        );
    }

    #[test]
    fn migrating_a_nonresident_tenant_records_the_override() {
        let mut pool = SpacePool::new(canonical(), 100, budget_for(4));
        pool.migrate(Did::new(9), 70);
        pool.ensure(Did::new(9));
        assert_eq!(pool.get(Did::new(9)).host_slab(), 70);
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let mut pool = SpacePool::new(canonical(), 1000, None);
        for i in 0..200 {
            pool.ensure(Did::new(i));
        }
        let stats = pool.stats();
        assert_eq!(stats.resident, 200);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn linked_lru_matches_a_reference_recency_list() {
        // A deterministic pseudo-random touch sequence over 12 tenants
        // with room for 5: the index-linked list (with its swap-remove
        // fix-ups) must track a plain recency vector exactly.
        let mut pool = SpacePool::new(canonical(), 12, budget_for(5));
        let mut reference: Vec<u32> = Vec::new();
        let mut evictions = 0;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let did = (x % 12) as u32;
            let built = pool.ensure(Did::new(did));
            match reference.iter().position(|&d| d == did) {
                Some(at) => {
                    assert!(!built);
                    reference.remove(at);
                }
                None => {
                    assert!(built);
                    if reference.len() == 5 {
                        reference.remove(0);
                        evictions += 1;
                    }
                }
            }
            reference.push(did);
            assert_eq!(resident(&pool), reference);
            assert_eq!(pool.get(Did::new(did)).did(), Did::new(did));
        }
        assert_eq!(pool.stats().evictions, evictions);
        assert_eq!(pool.spaces.len(), reference.len());
    }

    #[test]
    fn shrinking_drops_the_oldest_spaces() {
        let mut pool = SpacePool::new(canonical(), 16, None);
        for i in 0..8 {
            pool.ensure(Did::new(i));
        }
        // Without a cap a touch keeps stamp order, and the first shrink
        // caps the pool at half its residency.
        pool.ensure(Did::new(0));
        assert_eq!(pool.shrink_residency(), 4);
        assert_eq!(resident(&pool), [4, 5, 6, 7]);
        assert_eq!(pool.spaces.len(), 4, "evicted spaces are dropped");
        // Capped, the pool tracks recency.
        pool.ensure(Did::new(4));
        assert_eq!(pool.shrink_residency(), 2);
        assert_eq!(resident(&pool), [7, 4]);
        assert_eq!(pool.stats().max_resident, 2);
    }

    #[test]
    fn snapshot_restores_recency_order() {
        let mut src = SpacePool::new(canonical(), 10, budget_for(3));
        for did in [4, 1, 9, 4, 2] {
            src.ensure(Did::new(did));
        }
        src.migrate(Did::new(9), 33);
        let mut words = Vec::new();
        src.snapshot_words(&mut words);
        let mut dst = SpacePool::new(canonical(), 10, budget_for(3));
        dst.ensure(Did::new(7)); // stale residency the restore must drop
        let mut r = hypersio_cache::WordReader::new(&words);
        dst.restore_words(&mut r).expect("round trip");
        assert!(r.is_empty());
        assert_eq!(resident(&dst), [9, 4, 2]);
        assert_eq!(dst.stats(), src.stats());
        assert_eq!(dst.get(Did::new(9)).host_slab(), 33);
        // The next victim is the same on both sides.
        src.ensure(Did::new(5));
        dst.ensure(Did::new(5));
        assert_eq!(resident(&dst), resident(&src));
    }

    #[test]
    fn restore_rejects_duplicate_and_out_of_range_residents() {
        let mut src = SpacePool::new(canonical(), 10, budget_for(3));
        src.ensure(Did::new(1));
        src.ensure(Did::new(2));
        let mut words = Vec::new();
        src.snapshot_words(&mut words);
        let n = words.len();
        for (bad, why) in [
            (1, "duplicate"),
            (10, "out of range"),
            (u64::MAX, "too wide"),
        ] {
            let mut corrupt = words.clone();
            corrupt[n - 1] = bad;
            let mut dst = SpacePool::new(canonical(), 10, budget_for(3));
            let mut r = hypersio_cache::WordReader::new(&corrupt);
            assert!(dst.restore_words(&mut r).is_none(), "{why}");
        }
    }

    #[test]
    fn pool_matches_per_did_builds_under_sv39x4() {
        use crate::WalkGeometry;
        // Stamping must be identity-preserving for the widened-root
        // geometry too, at both thrash scales.
        let sv39 = |did: u32| {
            let mut b = builder(did);
            b.geometry(WalkGeometry::RiscvSv39x4);
            b.build()
        };
        for tenants in [128u32, 1024] {
            let canonical = sv39(0);
            let budget = Some(canonical.per_tenant_bytes() * 3);
            let mut pool = SpacePool::new(canonical, tenants, budget);
            for did in (0..tenants).map(Did::new) {
                pool.ensure(did);
                let reference = sv39(did.raw());
                for iova in [GIova::new(0x3480_0123), GIova::new(0xbbe4_5678)] {
                    assert_eq!(
                        pool.get(did).lookup(iova).unwrap(),
                        reference.lookup(iova).unwrap(),
                        "{did} {tenants} tenants"
                    );
                }
                assert_eq!(pool.get(did).geometry(), WalkGeometry::RiscvSv39x4);
            }
            assert!(pool.stats().evictions > 0, "budget should force evictions");
        }
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn out_of_range_did_rejected() {
        let mut pool = SpacePool::new(canonical(), 4, None);
        pool.ensure(Did::new(4));
    }
}

//! The two-dimensional (nested) page-table walker of the paper's Fig 2.
//!
//! Every step of the first-level (guest) walk reads a guest PTE that lives
//! at a guest-physical address, so each step costs a full second-level
//! (host) walk plus the guest PTE read itself. The cost is a *derived*
//! property of the active [`crate::WalkGeometry`]: `G × (H + 1) + H` reads
//! for a 4 KB mapping — 24 for x86 4-level tables (the number the paper
//! quotes from the Intel VT-d specification), 35 for x86 5-level, 15 for
//! RISC-V Sv39x4, 24 for Sv48x4 — and one `(H + 1)` term less per guest
//! level a superpage leaf skips (19 for an x86-4 2 MB mapping). Debug
//! builds assert the charged reads against the closed form on every walk.
//!
//! The walk caches ([`crate::WalkCaches`]) short-circuit the upper guest
//! levels: an L2 hit delivers the guest level-2 PTE directly (skipping
//! levels 4–3–2 and their nested walks), an L3 hit skips levels 4–3.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use hypersio_types::{GIova, GPa, HPa, PageSize, Sid};

use crate::page_table::{InlineWalkPath, PageTableError, Pte};
use crate::space::TenantView;
use crate::walk_cache::WalkCaches;
use hypersio_types::fxhash::FxBuildHasher;

/// A failed translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslationFault {
    /// The gIOVA has no guest mapping.
    GuestNotMapped {
        /// The faulting address.
        iova: GIova,
    },
    /// A guest-physical address touched during the walk has no host mapping
    /// (a misconfigured tenant space).
    HostNotMapped {
        /// The faulting guest-physical address.
        gpa: GPa,
    },
}

impl fmt::Display for TranslationFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslationFault::GuestNotMapped { iova } => {
                write!(f, "guest mapping missing for {iova}")
            }
            TranslationFault::HostNotMapped { gpa } => {
                write!(f, "host mapping missing for gPA {gpa}")
            }
        }
    }
}

impl Error for TranslationFault {}

/// The result of one two-dimensional walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Final host-physical address for the requested gIOVA.
    pub hpa: HPa,
    /// Page size of the guest leaf mapping.
    pub size: PageSize,
    /// Total DRAM reads performed (0 if satisfied purely from caches —
    /// impossible here since walk caches only cover upper levels).
    pub dram_accesses: u64,
    /// Guest level at which the walk started (root level = full walk,
    /// 2 = L2 hit, 0 = the leaf itself was cached).
    pub start_level: u8,
}

/// Stateless walker logic over a [`TenantView`] and shared [`WalkCaches`].
///
/// # Examples
///
/// ```
/// use hypersio_mem::{TenantSpace, TwoDimWalker, WalkCacheConfig, WalkCaches};
/// use hypersio_types::{Did, GIova, PageSize, Sid};
///
/// let mut b = TenantSpace::builder(Did::new(0));
/// b.map(GIova::new(0x3480_0000), PageSize::Size4K);
/// let space = b.build();
/// let tenant = space.view(Did::new(0), 0);
/// let mut caches = WalkCaches::new(&WalkCacheConfig::paper_base());
///
/// let cold = TwoDimWalker::walk(tenant, Sid::new(0), GIova::new(0x3480_0000),
///                               &mut caches, 0).unwrap();
/// assert_eq!(cold.dram_accesses, 24); // full 2-D walk, 4 KB page
/// let warm = TwoDimWalker::walk(tenant, Sid::new(0), GIova::new(0x3480_0000),
///                               &mut caches, 1).unwrap();
/// assert_eq!(warm.dram_accesses, 9); // L2 hit: guest L1 (4+1) + final host walk (4)
/// ```
#[derive(Debug)]
pub struct TwoDimWalker;

/// DRAM reads for one nested (host) walk: one PTE read per host level.
fn host_walk_reads(view: TenantView<'_>) -> u64 {
    view.space().host_table().levels() as u64
}

/// Memo coalescing the *functional* radix traversals of concurrent walks.
///
/// Walks to the same page — repeated misses on one page across packets
/// and tenants, or the repeated nested host walks a single guest walk
/// issues for PTEs sharing a host page — coalesce into one functional
/// traversal whose result (the guest PTE path, or the host page backing a
/// gPA) is replayed for every requester. Because the paper's out-of-order
/// completion semantics place no ordering constraint between concurrent
/// walks, sharing the functional outcome is legal; only the *charging* is
/// per-request, and that is untouched: every walk still performs its own
/// walk-cache probes and fills, nested-TLB accesses, and DRAM-read
/// accounting, so simulated state and statistics are bit-identical to
/// uncoalesced walks.
///
/// One memo serves one shared build (the IOMMU owns both), so entries are
/// keyed by page alone and stored in the build's own coordinates: every
/// tenant's view has the same guest table and the same host table up to
/// its [`TenantView::host_delta`], which is added on the way out. The memo
/// therefore stays a few thousand entries at any tenant count, and slab
/// migration needs no invalidation — only the migrated tenant's delta
/// changes.
///
/// Tables are immutable after construction, so entries never go stale;
/// faults are terminal per-requester and never memoized.
#[derive(Debug, Default)]
pub(crate) struct WalkMemo {
    /// gIOVA page → full guest walk path (root … leaf PTE).
    guest: HashMap<u64, InlineWalkPath, FxBuildHasher>,
    /// gPA page → host-physical 4 KB page base in the build's coordinates
    /// (the caller adds its view's delta).
    host: HashMap<u64, u64, FxBuildHasher>,
}

impl WalkMemo {
    /// Drops every memoized result.
    pub(crate) fn clear(&mut self) {
        self.guest.clear();
        self.host.clear();
    }

    /// Returns the number of memoized guest paths plus host pages.
    pub(crate) fn len(&self) -> usize {
        self.guest.len() + self.host.len()
    }

    /// The guest walk path for `iova`, shared across all walks touching its
    /// 4 KB-aligned page. Faults are not memoized (they are terminal for
    /// the requester and carry no reusable result).
    fn guest_path(
        &mut self,
        view: TenantView<'_>,
        iova: GIova,
    ) -> Result<InlineWalkPath, PageTableError> {
        let key = iova.raw() >> 12;
        if let Some(path) = self.guest.get(&key) {
            return Ok(*path);
        }
        let path = view.guest_walk(iova)?;
        self.guest.insert(key, path);
        Ok(path)
    }

    /// The host-physical 4 KB page backing `gpa` in `view`, shared across
    /// all nested walks touching its page.
    fn host_page(&mut self, view: TenantView<'_>, gpa: GPa) -> Result<HPa, PageTableError> {
        let key = gpa.raw() >> 12;
        let built = match self.host.get(&key) {
            Some(&page) => page,
            None => {
                let page = view.built_host_page(gpa)?;
                self.host.insert(key, page);
                page
            }
        };
        Ok(HPa::new(built.wrapping_add(view.host_delta())))
    }
}

/// Charges one second-level translation of `gpa`: free on a nested-TLB hit,
/// a full host walk (with a nested-TLB fill) otherwise.
///
/// Returns the DRAM reads charged and the host-physical 4 KB page backing
/// `gpa`, so the caller never repeats the functional host walk.
fn charge_host_walk(
    view: TenantView<'_>,
    caches: &mut WalkCaches,
    sid: Sid,
    gpa: GPa,
    now: u64,
    memo: Option<&mut WalkMemo>,
) -> Result<(u64, HPa), TranslationFault> {
    let did = view.did();
    if let Some(page) = caches.lookup_nested(sid, did, gpa, now) {
        return Ok((0, page));
    }
    let page = match memo {
        Some(memo) => memo.host_page(view, gpa),
        None => view.host_page(gpa),
    }
    .map_err(|_| TranslationFault::HostNotMapped { gpa })?;
    caches.fill_nested(sid, did, gpa, page, now);
    Ok((host_walk_reads(view), page))
}

impl TwoDimWalker {
    /// Performs the two-dimensional walk for (`sid`, `iova`) in tenant
    /// `view`, consulting and filling `caches`.
    ///
    /// Returns the outcome including the exact DRAM read count; the caller
    /// converts reads into latency via its DRAM model.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslationFault`] if the gIOVA (or any nested gPA) is
    /// unmapped.
    pub fn walk(
        view: TenantView<'_>,
        sid: Sid,
        iova: GIova,
        caches: &mut WalkCaches,
        now: u64,
    ) -> Result<WalkOutcome, TranslationFault> {
        Self::walk_memoized(view, sid, iova, caches, None, now)
    }

    /// [`Self::walk`] with an optional [`WalkMemo`] coalescing the
    /// functional traversals with other walks sharing the memo.
    ///
    /// Produces the same outcome, cache state, and statistics as
    /// [`Self::walk`] for any memo built against views of the same build
    /// (see [`WalkMemo`]).
    pub(crate) fn walk_memoized(
        view: TenantView<'_>,
        sid: Sid,
        iova: GIova,
        caches: &mut WalkCaches,
        mut memo: Option<&mut WalkMemo>,
        now: u64,
    ) -> Result<WalkOutcome, TranslationFault> {
        let did = view.did();
        let mut reads = 0u64;
        let table_levels = view.space().guest_table().levels();

        // The functional guest walk gives us the PTEs per level; the cache
        // state decides how many of those reads (and their nested host
        // walks) we must charge.
        let gpath = match memo.as_deref_mut() {
            Some(memo) => memo.guest_path(view, iova),
            None => view.guest_walk(iova),
        }
        .map_err(|_| TranslationFault::GuestNotMapped { iova })?;
        let walk_steps = gpath.len() as u8; // table_levels for 4K leaf
        let leaf_level = table_levels - walk_steps + 1; // 1 for 4K, 2 for 2M

        // Walk-cache consultation: L2 first (closest to the leaf), then L3.
        // `start_level` is the first guest level whose PTE we must actually
        // read from memory.
        let (start_level, mut leaf_from_cache) =
            if let Some(pte) = caches.lookup_l2(sid, did, iova, now) {
                match pte {
                    Pte::Leaf { .. } => (0u8, Some(pte)), // 2 MB leaf cached: no guest reads
                    Pte::Table { .. } => (1, None),       // pointer to L1: read guest L1 only
                }
            } else if caches.lookup_l3(sid, did, iova, now).is_some() {
                (2, None) // read guest L2 (and L1 if 4K leaf)
            } else {
                (table_levels, None) // full first-level walk
            };

        // Nested-TLB hits observed while charging (debug accounting only):
        // each one makes a host walk free, subtracting exactly
        // `host_walk_reads` from the closed-form cold cost.
        #[cfg(debug_assertions)]
        let (mut dbg_guest_reads, mut dbg_cold_hosts, mut dbg_nested_hits) = (0u64, 0u64, 0u64);
        #[cfg(debug_assertions)]
        let mut dbg_count = |host_reads: u64, guest_read: bool| {
            dbg_guest_reads += guest_read as u64;
            if host_reads == 0 {
                dbg_nested_hits += 1;
            } else {
                dbg_cold_hosts += 1;
            }
        };

        // Charge guest PTE reads from `start_level` down to the leaf level,
        // each preceded by a nested host walk of the PTE's gPA.
        if start_level > 0 {
            for level in (leaf_level..=start_level.min(table_levels)).rev() {
                // Index into gpath: the root level is entry 0.
                let step = (table_levels - level) as usize;
                let pte = gpath.ptes()[step];
                let pte_gpa = gpath.pte_addrs()[step];
                // Nested host walk for the guest PTE's address (free on a
                // nested-TLB hit), plus the guest PTE read itself.
                let host_reads = charge_host_walk(
                    view,
                    caches,
                    sid,
                    GPa::new(pte_gpa),
                    now,
                    memo.as_deref_mut(),
                )?
                .0;
                reads += host_reads + 1;
                #[cfg(debug_assertions)]
                dbg_count(host_reads, true);

                // Fill walk caches with what we just read.
                match level {
                    3 => caches.fill_l3(sid, did, iova, pte, now),
                    2 => caches.fill_l2(sid, did, iova, pte, now),
                    _ => {}
                }
                if pte.is_leaf() {
                    leaf_from_cache = Some(pte);
                    break;
                }
            }
        }

        let leaf = leaf_from_cache.unwrap_or_else(|| gpath.leaf());
        let (target, size) = match leaf {
            Pte::Leaf { target, size } => (target, size),
            Pte::Table { .. } => unreachable!("guest walk terminates at a leaf"),
        };
        let final_gpa = GPa::new(target + (iova.raw() & size.offset_mask()));

        // Final nested walk: translate the data gPA itself (free on a
        // nested-TLB hit). The charged walk already yields the host page
        // backing `final_gpa`; host frames are at least 4 KB-aligned, so
        // page base + low-12 offset is exactly what a second functional
        // host walk would return.
        let (final_reads, host_page) = charge_host_walk(view, caches, sid, final_gpa, now, memo)?;
        reads += final_reads;
        #[cfg(debug_assertions)]
        dbg_count(final_reads, false);

        // The access count is a checked property of the geometry, not a
        // hard-wired constant: the paper's "24 or 35 accesses" and the
        // RISC-V equivalents all fall out of `S x (H + 1) + H`, with each
        // nested-TLB hit making one host walk (`H` reads) free.
        #[cfg(debug_assertions)]
        {
            let geometry = view.space().geometry();
            let h = host_walk_reads(view);
            debug_assert_eq!(table_levels, geometry.guest_levels());
            debug_assert_eq!(h, geometry.host_levels() as u64);
            debug_assert!(geometry.supports_leaf_level(leaf_level));
            // `start_level == 0`: the L2 walk cache served the leaf itself.
            // `leaf_level > start_level`: an upper-level superpage leaf sits
            // above the cache-skipped levels. Both leave only the final
            // host walk.
            let cold_form = if start_level == 0 || leaf_level > start_level {
                h
            } else {
                geometry.walk_reads_from(start_level.min(table_levels), leaf_level)
            };
            debug_assert_eq!(
                reads + dbg_nested_hits * h,
                cold_form,
                "charged accesses must match the closed form for {geometry}"
            );
            debug_assert_eq!(reads, dbg_guest_reads + dbg_cold_hosts * h);
        }

        Ok(WalkOutcome {
            hpa: HPa::new(host_page.raw() + (final_gpa.raw() & 0xfff)),
            size,
            dram_accesses: reads,
            start_level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk_cache::WalkCacheConfig;
    use crate::TenantSpace;
    use hypersio_types::Did;

    /// `space` as the tenant it was built for, in its own slab.
    fn own(space: &TenantSpace) -> TenantView<'_> {
        space.view(space.did(), space.did().raw() as u64)
    }

    fn space_4k() -> TenantSpace {
        let mut b = TenantSpace::builder(Did::new(0));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        b.map(GIova::new(0x3480_1000), PageSize::Size4K);
        b.build()
    }

    fn space_2m() -> TenantSpace {
        let mut b = TenantSpace::builder(Did::new(0));
        for i in 0..4u64 {
            b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
        }
        b.build()
    }

    fn caches() -> WalkCaches {
        WalkCaches::new(&WalkCacheConfig::paper_base())
    }

    #[test]
    fn cold_4k_walk_costs_24() {
        let space = space_4k();
        let mut c = caches();
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 0)
            .unwrap();
        assert_eq!(out.dram_accesses, 24);
        assert_eq!(out.start_level, 4);
        assert_eq!(out.size, PageSize::Size4K);
    }

    #[test]
    fn cold_2m_walk_costs_19() {
        let space = space_2m();
        let mut c = caches();
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 0)
            .unwrap();
        assert_eq!(out.dram_accesses, 19);
        assert_eq!(out.size, PageSize::Size2M);
    }

    #[test]
    fn warm_l2_hit_4k_costs_9() {
        let space = space_4k();
        let mut c = caches();
        TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 0).unwrap();
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 1)
            .unwrap();
        // L2 cached the pointer to the L1 node: guest L1 read (4+1) + final 4.
        assert_eq!(out.dram_accesses, 9);
        assert_eq!(out.start_level, 1);
    }

    #[test]
    fn warm_l2_hit_2m_costs_4() {
        let space = space_2m();
        let mut c = caches();
        TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 0).unwrap();
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_1234), &mut c, 1)
            .unwrap();
        // 2 MB leaf cached in L2: only the final host walk remains.
        assert_eq!(out.dram_accesses, 4);
        assert_eq!(out.start_level, 0);
    }

    #[test]
    fn l3_hit_skips_upper_levels() {
        let space = space_2m();
        let mut c = caches();
        // Warm with one 2 MB page, then walk a *different* 2 MB page in the
        // same 1 GB region: L2 misses (different tag) but L3 hits.
        TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 0).unwrap();
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbc00_0000), &mut c, 1)
            .unwrap();
        // Guest L2 read (4+1) + final 4 = 9; levels 4-3 skipped.
        assert_eq!(out.start_level, 2);
        assert_eq!(out.dram_accesses, 9);
    }

    #[test]
    fn translation_is_functionally_correct() {
        let space = space_2m();
        let mut c = caches();
        let iova = GIova::new(0xbbe0_0000 + 0x1_2345);
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), iova, &mut c, 0).unwrap();
        let (expect, _) = space.lookup(iova).unwrap();
        assert_eq!(out.hpa, expect);
        // And cached walks agree with cold walks.
        let out2 = TwoDimWalker::walk(own(&space), Sid::new(0), iova, &mut c, 1).unwrap();
        assert_eq!(out2.hpa, expect);
    }

    #[test]
    fn unmapped_iova_faults() {
        let space = space_4k();
        let mut c = caches();
        let err = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xdead_0000), &mut c, 0)
            .unwrap_err();
        assert!(matches!(err, TranslationFault::GuestNotMapped { .. }));
        assert!(format!("{err}").contains("guest mapping"));
    }

    #[test]
    fn adjacent_4k_pages_share_l2_entry() {
        let space = space_4k();
        let mut c = caches();
        TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 0).unwrap();
        // Second page is in the same 2 MB region: L2 pointer hit.
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_1000), &mut c, 1)
            .unwrap();
        assert_eq!(out.start_level, 1);
        assert_eq!(out.dram_accesses, 9);
    }

    #[test]
    fn nested_tlb_shortens_repeat_host_walks() {
        use crate::walk_cache::WalkCacheConfig;
        use hypersio_cache::CacheGeometry;
        let space = space_2m();
        let cfg = WalkCacheConfig::paper_base().with_nested_tlb(CacheGeometry::new(256, 8));
        let mut c = WalkCaches::new(&cfg);
        let cold = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 0)
            .unwrap();
        assert_eq!(cold.dram_accesses, 19); // cold: nested TLB empty
                                            // Invalidate the L2 leaf so the guest walk repeats, but every
                                            // host translation now hits the nested TLB: guest PTE reads only.
        c.clear_guest_only_for_test();
        let warm = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 1)
            .unwrap();
        // Full guest walk (3 PTE reads) with free host walks + free final.
        assert_eq!(warm.dram_accesses, 3);
        assert_eq!(warm.hpa, cold.hpa);
    }

    #[test]
    fn five_level_cold_walk_costs_35() {
        // Paper §II: "24 or 35 memory accesses for 4-level or 5-level page
        // tables". 5 guest levels x (5 host reads + 1) + 5 final = 35.
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(crate::WalkGeometry::X86Nested5)
            .map(GIova::new(0x3480_0000), PageSize::Size4K);
        let space = b.build();
        let mut c = caches();
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 0)
            .unwrap();
        assert_eq!(out.dram_accesses, 35);
        assert_eq!(out.start_level, 5);
        // A warm L2 hit still shortcuts to guest L1 + final host walk.
        let warm = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 1)
            .unwrap();
        assert_eq!(warm.dram_accesses, 5 + 1 + 5);
    }

    #[test]
    fn memoized_walks_match_unmemoized_bit_for_bit() {
        // Same iova stream through a memoized and an unmemoized walker:
        // outcomes, walk-cache stats, and DRAM charges must be identical —
        // the memo coalesces only the functional traversal.
        let space = space_2m();
        let iovas = [
            0xbbe0_0000u64,
            0xbbe0_1234,
            0xbc00_0000,
            0xbbe0_0000,
            0xbc20_4000,
            0xbbe0_1234,
        ];
        let cfg = WalkCacheConfig::paper_base()
            .with_nested_tlb(hypersio_cache::CacheGeometry::new(256, 8));
        let mut plain = WalkCaches::new(&cfg);
        let mut coalesced = WalkCaches::new(&cfg);
        let mut memo = WalkMemo::default();
        for (now, &iova) in iovas.iter().enumerate() {
            let a = TwoDimWalker::walk(
                own(&space),
                Sid::new(0),
                GIova::new(iova),
                &mut plain,
                now as u64,
            )
            .unwrap();
            let b = TwoDimWalker::walk_memoized(
                own(&space),
                Sid::new(0),
                GIova::new(iova),
                &mut coalesced,
                Some(&mut memo),
                now as u64,
            )
            .unwrap();
            assert_eq!(a, b, "outcome diverged at step {now}");
        }
        assert_eq!(plain.stats(), coalesced.stats());
        assert_eq!(plain.nested_stats(), coalesced.nested_stats());
        assert!(memo.len() > 0);
    }

    #[test]
    fn memo_entries_survive_migration_and_stay_correct() {
        // Build-coordinate entries need no invalidation on slab migration:
        // the same memo must produce the *new* hPA afterwards.
        let space = space_4k();
        let mut c = caches();
        let mut memo = WalkMemo::default();
        let iova = GIova::new(0x3480_0000);
        let before =
            TwoDimWalker::walk_memoized(own(&space), Sid::new(0), iova, &mut c, Some(&mut memo), 0)
                .unwrap();
        assert!(memo.len() > 0);
        let entries = memo.len();
        let moved = space.view(Did::new(0), 7);
        c.clear(); // cached translations of the old slab are shot down
        let after =
            TwoDimWalker::walk_memoized(moved, Sid::new(0), iova, &mut c, Some(&mut memo), 1)
                .unwrap();
        // The memo was reused (no new entries), yet the result tracks the
        // migrated tenant exactly as an unmemoized walk would.
        assert_eq!(memo.len(), entries);
        let mut fresh = caches();
        let plain = TwoDimWalker::walk(moved, Sid::new(0), iova, &mut fresh, 1).unwrap();
        assert_eq!(after.hpa, plain.hpa);
        assert_ne!(after.hpa, before.hpa);
    }

    #[test]
    fn memo_is_shared_across_tenant_views() {
        // Two tenants viewing one build share its entries: walking the
        // same iova in tenant 1 after tenant 0 adds nothing to the memo,
        // and each tenant still gets its own hPA.
        let mut b = TenantSpace::builder(Did::new(0));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        let canonical = b.build();
        let views = [0, 1].map(|did| canonical.view(Did::new(did), did as u64));
        let mut c = caches();
        let mut memo = WalkMemo::default();
        let iova = GIova::new(0x3480_0000);
        let a =
            TwoDimWalker::walk_memoized(views[0], Sid::new(0), iova, &mut c, Some(&mut memo), 0)
                .unwrap();
        let entries = memo.len();
        let b =
            TwoDimWalker::walk_memoized(views[1], Sid::new(1), iova, &mut c, Some(&mut memo), 1)
                .unwrap();
        assert_eq!(memo.len(), entries, "sibling walk must reuse the memo");
        assert_ne!(a.hpa, b.hpa, "tenants live in different slabs");
        assert_eq!(b.hpa, views[1].lookup(iova).unwrap().0);
    }

    #[test]
    fn memoized_faults_are_not_cached() {
        let space = space_4k();
        let mut c = caches();
        let mut memo = WalkMemo::default();
        for now in 0..2 {
            let err = TwoDimWalker::walk_memoized(
                own(&space),
                Sid::new(0),
                GIova::new(0xdead_0000),
                &mut c,
                Some(&mut memo),
                now,
            )
            .unwrap_err();
            assert!(matches!(err, TranslationFault::GuestNotMapped { .. }));
        }
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn riscv_cold_walk_costs_match_closed_form() {
        use crate::WalkGeometry;
        // Sv39x4: 3 x (3 + 1) + 3 = 15 for 4 KB, 2 x 4 + 3 = 11 for 2 MB.
        // Sv48x4: 4 x (4 + 1) + 4 = 24 for 4 KB, 3 x 5 + 4 = 19 for 2 MB.
        for (geom, cost_4k, cost_2m) in [
            (WalkGeometry::RiscvSv39x4, 15u64, 11u64),
            (WalkGeometry::RiscvSv48x4, 24, 19),
        ] {
            let mut b = TenantSpace::builder(Did::new(0));
            b.geometry(geom)
                .map(GIova::new(0x3480_0000), PageSize::Size4K)
                .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
            let space = b.build();
            let mut c = caches();
            let out =
                TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 0)
                    .unwrap();
            assert_eq!(out.dram_accesses, cost_4k, "{geom} 4K");
            assert_eq!(out.start_level, geom.guest_levels());
            assert_eq!(out.dram_accesses, geom.full_walk_reads());
            let mut c = caches();
            let out =
                TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 0)
                    .unwrap();
            assert_eq!(out.dram_accesses, cost_2m, "{geom} 2M");
        }
    }

    #[test]
    fn riscv_walk_cache_skips_match_closed_form() {
        use crate::WalkGeometry;
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(WalkGeometry::RiscvSv39x4)
            .map(GIova::new(0x3480_0000), PageSize::Size4K)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M)
            .map(GIova::new(0xbc00_0000), PageSize::Size2M);
        let space = b.build();
        let mut c = caches();
        TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 0).unwrap();
        // L2 pointer hit: one guest step remains, 1 x (3 + 1) + 3 = 7.
        let warm = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0x3480_0000), &mut c, 1)
            .unwrap();
        assert_eq!(warm.start_level, 1);
        assert_eq!(warm.dram_accesses, 7);
        // L3 hit on a sibling 2 MB page in the same 1 GiB region: for Sv39
        // the root PTE is the level-3 entry, so the skip leaves one guest
        // step, 1 x 4 + 3 = 7.
        TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbbe0_0000), &mut c, 2).unwrap();
        let l3 = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(0xbc00_0000), &mut c, 3)
            .unwrap();
        assert_eq!(l3.start_level, 2);
        assert_eq!(l3.dram_accesses, 7);
    }
}

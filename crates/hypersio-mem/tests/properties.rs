//! Property-style tests for the translation substrate.
//!
//! Same invariants as the original proptest suite, with inputs drawn from
//! the in-tree [`SplitMix64`] generator under fixed seeds so every run is
//! reproducible.

use std::collections::{BTreeSet, HashMap};

use hypersio_mem::{
    Iommu, IommuParams, TenantSpace, TenantView, TwoDimWalker, WalkCacheConfig, WalkCaches,
    WalkGeometry,
};
use hypersio_types::{Did, GIova, GPa, PageSize, Sid, SplitMix64};

const CASES: usize = 48;

/// Draws a tenant page inventory: a few 2 MB data pages and a few 4 KB
/// pages at paper-like addresses.
fn inventory(rng: &mut SplitMix64) -> Vec<(u64, PageSize)> {
    let mut data = BTreeSet::new();
    let n_data = rng.range_inclusive(1, 7);
    while (data.len() as u64) < n_data {
        data.insert(rng.below(32));
    }
    let mut small = BTreeSet::new();
    let n_small = rng.range_inclusive(1, 7);
    while (small.len() as u64) < n_small {
        small.insert(rng.below(64));
    }
    let mut pages: Vec<(u64, PageSize)> = data
        .into_iter()
        .map(|i| (0xbbe0_0000 + i * 0x20_0000, PageSize::Size2M))
        .collect();
    pages.extend(
        small
            .into_iter()
            .map(|i| (0xf000_0000 + i * 0x1000, PageSize::Size4K)),
    );
    pages
}

fn build_space(did: u32, pages: &[(u64, PageSize)]) -> TenantSpace {
    build_in(WalkGeometry::X86Nested4, did, pages)
}

fn build_in(geometry: WalkGeometry, did: u32, pages: &[(u64, PageSize)]) -> TenantSpace {
    let mut b = TenantSpace::builder(Did::new(did));
    b.geometry(geometry);
    for &(base, size) in pages {
        b.map(GIova::new(base), size);
    }
    b.build()
}

/// `space` as the tenant it was built for, in its own slab.
fn own(space: &TenantSpace) -> TenantView<'_> {
    space.view(space.did(), space.did().raw() as u64)
}

#[test]
fn translation_preserves_page_offset() {
    let mut rng = SplitMix64::new(0x3001);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let pick = rng.index(16);
        let offset = rng.below(4096);
        let space = build_space(0, &pages);
        let (base, size) = pages[pick % pages.len()];
        let iova = GIova::new(base + offset % size.bytes());
        let (hpa, got_size) = space.lookup(iova).expect("mapped page");
        assert_eq!(got_size, size);
        assert_eq!(
            hpa.raw() & size.offset_mask(),
            iova.raw() & size.offset_mask()
        );
    }
}

#[test]
fn cold_walk_access_counts_match_paper() {
    let mut rng = SplitMix64::new(0x3002);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let pick = rng.index(16);
        let space = build_space(0, &pages);
        let (base, size) = pages[pick % pages.len()];
        let mut caches = WalkCaches::new(&WalkCacheConfig::paper_base());
        let out = TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(base), &mut caches, 0)
            .expect("mapped page");
        let expected = match size {
            PageSize::Size4K => 24,
            PageSize::Size2M => 19,
            PageSize::Size1G => 14,
        };
        assert_eq!(out.dram_accesses, expected);
    }
}

#[test]
fn warm_walk_agrees_with_cold_walk() {
    let mut rng = SplitMix64::new(0x3003);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let pick = rng.index(16);
        let offset = rng.below(0x20_0000);
        let space = build_space(0, &pages);
        let (base, size) = pages[pick % pages.len()];
        let iova = GIova::new(base + offset % size.bytes());
        let mut caches = WalkCaches::new(&WalkCacheConfig::paper_base());
        let cold = TwoDimWalker::walk(own(&space), Sid::new(0), iova, &mut caches, 0).unwrap();
        let warm = TwoDimWalker::walk(own(&space), Sid::new(0), iova, &mut caches, 1).unwrap();
        assert_eq!(cold.hpa, warm.hpa);
        assert!(warm.dram_accesses <= cold.dram_accesses);
    }
}

#[test]
fn every_guest_node_is_host_mapped() {
    let mut rng = SplitMix64::new(0x3004);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let space = build_space(3, &pages);
        for node in space.guest_table().node_addrs() {
            assert!(space.host_walk(GPa::new(node)).is_ok());
        }
    }
}

#[test]
fn tenants_share_gpa_layout_but_not_hpa() {
    let mut rng = SplitMix64::new(0x3005);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let pick = rng.index(16);
        let a = build_space(0, &pages);
        let b = build_space(1, &pages);
        let (base, _) = pages[pick % pages.len()];
        let iova = GIova::new(base);
        let ga = a.guest_walk(iova).unwrap().translate(iova.raw());
        let gb = b.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(ga, gb, "same driver -> same gPA layout");
        let ha = a.lookup(iova).unwrap().0;
        let hb = b.lookup(iova).unwrap().0;
        assert_ne!(ha, hb, "host frames must be isolated");
    }
}

#[test]
fn iommu_translation_matches_functional_lookup() {
    let mut rng = SplitMix64::new(0x3006);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let picks: Vec<(usize, u64)> = (0..rng.range_inclusive(1, 23))
            .map(|_| (rng.index(16), rng.below(0x1000)))
            .collect();
        // Per-DID builds are the reference the canonical views must match.
        let spaces: Vec<TenantSpace> = (0..2).map(|d| build_space(d, &pages)).collect();
        let mut iommu = Iommu::new(IommuParams::paper(), build_space(0, &pages), 2);
        for (i, &(pick, offset)) in picks.iter().enumerate() {
            let (base, size) = pages[pick % pages.len()];
            let did = Did::new((i % 2) as u32);
            let iova = GIova::new(base + offset % size.bytes());
            let want = spaces[did.index()].lookup(iova).unwrap().0;
            let resp = iommu
                .translate(Sid::new(did.raw()), did, iova, i as u64)
                .unwrap();
            assert_eq!(resp.hpa, want);
            assert!(resp.dram_accesses <= 26, "context(2) + full walk(24)");
            assert_eq!(
                resp.latency.as_ns(),
                resp.dram_accesses * 50,
                "latency is DRAM reads x 50ns"
            );
        }
    }
}

#[test]
fn unmapped_addresses_always_fault() {
    let mut rng = SplitMix64::new(0x3007);
    for _ in 0..CASES {
        let pages = inventory(&mut rng);
        let probe = rng.range_inclusive(0x1_0000_0000, 0x1_ffff_ffff);
        let space = build_space(0, &pages);
        // The probe range is far outside both paper address ranges.
        assert!(space.lookup(GIova::new(probe)).is_none());
        let mut caches = WalkCaches::new(&WalkCacheConfig::paper_base());
        assert!(
            TwoDimWalker::walk(own(&space), Sid::new(0), GIova::new(probe), &mut caches, 0)
                .is_err()
        );
    }
}

/// The canonical views the IOMMU translates through are the per-DID
/// builds they replace: for random inventories, DIDs and migration
/// sequences, in every walk geometry, a tenant's view at its current slab
/// — its `lookup`, a walk through it, and the IOMMU's translation — gives
/// the hPA of a [`TenantSpaceBuilder::build`] for the DID of that slab.
///
/// [`TenantSpaceBuilder::build`]: hypersio_mem::TenantSpaceBuilder::build
#[test]
fn views_match_per_did_builds_across_migrations() {
    const TENANTS: u32 = 70_000;
    let mut rng = SplitMix64::new(0x3008);
    for case in 0..CASES {
        let geometry = WalkGeometry::ALL[case % WalkGeometry::ALL.len()];
        let pages = inventory(&mut rng);
        let canonical = build_in(geometry, 0, &pages);
        let mut iommu = Iommu::new(IommuParams::paper(), build_in(geometry, 0, &pages), TENANTS);
        let mut caches = WalkCaches::new(&WalkCacheConfig::paper_hypertrio());
        let mut slab_of: HashMap<u32, u64> = HashMap::new();
        let mut reference: HashMap<u64, TenantSpace> = HashMap::new();
        // A few hot DIDs from anywhere in the range (so migrated tenants
        // are revisited) plus the occasional cold one.
        let hot: Vec<u32> = (0..4).map(|_| rng.below(TENANTS as u64) as u32).collect();
        for now in 0..32u64 {
            let did = if rng.below(4) == 0 {
                rng.below(TENANTS as u64) as u32
            } else {
                hot[rng.index(hot.len())]
            };
            if rng.below(4) == 0 {
                let slab = rng.range_inclusive(TENANTS as u64, 1 << 20);
                slab_of.insert(did, slab);
                iommu.migrate_tenant(Did::new(did), slab);
                caches.invalidate_did(Did::new(did));
                continue;
            }
            let slab = slab_of.get(&did).copied().unwrap_or(did as u64);
            let want_space = reference
                .entry(slab)
                .or_insert_with(|| build_in(geometry, slab as u32, &pages));
            let (base, size) = pages[rng.index(pages.len())];
            let iova = GIova::new(base + rng.below(size.bytes()));
            let want = want_space.lookup(iova).expect("mapped page");

            let view = canonical.view(Did::new(did), slab);
            assert_eq!(
                view.lookup(iova),
                Some(want),
                "{geometry} DID {did} slab {slab}"
            );
            let sid = Sid::new(did);
            let walked = TwoDimWalker::walk(view, sid, iova, &mut caches, now).unwrap();
            assert_eq!(walked.hpa, want.0, "{geometry} walk, DID {did} slab {slab}");
            assert_eq!(walked.size, want.1);
            let translated = iommu.translate(sid, Did::new(did), iova, now).unwrap();
            assert_eq!(
                translated.hpa, want.0,
                "{geometry} IOMMU, DID {did} slab {slab}"
            );
        }
    }
}

//! Tenant address spaces: paired guest and host page tables, and the
//! per-DID views every tenant translates through.

use std::fmt;

use hypersio_types::{Did, GIova, GPa, HPa, PageSize};

use crate::geometry::WalkGeometry;
use crate::page_table::{InlineWalkPath, PageTableError, RadixTable, WalkPath};

/// Base of the guest-physical region where each tenant's guest page-table
/// nodes are placed.
const GUEST_TABLE_BASE: u64 = 0x4000_0000;

/// Base of the guest-physical region backing mapped data pages.
const GUEST_DATA_BASE: u64 = 0x8000_0000;

/// Size of the host-physical slab reserved per tenant (enough for every page
/// a workload tenant maps: 32 × 2 MB data buffers plus table nodes and 4 KB
/// pages, with headroom).
pub(crate) const HOST_SLAB_PER_TENANT: u64 = 256 * 1024 * 1024;

/// Builder assembling one tenant's [`TenantSpace`] from its page inventory.
///
/// # Examples
///
/// ```
/// use hypersio_mem::TenantSpace;
/// use hypersio_types::{Did, GIova, PageSize};
///
/// let mut builder = TenantSpace::builder(Did::new(3));
/// builder.map(GIova::new(0x3480_0000), PageSize::Size4K);
/// builder.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
/// let space = builder.build();
/// assert_eq!(space.did(), Did::new(3));
/// assert!(space.lookup(GIova::new(0xbbe0_0042)).is_some());
/// ```
pub struct TenantSpaceBuilder {
    did: Did,
    pages: Vec<(GIova, PageSize)>,
    geometry: WalkGeometry,
}

impl TenantSpaceBuilder {
    /// Creates a builder for tenant `did`
    /// ([`WalkGeometry::X86Nested4`] tables by default).
    pub fn new(did: Did) -> Self {
        TenantSpaceBuilder {
            did,
            pages: Vec::new(),
            geometry: WalkGeometry::X86Nested4,
        }
    }

    /// Builds the tenant's tables in the given walk geometry: guest and
    /// host level counts, G-stage root widening, and the full-walk cost
    /// (`G x (H + 1) + H` memory accesses: 24 for x86-4, 35 for x86-5, 15
    /// for Sv39x4, 24 for Sv48x4) all derive from it.
    pub fn geometry(&mut self, geometry: WalkGeometry) -> &mut Self {
        self.geometry = geometry;
        self
    }

    /// Adds a gIOVA page to the tenant's device-visible mapping.
    ///
    /// Duplicate pages are tolerated (mapped once); the address is truncated
    /// to the page boundary.
    pub fn map(&mut self, iova: GIova, size: PageSize) -> &mut Self {
        self.pages.push((iova.page(size).base(), size));
        self
    }

    /// Builds the paired guest and host tables.
    ///
    /// Layout is fully deterministic given the page list and DID:
    /// - guest data frames are allocated bump-style from a per-tenant
    ///   guest-physical base *identical across tenants* (same OS + driver,
    ///   §IV-D), so two tenants mapping the same gIOVAs also get the same
    ///   gPAs — maximising cache-index conflicts exactly as in the paper;
    /// - host frames come from a per-DID slab, so different tenants get
    ///   different hPAs (true isolation at the host level).
    ///
    /// This per-DID build is the reference that [`TenantSpace::view`]
    /// reproduces from one shared build.
    ///
    /// # Panics
    ///
    /// Panics if the page inventory overflows the per-tenant host slab,
    /// or if two added pages overlap with different sizes.
    pub fn build(&self) -> TenantSpace {
        let did = self.did;
        let host_slab_base = 0x10_0000_0000 + did.raw() as u64 * HOST_SLAB_PER_TENANT;
        let mut host_next = host_slab_base;
        let mut alloc_host = move || {
            let a = host_next;
            host_next += 4096;
            a
        };

        let mut guest_table_next = GUEST_TABLE_BASE;
        let mut alloc_guest_node = move || {
            let a = guest_table_next;
            guest_table_next += 4096;
            a
        };

        let mut guest = RadixTable::new(self.geometry.guest_levels(), &mut alloc_guest_node);
        let mut guest_data_next = GUEST_DATA_BASE;

        let mut mapped: Vec<(GIova, PageSize)> = Vec::new();
        for &(iova, size) in &self.pages {
            if mapped.iter().any(|&(existing, _)| existing == iova) {
                continue;
            }
            // Align the guest-data bump pointer to the page size.
            let align = size.bytes();
            guest_data_next = (guest_data_next + align - 1) & !(align - 1);
            let gpa = guest_data_next;
            guest_data_next += align;
            match guest.map(iova.raw(), gpa, size, &mut alloc_guest_node) {
                Ok(()) => mapped.push((iova, size)),
                Err(PageTableError::AlreadyMapped { .. }) => {}
                Err(e) => panic!("guest mapping failed for {iova}: {e}"),
            }
        }

        // Host table: every guest-physical page the device walk can touch
        // must be mapped — the guest table nodes themselves plus the data
        // frames. Host table nodes live in host memory and need no mapping.
        let mut host_table_next = 0x20_0000_0000 + did.raw() as u64 * HOST_SLAB_PER_TENANT;
        let mut alloc_host_node = move || {
            let a = host_table_next;
            host_table_next += 4096;
            a
        };
        // The host (G-stage) table: RISC-V x4 geometries widen its root
        // level by 2 bits; x86 geometries pass 0 and build exactly the
        // pre-geometry table.
        let mut host = RadixTable::with_root_widening(
            self.geometry.host_levels(),
            self.geometry.host_root_extra_bits(),
            &mut alloc_host_node,
        );

        let guest_node_addrs: Vec<u64> = {
            let mut v: Vec<u64> = guest.node_addrs().collect();
            v.sort_unstable();
            v
        };
        for node in guest_node_addrs {
            let hpa = alloc_host();
            host.map(node, hpa, PageSize::Size4K, &mut alloc_host_node)
                .expect("guest table nodes are distinct 4K pages");
        }
        for &(iova, size) in &mapped {
            let gpa = guest
                .translate(iova.raw())
                .expect("just mapped in the guest table");
            // Host frames mirror the guest alignment.
            let hpa = match size {
                PageSize::Size4K => alloc_host(),
                PageSize::Size2M | PageSize::Size1G => {
                    // Burn allocator space up to alignment, then take a run.
                    let mut base = alloc_host();
                    while base & size.offset_mask() != 0 {
                        base = alloc_host();
                    }
                    // Reserve the rest of the huge frame.
                    for _ in 0..(size.bytes() / 4096 - 1) {
                        let _ = alloc_host();
                    }
                    base
                }
            };
            assert!(
                hpa + size.bytes() <= host_slab_base + HOST_SLAB_PER_TENANT,
                "tenant {did} page inventory overflows its host slab"
            );
            host.map(gpa & !size.offset_mask(), hpa, size, &mut alloc_host_node)
                .expect("guest data frames are distinct");
        }

        TenantSpace {
            did,
            geometry: self.geometry,
            guest,
            host,
            page_count: mapped.len(),
        }
    }
}

/// One tenant's translation state: its guest table (gIOVA → gPA, nodes in
/// guest-physical memory) and host table (gPA → hPA).
///
/// Every guest-physical address the device-side walk can touch — guest
/// table nodes and data frames — is mapped in the host table, so the
/// two-dimensional walker never faults on a nested access.
///
/// Every tenant runs the same OS and driver (§IV-D), so one build serves
/// them all: [`TenantSpace::view`] presents it as any DID's space in any
/// host slab.
pub struct TenantSpace {
    /// The DID the tables were built for; their host side lives in slab
    /// `did`.
    did: Did,
    /// The walk geometry both tables were built in.
    geometry: WalkGeometry,
    guest: RadixTable,
    host: RadixTable,
    page_count: usize,
}

impl TenantSpace {
    /// Starts building a tenant space for `did`.
    pub fn builder(did: Did) -> TenantSpaceBuilder {
        TenantSpaceBuilder::new(did)
    }

    /// Returns the DID the tables were built for.
    pub fn did(&self) -> Did {
        self.did
    }

    /// Returns the walk geometry this space was built in.
    pub fn geometry(&self) -> WalkGeometry {
        self.geometry
    }

    /// Returns the number of distinct device-visible pages.
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// This build seen as tenant `did` with its host-side memory in slab
    /// `slab`: the guest dimension as built, every host-side address
    /// shifted by `(slab - self.did()) * HOST_SLAB_PER_TENANT` (wrapping).
    ///
    /// The view translates exactly as [`TenantSpaceBuilder::build`] for DID
    /// `slab` with the same inventory, because that layout is *affine in
    /// the DID*: the guest dimension (table nodes, data frames) is
    /// DID-independent by design (§IV-D — same OS and driver in every
    /// tenant), and every host-side address is `canonical + did * slab`
    /// because host frames and host table nodes are bump-allocated in an
    /// identical, DID-independent order from per-DID slab bases that are
    /// one uniform stride apart. (The stride is a multiple of every page
    /// alignment that fits in a slab, so alignment padding is identical
    /// across DIDs too.) A tenant at home has `slab == did`; a migrated
    /// one has a fresh slab.
    pub fn view(&self, did: Did, slab: u64) -> TenantView<'_> {
        TenantView {
            space: self,
            did,
            host_delta: slab
                .wrapping_sub(self.did.raw() as u64)
                .wrapping_mul(HOST_SLAB_PER_TENANT),
        }
    }

    /// Returns the guest table (gIOVA → gPA).
    pub fn guest_table(&self) -> &RadixTable {
        &self.guest
    }

    /// Returns the host table (gPA → hPA).
    pub fn host_table(&self) -> &RadixTable {
        &self.host
    }

    /// Walks the guest table for `iova`.
    ///
    /// # Errors
    ///
    /// Returns the guest-table error if `iova` is not device-visible.
    pub fn guest_walk(&self, iova: GIova) -> Result<WalkPath, PageTableError> {
        self.guest.walk(iova.raw())
    }

    /// Walks the host table for `gpa`.
    ///
    /// # Errors
    ///
    /// Returns the host-table error if `gpa` is unmapped (which would be a
    /// builder bug for addresses produced by [`TenantSpace::guest_walk`]).
    pub fn host_walk(&self, gpa: GPa) -> Result<WalkPath, PageTableError> {
        self.host.walk(gpa.raw())
    }

    /// Full (uncached) functional translation as built: gIOVA → hPA, with
    /// the page size of the guest leaf.
    pub fn lookup(&self, iova: GIova) -> Option<(HPa, PageSize)> {
        self.view(self.did, self.did.raw() as u64).lookup(iova)
    }
}

impl fmt::Debug for TenantSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSpace")
            .field("did", &self.did)
            .field("pages", &self.page_count)
            .field("guest_nodes", &self.guest.node_count())
            .field("host_nodes", &self.host.node_count())
            .finish()
    }
}

/// One tenant's address space as a shared [`TenantSpace`] plus a host
/// delta (see [`TenantSpace::view`]). This is what the walker and the
/// IOMMU translate through: per-tenant state is a DID and one offset, so
/// no tenant's tables are ever copied.
#[derive(Debug, Clone, Copy)]
pub struct TenantView<'a> {
    space: &'a TenantSpace,
    did: Did,
    host_delta: u64,
}

impl<'a> TenantView<'a> {
    /// Returns the tenant's domain ID (the walk-cache tag).
    pub(crate) fn did(&self) -> Did {
        self.did
    }

    /// Returns the offset added to every host-side address of the shared
    /// build (wrapping arithmetic).
    pub(crate) fn host_delta(&self) -> u64 {
        self.host_delta
    }

    /// Returns the shared build behind the view.
    pub(crate) fn space(&self) -> &'a TenantSpace {
        self.space
    }

    /// Full (uncached) functional translation: gIOVA → hPA, with the page
    /// size of the guest leaf.
    pub fn lookup(&self, iova: GIova) -> Option<(HPa, PageSize)> {
        let gpath = self.guest_walk(iova).ok()?;
        let gpa = GPa::new(gpath.translate(iova.raw()));
        let hpa = self.space.host.translate(gpa.raw())?;
        Some((HPa::new(hpa.wrapping_add(self.host_delta)), gpath.size))
    }

    /// Allocation-free guest walk for `iova` (the guest dimension is the
    /// same for every view).
    pub(crate) fn guest_walk(&self, iova: GIova) -> Result<InlineWalkPath, PageTableError> {
        self.space.guest.walk_inline(iova.raw())
    }

    /// The 4 KB host page backing `gpa` in the shared build's own
    /// coordinates, before the view's delta.
    pub(crate) fn built_host_page(&self, gpa: GPa) -> Result<u64, PageTableError> {
        let path = self.space.host.walk_inline(gpa.raw())?;
        Ok(path.translate(gpa.raw()) & !0xfff)
    }

    /// The 4 KB host page backing `gpa` for this tenant.
    pub(crate) fn host_page(&self, gpa: GPa) -> Result<HPa, PageTableError> {
        let page = self.built_host_page(gpa)?;
        Ok(HPa::new(page.wrapping_add(self.host_delta)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tenant(did: u32) -> TenantSpace {
        let mut b = TenantSpace::builder(Did::new(did));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        for i in 0..32u64 {
            b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
        }
        for i in 0..70u64 {
            b.map(GIova::new(0xf000_0000 + i * 0x1000), PageSize::Size4K);
        }
        b.build()
    }

    #[test]
    fn builds_paper_inventory() {
        let space = paper_tenant(0);
        assert_eq!(space.page_count(), 103);
        assert!(space.lookup(GIova::new(0x3480_0000)).is_some());
        assert!(space
            .lookup(GIova::new(0xbbe0_0000 + 31 * 0x20_0000))
            .is_some());
        assert!(space
            .lookup(GIova::new(0xf000_0000 + 69 * 0x1000))
            .is_some());
        assert!(space.lookup(GIova::new(0xdead_0000)).is_none());
    }

    #[test]
    fn duplicates_collapse() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.map(GIova::new(0x1000), PageSize::Size4K);
        b.map(GIova::new(0x1fff), PageSize::Size4K); // same page
        let space = b.build();
        assert_eq!(space.page_count(), 1);
    }

    #[test]
    fn guest_layout_identical_across_tenants() {
        // Same driver/OS => same gIOVAs *and* same gPAs (§IV-D conflict
        // generator); host frames differ.
        let a = paper_tenant(0);
        let b = paper_tenant(1);
        let iova = GIova::new(0xbbe0_0000);
        let ga = a.guest_walk(iova).unwrap().translate(iova.raw());
        let gb = b.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(ga, gb);
        let (ha, _) = a.lookup(iova).unwrap();
        let (hb, _) = b.lookup(iova).unwrap();
        assert_ne!(ha, hb);
    }

    #[test]
    fn nested_walk_never_faults_on_guest_nodes() {
        let space = paper_tenant(2);
        // Every guest table node must be host-mapped.
        for node in space.guest_table().node_addrs() {
            assert!(
                space.host_walk(GPa::new(node)).is_ok(),
                "guest node {node:#x} not host-mapped"
            );
        }
    }

    #[test]
    fn huge_page_host_frames_are_aligned() {
        let space = paper_tenant(0);
        let (hpa, size) = space.lookup(GIova::new(0xbbe0_0000)).unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(hpa.raw() & PageSize::Size2M.offset_mask(), 0);
    }

    #[test]
    fn offsets_survive_translation() {
        let space = paper_tenant(0);
        let base = space.lookup(GIova::new(0xbbe0_0000)).unwrap().0;
        let off = space.lookup(GIova::new(0xbbe0_0000 + 0x1_2345)).unwrap().0;
        assert_eq!(off.raw() - base.raw(), 0x1_2345);
    }

    #[test]
    fn distinct_tenants_have_distinct_host_slabs() {
        let a = paper_tenant(0);
        let b = paper_tenant(1);
        let (ha, _) = a.lookup(GIova::new(0x3480_0000)).unwrap();
        let (hb, _) = b.lookup(GIova::new(0x3480_0000)).unwrap();
        assert!(ha.raw() < 0x10_0000_0000 + HOST_SLAB_PER_TENANT);
        assert!(hb.raw() >= 0x10_0000_0000 + HOST_SLAB_PER_TENANT);
    }

    #[test]
    fn five_level_spaces_translate_identically() {
        let mut b4 = TenantSpace::builder(Did::new(0));
        b4.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let s4 = b4.build();
        let mut b5 = TenantSpace::builder(Did::new(0));
        b5.geometry(WalkGeometry::X86Nested5)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let s5 = b5.build();
        let iova = GIova::new(0xbbe0_1234);
        // Same functional translation, one extra level in each walk.
        assert_eq!(s4.lookup(iova).unwrap().0, s5.lookup(iova).unwrap().0);
        assert_eq!(
            s4.guest_walk(iova).unwrap().ptes.len() + 1,
            s5.guest_walk(iova).unwrap().ptes.len()
        );
    }

    #[test]
    fn migration_moves_host_frames_and_keeps_guest_layout() {
        let space = paper_tenant(0);
        let iova = GIova::new(0xbbe0_0000);
        let (before, size) = space.lookup(iova).unwrap();
        let guest_before = space.guest_walk(iova).unwrap().translate(iova.raw());

        // A view of DID 0 in slab 5 shifts every host frame by five slabs.
        let moved = space.view(Did::new(0), 5);
        assert_eq!(moved.did(), Did::new(0));
        let (after, size_after) = moved.lookup(iova).unwrap();
        assert_eq!(size, size_after);
        assert_eq!(after.raw(), before.raw() + 5 * HOST_SLAB_PER_TENANT);
        // Guest dimension untouched.
        let guest_after = moved.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(guest_before, guest_after);

        // A view below the build's own slab wraps back correctly: a build
        // for DID 4 viewed in slab 2 translates as the DID-2 build.
        let high = paper_tenant(4).view(Did::new(0), 2).lookup(iova).unwrap();
        assert_eq!(high, paper_tenant(2).lookup(iova).unwrap());
    }

    #[test]
    fn riscv_spaces_translate_like_x86_spaces() {
        // The functional mapping (gIOVA -> hPA) is geometry-independent:
        // only the table shapes (and hence walk costs) differ.
        let mut bx = TenantSpace::builder(Did::new(0));
        bx.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        bx.map(GIova::new(0x3480_0000), PageSize::Size4K);
        let x86 = bx.build();
        for geom in [WalkGeometry::RiscvSv39x4, WalkGeometry::RiscvSv48x4] {
            let mut br = TenantSpace::builder(Did::new(0));
            br.geometry(geom)
                .map(GIova::new(0xbbe0_0000), PageSize::Size2M)
                .map(GIova::new(0x3480_0000), PageSize::Size4K);
            let rv = br.build();
            assert_eq!(rv.geometry(), geom);
            for iova in [GIova::new(0xbbe0_1234), GIova::new(0x3480_0042)] {
                assert_eq!(rv.lookup(iova).unwrap().0, x86.lookup(iova).unwrap().0);
            }
            assert_eq!(
                rv.guest_walk(GIova::new(0x3480_0042)).unwrap().ptes.len(),
                geom.guest_levels() as usize
            );
            assert_eq!(rv.host_table().root_extra_bits(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "overflows its host slab")]
    fn one_gig_device_buffers_exceed_the_slab_model() {
        // 1 GiB leaves are modelled at the table and walker level (see the
        // RadixTable and geometry tests); a 1 GiB *device-visible buffer*
        // cannot be host-backed inside the 256 MiB per-tenant slab, and
        // the builder says so instead of corrupting the layout.
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(WalkGeometry::RiscvSv39x4)
            .map(GIova::new(0x8000_0000), PageSize::Size1G);
        let _ = b.build();
    }

    #[test]
    fn riscv_migration_keeps_translating() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(WalkGeometry::RiscvSv48x4)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let space = b.build();
        let iova = GIova::new(0xbbe0_0042);
        let before = space.lookup(iova).unwrap().0;
        let after = space.view(Did::new(0), 9).lookup(iova).unwrap().0;
        assert_eq!(after.raw(), before.raw() + 9 * HOST_SLAB_PER_TENANT);
        assert_eq!(
            space.view(Did::new(0), 9).space().geometry(),
            WalkGeometry::RiscvSv48x4
        );
    }

    #[test]
    fn debug_mentions_counts() {
        let space = paper_tenant(0);
        let s = format!("{space:?}");
        assert!(s.contains("pages: 103"));
    }
}

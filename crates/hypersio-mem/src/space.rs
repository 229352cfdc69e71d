//! Per-tenant address spaces: paired guest and host page tables.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Issues process-unique layout identities (see [`TenantSpace::layout_id`]).
/// Two spaces share an id only when they were stamped from the same
/// canonical build, which is what makes cross-tenant memo sharing sound.
static NEXT_LAYOUT_ID: AtomicU64 = AtomicU64::new(0);

fn next_layout_id() -> u64 {
    NEXT_LAYOUT_ID.fetch_add(1, Ordering::Relaxed)
}

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

    /// Legacy shim for the x86 geometries: `levels`-deep radix tables in
    /// both dimensions (4 maps to [`WalkGeometry::X86Nested4`], 5 to
    /// [`WalkGeometry::X86Nested5`]). Prefer
    /// [`TenantSpaceBuilder::geometry`].
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not 4 or 5.
    pub fn levels(&mut self, levels: u8) -> &mut Self {
        self.geometry(match levels {
            4 => WalkGeometry::X86Nested4,
            5 => WalkGeometry::X86Nested5,
            other => panic!("no x86 nested geometry with {other} levels"),
        })
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
            guest: Arc::new(guest),
            host,
            host_slab: did.raw() as u64,
            layout_id: next_layout_id(),
            host_delta: 0,
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
pub struct TenantSpace {
    did: Did,
    /// The walk geometry both tables were built in; siblings stamped from
    /// one canonical build always share it.
    geometry: WalkGeometry,
    /// Guest table, shared across all spaces stamped from one canonical
    /// build: the guest dimension is DID-independent (same OS + driver,
    /// §IV-D) and never mutated after construction, so a million tenants
    /// reference one copy.
    guest: Arc<RadixTable>,
    host: RadixTable,
    /// Index of the host-physical slab the host table currently lives in
    /// (`did` at build time; bumped by [`TenantSpace::migrate_to_slab`]).
    host_slab: u64,
    /// Identity of the canonical layout this space was stamped from.
    /// Spaces [stamped](TenantSpace::stamp) from one canonical build share
    /// an id; each [`TenantSpaceBuilder::build`] gets a fresh one.
    layout_id: u64,
    /// Offset of every host-side address relative to the canonical layout
    /// (`did * slab` at stamp-out time, adjusted by each migration). The
    /// guest dimension is canonical as-is.
    host_delta: u64,
    page_count: usize,
}

impl TenantSpace {
    /// Starts building a tenant space for `did`.
    pub fn builder(did: Did) -> TenantSpaceBuilder {
        TenantSpaceBuilder::new(did)
    }

    /// Returns the tenant's domain ID.
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

    /// Returns the index of the host slab currently backing this tenant.
    pub fn host_slab(&self) -> u64 {
        self.host_slab
    }

    /// Relocates the tenant's host-side memory to slab `slab`, as a VM
    /// migration does: every host frame and host table node moves to the
    /// new slab while the guest dimension (same OS, same driver, same
    /// gIOVAs and gPAs) is untouched. Uses [`RadixTable::rebased`] to
    /// re-stamp the host table in one pass. Callers must shoot down every
    /// cached translation of this DID afterwards — the old hPAs are stale.
    pub fn migrate_to_slab(&mut self, slab: u64) {
        let delta = slab
            .wrapping_sub(self.host_slab)
            .wrapping_mul(HOST_SLAB_PER_TENANT);
        self.host = self.host.rebased(delta);
        self.host_delta = self.host_delta.wrapping_add(delta);
        self.host_slab = slab;
    }

    /// Stamps out the sibling space for `did` hosted in slab `slab` from
    /// this *canonical* (unrebased, slab-0) space: the guest table is
    /// shared by reference, the host table is
    /// [rebased](RadixTable::rebased) into the slab, and the layout
    /// identity is inherited. This is what a [`crate::SpacePool`] stamps
    /// on first touch or after eviction.
    ///
    /// For `slab == did` the result is bit-identical to
    /// [`TenantSpaceBuilder::build`] for `did`, because that layout is
    /// *affine in the DID*: the guest dimension (table nodes, data frames)
    /// is DID-independent by design (§IV-D — same OS and driver in every
    /// tenant), and every host-side address is `canonical + did * slab`
    /// because host frames and host table nodes are bump-allocated in an
    /// identical, DID-independent order from per-DID slab bases that are
    /// one uniform stride apart. (The stride is a multiple of every page
    /// alignment that fits in a slab, so alignment padding is identical
    /// across DIDs too.) Stamping therefore costs O(nodes) per tenant
    /// instead of replaying the O(pages) inventory.
    ///
    /// Stamping is deterministic: the same `(canonical, did, slab)` always
    /// yields a bit-identical space, which is why eviction plus rebuild
    /// cannot change any translation.
    pub fn stamp(&self, did: Did, slab: u64) -> TenantSpace {
        debug_assert_eq!(
            self.host_delta, 0,
            "stamp from the canonical build, not a rebased sibling"
        );
        let delta = slab.wrapping_mul(HOST_SLAB_PER_TENANT);
        TenantSpace {
            did,
            geometry: self.geometry,
            guest: Arc::clone(&self.guest),
            host: self.host.rebased(delta),
            host_slab: slab,
            layout_id: self.layout_id,
            host_delta: delta,
            page_count: self.page_count,
        }
    }

    /// Rough heap footprint of this space's *per-tenant* state — the host
    /// table's sparse maps. The guest table is excluded: it is shared
    /// across every sibling stamped from one canonical build. Used to
    /// convert a host-memory budget into a resident-space cap.
    pub fn per_tenant_bytes(&self) -> u64 {
        // FxHashMap entry ≈ key + value + capacity slack; 64 B/PTE and
        // 16 B/node-address are deliberately generous.
        (self.host.entry_count() as u64) * 64 + (self.host.node_count() as u64) * 16 + 256
    }

    /// Returns the identity of the canonical layout this space shares with
    /// every sibling [stamped](TenantSpace::stamp) from the same build.
    ///
    /// Two spaces with the same id have bit-identical guest tables and host
    /// tables that differ only by a uniform [`TenantSpace::host_delta`]
    /// shift — the invariant [`crate::WalkMemo`] relies on to share
    /// functional walk results across tenants.
    pub fn layout_id(&self) -> u64 {
        self.layout_id
    }

    /// Returns the uniform offset of this space's host-side addresses from
    /// the canonical layout's (wrapping arithmetic).
    pub fn host_delta(&self) -> u64 {
        self.host_delta
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

    /// Allocation-free [`TenantSpace::guest_walk`] (the walker's hot path).
    ///
    /// # Errors
    ///
    /// Returns the guest-table error if `iova` is not device-visible.
    pub fn guest_walk_inline(&self, iova: GIova) -> Result<InlineWalkPath, PageTableError> {
        self.guest.walk_inline(iova.raw())
    }

    /// Allocation-free [`TenantSpace::host_walk`] (the walker's hot path).
    ///
    /// # Errors
    ///
    /// Returns the host-table error if `gpa` is unmapped.
    pub fn host_walk_inline(&self, gpa: GPa) -> Result<InlineWalkPath, PageTableError> {
        self.host.walk_inline(gpa.raw())
    }

    /// Full (uncached) functional translation: gIOVA → hPA, with the page
    /// size of the guest leaf.
    pub fn lookup(&self, iova: GIova) -> Option<(HPa, PageSize)> {
        let gpath = self.guest.walk_inline(iova.raw()).ok()?;
        let gpa = gpath.translate(iova.raw());
        let hpa = self.host.translate(gpa)?;
        Some((HPa::new(hpa), gpath.size))
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
        b5.levels(5).map(GIova::new(0xbbe0_0000), PageSize::Size2M);
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
    fn stamps_are_bit_identical_to_per_did_builds() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        for i in 0..32u64 {
            b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
        }
        for i in 0..70u64 {
            b.map(GIova::new(0xf000_0000 + i * 0x1000), PageSize::Size4K);
        }
        let canonical = b.build();
        for did in [0, 1, 7, 1023].map(Did::new) {
            let space = canonical.stamp(did, did.raw() as u64);
            let mut per = TenantSpace::builder(did);
            per.map(GIova::new(0x3480_0000), PageSize::Size4K);
            for i in 0..32u64 {
                per.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
            }
            for i in 0..70u64 {
                per.map(GIova::new(0xf000_0000 + i * 0x1000), PageSize::Size4K);
            }
            let per = per.build();
            assert_eq!(space.did(), per.did());
            assert_eq!(space.page_count(), per.page_count());
            assert_eq!(space.guest_table(), per.guest_table(), "guest table {did}");
            assert_eq!(space.host_table(), per.host_table(), "host table {did}");
        }
    }

    #[test]
    fn stamping_respects_five_levels() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.levels(5).map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let fleet = [b.build().stamp(Did::new(4), 4)];
        let mut per = TenantSpace::builder(Did::new(4));
        per.levels(5).map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let per = per.build();
        assert_eq!(fleet[0].host_table(), per.host_table());
        assert_eq!(fleet[0].guest_table(), per.guest_table());
    }

    #[test]
    fn migration_moves_host_frames_and_keeps_guest_layout() {
        let mut space = paper_tenant(0);
        let iova = GIova::new(0xbbe0_0000);
        let (before, size) = space.lookup(iova).unwrap();
        let guest_before = space.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(space.host_slab(), 0);

        space.migrate_to_slab(5);
        assert_eq!(space.host_slab(), 5);
        let (after, size_after) = space.lookup(iova).unwrap();
        assert_eq!(size, size_after);
        assert_eq!(after.raw(), before.raw() + 5 * HOST_SLAB_PER_TENANT);
        // Guest dimension untouched.
        let guest_after = space.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(guest_before, guest_after);

        // Migrating again (including to a lower slab) keeps translating.
        space.migrate_to_slab(2);
        let (back, _) = space.lookup(iova).unwrap();
        assert_eq!(back.raw(), before.raw() + 2 * HOST_SLAB_PER_TENANT);
        // The migrated table is bit-identical to a fresh build at that DID.
        let fresh = paper_tenant(2);
        assert_eq!(space.host_table(), fresh.host_table());
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
    fn riscv_stamping_matches_per_did_builds() {
        for geom in [WalkGeometry::RiscvSv39x4, WalkGeometry::RiscvSv48x4] {
            let mut b = TenantSpace::builder(Did::new(0));
            b.geometry(geom);
            b.map(GIova::new(0x3480_0000), PageSize::Size4K);
            for i in 0..8u64 {
                b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
            }
            let canonical = b.build();
            for did in [0, 3, 511].map(Did::new) {
                let space = canonical.stamp(did, did.raw() as u64);
                let mut per = TenantSpace::builder(did);
                per.geometry(geom);
                per.map(GIova::new(0x3480_0000), PageSize::Size4K);
                for i in 0..8u64 {
                    per.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
                }
                let per = per.build();
                assert_eq!(space.geometry(), per.geometry());
                assert_eq!(space.guest_table(), per.guest_table(), "guest {geom} {did}");
                assert_eq!(space.host_table(), per.host_table(), "host {geom} {did}");
            }
        }
    }

    #[test]
    fn riscv_migration_keeps_translating() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(WalkGeometry::RiscvSv48x4)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let mut space = b.build();
        let iova = GIova::new(0xbbe0_0042);
        let before = space.lookup(iova).unwrap().0;
        space.migrate_to_slab(9);
        let after = space.lookup(iova).unwrap().0;
        assert_eq!(after.raw(), before.raw() + 9 * HOST_SLAB_PER_TENANT);
        assert_eq!(space.geometry(), WalkGeometry::RiscvSv48x4);
    }

    #[test]
    #[should_panic(expected = "no x86 nested geometry")]
    fn levels_shim_rejects_non_x86_depths() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.levels(3);
    }

    #[test]
    fn debug_mentions_counts() {
        let space = paper_tenant(0);
        let s = format!("{space:?}");
        assert!(s.contains("pages: 103"));
    }
}

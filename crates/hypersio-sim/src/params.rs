//! Simulator parameters (the paper's Table II).

use std::fmt;

use hypersio_device::{Link, PacketSpec, Pcie};
use hypersio_types::{Bandwidth, SimDuration};

use crate::faults::FaultPlan;

/// The system parameters of the performance model.
///
/// Defaults reproduce the paper's Table II exactly:
///
/// | Parameter | Value |
/// |---|---|
/// | One-way PCIe latency | 450 ns |
/// | DRAM latency | 50 ns |
/// | IOTLB (DevTLB) hit | 2 ns |
/// | Memory accesses per full 2-D walk | 24 |
/// | Packet size at I/O link | 1542 B (Eth pkt + IPG) |
/// | I/O link bandwidth | 200 Gb/s |
/// | L2 page cache | 512 entries, 16 ways |
/// | L3 page cache | 1024 entries, 16 ways |
///
/// The 24-access walk count and page-cache geometries are structural
/// (enforced by `hypersio-mem`'s walker and
/// [`hypersio_mem::WalkCacheConfig`]); the rest are fields here.
///
/// # Examples
///
/// ```
/// use hypersio_sim::SimParams;
///
/// let p = SimParams::paper();
/// assert_eq!(p.pcie.one_way().as_ns(), 450);
/// assert_eq!(p.dram_latency.as_ns(), 50);
/// assert_eq!(p.devtlb_hit.as_ns(), 2);
/// assert_eq!(p.link.bandwidth().gbps(), 200.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimParams {
    /// The I/O link (bandwidth + packet sizing).
    pub link: Link,
    /// Device ↔ chipset PCIe latency.
    pub pcie: Pcie,
    /// DevTLB / Prefetch Buffer hit latency ("IOTLB hit" in Table II).
    pub devtlb_hit: SimDuration,
    /// Per-access DRAM latency.
    pub dram_latency: SimDuration,
    /// Context-cache entries in the IOMMU.
    pub context_entries: usize,
    /// Memory latency of one IOVA-history fetch by the prefetcher.
    pub history_read: SimDuration,
    /// Optional cap on concurrent IOMMU page-table walkers; `None` models
    /// a fully-pipelined IOMMU (the paper's latency-only model).
    pub iommu_walkers: Option<usize>,
    /// Model a *native* (non-virtualised) interface: no gIOVA translation
    /// is performed at all, as in the host-interface runs of Fig 5.
    pub bypass_translation: bool,
    /// How the IOMMU resolves gIOVAs: the paper's two-dimensional walk or
    /// an rIOMMU-style flat table (see
    /// [`hypersio_mem::TranslationScheme`]).
    pub translation_scheme: hypersio_mem::TranslationScheme,
    /// Two-stage walk geometry (see [`hypersio_mem::WalkGeometry`]): x86
    /// nested 4-/5-level tables (24/35-access full walks, §II) or RISC-V
    /// Sv39x4/Sv48x4 (15/24 accesses, G-stage root widened by 2 bits).
    pub walk_geometry: hypersio_mem::WalkGeometry,
    /// Packets processed before bandwidth measurement starts.
    ///
    /// The paper's traces are millions of requests, so cold-compulsory
    /// misses are statistically invisible; scaled-down traces need an
    /// explicit warm-up window for the steady-state bandwidth to be
    /// meaningful. Structure statistics still cover the whole run.
    pub warmup_packets: u64,
    /// Collect per-tenant (per-DID) statistics during the run.
    ///
    /// Opt-in: when set, `SimReport::per_tenant` carries packet, byte,
    /// drop, hit-rate, and latency breakdowns for every DID plus a
    /// fairness summary. Off by default — the aggregate report (and every
    /// figure's output) is byte-identical either way.
    pub per_tenant: bool,
    /// Seeded fault-injection plan (invalidation storms, tenant churn,
    /// IO page faults). Defaults to [`FaultPlan::none`], which injects
    /// nothing and leaves the run byte-identical to earlier versions.
    pub fault_plan: FaultPlan,
}

impl SimParams {
    /// The paper's Table II configuration on a 200 Gb/s link.
    pub fn paper() -> Self {
        SimParams {
            link: Link::paper(),
            pcie: Pcie::paper(),
            devtlb_hit: SimDuration::from_ns(2),
            dram_latency: SimDuration::from_ns(50),
            context_entries: 64,
            history_read: SimDuration::from_ns(50),
            iommu_walkers: None,
            translation_scheme: hypersio_mem::TranslationScheme::default(),
            walk_geometry: hypersio_mem::WalkGeometry::X86Nested4,
            bypass_translation: false,
            warmup_packets: 0,
            per_tenant: false,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Table II latencies on a 10 Gb/s link (the §II case-study setups of
    /// Figs 4 and 5 used dual-port 10 Gb/s NICs).
    pub fn paper_10g() -> Self {
        SimParams {
            link: Link::new(Bandwidth::from_gbps(10), PacketSpec::ethernet()),
            ..SimParams::paper()
        }
    }

    /// Replaces the link.
    pub fn with_link(mut self, link: Link) -> Self {
        self.link = link;
        self
    }

    /// Caps the number of concurrent IOMMU walkers.
    pub fn with_iommu_walkers(mut self, walkers: usize) -> Self {
        self.iommu_walkers = Some(walkers);
        self
    }

    /// Uses rIOMMU-style flat translation tables (one read per miss).
    pub fn with_flat_tables(mut self) -> Self {
        self.translation_scheme = hypersio_mem::TranslationScheme::FlatTable;
        self
    }

    /// Selects the two-stage walk geometry (see
    /// [`hypersio_mem::WalkGeometry`]). The default is
    /// [`hypersio_mem::WalkGeometry::X86Nested4`], the paper's
    /// configuration; every committed golden is pinned under it.
    pub fn with_arch(mut self, geometry: hypersio_mem::WalkGeometry) -> Self {
        self.walk_geometry = geometry;
        self
    }

    /// Disables translation entirely (native host-interface mode, Fig 5).
    pub fn native(mut self) -> Self {
        self.bypass_translation = true;
        self
    }

    /// Excludes the first `packets` processed packets from the bandwidth
    /// measurement (steady-state measurement for short traces).
    pub fn with_warmup(mut self, packets: u64) -> Self {
        self.warmup_packets = packets;
        self
    }

    /// Enables per-tenant statistics collection (see
    /// [`SimParams::per_tenant`]).
    pub fn with_per_tenant(mut self) -> Self {
        self.per_tenant = true;
        self
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Does nothing and returns `self` unchanged.
    ///
    /// It once capped the host memory of per-tenant page-table copies.
    /// Every tenant now translates through one canonical build (see
    /// [`hypersio_mem::TenantSpace::view`]), so there is nothing left to
    /// budget; the setter remains only so existing callers keep building.
    pub fn with_table_budget(self, _bytes: u64) -> Self {
        self
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams::paper()
    }
}

impl fmt::Display for SimParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {}, devtlb-hit {}, dram {}",
            self.link, self.pcie, self.devtlb_hit, self.dram_latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let p = SimParams::default();
        assert_eq!(p.link.inter_arrival().as_ps(), 61_680);
        assert_eq!(p.pcie.round_trip().as_ns(), 900);
        assert_eq!(p.context_entries, 64);
        assert!(p.iommu_walkers.is_none());
        assert!(!p.bypass_translation);
    }

    #[test]
    fn native_mode_flag() {
        assert!(SimParams::paper_10g().native().bypass_translation);
    }

    #[test]
    fn flat_table_builder() {
        use hypersio_mem::TranslationScheme;
        assert_eq!(
            SimParams::paper().translation_scheme,
            TranslationScheme::TwoDimensional
        );
        assert_eq!(
            SimParams::paper().with_flat_tables().translation_scheme,
            TranslationScheme::FlatTable
        );
    }

    #[test]
    fn arch_builder() {
        use hypersio_mem::WalkGeometry;
        assert_eq!(SimParams::paper().walk_geometry, WalkGeometry::X86Nested4);
        for g in WalkGeometry::ALL {
            assert_eq!(SimParams::paper().with_arch(g).walk_geometry, g);
        }
    }

    #[test]
    fn warmup_builder() {
        assert_eq!(SimParams::paper().with_warmup(100).warmup_packets, 100);
        assert_eq!(SimParams::paper().warmup_packets, 0);
    }

    #[test]
    fn per_tenant_builder() {
        assert!(!SimParams::paper().per_tenant);
        assert!(SimParams::paper().with_per_tenant().per_tenant);
    }

    #[test]
    fn ten_gig_variant() {
        let p = SimParams::paper_10g();
        assert_eq!(p.link.bandwidth().gbps(), 10.0);
        assert_eq!(p.pcie.one_way().as_ns(), 450);
    }

    #[test]
    fn builder_helpers() {
        let p = SimParams::paper().with_iommu_walkers(8);
        assert_eq!(p.iommu_walkers, Some(8));
        let link = Link::new(Bandwidth::from_gbps(400), PacketSpec::ethernet());
        assert_eq!(
            SimParams::paper().with_link(link).link.bandwidth().gbps(),
            400.0
        );
    }

    #[test]
    fn display_is_compact() {
        let s = SimParams::paper().to_string();
        assert!(s.contains("200.00Gb/s"));
        assert!(s.contains("450ns"));
    }
}

//! Architecture-parameterized two-stage walk geometry.
//!
//! HyperTRIO's cost model — "24 or 35 memory accesses for 4- or 5-level
//! page tables" — is a property of the *walk geometry*: how many radix
//! levels each translation dimension has, how wide each level's index is,
//! and which levels may hold superpage leaves. [`WalkGeometry`] captures
//! that shape so every layer (table placement, nested walker, walk caches)
//! derives its constants from one source instead of assuming the x86
//! form.
//!
//! Two ISA families are modelled:
//!
//! - **x86 nested paging** (`X86Nested4`, `X86Nested5`): symmetric 4- or
//!   5-level tables in both dimensions, 9-bit indices, 512-entry nodes.
//! - **RISC-V H-extension** (`RiscvSv39x4`, `RiscvSv48x4`): the VS-stage
//!   (guest) table is a standard Sv39/Sv48 table, while the G-stage (host)
//!   table's *root* level is widened by 2 bits — 2048 entries, a 16 KiB
//!   root node — so guest-physical addresses gain two extra bits of reach
//!   (the `x4` in Sv39x4). Non-root levels stay 9-bit.
//!
//! Every supported geometry uses 9-bit non-root indices over a 12-bit page
//! offset, so level 1 always spans 4 KiB, level 2 always spans 2 MiB, and
//! level 3 always spans 1 GiB. The walk caches exploit this: their level
//! tags (`iova >> 21`, `iova >> 30`) are geometry-independent.

use std::fmt;

/// The shape of a two-stage (guest x host) radix walk.
///
/// The default is [`WalkGeometry::X86Nested4`], the paper's configuration;
/// all committed goldens are pinned under it.
///
/// # Examples
///
/// ```
/// use hypersio_mem::WalkGeometry;
///
/// let g = WalkGeometry::RiscvSv39x4;
/// assert_eq!(g.guest_levels(), 3);
/// assert_eq!(g.host_root_extra_bits(), 2);
/// assert_eq!(g.full_walk_reads(), 15); // 3x(3+1) + 3
/// assert_eq!("sv39x4".parse::<WalkGeometry>().unwrap(), g);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WalkGeometry {
    /// x86-64 nested paging, 4-level tables in both dimensions (the
    /// paper's configuration: 24-access cold walk).
    #[default]
    X86Nested4,
    /// x86-64 nested paging with 5-level (LA57) tables in both dimensions
    /// (35-access cold walk).
    X86Nested5,
    /// RISC-V hypervisor extension: Sv39 VS-stage over an Sv39x4 G-stage
    /// (3 levels each, G-stage root widened by 2 bits).
    RiscvSv39x4,
    /// RISC-V hypervisor extension: Sv48 VS-stage over an Sv48x4 G-stage
    /// (4 levels each, G-stage root widened by 2 bits).
    RiscvSv48x4,
}

impl WalkGeometry {
    /// All supported geometries, in CLI-name order.
    pub const ALL: [WalkGeometry; 4] = [
        WalkGeometry::X86Nested4,
        WalkGeometry::X86Nested5,
        WalkGeometry::RiscvSv39x4,
        WalkGeometry::RiscvSv48x4,
    ];

    /// Number of levels in the guest (first-stage / VS-stage) table.
    pub const fn guest_levels(self) -> u8 {
        match self {
            WalkGeometry::X86Nested4 => 4,
            WalkGeometry::X86Nested5 => 5,
            WalkGeometry::RiscvSv39x4 => 3,
            WalkGeometry::RiscvSv48x4 => 4,
        }
    }

    /// Number of levels in the host (second-stage / G-stage) table.
    pub const fn host_levels(self) -> u8 {
        match self {
            WalkGeometry::X86Nested4 => 4,
            WalkGeometry::X86Nested5 => 5,
            WalkGeometry::RiscvSv39x4 => 3,
            WalkGeometry::RiscvSv48x4 => 4,
        }
    }

    /// Extra index bits in the host table's root level.
    ///
    /// RISC-V's G-stage root is widened by 2 bits (2048 entries, a 16 KiB
    /// root node) so guest-physical addresses get two more bits of reach
    /// than guest-virtual ones; x86 roots are not widened.
    pub const fn host_root_extra_bits(self) -> u8 {
        match self {
            WalkGeometry::X86Nested4 | WalkGeometry::X86Nested5 => 0,
            WalkGeometry::RiscvSv39x4 | WalkGeometry::RiscvSv48x4 => 2,
        }
    }

    /// Index bits per non-root level (9 in every supported geometry:
    /// 512-entry nodes).
    pub const fn level_bits(self) -> u8 {
        9
    }

    /// Page-offset bits (12 in every supported geometry: 4 KiB base
    /// pages).
    pub const fn page_offset_bits(self) -> u8 {
        12
    }

    /// Table levels that may hold a superpage leaf, smallest first.
    ///
    /// Level 1 is the 4 KiB base page; level 2 spans 2 MiB; level 3 spans
    /// 1 GiB. x86 and RISC-V both support all three in these geometries
    /// (Sv39's 1 GiB "gigapage" leaf sits in its root level).
    pub const fn leaf_levels(self) -> &'static [u8] {
        &[1, 2, 3]
    }

    /// Returns true if `level` may hold a leaf in this geometry.
    pub const fn supports_leaf_level(self, level: u8) -> bool {
        level >= 1 && level <= 3 && level <= self.guest_levels()
    }

    /// Memory reads of one cold two-dimensional walk with a 4 KiB guest
    /// leaf: each of the `G` guest PTE reads costs a nested host walk
    /// (`H` reads) plus the guest PTE read itself, and the final data
    /// guest-physical address costs one more host walk — `G x (H + 1) + H`
    /// (equal to the paper's `G x (H + 1) + G` form since every supported
    /// geometry is symmetric).
    ///
    /// This is the "24 or 35 accesses" number: 24 for x86-4, 35 for
    /// x86-5, 15 for Sv39x4, 24 for Sv48x4.
    pub const fn full_walk_reads(self) -> u64 {
        self.walk_reads_from(self.guest_levels(), 1)
    }

    /// Memory reads of a two-dimensional walk that starts at guest level
    /// `start_level` (the full `guest_levels()` when nothing was skipped,
    /// lower after a walk-cache hit) and terminates at the guest leaf
    /// level `leaf_level` (1 for 4 KiB, 2 for 2 MiB, 3 for 1 GiB), with
    /// every nested host walk going cold: `S x (H + 1) + H` where
    /// `S = start_level - leaf_level + 1` guest steps.
    pub const fn walk_reads_from(self, start_level: u8, leaf_level: u8) -> u64 {
        let steps = (start_level - leaf_level + 1) as u64;
        let h = self.host_levels() as u64;
        steps * (h + 1) + h
    }

    /// The `--arch` spelling of this geometry.
    pub const fn cli_name(self) -> &'static str {
        match self {
            WalkGeometry::X86Nested4 => "x86-4",
            WalkGeometry::X86Nested5 => "x86-5",
            WalkGeometry::RiscvSv39x4 => "sv39x4",
            WalkGeometry::RiscvSv48x4 => "sv48x4",
        }
    }
}

impl fmt::Display for WalkGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cli_name())
    }
}

impl std::str::FromStr for WalkGeometry {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        for g in WalkGeometry::ALL {
            if s == g.cli_name() {
                return Ok(g);
            }
        }
        Err(format!(
            "unknown architecture '{s}' (expected one of: x86-4, x86-5, sv39x4, sv48x4)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_walk_costs() {
        assert_eq!(WalkGeometry::X86Nested4.full_walk_reads(), 24);
        assert_eq!(WalkGeometry::X86Nested5.full_walk_reads(), 35);
        assert_eq!(WalkGeometry::RiscvSv39x4.full_walk_reads(), 15);
        assert_eq!(WalkGeometry::RiscvSv48x4.full_walk_reads(), 24);
        // The paper's symmetric form G x (H + 1) + G agrees.
        for g in WalkGeometry::ALL {
            let (gl, hl) = (g.guest_levels() as u64, g.host_levels() as u64);
            assert_eq!(g.full_walk_reads(), gl * (hl + 1) + gl);
        }
    }

    #[test]
    fn partial_walk_costs() {
        // x86-4, 2 MiB leaf: 3 guest steps of 5 plus the final host walk.
        assert_eq!(WalkGeometry::X86Nested4.walk_reads_from(4, 2), 19);
        // x86-4 after an L2 walk-cache hit: one guest step remains.
        assert_eq!(WalkGeometry::X86Nested4.walk_reads_from(1, 1), 9);
        // Sv39x4, 1 GiB leaf at the root: one guest step of 4 plus 3.
        assert_eq!(WalkGeometry::RiscvSv39x4.walk_reads_from(3, 3), 7);
    }

    #[test]
    fn riscv_widens_only_the_host_root() {
        for g in [WalkGeometry::RiscvSv39x4, WalkGeometry::RiscvSv48x4] {
            assert_eq!(g.host_root_extra_bits(), 2);
            assert_eq!(g.level_bits(), 9);
        }
        for g in [WalkGeometry::X86Nested4, WalkGeometry::X86Nested5] {
            assert_eq!(g.host_root_extra_bits(), 0);
        }
    }

    #[test]
    fn cli_names_round_trip() {
        for g in WalkGeometry::ALL {
            assert_eq!(g.cli_name().parse::<WalkGeometry>().unwrap(), g);
            assert_eq!(format!("{g}"), g.cli_name());
        }
        let err = "sv57".parse::<WalkGeometry>().unwrap_err();
        assert!(err.contains("sv39x4"), "{err}");
    }

    #[test]
    fn default_is_the_paper_geometry() {
        assert_eq!(WalkGeometry::default(), WalkGeometry::X86Nested4);
        assert_eq!(WalkGeometry::default().full_walk_reads(), 24);
    }

    #[test]
    fn leaf_levels_are_bounded_by_guest_depth() {
        // Sv39's guest table is 3 levels deep, so its largest leaf (1 GiB)
        // sits in the root level.
        assert!(WalkGeometry::RiscvSv39x4.supports_leaf_level(3));
        assert!(!WalkGeometry::RiscvSv39x4.supports_leaf_level(4));
        assert!(!WalkGeometry::X86Nested4.supports_leaf_level(0));
        for g in WalkGeometry::ALL {
            for &l in g.leaf_levels() {
                assert!(l <= g.guest_levels() || !g.supports_leaf_level(l));
            }
        }
    }
}

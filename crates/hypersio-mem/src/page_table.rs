//! Synthetic radix page tables with concretely-placed nodes.
//!
//! Unlike a plain `HashMap<page, frame>`, these tables place every table
//! node at a real address in the owning address space, so a walker can
//! enumerate the exact sequence of memory reads hardware would issue —
//! including the reads of the table nodes themselves, which is what makes
//! the nested (two-dimensional) walk cost 24 accesses instead of 4.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use hypersio_types::PageSize;

use hypersio_types::fxhash::FxBuildHasher;

/// Number of entries per radix node (x86-64: 512 = 9 bits per level).
pub const RADIX: usize = 512;

/// Size in bytes of one page-table entry.
pub const PTE_BYTES: u64 = 8;

/// One page-table entry.
///
/// # Examples
///
/// ```
/// use hypersio_mem::Pte;
/// use hypersio_types::PageSize;
///
/// let leaf = Pte::Leaf { target: 0x20_0000, size: PageSize::Size2M };
/// assert!(leaf.is_leaf());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pte {
    /// Pointer to the next-level table node (its base address in the owning
    /// address space).
    Table {
        /// Base address of the next-level node.
        next: u64,
    },
    /// Terminal mapping to a page frame.
    Leaf {
        /// Base address of the mapped frame in the target address space.
        target: u64,
        /// Size of the mapped page.
        size: PageSize,
    },
}

impl Pte {
    /// Returns true for a leaf (terminal) entry.
    pub const fn is_leaf(self) -> bool {
        matches!(self, Pte::Leaf { .. })
    }
}

/// Errors from building or walking a [`RadixTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageTableError {
    /// The virtual address is not mapped.
    NotMapped {
        /// The unmapped virtual address.
        va: u64,
        /// The level at which the walk found no entry.
        level: u8,
    },
    /// A mapping would overlap an existing one.
    AlreadyMapped {
        /// The conflicting virtual address.
        va: u64,
    },
    /// A huge-page leaf was found where a table pointer was required (or
    /// vice versa) while inserting.
    LevelConflict {
        /// The conflicting virtual address.
        va: u64,
        /// The level at which the conflict occurred.
        level: u8,
    },
}

impl fmt::Display for PageTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageTableError::NotMapped { va, level } => {
                write!(
                    f,
                    "address {va:#x} not mapped (walk stopped at level {level})"
                )
            }
            PageTableError::AlreadyMapped { va } => {
                write!(f, "address {va:#x} already mapped")
            }
            PageTableError::LevelConflict { va, level } => {
                write!(f, "mapping conflict for {va:#x} at level {level}")
            }
        }
    }
}

impl Error for PageTableError {}

/// The ordered PTE reads of one single-dimensional walk.
///
/// `pte_addrs[i]` is the address (in the table's owning address space) of
/// the PTE read at step `i`, root level first. The final element corresponds
/// to the leaf. A 4 KB walk on a 4-level table has 4 steps; a 2 MB walk has
/// 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkPath {
    /// Addresses of the PTEs read, in walk order.
    pub pte_addrs: Vec<u64>,
    /// The PTEs read, in walk order (last one is the leaf).
    pub ptes: Vec<Pte>,
    /// Base address of the mapped frame.
    pub target_base: u64,
    /// Size of the mapped page.
    pub size: PageSize,
}

impl WalkPath {
    /// Translated address for `va`: frame base plus in-page offset.
    pub fn translate(&self, va: u64) -> u64 {
        self.target_base + (va & self.size.offset_mask())
    }
}

/// Maximum modelled table depth: 5-level x86 paging is the deepest
/// dimension of any supported [`crate::WalkGeometry`] (RISC-V Sv39x4/Sv48x4
/// walks are 3 or 4 steps; the G-stage root widening adds index *width*,
/// not depth).
const MAX_LEVELS: usize = 5;

/// An allocation-free [`WalkPath`]: the same ordered PTE reads, held in
/// fixed-size inline arrays instead of heap `Vec`s.
///
/// The two-dimensional walker performs several single-dimensional walks per
/// translation; returning this by value keeps the whole translate hot path
/// free of heap traffic. Convert with [`InlineWalkPath::to_walk_path`] when
/// a heap-backed path is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineWalkPath {
    len: u8,
    pte_addrs: [u64; MAX_LEVELS],
    ptes: [Pte; MAX_LEVELS],
    /// Base address of the mapped frame.
    pub target_base: u64,
    /// Size of the mapped page.
    pub size: PageSize,
}

impl InlineWalkPath {
    /// Number of PTE reads in the walk (root level first).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns true if the path holds no steps (never produced by a
    /// successful walk).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Addresses of the PTEs read, in walk order.
    pub fn pte_addrs(&self) -> &[u64] {
        &self.pte_addrs[..self.len as usize]
    }

    /// The PTEs read, in walk order (last one is the leaf).
    pub fn ptes(&self) -> &[Pte] {
        &self.ptes[..self.len as usize]
    }

    /// The terminal (leaf) PTE of the walk.
    pub fn leaf(&self) -> Pte {
        self.ptes[self.len as usize - 1]
    }

    /// Translated address for `va`: frame base plus in-page offset.
    pub fn translate(&self, va: u64) -> u64 {
        self.target_base + (va & self.size.offset_mask())
    }

    /// Copies the path into a heap-backed [`WalkPath`].
    pub fn to_walk_path(&self) -> WalkPath {
        WalkPath {
            pte_addrs: self.pte_addrs().to_vec(),
            ptes: self.ptes().to_vec(),
            target_base: self.target_base,
            size: self.size,
        }
    }
}

/// A synthetic radix page table (3-, 4-, or 5-level, optionally with a
/// widened root as in RISC-V's Sv39x4/Sv48x4 G-stage).
///
/// Nodes are allocated at 4 KB-aligned addresses supplied by the caller's
/// allocator closure, so the table can be *placed* inside guest-physical or
/// host-physical memory and its own node addresses can themselves be
/// translated (the essence of the nested walk).
///
/// # Examples
///
/// ```
/// use hypersio_mem::{Pte, RadixTable};
/// use hypersio_types::PageSize;
///
/// let mut next = 0x1000u64;
/// let mut table = RadixTable::new(4, &mut || {
///     let a = next;
///     next += 4096;
///     a
/// });
/// table.map(0xbbe0_0000, 0x4000_0000, PageSize::Size2M, &mut || {
///     let a = next;
///     next += 4096;
///     a
/// }).unwrap();
/// let path = table.walk(0xbbe0_1234).unwrap();
/// assert_eq!(path.translate(0xbbe0_1234), 0x4000_1234);
/// assert_eq!(path.ptes.len(), 3); // levels 4,3,2 for a 2MB page
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RadixTable {
    levels: u8,
    /// Extra index bits in the root level (0 for x86; 2 for a RISC-V
    /// Sv39x4/Sv48x4 G-stage, whose root holds `512 << 2` entries).
    root_extra_bits: u8,
    root: u64,
    /// Base addresses of all allocated table nodes.
    nodes: HashSet<u64, FxBuildHasher>,
    /// Sparse PTE storage keyed by the PTE's own address in the owning
    /// space (`node_base + index * PTE_BYTES`). A walk step is a single
    /// cheap-hash probe of this map.
    entries: HashMap<u64, Pte, FxBuildHasher>,
}

impl RadixTable {
    /// Creates an empty table with `levels` levels (3, 4, or 5), allocating
    /// the root node from `alloc_node`.
    ///
    /// `alloc_node` must return distinct 4 KB-aligned addresses.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not 3, 4, or 5.
    pub fn new(levels: u8, alloc_node: &mut dyn FnMut() -> u64) -> Self {
        Self::with_root_widening(levels, 0, alloc_node)
    }

    /// Creates an empty table whose root level has `root_extra_bits` extra
    /// index bits — the RISC-V `x4` G-stage shape: a 2-bit-widened root
    /// holds `512 << 2` entries in a 16 KB root node.
    ///
    /// The widened root spans `1 << root_extra_bits` consecutive 4 KB
    /// frames, all drawn from `alloc_node`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not 3, 4, or 5, if `root_extra_bits > 2`, or
    /// if `alloc_node` does not produce contiguous frames for the widened
    /// root (bump allocators, as used by [`crate::TenantSpaceBuilder`],
    /// always do).
    pub fn with_root_widening(
        levels: u8,
        root_extra_bits: u8,
        alloc_node: &mut dyn FnMut() -> u64,
    ) -> Self {
        assert!(
            (3..=5).contains(&levels),
            "only 3-, 4-, and 5-level tables are modelled"
        );
        assert!(root_extra_bits <= 2, "root widening is at most 2 bits");
        let root = alloc_node();
        let mut nodes = HashSet::default();
        nodes.insert(root);
        // Reserve the rest of the widened root's span so no later node can
        // land inside it (root PTE addresses extend past the first frame).
        for chunk in 1..(1u64 << root_extra_bits) {
            let frame = alloc_node();
            assert!(
                frame == root + chunk * 4096,
                "widened root needs contiguous frames from the allocator"
            );
            nodes.insert(frame);
        }
        RadixTable {
            levels,
            root_extra_bits,
            root,
            nodes,
            entries: HashMap::default(),
        }
    }

    /// Returns the number of levels.
    pub const fn levels(&self) -> u8 {
        self.levels
    }

    /// Returns the extra index bits of the root level (0 unless this is a
    /// widened G-stage table).
    pub const fn root_extra_bits(&self) -> u8 {
        self.root_extra_bits
    }

    /// Returns the root node's base address.
    pub const fn root(&self) -> u64 {
        self.root
    }

    /// Returns the number of allocated table nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of populated PTEs (table pointers and leaves).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the base addresses of all allocated table nodes.
    ///
    /// Used by [`crate::TenantSpaceBuilder`] to map the guest table's own
    /// nodes into the host table (guest PTE reads are guest-physical
    /// accesses that need nested translation).
    pub fn node_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes.iter().copied()
    }

    fn index(&self, va: u64, level: u8) -> usize {
        // Every level extracts 9 bits above the 12-bit page offset; the
        // root level of a widened (x4) table extracts 9 + root_extra_bits.
        let entries = if level == self.levels {
            RADIX << self.root_extra_bits
        } else {
            RADIX
        };
        ((va >> (12 + 9 * (level as u64 - 1))) & (entries as u64 - 1)) as usize
    }

    /// Maps the page containing `va` to the frame at `target`, creating
    /// intermediate nodes with `alloc_node` as needed.
    ///
    /// `va` and `target` are truncated to the page boundary of `size`.
    ///
    /// # Errors
    ///
    /// Returns [`PageTableError::AlreadyMapped`] if the leaf slot is taken,
    /// or [`PageTableError::LevelConflict`] if an existing huge-page leaf
    /// blocks the path.
    pub fn map(
        &mut self,
        va: u64,
        target: u64,
        size: PageSize,
        alloc_node: &mut dyn FnMut() -> u64,
    ) -> Result<(), PageTableError> {
        let leaf_level = size.level();
        let mut node = self.root;
        for level in (leaf_level + 1..=self.levels).rev() {
            debug_assert!(self.nodes.contains(&node), "interior node must exist");
            let addr = node + self.index(va, level) as u64 * PTE_BYTES;
            node = match self.entries.get(&addr).copied() {
                Some(Pte::Table { next }) => next,
                Some(Pte::Leaf { .. }) => {
                    return Err(PageTableError::LevelConflict { va, level });
                }
                None => {
                    let next = alloc_node();
                    self.nodes.insert(next);
                    self.entries.insert(addr, Pte::Table { next });
                    next
                }
            };
        }
        let addr = node + self.index(va, leaf_level) as u64 * PTE_BYTES;
        if self.entries.contains_key(&addr) {
            return Err(PageTableError::AlreadyMapped { va });
        }
        self.entries.insert(
            addr,
            Pte::Leaf {
                target: target & !size.offset_mask(),
                size,
            },
        );
        Ok(())
    }

    /// Walks the table for `va`, returning the ordered PTE reads.
    ///
    /// # Errors
    ///
    /// Returns [`PageTableError::NotMapped`] if the walk reaches a vacant
    /// entry.
    pub fn walk(&self, va: u64) -> Result<WalkPath, PageTableError> {
        self.walk_inline(va).map(|path| path.to_walk_path())
    }

    /// Walks the table for `va` without heap allocation, returning the
    /// ordered PTE reads in inline storage.
    ///
    /// Identical semantics to [`RadixTable::walk`]; this is the hot-path
    /// variant the two-dimensional walker uses.
    ///
    /// # Errors
    ///
    /// Returns [`PageTableError::NotMapped`] if the walk reaches a vacant
    /// entry.
    pub fn walk_inline(&self, va: u64) -> Result<InlineWalkPath, PageTableError> {
        let mut path = InlineWalkPath {
            len: 0,
            pte_addrs: [0; MAX_LEVELS],
            ptes: [Pte::Table { next: 0 }; MAX_LEVELS],
            target_base: 0,
            size: PageSize::Size4K,
        };
        let mut node = self.root;
        for level in (1..=self.levels).rev() {
            let pte_addr = node + self.index(va, level) as u64 * PTE_BYTES;
            let entry = self
                .entries
                .get(&pte_addr)
                .copied()
                .ok_or(PageTableError::NotMapped { va, level })?;
            let step = path.len as usize;
            path.pte_addrs[step] = pte_addr;
            path.ptes[step] = entry;
            path.len += 1;
            match entry {
                Pte::Leaf { target, size } => {
                    path.target_base = target;
                    path.size = size;
                    return Ok(path);
                }
                Pte::Table { next } => node = next,
            }
        }
        // A 4-level walk always terminates at level >= 1 with a leaf or a
        // NotMapped error; reaching here means a level-1 table pointer,
        // which `map` can never create.
        unreachable!("level-1 entries are always leaves")
    }

    /// Returns the translated address for `va`, if mapped.
    pub fn translate(&self, va: u64) -> Option<u64> {
        self.walk_inline(va).ok().map(|path| path.translate(va))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump(from: u64) -> impl FnMut() -> u64 {
        let mut next = from;
        move || {
            let a = next;
            next += 4096;
            a
        }
    }

    #[test]
    fn map_and_walk_4k() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0x3480_0000, 0x7000_0000, PageSize::Size4K, &mut alloc)
            .unwrap();
        let path = t.walk(0x3480_0abc).unwrap();
        assert_eq!(path.ptes.len(), 4);
        assert_eq!(path.pte_addrs.len(), 4);
        assert_eq!(path.translate(0x3480_0abc), 0x7000_0abc);
        assert_eq!(path.size, PageSize::Size4K);
    }

    #[test]
    fn map_and_walk_2m() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0xbbe0_0000, 0x4000_0000, PageSize::Size2M, &mut alloc)
            .unwrap();
        let path = t.walk(0xbbe1_2345).unwrap();
        assert_eq!(path.ptes.len(), 3);
        assert_eq!(path.translate(0xbbe1_2345), 0x4001_2345);
    }

    #[test]
    fn unmapped_reports_level() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0x3480_0000, 0x7000_0000, PageSize::Size4K, &mut alloc)
            .unwrap();
        // Same L4/L3/L2 subtree, different L1 slot.
        let err = t.walk(0x3480_1000).unwrap_err();
        assert_eq!(
            err,
            PageTableError::NotMapped {
                va: 0x3480_1000,
                level: 1
            }
        );
        // Totally different subtree: fails at the root level.
        let err = t.walk(0xffff_ffff_f000).unwrap_err();
        assert!(matches!(err, PageTableError::NotMapped { level: 4, .. }));
    }

    #[test]
    fn double_map_rejected() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0x1000, 0x2000, PageSize::Size4K, &mut alloc).unwrap();
        let err = t.map(0x1fff, 0x3000, PageSize::Size4K, &mut alloc);
        assert_eq!(err, Err(PageTableError::AlreadyMapped { va: 0x1fff }));
    }

    #[test]
    fn four_kb_under_huge_page_conflicts() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0x20_0000, 0x4000_0000, PageSize::Size2M, &mut alloc)
            .unwrap();
        let err = t.map(0x20_1000, 0x5000_0000, PageSize::Size4K, &mut alloc);
        assert_eq!(
            err,
            Err(PageTableError::LevelConflict {
                va: 0x20_1000,
                level: 2
            })
        );
    }

    #[test]
    fn shared_interior_nodes_are_reused() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        // Two 4K pages in the same 2M region share L4/L3/L2 nodes.
        t.map(0xf000_0000, 0x1000, PageSize::Size4K, &mut alloc)
            .unwrap();
        let before = t.node_count();
        t.map(0xf000_1000, 0x2000, PageSize::Size4K, &mut alloc)
            .unwrap();
        assert_eq!(t.node_count(), before);
    }

    #[test]
    fn five_level_walk_has_five_steps() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(5, &mut alloc);
        t.map(0x1234_5678_9000, 0x4000, PageSize::Size4K, &mut alloc)
            .unwrap();
        assert_eq!(t.walk(0x1234_5678_9fff).unwrap().ptes.len(), 5);
    }

    #[test]
    fn pte_addrs_fall_inside_their_nodes() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0xbbe0_0000, 0x0, PageSize::Size2M, &mut alloc)
            .unwrap();
        let path = t.walk(0xbbe0_0000).unwrap();
        for addr in &path.pte_addrs {
            // Every PTE address sits inside some allocated 4K node.
            let node = addr & !0xfff;
            assert!(t.node_addrs().any(|n| n == node), "stray PTE at {addr:#x}");
        }
    }

    #[test]
    fn translate_shorthand() {
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(4, &mut alloc);
        t.map(0x5000, 0x9000, PageSize::Size4K, &mut alloc).unwrap();
        assert_eq!(t.translate(0x5042), Some(0x9042));
        assert_eq!(t.translate(0x6000), None);
    }

    #[test]
    #[should_panic(expected = "3-, 4-, and 5-level")]
    fn rejects_weird_level_counts() {
        let mut alloc = bump(0);
        let _ = RadixTable::new(2, &mut alloc);
    }

    #[test]
    fn three_level_walk_has_three_steps() {
        // Sv39-shaped guest table: 3 levels, 9-bit indices.
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(3, &mut alloc);
        t.map(0x3480_0000, 0x7000_0000, PageSize::Size4K, &mut alloc)
            .unwrap();
        let path = t.walk(0x3480_0abc).unwrap();
        assert_eq!(path.ptes.len(), 3);
        assert_eq!(path.translate(0x3480_0abc), 0x7000_0abc);
    }

    #[test]
    fn widened_root_reserves_contiguous_frames() {
        let mut alloc = bump(0x10_0000);
        let t = RadixTable::with_root_widening(3, 2, &mut alloc);
        // The 16 KB root occupies four consecutive frames...
        assert_eq!(t.node_count(), 4);
        for chunk in 0..4u64 {
            assert!(t.node_addrs().any(|n| n == 0x10_0000 + chunk * 4096));
        }
        // ...and the next allocation starts past them.
        assert_eq!(alloc(), 0x10_4000);
        assert_eq!(t.root_extra_bits(), 2);
    }

    #[test]
    fn widened_root_indexes_past_nine_bits() {
        // An Sv39x4 G-stage: root index covers bits [30, 41) — 11 bits.
        // Two GPAs 512 GiB apart alias in a 9-bit root but not in the
        // widened one.
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::with_root_widening(3, 2, &mut alloc);
        let low = 0x4000_0000u64; // root index 1
        let high = low + (512u64 << 30); // root index 513: needs widening
        t.map(low, 0x1000, PageSize::Size4K, &mut alloc).unwrap();
        t.map(high, 0x2000, PageSize::Size4K, &mut alloc).unwrap();
        assert_eq!(t.translate(low), Some(0x1000));
        assert_eq!(t.translate(high), Some(0x2000));
        // The two root PTEs really are distinct slots.
        let a = t.walk(low).unwrap().pte_addrs[0];
        let b = t.walk(high).unwrap().pte_addrs[0];
        assert_eq!(b - a, 512 * PTE_BYTES);
    }

    #[test]
    fn one_gig_leaf_at_sv39_root() {
        // Sv39 supports a 1 GiB "gigapage" leaf in its root level: the
        // walk is a single step.
        let mut alloc = bump(0x10_0000);
        let mut t = RadixTable::new(3, &mut alloc);
        t.map(0x8000_0000, 0x1_0000_0000, PageSize::Size1G, &mut alloc)
            .unwrap();
        let path = t.walk(0x8000_1234).unwrap();
        assert_eq!(path.ptes.len(), 1);
        assert_eq!(path.translate(0x8000_1234), 0x1_0000_1234);
        assert_eq!(path.size, PageSize::Size1G);
    }

    #[test]
    fn error_display() {
        let e = PageTableError::NotMapped { va: 0x10, level: 2 };
        assert!(format!("{e}").contains("not mapped"));
    }
}

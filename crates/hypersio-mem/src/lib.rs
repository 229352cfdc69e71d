//! Memory-translation substrate for the HyperTRIO/HyperSIO reproduction.
//!
//! This crate builds everything the IOMMU side of the model needs:
//!
//! - [`WalkGeometry`]: the architecture parameterization — guest/host
//!   level counts, G-stage root widening, supported superpage levels — for
//!   x86 nested paging and RISC-V Sv39x4/Sv48x4 two-stage translation.
//! - [`RadixTable`]: a synthetic 3-, 4-, or 5-level radix page table whose
//!   nodes are placed at concrete addresses in their owning address space,
//!   so a walker can enumerate the *exact* memory reads a hardware
//!   page-table walk would perform.
//! - [`TenantSpace`]: a pair of tables — the guest table (gIOVA → gPA,
//!   its nodes living in guest-physical memory) and the host table
//!   (gPA → hPA) — built from the tenants' shared page inventory, and
//!   [`TenantView`]: that one build seen as any tenant, whose host side
//!   sits in its own slab (a DID plus one host delta, no copied tables).
//! - [`TwoDimWalker`]: the two-dimensional walk of the paper's Fig 2: every
//!   guest-level PTE read requires a nested host walk, giving 24 memory
//!   accesses for a 4 KB mapping (19 for a 2 MB mapping) on a full miss.
//! - [`WalkCaches`]: the L2/L3 page caches of Table II (partitionable per
//!   Table IV), which let the walker skip upper guest levels.
//! - [`ContextCache`]: BDF → context-entry cache ("CC" in the paper's
//!   Fig 3).
//! - [`Dram`]: fixed-latency DRAM with access accounting.
//! - [`Iommu`]: the assembled translation pipeline with per-request latency
//!   and statistics.
//!
//! # Examples
//!
//! ```
//! use hypersio_mem::{Iommu, IommuParams, TenantSpace};
//! use hypersio_types::{Did, GIova, PageSize, Sid};
//!
//! let mut canonical = TenantSpace::builder(Did::new(0));
//! canonical.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
//! // One tenant translating through the canonical build.
//! let mut iommu = Iommu::new(IommuParams::paper(), canonical.build(), 1);
//! let resp = iommu
//!     .translate(Sid::new(0), Did::new(0), GIova::new(0xbbe0_1234), 0)
//!     .expect("page is mapped");
//! // Context fetch (2 reads) + full two-dimensional walk for a 2 MB page
//! // (19 reads): 21 DRAM accesses in total.
//! assert_eq!(resp.dram_accesses, 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod dram;
mod geometry;
mod iommu;
mod page_table;
mod snapshot;
mod space;
mod walk_cache;
mod walker;

pub use context::{ContextCache, ContextEntry};
pub use dram::Dram;
pub use geometry::WalkGeometry;
pub use iommu::{Iommu, IommuParams, IommuResponse, IommuStats, TranslationScheme};
pub use page_table::{InlineWalkPath, PageTableError, Pte, RadixTable, WalkPath};
pub use space::{TenantSpace, TenantSpaceBuilder, TenantView};
pub use walk_cache::{NestedKey, WalkCacheConfig, WalkCacheKey, WalkCaches};
pub use walker::{TranslationFault, TwoDimWalker, WalkOutcome};

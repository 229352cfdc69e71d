//! Core identifier, address, time, and bandwidth types shared by every crate
//! in the HyperTRIO/HyperSIO reproduction.
//!
//! The paper's translation pipeline moves several kinds of values around that
//! are all "just integers" at the hardware level but must never be confused
//! with one another: guest I/O virtual addresses ([`GIova`]), guest physical
//! addresses ([`GPa`]), host physical addresses ([`HPa`]), PCIe requester IDs
//! ([`Bdf`] / [`Sid`]), IOMMU domain IDs ([`Did`]), and simulation timestamps
//! ([`SimTime`]). This crate gives each its own newtype so the type system
//! enforces the distinctions (e.g. a DevTLB can only be indexed by a
//! `(Sid, GIova)` pair, and a page-table walk can only return an [`HPa`]).
//!
//! # Examples
//!
//! ```
//! use hypersio_types::{GIova, PageSize, Sid};
//!
//! let sid = Sid::new(7);
//! let iova = GIova::new(0xbbe0_1234);
//! assert_eq!(iova.page(PageSize::Size2M).base().raw(), 0xbbe0_0000);
//! assert_eq!(sid.raw(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod bandwidth;
pub mod fxhash;
mod id;
pub mod json;
mod rng;
mod time;

pub use addr::{GIova, GPa, HPa, Page, PageSize};
pub use bandwidth::{Bandwidth, Bytes};
pub use id::{Bdf, Did, Pasid, Sid};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};

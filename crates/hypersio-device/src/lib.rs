//! I/O-device substrate for the HyperTRIO/HyperSIO reproduction.
//!
//! Models the device-side plumbing that is *not* part of HyperTRIO's
//! contribution but that the performance model needs:
//!
//! - [`PacketSpec`]: wire sizing of the fixed-size Ethernet frames the
//!   paper simulates (1542 B including the inter-packet gap, Table II).
//! - [`Link`]: a saturated I/O link — packets arrive back-to-back at the
//!   nominal bandwidth, which is how HyperSIO schedules arrivals (§IV-C).
//! - [`Pcie`]: the device ↔ chipset traversal latency (450 ns one-way,
//!   Table II).
//! - [`SriovDevice`]: SR-IOV PF/VF enumeration and the PF-interleaved VF
//!   assignment of the §II case study.
//!
//! # Examples
//!
//! ```
//! use hypersio_device::{Link, PacketSpec};
//! use hypersio_types::Bandwidth;
//!
//! let link = Link::new(Bandwidth::from_gbps(200), PacketSpec::ethernet());
//! assert_eq!(link.inter_arrival().as_ps(), 61_680); // 61.68 ns per frame
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod packet;
mod pcie;
mod sriov;

pub use link::Link;
pub use packet::PacketSpec;
pub use pcie::Pcie;
pub use sriov::{SriovDevice, VirtualFunction};

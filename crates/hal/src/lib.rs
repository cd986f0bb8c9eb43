//! Simulated paged hardware substrate for the Chorus GMI/PVM reproduction.
//!
//! The SOSP '89 paper ("Generic Virtual Memory Management for Operating
//! System Kernels", Abrossimov, Rozier, Shapiro) runs the PVM on real
//! MC68020 hardware with several MMUs. This crate provides the laptop-scale
//! substitute: a pool of physical page frames with *real backing bytes*, a
//! small hardware-independent [`Mmu`] trait (the paper's "machine-dependent
//! part of the PVM" boundary), two independent MMU back-ends exercised by a
//! shared conformance suite, a TLB model, and a deterministic [`cost`]
//! model so that the paper's timing tables can be regenerated with the
//! calibrated Sun-3/60 primitive costs.
//!
//! Nothing in this crate knows about caches, segments or history objects;
//! those live above, in `chorus-pvm`.

#![forbid(unsafe_code)]

pub mod addr;
pub mod arena;
pub mod clock;
#[cfg(test)]
pub(crate) mod conformance;
pub mod cost;
pub mod frame;
pub mod fx;
pub mod mmu;
pub mod soft_mmu;
pub mod tlb;
pub mod two_level;

pub use addr::{PageGeometry, PhysAddr, VirtAddr, Vpn};
pub use arena::{Arena, Id};
pub use clock::{TraceClock, TraceStamp};
pub use cost::{CostModel, CostParams, OpKind, SimTime};
pub use frame::{FrameNo, MemStats, PhysicalMemory};
pub use fx::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mmu::{Access, Mmu, MmuCtx, MmuFault, Prot};
pub use soft_mmu::SoftMmu;
pub use tlb::TlbStats;
pub use two_level::TwoLevelMmu;

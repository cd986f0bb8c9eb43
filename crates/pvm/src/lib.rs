//! The PVM: the paper's demand-paged implementation of the GMI (§4).
//!
//! The Paged Virtual memory Manager implements the Generic Memory
//! management Interface for paged architectures. It is characterized by
//! (§4):
//!
//! - support for large, sparse segments and large virtual address spaces:
//!   the size of every management structure depends only on the amount of
//!   physical memory in use, never on segment or address-space sizes;
//! - efficient deferred copy: the novel **history object** technique for
//!   large fragments ([`history`](crate::Pvm)) and a **per-virtual-page**
//!   technique for small fragments such as IPC messages, both supporting
//!   copy-on-write and copy-on-reference;
//! - a machine-independent core over the small [`chorus_hal::Mmu`]
//!   interface, reproducing the paper's easy portability across MMUs.
//!
//! The central data structures follow Figure 2 of the paper: context
//! descriptors with sorted region lists, cache descriptors with their
//! resident page sets and history links, real-page descriptors with
//! reverse mappings, and a single **global map** hashing page slots by
//! (cache, offset). A slot can hold a real page, a *synchronization page
//! stub* (page in transit during `pullIn`/`pushOut`; concurrent accessors
//! block), or a *copy-on-write page stub* (per-virtual-page deferred
//! copy).
//!
//! The public type is [`Pvm`], which implements [`chorus_gmi::Gmi`].

#![forbid(unsafe_code)]

mod cachectl;
mod clock;
mod config;
mod copy;
mod debug;
mod descriptors;
mod domains;
mod engine;
mod fault;
mod gmap;
mod history;
mod keys;
#[cfg(test)]
mod modelcheck;
mod pageout;
mod perpage;
pub mod policy;
mod pvm;
pub mod pvmtop;
mod regions;
mod resolve;
mod state;
mod stats;
pub mod telemetry;
pub mod trace;

pub use config::{PagingSection, PvmConfig, PvmConfigBuilder, TelemetrySection};
pub use debug::{CacheDump, SlotDump, TreeDump};
pub use policy::ReplacementKind;
pub use pvm::{MmuChoice, Pvm, PvmOptions};
pub use pvmtop::{CacheHeat, MapperHealth, MapperState, PhaseLatency, PvmTop};
pub use stats::{Counter, PvmStats, StatsRegistry};
pub use telemetry::{Dim, DimCounter, Telemetry, TelemetrySample};
pub use trace::{TraceConfig, TraceSink, Tracer};

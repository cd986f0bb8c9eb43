//! The Generic Memory management Interface (GMI).
//!
//! This crate is the reproduction of §3 of the paper: the generic,
//! kernel-independent, architecture-independent interface between an
//! operating-system kernel and a pluggable memory manager.
//!
//! - [`Gmi`] is the downward interface (paper Tables 1, 2 and 4): segment
//!   access through caches (`copy`/`move`), address-space management
//!   (contexts, regions), and cache management (`flush`, `sync`,
//!   `invalidate`, protection and pinning control).
//! - [`SegmentManagerV2`] is the upward interface (paper Table 3): the
//!   upcalls a memory manager performs against segment managers to move
//!   data between a cache and its segment, in typed request/completion
//!   form ([`PullRequest`], [`PushRequest`], [`Completion`]).
//! - [`CacheIo`] is the subset of Table 4 a segment manager uses *while
//!   servicing an upcall* (`fillUp`, `copyBack`, `moveBack`): unlike the
//!   Table 1 `copy`/`move` operations these never fault — they are used to
//!   resolve faults. Its `_pages` forms move [`Page`]s by reference, so a
//!   page changes hands between a mapper and a cache without a copy.
//!
//! Two memory managers implement this interface in the workspace: the
//! paper's PVM with history objects (`chorus-pvm`) and a Mach-style
//! shadow-object baseline (`chorus-shadow`). Everything above the GMI
//! (the Nucleus layer, Chorus/MIX, the benches) is generic over [`Gmi`],
//! reproducing the paper's "replaceable unit" property.

pub mod completion;
pub mod conformance;
pub mod error;
pub mod ids;
pub mod retry;
pub mod testing;
pub mod traits;
pub mod types;

pub use completion::CompletionQueue;
pub use error::{GmiError, Result};
pub use ids::{CacheId, CtxId, RegionId, SegmentId};
pub use retry::RetryPolicy;
pub use traits::{
    CacheIo, Completion, Gmi, PullRequest, PushRequest, SegmentManagerV2, SyncShim, UpcallRequest,
};
pub use types::{CopyMode, RegionStatus};

// Hardware-level types used throughout the interface.
pub use chorus_hal::{Access, Page, PageGeometry, Prot, VirtAddr};

//! GMI error type.
//!
//! The paper's interface "does not check for logical errors … assumed to
//! have been checked by the upper layers", but "other problems, such as
//! resource exhaustion, may cause error returns". This implementation is
//! stricter than the paper's C++ original — logical errors are reported
//! instead of being undefined behaviour — because a Rust library should
//! never exhibit UB at a safe API.

use crate::ids::{CacheId, CtxId, RegionId, SegmentId};
use chorus_hal::{Access, VirtAddr};
use core::fmt;

/// Result alias used across the GMI.
pub type Result<T> = core::result::Result<T, GmiError>;

/// Errors returned by GMI operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmiError {
    /// The context handle does not name a live context.
    NoSuchContext(CtxId),
    /// The region handle does not name a live region.
    NoSuchRegion(RegionId),
    /// The cache handle does not name a live cache.
    NoSuchCache(CacheId),
    /// A new region would overlap an existing one (§2: regions are
    /// non-overlapping).
    RegionOverlap {
        /// Context in which the overlap occurs.
        ctx: CtxId,
        /// Start of the conflicting request.
        addr: VirtAddr,
        /// Size of the conflicting request.
        size: u64,
    },
    /// An access hit no region of the context ("segmentation fault",
    /// §4.1.2).
    SegmentationFault {
        /// Context of the faulting access.
        ctx: CtxId,
        /// Faulting virtual address.
        va: VirtAddr,
        /// Attempted access.
        access: Access,
    },
    /// The region exists but forbids the access (protection violation that
    /// no deferred-copy mechanism can resolve).
    ProtectionViolation {
        /// Context of the faulting access.
        ctx: CtxId,
        /// Faulting virtual address.
        va: VirtAddr,
        /// Attempted access.
        access: Access,
    },
    /// Physical memory is exhausted and page replacement found no victim.
    OutOfMemory,
    /// An address, offset or size violated page alignment requirements.
    Unaligned {
        /// The offending value.
        value: u64,
        /// What was being checked.
        what: &'static str,
    },
    /// An offset/size pair exceeded its object's bounds.
    OutOfRange {
        /// The offending offset.
        offset: u64,
        /// The requested size.
        size: u64,
        /// What was being indexed.
        what: &'static str,
    },
    /// A segment manager upcall failed.
    SegmentIo {
        /// The segment whose I/O failed.
        segment: SegmentId,
        /// Human-readable cause.
        cause: String,
        /// Whether the failure is worth retrying: `true` for conditions
        /// expected to heal (a dropped mapper reply, a truncated read,
        /// transient device congestion), `false` for failures the mapper
        /// itself declares final (bad capability, media error, access
        /// denied). Retry policy and cache quarantine key off this flag.
        transient: bool,
    },
    /// A mapper upcall exceeded its (simulated-time) deadline, including
    /// all retries. Always considered transient: a later operation may
    /// find the mapper responsive again.
    MapperTimeout {
        /// The segment whose mapper timed out.
        segment: SegmentId,
    },
    /// The mapper behind a segment is permanently gone (crashed port,
    /// unregistered mapper). Never retried; triggers cache quarantine.
    MapperUnavailable {
        /// The orphaned segment.
        segment: SegmentId,
    },
    /// The cache was quarantined after a permanent mapper failure:
    /// operations on it fail cleanly instead of exposing pages whose
    /// backing store is unreachable or inconsistent.
    CachePoisoned(CacheId),
    /// The operation conflicts with a memory lock (`lockInMemory`).
    Locked,
    /// A structurally invalid argument (e.g. zero-size region, split at
    /// offset 0, copy with overlapping source and destination ranges).
    InvalidArgument(&'static str),
    /// The operation is not supported by this memory manager
    /// implementation (e.g. the minimal real-time MM of §5.2).
    Unsupported(&'static str),
}

impl fmt::Display for GmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmiError::NoSuchContext(id) => write!(f, "no such context {id:?}"),
            GmiError::NoSuchRegion(id) => write!(f, "no such region {id:?}"),
            GmiError::NoSuchCache(id) => write!(f, "no such cache {id:?}"),
            GmiError::RegionOverlap { ctx, addr, size } => {
                write!(
                    f,
                    "region [{addr:?}+{size:#x}) overlaps an existing region of {ctx:?}"
                )
            }
            GmiError::SegmentationFault { ctx, va, access } => {
                write!(f, "segmentation fault: {access:?} at {va:?} in {ctx:?}")
            }
            GmiError::ProtectionViolation { ctx, va, access } => {
                write!(f, "protection violation: {access:?} at {va:?} in {ctx:?}")
            }
            GmiError::OutOfMemory => write!(f, "out of physical memory"),
            GmiError::Unaligned { value, what } => {
                write!(f, "{what} {value:#x} is not page aligned")
            }
            GmiError::OutOfRange { offset, size, what } => {
                write!(f, "range [{offset:#x}+{size:#x}) out of bounds for {what}")
            }
            GmiError::SegmentIo {
                segment,
                cause,
                transient,
            } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "{kind} segment I/O error on {segment:?}: {cause}")
            }
            GmiError::MapperTimeout { segment } => {
                write!(f, "mapper deadline exceeded for {segment:?}")
            }
            GmiError::MapperUnavailable { segment } => {
                write!(f, "mapper permanently unavailable for {segment:?}")
            }
            GmiError::CachePoisoned(cache) => {
                write!(
                    f,
                    "cache {cache:?} is quarantined after a permanent mapper failure"
                )
            }
            GmiError::Locked => write!(f, "page is locked in memory"),
            GmiError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            GmiError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl GmiError {
    /// A transient [`GmiError::SegmentIo`]: a failure expected to heal
    /// (dropped reply, truncated read, device congestion), eligible for
    /// retry under the [`RetryPolicy`](crate::RetryPolicy).
    pub fn transient_io(segment: SegmentId, cause: impl Into<String>) -> GmiError {
        GmiError::SegmentIo {
            segment,
            cause: cause.into(),
            transient: true,
        }
    }

    /// A permanent [`GmiError::SegmentIo`]: a failure the mapper declares
    /// final (bad capability, media error, access denied). Never retried;
    /// pull/push failures of this class quarantine the affected cache.
    pub fn permanent_io(segment: SegmentId, cause: impl Into<String>) -> GmiError {
        GmiError::SegmentIo {
            segment,
            cause: cause.into(),
            transient: false,
        }
    }

    /// True if retrying the failed operation could plausibly succeed.
    ///
    /// Drives the PVM's [`RetryPolicy`](crate::RetryPolicy): transient
    /// errors are retried with backoff until the per-upcall deadline;
    /// permanent errors propagate immediately (and, for pull/push
    /// failures, quarantine the affected cache).
    pub fn is_transient(&self) -> bool {
        match self {
            GmiError::SegmentIo { transient, .. } => *transient,
            GmiError::MapperTimeout { .. } => true,
            _ => false,
        }
    }
}

impl std::error::Error for GmiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GmiError::SegmentationFault {
            ctx: CtxId::pack(1, 0),
            va: VirtAddr(0x4000),
            access: Access::Write,
        };
        let s = e.to_string();
        assert!(s.contains("segmentation fault"), "{s}");
        assert!(s.contains("0x4000"), "{s}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GmiError::OutOfMemory, GmiError::OutOfMemory);
        assert_ne!(GmiError::OutOfMemory, GmiError::Locked);
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(GmiError::Locked);
        assert_eq!(e.to_string(), "page is locked in memory");
    }

    #[test]
    fn transient_classification() {
        let transient = GmiError::SegmentIo {
            segment: SegmentId(1),
            cause: "dropped reply".into(),
            transient: true,
        };
        let permanent = GmiError::SegmentIo {
            segment: SegmentId(1),
            cause: "bad capability".into(),
            transient: false,
        };
        assert!(transient.is_transient());
        assert!(!permanent.is_transient());
        assert!(GmiError::MapperTimeout {
            segment: SegmentId(2)
        }
        .is_transient());
        assert!(!GmiError::MapperUnavailable {
            segment: SegmentId(2)
        }
        .is_transient());
        assert!(!GmiError::CachePoisoned(CacheId::pack(1, 0)).is_transient());
        assert!(!GmiError::OutOfMemory.is_transient());
    }

    #[test]
    fn display_names_failure_class() {
        let e = GmiError::SegmentIo {
            segment: SegmentId(3),
            cause: "x".into(),
            transient: true,
        };
        assert!(e.to_string().starts_with("transient"), "{e}");
        let e = GmiError::CachePoisoned(CacheId::pack(7, 0));
        assert!(e.to_string().contains("quarantined"), "{e}");
    }
}

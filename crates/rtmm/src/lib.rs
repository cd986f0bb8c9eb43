//! The minimal GMI implementation for embedded real-time systems.
//!
//! §5.2 of the paper lists three implementations of the GMI in the
//! Chorus Nucleus: the PVM, "a minimal implementation, suited for
//! embedded real-time systems and small hardware configurations", and
//! the Nucleus-simulator one. This crate is the minimal one:
//!
//! - memory is **fully resident**: faults allocate immediately and
//!   nothing is ever paged out, so `lockInMemory` is trivially satisfied
//!   and access latencies are bounded (the real-time property);
//! - copies are **eager** — no history objects, no per-page stubs, no
//!   deferred anything: every `cache.copy` materializes destination
//!   pages at once (deterministic cost, the real-time trade-off);
//! - segments work through the typed upcall interface
//!   ([`SegmentManagerV2`](chorus_gmi::SegmentManagerV2)): mapped
//!   files are pulled in on first touch and `sync` / `flush` push dirty
//!   data back, so the same kernel layers run unchanged (the
//!   replaceability property of §5.2).
//!
//! Everything above the GMI — the Nucleus, Chorus/MIX, the benches —
//! runs on this manager without modification; the
//! `tests/replaceable_mm.rs` suite in the workspace root holds it to
//! the same observable behaviour as the PVM.

mod mm;

pub use mm::{MinimalMm, MinimalOptions, MinimalStats};

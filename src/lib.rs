//! Facade crate for the Chorus GMI/PVM reproduction.
//!
//! Re-exports the public API of every workspace crate so examples and
//! downstream users can depend on a single crate. See the README for the
//! architecture and DESIGN.md for the paper-to-module map.

pub use chorus_gmi as gmi;
pub use chorus_hal as hal;
pub use chorus_mix as mix;
pub use chorus_nucleus as nucleus;
pub use chorus_pvm as pvm;
pub use chorus_rtmm as rtmm;
pub use chorus_shadow as shadow;

/// Compiles the README's Rust example with the doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

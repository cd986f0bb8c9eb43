//! The hardware-independent MMU interface.
//!
//! This trait is the reproduction of the paper's "hardware-independent PVM
//! interface" (§3.1): the few MMU dependencies of the PVM are insulated
//! behind it, and porting to a new MMU means implementing this trait only.
//! Two back-ends are provided ([`crate::SoftMmu`] and
//! [`crate::TwoLevelMmu`]) and validated by one conformance suite, which
//! reproduces the paper's portability claim (§5.2) in simulation.

use crate::addr::{PageGeometry, PhysAddr, VirtAddr, Vpn};
use crate::frame::FrameNo;
use core::fmt;

/// Hardware page protection bits (§3.2: read/write/execute, user/system).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prot(u8);

impl Prot {
    /// No access at all.
    pub const NONE: Prot = Prot(0);
    /// Read permission.
    pub const READ: Prot = Prot(1);
    /// Write permission.
    pub const WRITE: Prot = Prot(2);
    /// Execute permission.
    pub const EXECUTE: Prot = Prot(4);
    /// System-only: user-mode accesses fault regardless of other bits.
    pub const SYSTEM: Prot = Prot(8);
    /// Read + write.
    pub const RW: Prot = Prot(1 | 2);
    /// Read + execute (a text segment).
    pub const RX: Prot = Prot(1 | 4);
    /// Read + write + execute.
    pub const RWX: Prot = Prot(1 | 2 | 4);

    /// True if all bits of `other` are present in `self`.
    #[inline]
    pub fn contains(self, other: Prot) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two protections.
    #[inline]
    pub fn union(self, other: Prot) -> Prot {
        Prot(self.0 | other.0)
    }

    /// Intersection of two protections.
    #[inline]
    pub fn intersect(self, other: Prot) -> Prot {
        Prot(self.0 & other.0)
    }

    /// `self` with the bits of `other` removed.
    #[inline]
    pub fn remove(self, other: Prot) -> Prot {
        Prot(self.0 & !other.0)
    }

    /// True if no access bits are set.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 & (1 | 2 | 4) == 0
    }

    /// True if this protection allows the given kind of access from the
    /// given privilege level.
    #[inline]
    pub fn allows(self, access: Access, system_mode: bool) -> bool {
        if self.contains(Prot::SYSTEM) && !system_mode {
            return false;
        }
        match access {
            Access::Read => self.contains(Prot::READ),
            Access::Write => self.contains(Prot::WRITE),
            Access::Execute => self.contains(Prot::EXECUTE),
        }
    }
}

impl fmt::Debug for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        s.push(if self.contains(Prot::READ) { 'r' } else { '-' });
        s.push(if self.contains(Prot::WRITE) { 'w' } else { '-' });
        s.push(if self.contains(Prot::EXECUTE) {
            'x'
        } else {
            '-'
        });
        if self.contains(Prot::SYSTEM) {
            s.push('s');
        }
        f.write_str(&s)
    }
}

/// The kind of memory access being attempted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl Access {
    /// The protection bit this access requires.
    pub fn required(self) -> Prot {
        match self {
            Access::Read => Prot::READ,
            Access::Write => Prot::WRITE,
            Access::Execute => Prot::EXECUTE,
        }
    }
}

/// A fault raised by the MMU during translation — the simulation analogue
/// of the hardware trap whose descriptor "holds the virtual address of the
/// fault" (§4.1.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MmuFault {
    /// No translation exists for the page.
    NotMapped {
        /// The faulting virtual address.
        va: VirtAddr,
        /// The attempted access.
        access: Access,
    },
    /// A translation exists but forbids the access.
    ProtectionViolation {
        /// The faulting virtual address.
        va: VirtAddr,
        /// The attempted access.
        access: Access,
        /// The protection found in the translation.
        prot: Prot,
    },
}

impl MmuFault {
    /// The faulting virtual address.
    pub fn va(&self) -> VirtAddr {
        match *self {
            MmuFault::NotMapped { va, .. } | MmuFault::ProtectionViolation { va, .. } => va,
        }
    }

    /// The attempted access.
    pub fn access(&self) -> Access {
        match *self {
            MmuFault::NotMapped { access, .. } | MmuFault::ProtectionViolation { access, .. } => {
                access
            }
        }
    }
}

/// An MMU-level address-space handle.
///
/// This is the machine-dependent notion of a context: the PVM's context
/// descriptors hold one of these.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MmuCtx(pub u32);

/// The machine-dependent MMU interface.
///
/// Everything a paged memory manager needs from the hardware: create and
/// switch translation contexts, enter/remove/re-protect page mappings, and
/// translate addresses (raising faults). Implementations charge their
/// operations to the shared cost model.
pub trait Mmu: Send {
    /// The page geometry this MMU was configured with.
    fn geometry(&self) -> PageGeometry;

    /// Creates a new, empty translation context.
    fn ctx_create(&mut self) -> MmuCtx;

    /// Destroys a context and all its mappings.
    fn ctx_destroy(&mut self, ctx: MmuCtx);

    /// Makes `ctx` the current context (flushes the TLB).
    fn switch(&mut self, ctx: MmuCtx);

    /// The currently active context, if any.
    fn current(&self) -> Option<MmuCtx>;

    /// Enters a mapping `vpn -> frame` with protection `prot`, replacing
    /// any previous mapping for `vpn`. The new entry's referenced bit is
    /// clear.
    fn map(&mut self, ctx: MmuCtx, vpn: Vpn, frame: FrameNo, prot: Prot);

    /// Removes the mapping for `vpn`, returning the frame it pointed at.
    fn unmap(&mut self, ctx: MmuCtx, vpn: Vpn) -> Option<FrameNo>;

    /// Changes the protection of an existing mapping, keeping its
    /// referenced bit. Returns false if `vpn` was not mapped.
    fn protect(&mut self, ctx: MmuCtx, vpn: Vpn, prot: Prot) -> bool;

    /// Reads back a mapping without touching the TLB or charging costs.
    fn query(&self, ctx: MmuCtx, vpn: Vpn) -> Option<(FrameNo, Prot)>;

    /// Translates a virtual address for an access, consulting the TLB.
    ///
    /// A translation that *walks the table* to a mapping allowing the
    /// access sets that mapping's referenced bit, as the hardware does.
    /// A TLB hit leaves the bit alone (it was set when the entry was
    /// loaded), and a faulting translation sets nothing.
    ///
    /// # Errors
    ///
    /// Returns the fault the hardware would raise: [`MmuFault::NotMapped`]
    /// or [`MmuFault::ProtectionViolation`].
    fn translate(
        &mut self,
        ctx: MmuCtx,
        va: VirtAddr,
        access: Access,
        system_mode: bool,
    ) -> Result<PhysAddr, MmuFault>;

    /// Reads the referenced bit of the mapping at `vpn` (false if there
    /// is none) without touching the TLB or charging costs.
    fn referenced(&self, ctx: MmuCtx, vpn: Vpn) -> bool;

    /// Test-and-clears the referenced bit of the mapping at `vpn` and
    /// invalidates that page's TLB entry if `ctx` is current, so the
    /// next access walks the table and sets the bit again.
    fn take_referenced(&mut self, ctx: MmuCtx, vpn: Vpn) -> bool;

    /// Number of live mappings in a context (for assertions and stats).
    fn mapped_count(&self, ctx: MmuCtx) -> usize;

    /// The mappings of `ctx` at vpns in `lo..=hi`, as (vpn, frame) pairs
    /// in vpn order, without touching the TLB or charging costs.
    ///
    /// The work follows what is mapped, not the width of the range: a
    /// region's teardown asks for its whole (possibly huge and sparse)
    /// range and finds the few pages it holds. There is deliberately no
    /// default body: probing each vpn with [`Mmu::query`] would be that
    /// width-bound walk, and would reach vpns a back-end cannot index.
    fn mapped_in(&self, ctx: MmuCtx, lo: Vpn, hi: Vpn) -> Vec<(Vpn, FrameNo)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prot_bit_algebra() {
        assert!(Prot::RW.contains(Prot::READ));
        assert!(Prot::RW.contains(Prot::WRITE));
        assert!(!Prot::READ.contains(Prot::WRITE));
        assert_eq!(Prot::READ.union(Prot::WRITE), Prot::RW);
        assert_eq!(Prot::RW.remove(Prot::WRITE), Prot::READ);
        assert_eq!(Prot::RW.intersect(Prot::RX), Prot::READ);
        assert!(Prot::NONE.is_none());
        assert!(!Prot::READ.is_none());
        // SYSTEM alone has no access bits.
        assert!(Prot::SYSTEM.is_none());
    }

    #[test]
    fn prot_allows_by_access_kind() {
        assert!(Prot::READ.allows(Access::Read, false));
        assert!(!Prot::READ.allows(Access::Write, false));
        assert!(Prot::RX.allows(Access::Execute, false));
        assert!(!Prot::RW.allows(Access::Execute, false));
    }

    #[test]
    fn system_pages_fault_for_user_mode() {
        let p = Prot::RW.union(Prot::SYSTEM);
        assert!(!p.allows(Access::Read, false));
        assert!(p.allows(Access::Read, true));
        assert!(p.allows(Access::Write, true));
    }

    #[test]
    fn prot_debug_format() {
        assert_eq!(format!("{:?}", Prot::RW), "rw-");
        assert_eq!(format!("{:?}", Prot::RX), "r-x");
        assert_eq!(format!("{:?}", Prot::RW.union(Prot::SYSTEM)), "rw-s");
        assert_eq!(format!("{:?}", Prot::NONE), "---");
    }

    #[test]
    fn fault_accessors() {
        let f = MmuFault::NotMapped {
            va: VirtAddr(0x2000),
            access: Access::Write,
        };
        assert_eq!(f.va(), VirtAddr(0x2000));
        assert_eq!(f.access(), Access::Write);
        let g = MmuFault::ProtectionViolation {
            va: VirtAddr(0x3000),
            access: Access::Write,
            prot: Prot::READ,
        };
        assert_eq!(g.va(), VirtAddr(0x3000));
    }
}

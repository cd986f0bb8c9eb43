//! Virtual/physical address types and page geometry.
//!
//! The paper's testbed (a Sun-3/60) used 8 KB pages; the geometry is kept
//! runtime-configurable so tests can use tiny pages and benches can use the
//! paper's size.

use core::fmt;

/// A virtual address inside some context (address space).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical address inside the simulated frame pool.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual page number (virtual address divided by the page size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl VirtAddr {
    /// Returns the raw address value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by a byte offset.
    #[inline]
    pub fn offset_by(self, off: u64) -> VirtAddr {
        VirtAddr(self.0 + off)
    }
}

impl PhysAddr {
    /// Returns the raw address value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Vpn {
    /// Returns the next virtual page number.
    #[inline]
    pub fn next(self) -> Vpn {
        Vpn(self.0 + 1)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// Page geometry: the page size and derived helpers.
///
/// The page size must be a power of two, at least 16 bytes. All address
/// splitting in the simulator goes through this type so that the page size
/// is configured exactly once per machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageGeometry {
    page_size: u64,
    page_shift: u32,
}

impl PageGeometry {
    /// The paper's testbed page size (Sun-3/60, 8 KB pages).
    pub const SUN3_PAGE_SIZE: u64 = 8 * 1024;

    /// Creates a geometry for the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or is smaller than 16.
    pub fn new(page_size: u64) -> PageGeometry {
        assert!(
            page_size.is_power_of_two() && page_size >= 16,
            "page size must be a power of two >= 16, got {page_size}"
        );
        PageGeometry {
            page_size,
            page_shift: page_size.trailing_zeros(),
        }
    }

    /// Geometry matching the paper's Sun-3/60 testbed.
    pub fn sun3() -> PageGeometry {
        PageGeometry::new(Self::SUN3_PAGE_SIZE)
    }

    /// Returns the page size in bytes.
    #[inline]
    pub fn page_size(self) -> u64 {
        self.page_size
    }

    /// Returns the virtual page number containing `va`.
    #[inline]
    pub fn vpn(self, va: VirtAddr) -> Vpn {
        Vpn(va.0 >> self.page_shift)
    }

    /// Returns the byte offset of `va` within its page.
    #[inline]
    pub fn page_offset(self, va: VirtAddr) -> u64 {
        va.0 & (self.page_size - 1)
    }

    /// Returns the base virtual address of a page.
    #[inline]
    pub fn base(self, vpn: Vpn) -> VirtAddr {
        VirtAddr(vpn.0 << self.page_shift)
    }

    /// Returns true if `v` is page-aligned.
    #[inline]
    pub fn is_aligned(self, v: u64) -> bool {
        v & (self.page_size - 1) == 0
    }

    /// Rounds `v` down to a page boundary.
    #[inline]
    pub fn round_down(self, v: u64) -> u64 {
        v & !(self.page_size - 1)
    }

    /// Rounds `v` up to a page boundary.
    #[inline]
    pub fn round_up(self, v: u64) -> u64 {
        (v + self.page_size - 1) & !(self.page_size - 1)
    }

    /// Number of pages needed to cover `len` bytes starting at a page
    /// boundary.
    #[inline]
    pub fn pages_for(self, len: u64) -> u64 {
        self.round_up(len) >> self.page_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_splits_addresses() {
        let g = PageGeometry::new(4096);
        assert_eq!(g.vpn(VirtAddr(0)), Vpn(0));
        assert_eq!(g.vpn(VirtAddr(4095)), Vpn(0));
        assert_eq!(g.vpn(VirtAddr(4096)), Vpn(1));
        assert_eq!(g.page_offset(VirtAddr(4097)), 1);
        assert_eq!(g.base(Vpn(3)), VirtAddr(3 * 4096));
    }

    #[test]
    fn geometry_rounding() {
        let g = PageGeometry::new(4096);
        assert_eq!(g.round_up(1), 4096);
        assert_eq!(g.round_up(4096), 4096);
        assert_eq!(g.round_down(8191), 4096);
        assert_eq!(g.pages_for(0), 0);
        assert_eq!(g.pages_for(1), 1);
        assert_eq!(g.pages_for(4096), 1);
        assert_eq!(g.pages_for(4097), 2);
    }

    #[test]
    fn geometry_alignment() {
        let g = PageGeometry::sun3();
        assert_eq!(g.page_size(), 8192);
        assert!(g.is_aligned(0));
        assert!(g.is_aligned(8192));
        assert!(!g.is_aligned(8191));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two() {
        let _ = PageGeometry::new(3000);
    }

    #[test]
    fn vpn_next_and_addr_add() {
        assert_eq!(Vpn(7).next(), Vpn(8));
        assert_eq!(VirtAddr(8).offset_by(8), VirtAddr(16));
    }
}

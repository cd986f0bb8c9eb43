//! Mappers: the independent actors implementing segments (§5.1.1).
//!
//! "A segment is implemented by an independent actor, its mapper,
//! generally on secondary storage... A mapper exports a standard
//! read/write interface, invoked using the IPC mechanisms. Some mappers
//! are known to the Nucleus as defaults; these export an additional
//! interface for the allocation of temporary segments."
//!
//! Substitution note (see DESIGN.md): mappers here are in-process
//! objects invoked through a registry keyed by their port name; the
//! request/reply message shapes match the paper's IPC protocol; the
//! secondary-storage round trip is the cost model's `SegmentIoPage`,
//! charged to the simulated clock, never a wall-clock sleep. The data
//! of a request changes hands by reference, not by copy: a mapper's
//! [`Mapper::read_pages`] reply is the [`Page`]s of its store, which the
//! cache lands as they are, and [`Mapper::write_pages`] keeps the
//! cache's pages, each side copying a page only when it writes it. That
//! is the per-page deferred copy the paper's IPC makes through its
//! transit segment (§1); the simulated clock charges the transfer the
//! same either way.

use crate::capability::{Capability, PortName};
use chorus_gmi::{GmiError, Page, PageGeometry, Result, SegmentId};
use chorus_hal::{private_copy, recycle, FxHashMap};
use parking_lot::Mutex;
use std::sync::Arc;

/// The standard mapper interface (read/write of segment fragments).
pub trait Mapper: Send + Sync {
    /// Reads `size` bytes at `offset` of the segment named by `cap`.
    ///
    /// # Errors
    ///
    /// Fails when the capability is invalid or I/O fails.
    fn read(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<u8>>;

    /// Writes bytes at `offset` of the segment named by `cap`.
    ///
    /// # Errors
    ///
    /// Fails when the capability is invalid or I/O fails.
    fn write(&self, cap: Capability, offset: u64, data: &[u8]) -> Result<()>;

    /// Reads `size` bytes at `offset` as pages handed over by reference:
    /// their lengths sum to what [`Mapper::read`] would return, and a
    /// mapper that stores pages of the cache's size answers with those,
    /// so no byte moves.
    ///
    /// The default returns [`Mapper::read`]'s reply as one buffer.
    ///
    /// # Errors
    ///
    /// As [`Mapper::read`].
    fn read_pages(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<Page>> {
        Ok(vec![self.read(cap, offset, size)?.into()])
    }

    /// Writes `pages`, back to back from `offset`, keeping each page by
    /// reference where the mapper stores pages of its size.
    ///
    /// The default concatenates them and calls [`Mapper::write`].
    ///
    /// # Errors
    ///
    /// As [`Mapper::write`].
    fn write_pages(&self, cap: Capability, offset: u64, pages: Vec<Page>) -> Result<()> {
        match pages.as_slice() {
            [one] => self.write(cap, offset, one),
            _ => self.write(cap, offset, &pages.concat()),
        }
    }

    /// Grants or denies write access (coherence protocols override).
    ///
    /// # Errors
    ///
    /// Denial is an error carrying the reason.
    fn get_write_access(&self, _cap: Capability, _offset: u64, _size: u64) -> Result<()> {
        Ok(())
    }

    /// The current length of the segment named by `cap`, if known. A
    /// metadata query, not I/O: implementations should answer from
    /// bookkeeping (no latency, no fault injection) so the memory
    /// manager's readahead clamp stays deterministic.
    fn size(&self, _cap: Capability) -> Option<u64> {
        None
    }

    /// Allocates a temporary segment (default mappers only, §5.1.1).
    ///
    /// # Errors
    ///
    /// Fails when this mapper does not offer temporary segments.
    fn allocate_temporary(&self) -> Result<Capability> {
        Err(GmiError::Unsupported(
            "mapper does not allocate temporary segments",
        ))
    }
}

/// A mapper holding segments in memory. Serves both as a "file server"
/// for tests/examples and as the swap default mapper.
///
/// Each segment is a run of [`Page`]s plus a length: a page it hands
/// out by [`Mapper::read_pages`] or takes by [`Mapper::write_pages`] is
/// shared with the cache, and whichever side writes it first copies it.
/// Pages never written are one shared zero page, and every byte past a
/// segment's length is zero.
pub struct MemMapper {
    port: PortName,
    /// The zero page every hole shares.
    zero: Page,
    segments: Mutex<FxHashMap<u64, Segment>>,
    next_key: Mutex<u64>,
}

/// The size of a stored page: the default geometry's. A cache of
/// another page size exchanges pages with the mapper by copy.
const PAGE: u64 = PageGeometry::SUN3_PAGE_SIZE;

/// One segment of a [`MemMapper`].
struct Segment {
    pages: Vec<Page>,
    len: u64,
}

impl MemMapper {
    /// Creates a mapper answering on `port`.
    pub fn new(port: PortName) -> MemMapper {
        MemMapper {
            port,
            zero: vec![0u8; PAGE as usize].into(),
            segments: Mutex::new(FxHashMap::default()),
            next_key: Mutex::new(1),
        }
    }

    /// The mapper's port name.
    pub fn port(&self) -> PortName {
        self.port
    }

    /// Registers a new segment with initial contents, returning its
    /// capability.
    pub fn create_segment(&self, data: &[u8]) -> Capability {
        let mut next = self.next_key.lock();
        // Sparse keys: spread through the key space so they are not
        // guessable from small integers.
        let key = (*next).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        *next += 1;
        let mut segment = Segment {
            pages: Vec::new(),
            len: 0,
        };
        self.write_bytes(&mut segment, 0, data);
        self.segments.lock().insert(key, segment);
        Capability::new(self.port, key)
    }

    /// Current contents of a segment (for assertions).
    ///
    /// # Panics
    ///
    /// Panics on an unknown capability.
    pub fn segment_data(&self, cap: Capability) -> Vec<u8> {
        let segments = self.segments.lock();
        let segment = segments.get(&cap.key).expect("unknown capability");
        self.read_bytes(segment, 0, segment.len)
    }

    /// Runs `op` on the segment `cap` names, under the one lock a
    /// request takes: the capability is checked in the lookup that
    /// serves it.
    fn with<T>(&self, cap: Capability, op: impl FnOnce(&mut Segment) -> T) -> Result<T> {
        let mut segments = self.segments.lock();
        match segments.get_mut(&cap.key) {
            Some(segment) if cap.port == self.port => Ok(op(segment)),
            _ => Err(invalid(cap)),
        }
    }

    /// `size` bytes at `offset`, the sparse tail (if any) zero-filled.
    fn read_bytes(&self, segment: &Segment, offset: u64, size: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(size as usize);
        let mut cur = offset;
        while cur < offset + size {
            let (index, skip) = ((cur / PAGE) as usize, cur % PAGE);
            let n = (PAGE - skip).min(offset + size - cur);
            match segment.pages.get(index) {
                Some(page) => out.extend_from_slice(&page[skip as usize..(skip + n) as usize]),
                None => out.resize(out.len() + n as usize, 0),
            }
            cur += n;
        }
        out
    }

    /// Writes `bytes` at `offset`, growing the segment over holes of the
    /// zero page. A page shared with a cache is copied first.
    fn write_bytes(&self, segment: &mut Segment, offset: u64, bytes: &[u8]) {
        let end = offset + bytes.len() as u64;
        self.grow(segment, end);
        let mut cur = offset;
        while cur < end {
            let (index, skip) = ((cur / PAGE) as usize, cur % PAGE);
            let n = (PAGE - skip).min(end - cur);
            let slot = &mut segment.pages[index];
            if Arc::get_mut(slot).is_none() {
                *slot = private_copy(slot);
            }
            let page = Arc::get_mut(slot).expect("a private page");
            let src = (cur - offset) as usize;
            page[skip as usize..(skip + n) as usize].copy_from_slice(&bytes[src..src + n as usize]);
            cur += n;
        }
    }

    /// Extends the segment to at least `end` bytes.
    fn grow(&self, segment: &mut Segment, end: u64) {
        let pages = end.div_ceil(PAGE) as usize;
        if segment.pages.len() < pages {
            segment.pages.resize(pages, self.zero.clone());
        }
        segment.len = segment.len.max(end);
    }
}

/// The error a request naming no segment of this mapper gets.
fn invalid(cap: Capability) -> GmiError {
    GmiError::permanent_io(SegmentId(cap.key), "invalid capability")
}

impl Mapper for MemMapper {
    fn read(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<u8>> {
        self.with(cap, |segment| self.read_bytes(segment, offset, size))
    }

    fn write(&self, cap: Capability, offset: u64, bytes: &[u8]) -> Result<()> {
        self.with(cap, |segment| self.write_bytes(segment, offset, bytes))
    }

    fn read_pages(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<Page>> {
        self.with(cap, |segment| {
            if !offset.is_multiple_of(PAGE) || !size.is_multiple_of(PAGE) {
                return vec![self.read_bytes(segment, offset, size).into()];
            }
            let first = (offset / PAGE) as usize;
            (first..first + (size / PAGE) as usize)
                .map(|i| segment.pages.get(i).unwrap_or(&self.zero).clone())
                .collect()
        })
    }

    fn write_pages(&self, cap: Capability, offset: u64, pages: Vec<Page>) -> Result<()> {
        self.with(cap, |segment| {
            let mut cur = offset;
            for page in pages {
                let len = page.len() as u64;
                if cur.is_multiple_of(PAGE) && len == PAGE {
                    self.grow(segment, cur + len);
                    recycle(std::mem::replace(
                        &mut segment.pages[(cur / PAGE) as usize],
                        page,
                    ));
                } else {
                    self.write_bytes(segment, cur, &page);
                }
                cur += len;
            }
        })
    }

    fn size(&self, cap: Capability) -> Option<u64> {
        if cap.port != self.port {
            return None;
        }
        self.segments.lock().get(&cap.key).map(|s| s.len)
    }

    fn allocate_temporary(&self) -> Result<Capability> {
        Ok(self.create_segment(&[]))
    }
}

/// The default swap mapper: a [`MemMapper`] wrapper that counts swap
/// traffic for the benches.
pub struct SwapMapper {
    inner: MemMapper,
    swapped_out_bytes: Mutex<u64>,
}

impl SwapMapper {
    /// Creates a swap mapper on `port`.
    pub fn new(port: PortName) -> SwapMapper {
        SwapMapper {
            inner: MemMapper::new(port),
            swapped_out_bytes: Mutex::new(0),
        }
    }

    /// Total bytes ever pushed to swap.
    pub fn swapped_out_bytes(&self) -> u64 {
        *self.swapped_out_bytes.lock()
    }

    /// The mapper's port name.
    pub fn port(&self) -> PortName {
        self.inner.port()
    }
}

impl Mapper for SwapMapper {
    fn read(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<u8>> {
        self.inner.read(cap, offset, size)
    }

    fn write(&self, cap: Capability, offset: u64, data: &[u8]) -> Result<()> {
        *self.swapped_out_bytes.lock() += data.len() as u64;
        self.inner.write(cap, offset, data)
    }

    fn read_pages(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<Page>> {
        self.inner.read_pages(cap, offset, size)
    }

    fn write_pages(&self, cap: Capability, offset: u64, pages: Vec<Page>) -> Result<()> {
        *self.swapped_out_bytes.lock() += pages.iter().map(|p| p.len() as u64).sum::<u64>();
        self.inner.write_pages(cap, offset, pages)
    }

    fn size(&self, cap: Capability) -> Option<u64> {
        self.inner.size(cap)
    }

    fn allocate_temporary(&self) -> Result<Capability> {
        self.inner.allocate_temporary()
    }
}

/// The routing table from port names to mapper implementations: the
/// in-process stand-in for sending IPC to the mapper's port.
#[derive(Default)]
pub struct MapperRegistry {
    mappers: Mutex<FxHashMap<PortName, Arc<dyn Mapper>>>,
}

impl MapperRegistry {
    /// Creates an empty registry.
    pub fn new() -> MapperRegistry {
        MapperRegistry::default()
    }

    /// Registers a mapper under its port name.
    pub fn register(&self, port: PortName, mapper: Arc<dyn Mapper>) {
        self.mappers.lock().insert(port, mapper);
    }

    /// Routes to the mapper answering `port`.
    ///
    /// # Errors
    ///
    /// Fails if no mapper is registered on the port.
    pub fn route(&self, port: PortName) -> Result<Arc<dyn Mapper>> {
        self.mappers
            .lock()
            .get(&port)
            .cloned()
            .ok_or(GmiError::MapperUnavailable {
                segment: SegmentId(0),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_mapper_roundtrip_and_sparse_reads() {
        let m = MemMapper::new(PortName(1));
        let cap = m.create_segment(b"hello");
        assert_eq!(m.read(cap, 0, 5).unwrap(), b"hello");
        // Sparse: beyond-end reads return zeroes.
        assert_eq!(m.read(cap, 3, 4).unwrap(), vec![b'l', b'o', 0, 0]);
        m.write(cap, 7, b"xy").unwrap();
        assert_eq!(m.read(cap, 5, 4).unwrap(), vec![0, 0, b'x', b'y']);
    }

    /// Bytes at `at`, counted from page `page` of the store.
    fn at(page: u64, at: u64) -> u64 {
        page * PAGE + at
    }

    #[test]
    fn byte_io_at_unaligned_offsets_is_a_view_over_the_pages() {
        let m = MemMapper::new(PortName(1));
        let cap = m.create_segment(&vec![b'.'; at(1, 4) as usize]);
        // Every request below straddles a page boundary.
        assert_eq!(m.read(cap, at(1, 0) - 2, 6).unwrap(), b"......");
        m.write(cap, at(1, 0) - 3, b"abcdef").unwrap();
        assert_eq!(
            m.size(cap),
            Some(at(1, 4)),
            "a write inside leaves the length"
        );
        assert_eq!(m.read(cap, at(1, 0) - 4, 8).unwrap(), b".abcdef.");
        // Sparse growth: a write past the end leaves zeroes behind it,
        // the untouched pages being the shared zero page.
        m.write(cap, at(4, 0) - 1, b"xy").unwrap();
        assert_eq!(m.size(cap), Some(at(4, 1)));
        let data = m.segment_data(cap);
        assert_eq!(data.len() as u64, at(4, 1));
        assert!(data[at(1, 4) as usize..at(4, 0) as usize - 1]
            .iter()
            .all(|&b| b == 0));
        assert_eq!(&data[at(4, 0) as usize - 1..], b"xy");
        let pages = m.read_pages(cap, at(2, 0), PAGE).unwrap();
        assert!(Arc::ptr_eq(&pages[0], &m.zero), "a hole is the zero page");
        assert_eq!(
            m.read(cap, at(4, 0) - 2, 5).unwrap(),
            vec![0, b'x', b'y', 0, 0]
        );
    }

    #[test]
    fn pages_change_hands_and_a_write_copies_first() {
        let m = MemMapper::new(PortName(1));
        let mut data = vec![b'a'; PAGE as usize];
        data.extend(vec![b'b'; PAGE as usize]);
        let cap = m.create_segment(&data);
        // A reply shares the stored pages...
        let pages = m.read_pages(cap, 0, 2 * PAGE).unwrap();
        assert_eq!(pages.concat(), data);
        assert!(Arc::ptr_eq(
            &pages[1],
            &m.read_pages(cap, PAGE, PAGE).unwrap()[0]
        ));
        // ...which a byte write to the segment leaves alone.
        m.write(cap, at(1, 1), b"X").unwrap();
        assert!(pages[1].iter().all(|&b| b == b'b'));
        assert_eq!(m.read(cap, at(1, 0), 3).unwrap(), b"bXb");
        // A written page is kept as it is, and a write copies it first.
        let page = Page::from(vec![b'c'; PAGE as usize]);
        m.write_pages(cap, at(2, 0), vec![page.clone()]).unwrap();
        assert!(Arc::ptr_eq(
            &page,
            &m.read_pages(cap, at(2, 0), PAGE).unwrap()[0]
        ));
        m.write(cap, at(2, 4), b"Y").unwrap();
        assert!(page.iter().all(|&b| b == b'c'));
        assert_eq!(m.read(cap, at(2, 3), 3).unwrap(), b"cYc");
        assert_eq!(m.size(cap), Some(at(3, 0)));
        // A request in another page size is served by copy.
        let small = m.read_pages(cap, at(1, 0) - 2, 4).unwrap();
        assert_eq!(small.concat(), b"aabX");
        m.write_pages(cap, 2, vec![Page::from(&b"zz"[..])]).unwrap();
        assert_eq!(m.read(cap, 0, 5).unwrap(), b"aazza");
        let forged = Capability::new(PortName(1), cap.key ^ 1);
        assert!(m.read_pages(forged, 0, PAGE).is_err());
        assert!(m.write_pages(forged, 0, vec![page]).is_err());
    }

    #[test]
    fn invalid_capability_rejected() {
        let m = MemMapper::new(PortName(1));
        let cap = m.create_segment(b"data");
        let forged = Capability::new(PortName(1), cap.key ^ 1);
        assert!(m.read(forged, 0, 1).is_err());
        let wrong_port = Capability::new(PortName(2), cap.key);
        assert!(m.read(wrong_port, 0, 1).is_err());
        // Reads and writes alike, and the segment is left as it was.
        for bad in [forged, wrong_port] {
            let want = GmiError::permanent_io(SegmentId(bad.key), "invalid capability");
            assert_eq!(m.read(bad, 0, 1).unwrap_err(), want);
            assert_eq!(m.write(bad, 0, b"x").unwrap_err(), want);
        }
        assert_eq!(m.segment_data(cap), b"data");
    }

    #[test]
    fn capability_keys_are_sparse() {
        let m = MemMapper::new(PortName(1));
        let a = m.create_segment(b"");
        let b = m.create_segment(b"");
        assert_ne!(a.key, b.key);
        assert!(
            a.key > 1_000_000,
            "keys must not be small integers: {:#x}",
            a.key
        );
    }

    #[test]
    fn size_reports_current_length() {
        let m = MemMapper::new(PortName(1));
        let cap = m.create_segment(b"hello");
        assert_eq!(m.size(cap), Some(5));
        m.write(cap, 7, b"xy").unwrap();
        assert_eq!(m.size(cap), Some(9));
        let forged = Capability::new(PortName(2), cap.key);
        assert_eq!(m.size(forged), None);
        let s = SwapMapper::new(PortName(9));
        let tmp = s.allocate_temporary().unwrap();
        assert_eq!(s.size(tmp), Some(0));
    }

    #[test]
    fn swap_mapper_counts_traffic() {
        let s = SwapMapper::new(PortName(9));
        let cap = s.allocate_temporary().unwrap();
        s.write(cap, 0, &[0u8; 128]).unwrap();
        s.write(cap, 128, &[1u8; 64]).unwrap();
        assert_eq!(s.swapped_out_bytes(), 192);
        assert_eq!(s.read(cap, 128, 2).unwrap(), vec![1, 1]);
    }

    #[test]
    fn registry_routes_by_port() {
        let reg = MapperRegistry::new();
        let m = Arc::new(MemMapper::new(PortName(3)));
        reg.register(PortName(3), m.clone());
        assert!(reg.route(PortName(3)).is_ok());
        assert!(reg.route(PortName(4)).is_err());
    }
}

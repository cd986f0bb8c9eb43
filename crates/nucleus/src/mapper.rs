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
//! charged to the simulated clock, never a wall-clock sleep.

use crate::capability::{Capability, PortName};
use chorus_gmi::{GmiError, Result, SegmentId};
use chorus_hal::FxHashMap;
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
pub struct MemMapper {
    port: PortName,
    segments: Mutex<FxHashMap<u64, Vec<u8>>>,
    next_key: Mutex<u64>,
}

impl MemMapper {
    /// Creates a mapper answering on `port`.
    pub fn new(port: PortName) -> MemMapper {
        MemMapper {
            port,
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
        self.segments.lock().insert(key, data.to_vec());
        Capability::new(self.port, key)
    }

    /// Current contents of a segment (for assertions).
    ///
    /// # Panics
    ///
    /// Panics on an unknown capability.
    pub fn segment_data(&self, cap: Capability) -> Vec<u8> {
        self.segments
            .lock()
            .get(&cap.key)
            .expect("unknown capability")
            .clone()
    }
}

/// The error a request naming no segment of this mapper gets.
fn invalid(cap: Capability) -> GmiError {
    GmiError::permanent_io(SegmentId(cap.key), "invalid capability")
}

impl Mapper for MemMapper {
    fn read(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<u8>> {
        // One lock a request: the capability is checked in the lookup
        // that serves it.
        let segments = self.segments.lock();
        let data = match segments.get(&cap.key) {
            Some(data) if cap.port == self.port => data,
            _ => return Err(invalid(cap)),
        };
        // The reply is written once: the stored bytes, then the sparse
        // tail (if any) zero-filled — never a pre-zeroed buffer that is
        // overwritten.
        let start = (offset as usize).min(data.len());
        let end = (start + size as usize).min(data.len());
        let mut out = Vec::with_capacity(size as usize);
        out.extend_from_slice(&data[start..end]);
        out.resize(size as usize, 0);
        Ok(out)
    }

    fn write(&self, cap: Capability, offset: u64, bytes: &[u8]) -> Result<()> {
        let mut segments = self.segments.lock();
        let data = match segments.get_mut(&cap.key) {
            Some(data) if cap.port == self.port => data,
            _ => return Err(invalid(cap)),
        };
        let end = offset as usize + bytes.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(bytes);
        Ok(())
    }

    fn size(&self, cap: Capability) -> Option<u64> {
        if cap.port != self.port {
            return None;
        }
        self.segments.lock().get(&cap.key).map(|d| d.len() as u64)
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

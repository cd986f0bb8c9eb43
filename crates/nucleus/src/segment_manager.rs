//! The Nucleus segment manager (§5.1.2): the bridge between GMI upcalls
//! and mappers.
//!
//! "The segment manager maps each segment used on the site to a GMI
//! local-cache... the segment manager transforms a GMI upcall into IPC
//! upcalls to the corresponding segment mapper. For instance, when the
//! memory manager calls pullIn, the segment manager sends an IPC read
//! request to the appropriate segment mapper port."
//!
//! This type implements [`chorus_gmi::SegmentManagerV2`] and routes by
//! capability; the capability↔cache binding table with the *segment
//! caching* policy (§5.1.3) lives in [`crate::nucleus::Nucleus`], which
//! owns the GMI handle needed to create and destroy caches.

use crate::capability::{Capability, PortName};
use crate::mapper::{Mapper, MapperRegistry};
use chorus_gmi::{
    CacheId, CacheIo, GmiError, PullRequest, PushRequest, Result, SegmentId, SegmentManagerV2,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Statistics of the segment-caching policy (§5.1.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentCachingStats {
    /// A requested segment's cache was found already bound and kept.
    pub hits: u64,
    /// A fresh cache had to be created.
    pub misses: u64,
    /// Unreferenced caches discarded to respect the table limit.
    pub evictions: u64,
}

struct SmInner {
    next_seg: u64,
    seg_to_cap: HashMap<SegmentId, Capability>,
    cap_to_seg: HashMap<Capability, SegmentId>,
}

/// The segment manager: GMI upcall handler routing to mappers.
pub struct NucleusSegmentManager {
    mappers: MapperRegistry,
    default_mapper: Mutex<Option<PortName>>,
    inner: Mutex<SmInner>,
}

impl Default for NucleusSegmentManager {
    fn default() -> Self {
        Self::new()
    }
}

impl NucleusSegmentManager {
    /// Creates a segment manager with no mappers.
    pub fn new() -> NucleusSegmentManager {
        NucleusSegmentManager {
            mappers: MapperRegistry::new(),
            default_mapper: Mutex::new(None),
            inner: Mutex::new(SmInner {
                next_seg: 1,
                seg_to_cap: HashMap::new(),
                cap_to_seg: HashMap::new(),
            }),
        }
    }

    /// Registers a mapper under its port.
    pub fn register_mapper(&self, port: PortName, mapper: Arc<dyn Mapper>) {
        self.mappers.register(port, mapper);
    }

    /// Declares the default mapper used for temporary (swap) segments
    /// (§5.1.1: "Some mappers are known to the Nucleus as defaults").
    pub fn set_default_mapper(&self, port: PortName) {
        *self.default_mapper.lock() = Some(port);
    }

    /// Returns (allocating if needed) the local segment id bound to a
    /// capability.
    pub fn segment_for(&self, cap: Capability) -> SegmentId {
        let mut inner = self.inner.lock();
        if let Some(&seg) = inner.cap_to_seg.get(&cap) {
            return seg;
        }
        let seg = SegmentId(inner.next_seg);
        inner.next_seg += 1;
        inner.seg_to_cap.insert(seg, cap);
        inner.cap_to_seg.insert(cap, seg);
        seg
    }

    /// The capability behind a segment id.
    ///
    /// # Errors
    ///
    /// Fails for unknown segments.
    pub fn capability_for(&self, segment: SegmentId) -> Result<Capability> {
        self.inner
            .lock()
            .seg_to_cap
            .get(&segment)
            .copied()
            .ok_or_else(|| GmiError::permanent_io(segment, "unknown segment"))
    }

    fn route(&self, segment: SegmentId) -> Result<(Capability, Arc<dyn Mapper>)> {
        let cap = self.capability_for(segment)?;
        let mapper = self
            .mappers
            .route(cap.port)
            .map_err(|_| GmiError::MapperUnavailable { segment })?;
        Ok((cap, mapper))
    }
}

impl SegmentManagerV2 for NucleusSegmentManager {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        let PullRequest {
            cache,
            segment,
            offset,
            size,
            ..
        } = *req;
        // "the segment manager sends an IPC read request, to the
        // appropriate segment mapper port... The mapper replies with a
        // message containing the required data."
        let (cap, mapper) = self.route(segment)?;
        let data = mapper.read(cap, offset, size)?;
        // A mapper must answer with the full fragment (sparse holes are
        // its job to zero-fill); a short reply is a corrupt transfer and
        // must be rejected before fillUp can deliver partial data.
        if (data.len() as u64) < size {
            return Err(GmiError::transient_io(segment, "truncated mapper reply"));
        }
        io.fill_up(cache, offset, &data)
    }

    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        let (cap, mapper) = self.route(segment)?;
        mapper.get_write_access(cap, offset, size)
    }

    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        let PushRequest {
            cache,
            segment,
            offset,
            size,
        } = *req;
        let (cap, mapper) = self.route(segment)?;
        let mut buf = vec![0u8; size as usize];
        let got = io.copy_back_run(cache, offset, &mut buf)?;
        mapper.write(cap, offset, &buf[..got as usize])?;
        if got < size {
            // Part of the run vanished between the upcall and the copy
            // (writeback racing an invalidate). The prefix that was still
            // resident is safely on the segment; report a transient short
            // transfer so the memory manager retries the remainder
            // page by page.
            return Err(GmiError::transient_io(segment, "short copyBack"));
        }
        Ok(())
    }

    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        let (cap, mapper) = self.route(segment).ok()?;
        mapper.size(cap)
    }

    fn create_segment_v2(&self, _cache: CacheId) -> SegmentId {
        // "The segment manager waits for the first pushOut upcall for
        // such a temporary cache to allocate it a 'swap' temporary
        // segment with a default mapper." The memory manager's
        // NeedSegment action lands exactly here.
        let port = self
            .default_mapper
            .lock()
            .expect("no default (swap) mapper configured");
        let mapper = self.mappers.route(port).expect("default mapper vanished");
        let cap = mapper
            .allocate_temporary()
            .expect("default mapper refused temporary");
        self.segment_for(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::MemMapper;
    use chorus_gmi::Access;

    struct BufIo(Mutex<HashMap<(CacheId, u64), Vec<u8>>>);
    impl CacheIo for BufIo {
        fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
            self.0.lock().insert((cache, offset), data.to_vec());
            Ok(())
        }
        fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
            let map = self.0.lock();
            let data = map.get(&(cache, offset)).ok_or(GmiError::OutOfRange {
                offset,
                size: buf.len() as u64,
                what: "test copy_back",
            })?;
            buf.copy_from_slice(data);
            Ok(())
        }
        fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.copy_back(cache, offset, buf)
        }
    }

    #[test]
    fn segment_ids_are_stable_per_capability() {
        let sm = NucleusSegmentManager::new();
        let m = Arc::new(MemMapper::new(PortName(1)));
        sm.register_mapper(PortName(1), m.clone());
        let cap = m.create_segment(b"x");
        let a = sm.segment_for(cap);
        let b = sm.segment_for(cap);
        assert_eq!(a, b);
        assert_eq!(sm.capability_for(a).unwrap(), cap);
    }

    #[test]
    fn pull_routes_to_mapper_and_fills() {
        let sm = NucleusSegmentManager::new();
        let m = Arc::new(MemMapper::new(PortName(1)));
        sm.register_mapper(PortName(1), m.clone());
        let cap = m.create_segment(b"abcdef");
        let seg = sm.segment_for(cap);
        let io = BufIo(Mutex::new(HashMap::new()));
        let cache = CacheId::pack(0, 0);
        let req = PullRequest {
            cache,
            segment: seg,
            offset: 2,
            size: 3,
            access: Access::Read,
        };
        sm.submit_pull(&io, &req).unwrap();
        assert_eq!(io.0.lock().get(&(cache, 2)).unwrap(), b"cde");
    }

    #[test]
    fn push_routes_back_to_mapper() {
        let sm = NucleusSegmentManager::new();
        let m = Arc::new(MemMapper::new(PortName(1)));
        sm.register_mapper(PortName(1), m.clone());
        let cap = m.create_segment(b"......");
        let seg = sm.segment_for(cap);
        let io = BufIo(Mutex::new(HashMap::new()));
        let cache = CacheId::pack(0, 0);
        io.fill_up(cache, 0, b"XYZ").unwrap();
        let req = PushRequest {
            cache,
            segment: seg,
            offset: 0,
            size: 3,
        };
        sm.submit_push(&io, &req).unwrap();
        assert_eq!(&m.segment_data(cap)[..3], b"XYZ");
    }

    #[test]
    fn temporary_segments_come_from_default_mapper() {
        let sm = NucleusSegmentManager::new();
        let swap = Arc::new(MemMapper::new(PortName(9)));
        sm.register_mapper(PortName(9), swap.clone());
        sm.set_default_mapper(PortName(9));
        let seg = sm.create_segment_v2(CacheId::pack(1, 0));
        let cap = sm.capability_for(seg).unwrap();
        assert_eq!(cap.port, PortName(9));
    }

    #[test]
    fn unknown_segment_is_an_error() {
        let sm = NucleusSegmentManager::new();
        assert!(sm.capability_for(SegmentId(42)).is_err());
    }
}

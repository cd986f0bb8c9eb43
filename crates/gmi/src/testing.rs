//! In-memory segment manager for tests and examples.
//!
//! A [`MemSegmentManager`] plays the role of the paper's segment managers
//! plus their mappers, backed by plain byte vectors. Segments are sparse:
//! reads beyond the written length return zeroes, matching the paper's
//! "large, sparse segments" support. Every upcall is recorded so tests
//! can assert *when* the memory manager talks to its segment managers,
//! and an optional artificial latency makes synchronization-page-stub
//! blocking observable from concurrent threads.

use crate::error::{GmiError, Result};
use crate::ids::{CacheId, SegmentId};
use crate::traits::{CacheIo, PullRequest, PushRequest, SegmentManagerV2, UpcallRequest};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A record of one upcall received by a [`MemSegmentManager`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Upcall {
    /// A `pullIn` upcall.
    PullIn {
        /// Target segment.
        segment: SegmentId,
        /// Fragment offset.
        offset: u64,
        /// Fragment size.
        size: u64,
    },
    /// A `getWriteAccess` upcall.
    GetWriteAccess {
        /// Target segment.
        segment: SegmentId,
        /// Fragment offset.
        offset: u64,
        /// Fragment size.
        size: u64,
    },
    /// A `pushOut` upcall.
    PushOut {
        /// Target segment.
        segment: SegmentId,
        /// Fragment offset.
        offset: u64,
        /// Fragment size.
        size: u64,
    },
    /// A `segmentCreate` upcall.
    SegmentCreate {
        /// The cache the memory manager created unilaterally.
        cache: CacheId,
        /// The segment assigned to it.
        segment: SegmentId,
    },
}

/// Segments hold their bytes behind individual locks so concurrent
/// upcalls against *different* segments copy data in parallel: the
/// manager-wide lock covers only the id table, the upcall log and the
/// fault-injection flags, never a byte copy.
#[derive(Default)]
struct Inner {
    segments: HashMap<SegmentId, Arc<Mutex<Vec<u8>>>>,
    next_id: u64,
    log: Vec<Upcall>,
    requests: Vec<UpcallRequest>,
    fail_next_pull: bool,
    deny_write_access: bool,
}

impl Inner {
    fn segment(&mut self, id: SegmentId) -> Arc<Mutex<Vec<u8>>> {
        self.segments.entry(id).or_default().clone()
    }
}

/// An in-memory, sparse, logging segment manager.
#[derive(Default)]
pub struct MemSegmentManager {
    inner: Mutex<Inner>,
    latency: Mutex<Option<Duration>>,
}

impl MemSegmentManager {
    /// Creates a manager with no segments.
    pub fn new() -> MemSegmentManager {
        MemSegmentManager::default()
    }

    /// Registers a new segment with initial contents, returning its id.
    pub fn create_segment(&self, data: &[u8]) -> SegmentId {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = SegmentId(inner.next_id);
        inner
            .segments
            .insert(id, Arc::new(Mutex::new(data.to_vec())));
        id
    }

    /// Returns a copy of a segment's current backing bytes.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not exist.
    pub fn segment_data(&self, segment: SegmentId) -> Vec<u8> {
        let data = self
            .inner
            .lock()
            .segments
            .get(&segment)
            .expect("unknown segment")
            .clone();
        let out = data.lock().clone();
        out
    }

    /// Returns and clears the upcall log.
    pub fn take_log(&self) -> Vec<Upcall> {
        core::mem::take(&mut self.inner.lock().log)
    }

    /// Returns and clears the typed request log: every `pullIn` and
    /// `pushOut` as submitted, `cache` and `access` included.
    pub fn take_requests(&self) -> Vec<UpcallRequest> {
        core::mem::take(&mut self.inner.lock().requests)
    }

    /// Number of `pullIn` upcalls seen so far (log included even if
    /// taken).
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Makes the next `pullIn` fail with an I/O error (fault injection).
    pub fn fail_next_pull(&self) {
        self.inner.lock().fail_next_pull = true;
    }

    /// Makes `getWriteAccess` deny all requests (coherence protocols).
    pub fn set_deny_write_access(&self, deny: bool) {
        self.inner.lock().deny_write_access = deny;
    }

    /// Adds an artificial delay before each `pullIn`/`pushOut` completes,
    /// simulating disk or network latency.
    pub fn set_latency(&self, latency: Option<Duration>) {
        *self.latency.lock() = latency;
    }

    fn sleep_latency(&self) {
        let latency = *self.latency.lock();
        if let Some(d) = latency {
            std::thread::sleep(d);
        }
    }

    fn read_sparse(&self, segment: SegmentId, offset: u64, size: u64) -> Result<Vec<u8>> {
        let cell = self.inner.lock().segment(segment);
        let data = cell.lock();
        let mut out = vec![0u8; size as usize];
        let len = data.len() as u64;
        if offset < len {
            let avail = (len - offset).min(size) as usize;
            out[..avail].copy_from_slice(&data[offset as usize..offset as usize + avail]);
        }
        Ok(out)
    }

    fn write_sparse(&self, segment: SegmentId, offset: u64, bytes: &[u8]) {
        let cell = self.inner.lock().segment(segment);
        let mut data = cell.lock();
        let end = offset as usize + bytes.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(bytes);
    }
}

impl SegmentManagerV2 for MemSegmentManager {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        {
            let mut inner = self.inner.lock();
            inner.requests.push(UpcallRequest::Pull(*req));
            inner.log.push(Upcall::PullIn {
                segment: req.segment,
                offset: req.offset,
                size: req.size,
            });
            if inner.fail_next_pull {
                inner.fail_next_pull = false;
                return Err(GmiError::transient_io(req.segment, "injected pull failure"));
            }
        }
        self.sleep_latency();
        let data = self.read_sparse(req.segment, req.offset, req.size)?;
        io.fill_up(req.cache, req.offset, &data)
    }

    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        {
            let mut inner = self.inner.lock();
            inner.requests.push(UpcallRequest::Push(*req));
            inner.log.push(Upcall::PushOut {
                segment: req.segment,
                offset: req.offset,
                size: req.size,
            });
        }
        self.sleep_latency();
        let mut buf = vec![0u8; req.size as usize];
        let got = io.copy_back_run(req.cache, req.offset, &mut buf)?;
        self.write_sparse(req.segment, req.offset, &buf[..got as usize]);
        if got < req.size {
            // The tail of the run vanished between the upcall and the
            // copy (writeback racing an invalidate). The prefix is safe;
            // report a transient short transfer so the memory manager
            // retries the remainder page by page.
            return Err(GmiError::transient_io(req.segment, "short copyBack"));
        }
        Ok(())
    }

    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.log.push(Upcall::GetWriteAccess {
            segment,
            offset,
            size,
        });
        if inner.deny_write_access {
            Err(GmiError::permanent_io(segment, "write access denied"))
        } else {
            Ok(())
        }
    }

    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = SegmentId(inner.next_id);
        inner.segments.insert(id, Arc::default());
        inner.log.push(Upcall::SegmentCreate { cache, segment: id });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Access;

    struct NullIo;
    impl CacheIo for NullIo {
        fn fill_up(&self, _c: CacheId, _o: u64, _d: &[u8]) -> Result<()> {
            Ok(())
        }
        fn copy_back(&self, _c: CacheId, _o: u64, buf: &mut [u8]) -> Result<()> {
            buf.fill(0xCD);
            Ok(())
        }
        fn move_back(&self, _c: CacheId, _o: u64, buf: &mut [u8]) -> Result<()> {
            buf.fill(0xCD);
            Ok(())
        }
    }

    fn pull(cache: CacheId, segment: SegmentId, offset: u64, size: u64) -> PullRequest {
        PullRequest {
            cache,
            segment,
            offset,
            size,
            access: Access::Read,
        }
    }

    #[test]
    fn sparse_reads_return_zeroes_past_end() {
        let m = MemSegmentManager::new();
        let s = m.create_segment(b"abc");
        let data = m.read_sparse(s, 1, 4).unwrap();
        assert_eq!(&data, &[b'b', b'c', 0, 0]);
    }

    #[test]
    fn push_out_extends_segment() {
        let m = MemSegmentManager::new();
        let s = m.create_segment(b"");
        let req = PushRequest {
            cache: CacheId::pack(0, 0),
            segment: s,
            offset: 4,
            size: 2,
        };
        m.submit_push(&NullIo, &req).unwrap();
        assert_eq!(m.segment_data(s), vec![0, 0, 0, 0, 0xCD, 0xCD]);
    }

    #[test]
    fn upcalls_are_logged_in_order() {
        let m = MemSegmentManager::new();
        let s = m.create_segment(b"xyz");
        let c = CacheId::pack(1, 0);
        m.submit_pull(&NullIo, &pull(c, s, 0, 2)).unwrap();
        m.acquire_write_access(s, 0, 2).unwrap();
        let log = m.take_log();
        assert_eq!(
            log,
            vec![
                Upcall::PullIn {
                    segment: s,
                    offset: 0,
                    size: 2
                },
                Upcall::GetWriteAccess {
                    segment: s,
                    offset: 0,
                    size: 2
                },
            ]
        );
        assert!(m.take_log().is_empty(), "take_log clears");
    }

    #[test]
    fn requests_are_logged_with_their_cache_in_order() {
        let m = MemSegmentManager::new();
        let s = m.create_segment(b"xyz");
        let c = CacheId::pack(3, 0);
        let pulled = pull(c, s, 0, 2);
        let pushed = PushRequest {
            cache: c,
            segment: s,
            offset: 0,
            size: 2,
        };
        m.submit_pull(&NullIo, &pulled).unwrap();
        m.submit_push(&NullIo, &pushed).unwrap();
        assert_eq!(
            m.take_requests(),
            vec![UpcallRequest::Pull(pulled), UpcallRequest::Push(pushed)]
        );
        assert!(m.take_requests().is_empty(), "take_requests clears");
    }

    #[test]
    fn injected_pull_failure_fires_once() {
        let m = MemSegmentManager::new();
        let s = m.create_segment(b"data");
        let c = CacheId::pack(0, 0);
        m.fail_next_pull();
        assert!(m.submit_pull(&NullIo, &pull(c, s, 0, 4)).is_err());
        assert!(m.submit_pull(&NullIo, &pull(c, s, 0, 4)).is_ok());
    }

    #[test]
    fn segment_create_assigns_fresh_ids() {
        let m = MemSegmentManager::new();
        let a = m.create_segment_v2(CacheId::pack(0, 0));
        let b = m.create_segment_v2(CacheId::pack(1, 0));
        assert_ne!(a, b);
        assert_eq!(m.segment_data(a), Vec::<u8>::new());
    }

    #[test]
    fn write_access_denial() {
        let m = MemSegmentManager::new();
        let s = m.create_segment(b"x");
        m.set_deny_write_access(true);
        assert!(m.acquire_write_access(s, 0, 1).is_err());
        m.set_deny_write_access(false);
        assert!(m.acquire_write_access(s, 0, 1).is_ok());
    }
}

//! Ports and message queues (§5.1.1, §5.1.6).
//!
//! "Messages are not addressed directly to threads, but to intermediate
//! entities called ports. A port is an address to which messages can be
//! sent, and a queue holding the messages received but not yet
//! consumed."
//!
//! This module holds the pure queueing machinery; the memory-management
//! side of message transfer (the transit segment, `cache.copy` /
//! `cache.move`) lives in [`crate::nucleus`], keeping IPC decoupled from
//! memory management as §5.1.6 requires: IPC never creates, destroys or
//! resizes regions.

use crate::capability::PortName;
use chorus_hal::FxHashMap;
use core::fmt;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// IPC failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpcError {
    /// The port does not exist (or was destroyed).
    NoSuchPort(PortName),
    /// The message exceeds the 64 KB limit (§5.1.6: "to transfer large
    /// or sparse data, users should call the memory management
    /// operations, and not IPC").
    MessageTooLarge {
        /// Requested size.
        size: u64,
        /// The limit.
        limit: u64,
    },
    /// No message arrived within the timeout.
    Timeout,
    /// No free transit slot (too many in-flight messages).
    TransitFull,
    /// An underlying memory-management error.
    Vm(chorus_gmi::GmiError),
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpcError::NoSuchPort(p) => write!(f, "no such port {p:?}"),
            IpcError::MessageTooLarge { size, limit } => {
                write!(f, "message of {size} bytes exceeds the {limit}-byte limit")
            }
            IpcError::Timeout => write!(f, "receive timed out"),
            IpcError::TransitFull => write!(f, "no free transit slot"),
            IpcError::Vm(e) => write!(f, "memory management error: {e}"),
        }
    }
}

impl std::error::Error for IpcError {}

impl From<chorus_gmi::GmiError> for IpcError {
    fn from(e: chorus_gmi::GmiError) -> IpcError {
        IpcError::Vm(e)
    }
}

impl IpcError {
    /// Folds an IPC failure into the unified [`GmiError`](chorus_gmi::GmiError) taxonomy, in
    /// the context of an upcall against `segment`.
    ///
    /// This is the single conversion point for the mapper protocol —
    /// the ad-hoc per-call-site transient/permanent matches it replaces
    /// all keyed off the same classification:
    ///
    /// * a dead port means the mapper is permanently gone
    ///   ([`GmiError::MapperUnavailable`](chorus_gmi::GmiError::MapperUnavailable), quarantines the cache);
    /// * a receive timeout is the mapper missing its deadline
    ///   ([`GmiError::MapperTimeout`](chorus_gmi::GmiError::MapperTimeout), transient);
    /// * transit exhaustion heals once in-flight messages drain
    ///   (transient I/O);
    /// * an oversized message is a protocol violation the retry policy
    ///   can never fix (permanent I/O);
    /// * an embedded VM error passes through unchanged.
    pub fn into_gmi(self, segment: chorus_gmi::SegmentId) -> chorus_gmi::GmiError {
        use chorus_gmi::GmiError;
        match self {
            IpcError::NoSuchPort(_) => GmiError::MapperUnavailable { segment },
            IpcError::Timeout => GmiError::MapperTimeout { segment },
            IpcError::TransitFull => GmiError::transient_io(segment, "no free transit slot"),
            IpcError::MessageTooLarge { size, limit } => GmiError::permanent_io(
                segment,
                format!("message of {size} bytes exceeds the {limit}-byte limit"),
            ),
            IpcError::Vm(e) => e,
        }
    }

    /// True if retrying could plausibly succeed — the same
    /// classification [`IpcError::into_gmi`] encodes, usable before
    /// conversion.
    pub fn is_transient(&self) -> bool {
        match self {
            IpcError::Timeout | IpcError::TransitFull => true,
            IpcError::NoSuchPort(_) | IpcError::MessageTooLarge { .. } => false,
            IpcError::Vm(e) => e.is_transient(),
        }
    }
}

/// How a queued message's body is carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Small body copied inline (`bcopy` path).
    Inline(Vec<u8>),
    /// Body parked in a transit-segment slot (deferred-copy path).
    Slot {
        /// Slot index within the transit segment.
        slot: usize,
        /// Body length in bytes.
        len: u64,
    },
}

impl Message {
    /// Body length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Message::Inline(v) => v.len() as u64,
            Message::Slot { len, .. } => *len,
        }
    }

    /// True for empty messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Identifier of a port within a [`Ports`] registry (equals its name).
pub type PortId = PortName;

#[derive(Default)]
struct PortQueue {
    queue: VecDeque<Message>,
}

/// The port registry: creation, send (enqueue) and blocking receive.
pub struct Ports {
    inner: Mutex<FxHashMap<PortName, PortQueue>>,
    cv: Condvar,
    next: Mutex<u64>,
}

impl Default for Ports {
    fn default() -> Ports {
        Ports::new()
    }
}

impl Ports {
    /// Creates an empty registry.
    pub fn new() -> Ports {
        Ports {
            inner: Mutex::new(FxHashMap::default()),
            cv: Condvar::new(),
            next: Mutex::new(1),
        }
    }

    /// Creates a port and returns its name.
    pub fn create(&self) -> PortName {
        let mut next = self.next.lock();
        let name = PortName(*next);
        *next += 1;
        self.inner.lock().insert(name, PortQueue::default());
        name
    }

    /// Destroys a port, returning any undelivered messages (so their
    /// transit slots can be reclaimed).
    pub fn destroy(&self, port: PortName) -> Vec<Message> {
        let removed = self.inner.lock().remove(&port);
        self.cv.notify_all();
        removed.map(|q| q.queue.into()).unwrap_or_default()
    }

    /// Enqueues a message.
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist.
    pub fn enqueue(&self, port: PortName, msg: Message) -> Result<(), IpcError> {
        let mut inner = self.inner.lock();
        let q = inner.get_mut(&port).ok_or(IpcError::NoSuchPort(port))?;
        q.queue.push_back(msg);
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Dequeues the next message, blocking up to `timeout`.
    ///
    /// # Errors
    ///
    /// `Timeout` when nothing arrives; `NoSuchPort` if the port dies.
    pub fn dequeue(&self, port: PortName, timeout: Duration) -> Result<Message, IpcError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            match inner.get_mut(&port) {
                None => return Err(IpcError::NoSuchPort(port)),
                Some(q) => {
                    if let Some(m) = q.queue.pop_front() {
                        return Ok(m);
                    }
                }
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(IpcError::Timeout);
            }
            self.cv.wait_for(&mut inner, deadline - now);
        }
    }

    /// Number of queued messages (0 for dead ports).
    pub fn queue_len(&self, port: PortName) -> usize {
        self.inner
            .lock()
            .get(&port)
            .map(|q| q.queue.len())
            .unwrap_or(0)
    }
}

/// A completion port: queue semantics for asynchronous upcall replies.
///
/// Unlike a FIFO [`Ports`] queue, every message posted here carries a
/// *due time* on the simulated clock and is ranked by `(due, id)` — the
/// order the completion engine delivers replies in, independent of host
/// thread scheduling. Posting assigns a monotonically increasing id, so
/// ties on the due time resolve by submission order and two identical
/// runs drain the port identically.
pub struct CompletionPort {
    queue: Mutex<chorus_gmi::CompletionQueue<Message>>,
    next_id: Mutex<u64>,
}

impl Default for CompletionPort {
    fn default() -> CompletionPort {
        CompletionPort::new()
    }
}

impl CompletionPort {
    /// An empty completion port.
    pub fn new() -> CompletionPort {
        CompletionPort {
            queue: Mutex::new(chorus_gmi::CompletionQueue::new()),
            next_id: Mutex::new(1),
        }
    }

    /// Posts a reply due at `due_ns` (simulated), returning the id
    /// assigned to it.
    pub fn post(&self, due_ns: u64, msg: Message) -> u64 {
        let id = {
            let mut next = self.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        self.queue.lock().insert(due_ns, id, msg);
        id
    }

    /// The `(due_ns, id)` of the earliest pending reply, if any.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.queue.lock().peek()
    }

    /// Removes and returns the earliest reply already due at `now_ns`.
    pub fn poll(&self, now_ns: u64) -> Option<(u64, Message)> {
        self.queue
            .lock()
            .pop_due(now_ns)
            .map(|(_due, id, m)| (id, m))
    }

    /// Removes and returns the earliest pending reply regardless of due
    /// time, with the due time a caller must advance the simulated
    /// clock to. Used when the engine *must* make progress (a forced
    /// drain or a stub wait with nothing else runnable).
    pub fn pop_earliest(&self) -> Option<(u64, u64, Message)> {
        self.queue.lock().pop_earliest()
    }

    /// Number of pending replies.
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let ports = Ports::new();
        let p = ports.create();
        ports.enqueue(p, Message::Inline(vec![1])).unwrap();
        ports.enqueue(p, Message::Inline(vec![2])).unwrap();
        assert_eq!(
            ports.dequeue(p, Duration::ZERO).unwrap(),
            Message::Inline(vec![1])
        );
        assert_eq!(
            ports.dequeue(p, Duration::ZERO).unwrap(),
            Message::Inline(vec![2])
        );
        assert_eq!(
            ports.dequeue(p, Duration::ZERO).unwrap_err(),
            IpcError::Timeout
        );
    }

    #[test]
    fn send_to_dead_port_fails() {
        let ports = Ports::new();
        let p = ports.create();
        ports.destroy(p);
        assert_eq!(
            ports.enqueue(p, Message::Inline(vec![])).unwrap_err(),
            IpcError::NoSuchPort(p)
        );
    }

    #[test]
    fn destroy_returns_undelivered() {
        let ports = Ports::new();
        let p = ports.create();
        ports
            .enqueue(p, Message::Slot { slot: 3, len: 100 })
            .unwrap();
        let undelivered = ports.destroy(p);
        assert_eq!(undelivered, vec![Message::Slot { slot: 3, len: 100 }]);
    }

    #[test]
    fn blocking_receive_wakes_on_send() {
        let ports = Arc::new(Ports::new());
        let p = ports.create();
        let ports2 = ports.clone();
        let t = std::thread::spawn(move || ports2.dequeue(p, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        ports.enqueue(p, Message::Inline(vec![9])).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), Message::Inline(vec![9]));
    }

    #[test]
    fn ports_are_unique() {
        let ports = Ports::new();
        let a = ports.create();
        let b = ports.create();
        assert_ne!(a, b);
        assert_eq!(ports.queue_len(a), 0);
    }

    #[test]
    fn completion_port_ranks_by_due_time_not_arrival() {
        let cp = CompletionPort::new();
        cp.post(300, Message::Inline(vec![3]));
        cp.post(100, Message::Inline(vec![1]));
        cp.post(200, Message::Inline(vec![2]));
        assert_eq!(cp.pending(), 3);
        assert_eq!(cp.poll(50), None, "nothing is due yet");
        let (_, m) = cp.poll(150).unwrap();
        assert_eq!(m, Message::Inline(vec![1]));
        let (due, _, m) = cp.pop_earliest().unwrap();
        assert_eq!((due, m), (200, Message::Inline(vec![2])));
        let (due, _, m) = cp.pop_earliest().unwrap();
        assert_eq!((due, m), (300, Message::Inline(vec![3])));
        assert_eq!(cp.pending(), 0);
    }

    #[test]
    fn completion_port_breaks_due_ties_by_post_order() {
        let cp = CompletionPort::new();
        let first = cp.post(500, Message::Inline(vec![0xA]));
        let second = cp.post(500, Message::Inline(vec![0xB]));
        assert!(first < second, "ids are monotonic");
        let (id, m) = cp.poll(500).unwrap();
        assert_eq!((id, m), (first, Message::Inline(vec![0xA])));
        let (id, m) = cp.poll(500).unwrap();
        assert_eq!((id, m), (second, Message::Inline(vec![0xB])));
    }

    #[test]
    fn ipc_errors_fold_into_the_unified_taxonomy() {
        use chorus_gmi::{GmiError, SegmentId};
        let seg = SegmentId(7);
        assert!(matches!(
            IpcError::NoSuchPort(PortName(1)).into_gmi(seg),
            GmiError::MapperUnavailable { segment } if segment == seg
        ));
        assert!(matches!(
            IpcError::Timeout.into_gmi(seg),
            GmiError::MapperTimeout { segment } if segment == seg
        ));
        assert!(IpcError::TransitFull.into_gmi(seg).is_transient());
        assert!(!IpcError::MessageTooLarge { size: 1, limit: 0 }
            .into_gmi(seg)
            .is_transient());
        let inner = GmiError::OutOfMemory;
        assert_eq!(IpcError::Vm(inner.clone()).into_gmi(seg), inner);
        // is_transient agrees with the converted classification.
        for (e, transient) in [
            (IpcError::NoSuchPort(PortName(1)), false),
            (IpcError::Timeout, true),
            (IpcError::TransitFull, true),
            (IpcError::MessageTooLarge { size: 1, limit: 0 }, false),
        ] {
            assert_eq!(e.is_transient(), transient, "{e}");
            assert_eq!(e.clone().into_gmi(seg).is_transient(), transient, "{e}");
        }
    }
}

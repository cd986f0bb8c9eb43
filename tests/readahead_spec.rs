//! The readahead contract (DESIGN.md §13): what reading ahead must never
//! do, checked over random access programs.
//!
//! Each program runs on the Nucleus `MemMapper` stack of `tests/common`
//! (a file cache over it knows its segment's length, so it has streams;
//! one over `MemSegmentManager` never would), with a pool of 2 to 512
//! frames, no mapper failure and tracing on. The trace is read after
//! every access: `UpcallSubmit` records give the pulls, `Eviction`
//! records what left the pool, `DropBehind` records what drop-behind put
//! first in line for the clock hand.
//!
//! - (a) no offset is pulled while resident, parked or stubbed;
//! - (b) no reader has a third window ahead of it;
//! - (c) every window is at most one IPC message, and the readahead in
//!   flight when an access returns stays under a quarter of the pool;
//! - (d) a sequential read of N pages issues at most ⌈N/8⌉ + 3 pulls
//!   (⌈N/w⌉ + log2 w, where the pool caps the window at w < 8 pages);
//! - (e) drop-behind never touches the page being read, nor an unread
//!   prefetched page (what a reader has passed in the window it is
//!   reading can be dropped: by a stale stream whose last pull overlaps
//!   that window, DESIGN.md §13);
//! - (f) every pulled page is used, or counted in `readahead_unused`
//!   when it is evicted unused.

mod common;

use chorus_gmi::{CacheId, CtxId, Gmi, Prot, VirtAddr};
use chorus_nucleus::FaultPlan;
use chorus_pvm::trace::{TraceEvent, UpcallKind};
use common::{stack, FaultStack, PS};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One IPC message, in pages: the widest window.
const IPC_PAGES: u64 = 8;

/// Pages of each of the two files a program reads and writes.
const FILE_PAGES: u64 = 160;

/// Where file `f` is mapped.
fn base(f: usize) -> u64 {
    0x1000_0000 * (f as u64 + 1)
}

/// One access: (file, page, write).
type Access = (usize, u64, bool);

/// A burst of a program: `(shape, file, start, len)`. Shapes: 0 a
/// sequential read; 1 two readers of one file, interleaved; 2 random
/// reads; 3 a sequential pass that writes every third page; 4 a strided
/// read (every other page).
type Burst = (u8, usize, u64, u64);

fn accesses(program: &[Burst]) -> Vec<Access> {
    let mut out = Vec::new();
    for &(shape, f, start, len) in program {
        let at = |k: u64| (start + k) % FILE_PAGES;
        for k in 0..len {
            match shape {
                0 => out.push((f, at(k), false)),
                1 => {
                    out.push((f, at(k), false));
                    out.push((f, at(k + FILE_PAGES / 2), false));
                }
                2 => {
                    let x = (start ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    out.push((f, x % FILE_PAGES, false));
                }
                3 => out.push((f, at(k), k % 3 == 2)),
                _ => out.push((f, at(2 * k), false)),
            }
        }
    }
    out
}

fn burst() -> impl Strategy<Value = Burst> {
    (0u8..5, 0usize..2, 0u64..FILE_PAGES, 1u64..64)
}

fn frames() -> impl Strategy<Value = u32> {
    prop_oneof![2u32..=12, 13u32..=40, 41u32..=128, 129u32..=512]
}

/// The window cap of a pool of `frames`: doubling from one page up to
/// an IPC message while half of it is under an eighth of the pool.
fn window_cap(frames: u32) -> u64 {
    let mut cap = 1;
    while cap * 2 <= IPC_PAGES && cap * 8 < u64::from(frames) {
        cap *= 2;
    }
    cap
}

struct World {
    s: FaultStack,
    frames: u32,
    files: Vec<(CtxId, CacheId)>,
    /// Segment of each cache, by cache index.
    seg_of: BTreeMap<u32, u64>,
}

fn world(frames: u32, files: usize, pages: u64) -> World {
    // The structural invariants are checked once a program is over: a
    // check after every operation would stop a broken pull before its
    // trace record says what is wrong with it.
    let s = stack(frames, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.check_invariants = false
    });
    let mut w = World {
        s,
        frames,
        files: Vec::new(),
        seg_of: BTreeMap::new(),
    };
    for f in 0..files {
        let data: Vec<u8> = (0..pages * PS).map(|i| (i / PS) as u8 ^ f as u8).collect();
        let seg = w.s.seg_mgr.segment_for(w.s.files.create_segment(&data));
        let cache = w.s.pvm.cache_create(Some(seg)).unwrap();
        let ctx = w.s.pvm.context_create().unwrap();
        w.s.pvm
            .region_create(ctx, VirtAddr(base(f)), pages * PS, Prot::RW, cache, 0)
            .unwrap();
        w.seg_of.insert(cache.unpack().0, seg.0);
        w.files.push((ctx, cache));
    }
    w.s.pvm.tracer().drain();
    w
}

/// One pull as the trace showed it.
struct Pull {
    seg: u64,
    /// `[from, to)`, in pages.
    from: u64,
    to: u64,
    /// A page of it was accessed since.
    used: bool,
}

/// What the trace has shown so far.
#[derive(Default)]
struct Model {
    pulls: Vec<Pull>,
    /// Pages pulled and not evicted since, with the pull that brought
    /// each in: resident, parked or stubbed.
    held: BTreeMap<(u64, u64), usize>,
    /// Held pages pulled behind another and not accessed since.
    unread: BTreeSet<(u64, u64)>,
    unused_evictions: u64,
}

impl Model {
    fn use_page(&mut self, key: (u64, u64)) {
        self.unread.remove(&key);
        if let Some(&i) = self.held.get(&key) {
            self.pulls[i].used = true;
        }
    }

    /// An ahead pull and the pulls before it that its reader has not
    /// entered: each one's predecessor is the latest earlier pull of the
    /// segment it continues (it starts within a window of that one's
    /// end), and a pull counts while some page of it is held.
    fn windows_ahead(&self, i: usize) -> usize {
        let mut n = 1;
        let mut cur = i;
        loop {
            let Pull { seg, from, .. } = self.pulls[cur];
            let pred = (0..cur).rev().find(|&j| {
                let p = &self.pulls[j];
                p.seg == seg && p.to <= from && from < p.to + IPC_PAGES
            });
            match pred {
                Some(j) if !self.pulls[j].used && self.holds_any(j) => {
                    n += 1;
                    cur = j;
                }
                _ => return n,
            }
        }
    }

    fn holds_any(&self, j: usize) -> bool {
        let p = &self.pulls[j];
        (p.from..p.to).any(|o| self.held.get(&(p.seg, o)) == Some(&j))
    }
}

/// Runs `program` on a pool of `frames`, checking (a), (b), (c), (e)
/// and (f) after every access.
fn run(frames: u32, program: &[Burst]) -> Result<(), TestCaseError> {
    let w = world(frames, 2, FILE_PAGES);
    let pvm = &w.s.pvm;
    let mut m = Model::default();
    for (step, &(f, page, write)) in accesses(program).iter().enumerate() {
        let (ctx, cache) = w.files[f];
        let seg = w.seg_of[&cache.unpack().0];
        let key = (seg, page);
        let unused_before = pvm.stats().readahead_unused;
        let unused_evictions_before = m.unused_evictions;
        // The page is in use from the moment the access reaches it.
        m.use_page(key);
        let va = VirtAddr(base(f) + page * PS);
        if write {
            pvm.vm_write(ctx, va, &[step as u8; PS as usize]).unwrap();
        } else {
            let mut buf = [0u8; PS as usize];
            pvm.vm_read(ctx, va, &mut buf).unwrap();
        }
        let mut dropped = Vec::new();
        for r in pvm.tracer().drain() {
            match r.event {
                TraceEvent::UpcallSubmit {
                    kind: UpcallKind::PullIn,
                    segment,
                    offset,
                    size,
                    ..
                } => {
                    let (from, to) = (offset / PS, (offset + size) / PS);
                    prop_assert!(
                        to - from <= IPC_PAGES,
                        "(c) step {step}: window {from}..{to}"
                    );
                    let i = m.pulls.len();
                    let ahead = (segment, from) != key;
                    m.pulls.push(Pull {
                        seg: segment,
                        from,
                        to,
                        used: !ahead,
                    });
                    for o in from..to {
                        let prev = m.held.insert((segment, o), i);
                        prop_assert!(
                            prev.is_none(),
                            "(a) step {step}: page {o} of seg {segment} pulled while held"
                        );
                        if (segment, o) != key {
                            m.unread.insert((segment, o));
                        }
                    }
                    if ahead {
                        let n = m.windows_ahead(i);
                        prop_assert!(n <= 2, "(b) step {step}: {n} windows ahead at {from}");
                    }
                }
                TraceEvent::Eviction { cache, offset } => {
                    let k = (w.seg_of[&cache], offset / PS);
                    prop_assert!(m.held.remove(&k).is_some(), "evicted {k:?}, never pulled");
                    if m.unread.remove(&k) {
                        m.unused_evictions += 1;
                    }
                }
                TraceEvent::DropBehind { cache, offset } => {
                    let k = (w.seg_of[&cache], offset / PS);
                    prop_assert!(
                        !m.unread.contains(&k),
                        "(e) step {step}: {k:?} dropped behind unread"
                    );
                    dropped.push(k);
                }
                _ => {}
            }
        }
        prop_assert!(
            !dropped.contains(&key),
            "(e) step {step}: the page being read dropped behind"
        );
        prop_assert_eq!(
            pvm.stats().readahead_unused - unused_before,
            m.unused_evictions - unused_evictions_before,
            "(f) step {}: pages evicted unused against readahead_unused",
            step
        );
        let arriving = pvm.sample_now().arriving_pages;
        prop_assert!(
            arriving * 4 < u64::from(w.frames),
            "(c) step {step}: {arriving} pages in flight in a pool of {}",
            w.frames
        );
    }
    pvm.drain_upcalls();
    pvm.check_invariants();
    Ok(())
}

/// (d): a cold sequential read of `pages` pages of one file.
fn sequential_pulls(frames: u32, pages: u64) -> Result<(), TestCaseError> {
    let w = world(frames, 1, pages);
    let (ctx, _) = w.files[0];
    for p in 0..pages {
        let mut buf = [0u8; PS as usize];
        w.s.pvm
            .vm_read(ctx, VirtAddr(base(0) + p * PS), &mut buf)
            .unwrap();
        prop_assert_eq!(buf[0], p as u8, "page {}", p);
    }
    let pulls = w.s.upcalls(UpcallKind::PullIn).len() as u64;
    let cap = window_cap(frames);
    let bound = pages.div_ceil(cap) + u64::from(cap.trailing_zeros());
    prop_assert!(
        pulls <= bound,
        "(d) {pulls} pulls for {pages} pages in {frames} frames, bound {bound}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn readahead_keeps_its_contract(frames in frames(), program in proptest::collection::vec(burst(), 1..8)) {
        run(frames, &program)?;
    }

    #[test]
    fn a_sequential_read_pulls_one_window_a_message(frames in frames(), pages in 1u64..400) {
        sequential_pulls(frames, pages)?;
    }
}

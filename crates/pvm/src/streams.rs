//! Readahead: the memory manager's own decision to cache a fragment of
//! data nobody has asked for yet (§3.3.3), and every rule of it.
//!
//! Each cache keeps a table of the sequential streams in its miss
//! sequence ([`StreamTable`]). A miss that continues a stream doubles
//! its window up to one IPC message; a stream at the full window has its
//! next window pulled ahead of its reader; the window a stream leaves
//! loses its reference (drop-behind). The rest of the PVM calls in at
//! three points: a miss ([`PvmState::size_pull`]), the first use of a
//! readahead page ([`PvmState::first_use`], from `note_use`) and the end
//! of a driver entry ([`PvmState::ahead_window`], from `Pvm::run_held`).
//!
//! What readahead must never do is DESIGN.md §13's readahead contract,
//! properties (a)–(f), which `tests/readahead_spec.rs` checks over
//! random access programs.

use crate::config::IPC_MESSAGE_PAGES;
use crate::keys::CacheKey;
use crate::state::PvmState;
use crate::stats::Counter;
use crate::telemetry::At;
use crate::trace::TraceEvent;
use chorus_gmi::{PullRequest, Result};
use core::ops::Range;

/// Streams tracked per cache: a fifth replaces the weakest.
const MAX_STREAMS: usize = 4;

/// Misses of the cache a stream may sit out before its window halves.
const STREAM_IDLE_MISSES: u64 = 32;

/// How far a PVM reads ahead, worked out once from its fixed pool size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Readahead {
    /// `pull_cluster_pages`: the window of a miss that continues no
    /// stream.
    floor: u64,
    /// The widest window: doubling from `floor` up to one IPC message
    /// while half of it is under an eighth of the pool, so that what a
    /// window holds beyond its demand page stays under a quarter (a
    /// delivery pins its own earlier pages while the later ones land).
    cap: u64,
    /// A full-window stream keeps its next two windows in flight while
    /// it reads one, rather than one: only where the three stay under a
    /// quarter of the pool.
    pub two: bool,
}

impl Readahead {
    pub fn new(frames: u32, pull_cluster_pages: u64) -> Readahead {
        let (frames, floor) = (u64::from(frames), pull_cluster_pages.max(1));
        let mut cap = floor;
        while cap * 2 <= IPC_MESSAGE_PAGES && cap * 8 < frames {
            cap *= 2;
        }
        let two = 3 * IPC_MESSAGE_PAGES * 4 < frames;
        Readahead { floor, cap, two }
    }
}

/// One detected sequential stream of a cache's miss sequence; an entry
/// with no window is free.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Stream {
    /// The stream's last three pulls, `[from, to)` each, oldest first.
    /// A miss anywhere in `[to, to + window pages)` of the last
    /// continues the stream, so a pull cut short by a resident page
    /// does not break it; a miss at its `from` is that pull driven again
    /// (after it failed, say): same stream, same window. The two before
    /// it are kept while their pages keep their reference (empty
    /// otherwise): an ahead pull is submitted as the reader enters the
    /// pull before the last (or the last, one window deep), so
    /// drop-behind lags behind the reader.
    pulls: [(u64, u64); 3],
    /// The window last granted, in pages, demand page included.
    window: u64,
    /// The table's miss count when the stream last continued.
    seen: u64,
    /// A continuation granted the stream a whole IPC message, and there
    /// may be something past its last pull: the first use of a
    /// readahead page of that pull, or of the one before it, makes the
    /// next window due ([`StreamTable::due`]).
    armed: bool,
    /// The due window at the end of the last pull was counted as
    /// skipped ([`StreamTable::skip`]).
    skipped: bool,
}

/// A cache's stream table. Interleaved random misses and a second
/// sequential reader each get an entry of their own instead of
/// resetting the cursor of the stream that is ramping.
#[derive(Debug, Default)]
pub(crate) struct StreamTable {
    table: [Stream; MAX_STREAMS],
    misses: u64,
}

impl StreamTable {
    /// Finds the stream a miss at `off` belongs to and sets its window.
    /// A miss inside a stream's window continues it and doubles the
    /// window up to `cap`; a miss elsewhere starts a stream of `base`
    /// pages in place of the weakest one (a free entry, else the
    /// smallest window, then the longest idle). `base <= cap`, both at
    /// least one page of `ps` bytes. Returns the stream's index, the
    /// window it had before (0: the miss started it) and, when the miss
    /// *continued* the stream, the byte range of the pulls it has now
    /// left behind. A miss at the last pull's start is that pull driven
    /// again: the stream has left nothing. So is one at the start of the
    /// pull before it (an ahead window given up while the one after it
    /// went on), and the stream stays where it is.
    fn miss(&mut self, off: u64, ps: u64, base: u64, cap: u64) -> (usize, u64, Option<Range<u64>>) {
        self.misses += 1;
        for s in &mut self.table {
            if s.window > 0 && self.misses - s.seen > STREAM_IDLE_MISSES {
                (s.window, s.seen, s.armed) = ((s.window / 2).max(1), self.misses, false);
            }
        }
        let t = &self.table;
        let inside = |s: &Stream| off >= s.pulls[2].1 && (off - s.pulls[2].1) / ps < s.window;
        let behind = |s: &Stream| s.pulls[1].0 == off && off < s.pulls[1].1;
        let widest = (0..MAX_STREAMS).filter(|&i| inside(&t[i]));
        let found = (t.iter().position(|s| s.window > 0 && s.pulls[2].0 == off))
            .or(widest.max_by_key(|&i| t[i].window))
            .or(t.iter().position(behind));
        let weakest = || (0..MAX_STREAMS).min_by_key(|&i| (t[i].window, t[i].seen));
        let slot = found.or_else(weakest).expect("a table of streams");
        // A new stream starts from nothing.
        let s = &mut self.table[slot];
        *s = found.map_or(Stream::default(), |_| *s);
        let before = s.window;
        s.seen = self.misses;
        if before > 0 && (off == s.pulls[2].0 || behind(s)) {
            return (slot, before, None);
        }
        // The pulls ahead pulls left lagging are caught up with here,
        // from the oldest.
        let from = s.pulls.iter().find(|p| p.0 < p.1).unwrap_or(&s.pulls[2]);
        let left = (before > 0).then_some(from.0..s.pulls[2].1);
        s.window = (before * 2).clamp(base, cap);
        s.armed = before > 0 && s.window >= IPC_MESSAGE_PAGES;
        s.pulls = [(0, 0), (0, 0), (off, s.pulls[2].1)];
        (slot, before, left)
    }

    /// Continues stream `slot` at `off` ahead of its reader: no miss, so
    /// the window stays. Returns what [`Self::miss`] does. The pull left
    /// behind is the one before the one the reader has just entered: the
    /// older of the two that lag (`two`), or the one before the last.
    fn ahead(&mut self, slot: usize, off: u64, two: bool) -> (usize, u64, Option<Range<u64>>) {
        let s = &mut self.table[slot];
        let left = core::mem::take(&mut s.pulls[usize::from(!two)]);
        s.pulls.rotate_left(1);
        (s.pulls[2], s.seen) = ((off, s.pulls[1].1), self.misses);
        (slot, s.window, Some(left.0..left.1))
    }

    /// Stream `slot`'s pull at `off` went out and ends at `end`, now
    /// that the run's real end is known: it is the stream's last unless
    /// it was one driven again behind the last. Returns the readahead
    /// hits (the pull continued the stream) and ramps (and widened its
    /// window) to count.
    fn pulled(&mut self, slot: usize, before: u64, off: u64, end: u64) -> (u64, u64) {
        let s = &mut self.table[slot];
        if s.pulls[2].0 == off {
            // A window counted skipped is another once the end moves.
            s.skipped &= core::mem::replace(&mut s.pulls[2].1, end) == end;
        }
        let hit = u64::from(before > 0);
        (hit, hit * u64::from(s.window > before))
    }

    /// The stream whose next window the first use of the readahead page
    /// at `off` makes due: a full-window one whose last pull holds it,
    /// else (`two`: two windows in flight) whose pull before the last
    /// does, as a stale stream's may overlap a live one's last.
    fn due(&self, off: u64, two: bool) -> Option<usize> {
        let holds = |s: &Stream, i: usize| s.armed && (s.pulls[i].0..s.pulls[i].1).contains(&off);
        let at = |i: usize| self.table.iter().position(|s| holds(s, i));
        at(2).or_else(|| two.then(|| at(1))?)
    }

    /// Stream `slot`'s due window was not pulled: true the first time
    /// for the window at the end of its last pull (`ahead_skipped`
    /// counts windows, not the first uses that retry one).
    fn skip(&mut self, slot: usize) -> bool {
        !core::mem::replace(&mut self.table[slot].skipped, true)
    }
}

impl PvmState {
    /// The first use of the readahead page at (`cache`, `off`): when it
    /// lies in the pull a full-window stream is reading (its last, or
    /// the one before: [`Readahead::two`]), that stream's next window
    /// falls due, for [`PvmState::ahead_window`].
    pub fn first_use(&mut self, cache: CacheKey, off: u64) {
        let two = self.readahead.two;
        let due = self.caches.get(cache).and_then(|c| c.streams.due(off, two));
        self.ahead_due = due.map(|slot| (cache, slot)).or(self.ahead_due);
    }

    /// Reading ahead of the reader (DESIGN.md §13): the window after the
    /// one being read by the stream whose next window fell due during
    /// this entry, for the driver to submit with no faulter, counted in
    /// `ahead_pulls`. When there is nothing to pull or no room for it
    /// the window is counted in `ahead_skipped` instead, once.
    pub fn ahead_window(&mut self) -> Option<(CacheKey, PullRequest)> {
        let (cache, slot) = self.ahead_due.take()?;
        if let Some(req) = self.size_ahead(cache, slot) {
            self.stats.bump(Counter::AheadPulls);
            return Some((cache, req));
        }
        let first = self.caches.get_mut(cache).map(|c| c.streams.skip(slot)) != Some(false);
        self.stats.add(Counter::AheadSkipped, u64::from(first));
        self.check_invariants_if_enabled();
        None
    }

    /// Places stream `slot`'s next window. It starts at the first page
    /// at or past the end of the stream's last pull, within its window,
    /// that a pull may cover (the reader steps over the resident ones as
    /// it did before), and is sized as a continuation, with no frame it
    /// would take a `pushOut` to free. `None` when there is nothing to
    /// pull or no room for it: a background request needs two free slots
    /// of its mapper, because the last one is a faulter's.
    fn size_ahead(&mut self, cache: CacheKey, slot: usize) -> Option<PullRequest> {
        let ps = self.ps();
        let desc = self.caches.get_mut(cache).filter(|c| !c.poisoned)?;
        let segment = desc.segment.filter(|&g| self.engine.free_slots(g) >= 2)?;
        let s = Some(desc.streams.table[slot]).filter(|s| s.armed)?;
        let mut reach = (0..s.window).map(|i| s.pulls[2].1 + i * ps);
        let off = reach.find(|&o| desc.pullable(o, ps));
        // Resident or past the segment's end, all of it: the stream is
        // over (its reader's next miss is outside its reach).
        desc.streams.table[slot].armed = off.is_some();
        let off = off?;
        let pages = self.size_pull(cache, off, Some(slot)).ok()?;
        (pages > 0).then(|| self.place_window(cache, segment, off, pages, chorus_hal::Access::Read))
    }

    /// Sizes the `pullIn` run for a miss of `cache` at `off`, in pages
    /// (`ahead`: for stream `ahead` continued before its reader missed).
    ///
    /// The cache's stream table grants a window: `pull_cluster_pages`
    /// for a miss that continues no stream, doubling up to one IPC
    /// message for one that does. The run then stops at the first
    /// resident page, stub or unowned offset and at the segment's end.
    /// Whatever the run holds beyond `pull_cluster_pages` is readahead
    /// the PVM decided on its own, so it is also bounded by what the
    /// pool can take without a single upcall (see
    /// [`PvmState::secure_frames`]): no operation then carries both a
    /// multi-page pull and a `pushOut`.
    ///
    /// A miss that continues a stream also drops the reference of the
    /// window the stream has left, before frames are secured for the
    /// new one: see [`PvmState::drop_behind`].
    pub fn size_pull(&mut self, cache: CacheKey, off: u64, ahead: Option<usize>) -> Result<u64> {
        let (ps, Readahead { floor, cap, two }) = (self.ps(), self.readahead);
        let desc = self.cache_mut(cache)?;
        // A fully-backed cache owns *every* offset: until the segment's
        // length is known nothing bounds a window the mapper never
        // asked for, so the stream table is not consulted at all. `g`:
        // what the table granted (stream, window before, pulls left).
        let g = match ahead {
            Some(slot) => Some(desc.streams.ahead(slot, off, two)),
            None => (!desc.fully_backed || desc.seg_len.is_some())
                .then(|| desc.streams.miss(off, ps, floor, cap)),
        };
        let window = g.as_ref().map_or(floor, |g| desc.streams.table[g.0].window);
        let pullable = |i: &u64| desc.pullable(off + i * ps, ps);
        let mut pages = 1 + (1..window).take_while(pullable).count() as u64;
        if let Some((.., Some(left))) = &g {
            self.drop_behind(cache, left.clone());
        }
        // Nobody waits for an ahead window: nothing free or clean, no
        // window.
        let least = if ahead.is_some() { 0 } else { floor };
        if pages > least {
            pages = self.secure_frames(pages).max(least);
        }
        if let Some((slot, before, _)) = g {
            let streams = &mut self.cache_mut(cache)?.streams;
            let (hits, ramps) = streams.pulled(slot, before, off, off + pages * ps);
            self.count(Counter::ReadaheadHits, hits, At::Cache(cache));
            self.stats.add(Counter::ReadaheadRamps, ramps);
        }
        Ok(pages)
    }

    /// Drop-behind: the resident pages of `left`, the window a stream of
    /// `cache` has just moved past, lose their reference, both halves. A
    /// sequential reader does not come back, so each is the hand's
    /// first-pass victim unless somebody touches it again; without this
    /// every scan page takes two passes and the hand revolves twice as
    /// fast, past hot pages that had no time to be used again.
    ///
    /// A page the stream has read is also put just ahead of the hand
    /// (`next_up`), to go before any the hand would have to clear; an
    /// unread readahead page keeps its place (DESIGN.md §13).
    fn drop_behind(&mut self, key: CacheKey, left: Range<u64>) {
        let (Some(desc), cache, trace) = (self.caches.get(key), key.index(), &self.trace) else {
            return;
        };
        for offset in desc.entries.range(left) {
            if let Some(crate::descriptors::Slot::Present(p)) = self.gmap.get(key, offset) {
                let page = self.pages.get_mut(p).expect("dangling page key");
                let took = page.take_reference(&self.contexts, &mut *self.mmu, &self.model);
                self.stats.add(Counter::DropBehindPages, u64::from(took));
                if !page.prefetched {
                    self.clock.next_up(p);
                    trace.event(|| TraceEvent::DropBehind { cache, offset });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 0x1000;

    /// A miss on page `page` whose pull then covers the whole window.
    fn miss(t: &mut StreamTable, page: u64) -> u64 {
        let (slot, ..) = t.miss(page * PAGE, PAGE, 1, 8);
        let window = t.table[slot].window;
        end(t, slot, (page + window) * PAGE);
        window
    }

    /// Stream `slot`'s last pull ends at `to`.
    fn end(t: &mut StreamTable, slot: usize, to: u64) {
        t.pulled(slot, 0, t.table[slot].pulls[2].0, to);
    }

    #[test]
    fn random_misses_do_not_reset_a_sequential_stream() {
        let mut t = StreamTable::default();
        let mut next = 0;
        let mut windows = Vec::new();
        for round in 0..6 {
            let w = miss(&mut t, next);
            windows.push(w);
            next += w;
            // Three unrelated misses between every two of the stream's.
            for k in 0..3 {
                assert_eq!(miss(&mut t, 1000 + 50 * (3 * round + k)), 1);
            }
        }
        assert_eq!(windows, [1, 2, 4, 8, 8, 8]);
    }

    #[test]
    fn a_fifth_stream_replaces_the_weakest() {
        let mut t = StreamTable::default();
        // Two ramped streams, then two one-page ones: the table is full.
        for start in [0u64, 500] {
            let mut at = start;
            for _ in 0..3 {
                at += miss(&mut t, at);
            }
        }
        miss(&mut t, 2000);
        miss(&mut t, 3000);
        // A fifth takes the older of the two one-page entries (2000)...
        miss(&mut t, 4000);
        assert_eq!(miss(&mut t, 3001), 2, "the younger weak stream survived");
        assert_eq!(miss(&mut t, 2001), 1, "the older one was replaced");
        // ...and both ramped streams are still there.
        assert_eq!(miss(&mut t, 7), 8);
        assert_eq!(miss(&mut t, 507), 8);
    }

    #[test]
    fn two_interleaved_readers_both_reach_the_full_window() {
        let mut t = StreamTable::default();
        let (mut a, mut b) = (0u64, 10_000u64);
        let (mut wa, mut wb) = (0, 0);
        for _ in 0..5 {
            wa = miss(&mut t, a);
            a += wa;
            wb = miss(&mut t, b);
            b += wb;
        }
        assert_eq!((wa, wb), (8, 8));
    }

    #[test]
    fn a_truncated_window_is_continued() {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..3 {
            at += miss(&mut t, at);
        }
        // Granted 8, but a resident page cut the run after 3; the next
        // miss lands behind the resident pages, still inside the window.
        let (slot, before, left) = t.miss(at * PAGE, PAGE, 1, 8);
        assert_eq!((before, t.table[slot].window), (4, 8));
        assert_eq!(left, Some((at - 4) * PAGE..at * PAGE));
        end(&mut t, slot, (at + 3) * PAGE);
        // What the stream leaves behind is the pull as it really ended.
        let cut = Some(at * PAGE..(at + 3) * PAGE);
        assert_eq!(t.miss((at + 5) * PAGE, PAGE, 1, 8), (slot, 8, cut));
        // One page past the window is somebody else's miss.
        end(&mut t, slot, (at + 13) * PAGE);
        assert_eq!(t.miss((at + 13 + 8) * PAGE, PAGE, 1, 8).1, 0);
    }

    #[test]
    fn a_pull_driven_again_keeps_its_stream_and_window() {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..3 {
            at += miss(&mut t, at);
        }
        // The 8-page pull at `at` fails and the access faults again:
        // same stream, same window, and nobody's stream is evicted.
        assert_eq!(miss(&mut t, at), 8);
        assert_eq!(t.miss(at * PAGE, PAGE, 1, 8), (0, 8, None));
        let live = t.table.iter().filter(|s| s.window > 0).count();
        assert_eq!((live, t.table[0].window), (1, 8));
        end(&mut t, 0, (at + 8) * PAGE);
        assert_eq!(miss(&mut t, at + 8), 8);
    }

    #[test]
    fn an_idle_stream_decays_and_the_minimum_window_is_kept() {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..4 {
            at += miss(&mut t, at);
        }
        // The stream sits out a long run of misses: its window halves.
        for k in 0..=STREAM_IDLE_MISSES {
            miss(&mut t, 1_000_000 + 100 * k);
        }
        assert_eq!(miss(&mut t, at), 8, "halved to 4, doubled on the hit");
        for k in 0..=3 * STREAM_IDLE_MISSES + 2 {
            miss(&mut t, 2_000_000 + 100 * k);
        }
        assert_eq!(miss(&mut t, at + 8), 2, "decayed to 1 over three periods");
        // `base` is a floor for new and continued streams alike, and a
        // base above the ceiling is the window.
        let mut t = StreamTable::default();
        assert_eq!(t.miss(0, PAGE, 4, 8), (0, 0, None));
        assert_eq!(t.table[0].window, 4);
        end(&mut t, 0, 4 * PAGE);
        assert_eq!(t.miss(4 * PAGE, PAGE, 4, 8), (0, 4, Some(0..4 * PAGE)));
        assert_eq!(t.table[0].window, 8);
        let mut t = StreamTable::default();
        t.miss(0, PAGE, 16, 16);
        assert_eq!(t.table[0].window, 16);
    }

    #[test]
    fn a_stream_is_read_ahead_from_its_first_full_window_on() {
        // A lone miss's cluster is no stream, however wide.
        let mut t = StreamTable::default();
        t.miss(0, PAGE, 8, 8);
        end(&mut t, 0, 8 * PAGE);
        assert_eq!(t.due(3 * PAGE, true), None);
        // Nor is one still ramping: 1, 2, 4, then the full window.
        let mut t = ramped();
        assert_eq!(
            (t.due(8 * PAGE, true), t.due(15 * PAGE, true)),
            (Some(0), None)
        );
        // The next window goes out ahead; nothing lags yet.
        assert_eq!(t.ahead(0, 15 * PAGE, true), (0, 8, Some(0..0)));
        end(&mut t, 0, 23 * PAGE);
        // The reader is still in 7..15, now the pull before the last:
        // its next first use there makes the window after due as well.
        assert_eq!(
            (t.due(9 * PAGE, true), t.due(16 * PAGE, true)),
            (Some(0), Some(0))
        );
        assert_eq!(t.ahead(0, 23 * PAGE, true), (0, 8, Some(0..0)));
        end(&mut t, 0, 31 * PAGE);
        // Two windows in flight: nothing more of 7..15 makes a third
        // due. Entering 15..23 does, and leaves 7..15 behind.
        assert_eq!(
            (t.due(10 * PAGE, true), t.due(16 * PAGE, true)),
            (None, Some(0))
        );
        assert_eq!(t.ahead(0, 31 * PAGE, true).2, Some(7 * PAGE..15 * PAGE));
        end(&mut t, 0, 39 * PAGE);
        // A miss inside the reach catches up from the oldest pull that
        // lags.
        let caught_up = Some(15 * PAGE..39 * PAGE);
        assert_eq!(t.miss(41 * PAGE, PAGE, 1, 8), (0, 8, caught_up));
        end(&mut t, 0, 49 * PAGE);
        assert_eq!(t.due(42 * PAGE, true), Some(0));
        // An idle stream's window halves: it has to fill again first.
        for k in 0..=STREAM_IDLE_MISSES {
            miss(&mut t, 1_000_000 + 100 * k);
        }
        assert_eq!((t.table[0].window, t.due(42 * PAGE, true)), (4, None));
    }

    /// A stream ramped 1, 2, 4 to its first full window, `7..15`.
    fn ramped() -> StreamTable {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..3 {
            at += miss(&mut t, at);
            assert_eq!(t.due((at - 1) * PAGE, true), None);
        }
        assert_eq!(miss(&mut t, 7), 8);
        t
    }

    #[test]
    fn one_window_deep_the_pull_being_read_is_the_one_that_lags() {
        let mut t = ramped();
        assert_eq!(t.ahead(0, 15 * PAGE, false), (0, 8, Some(0..0)));
        end(&mut t, 0, 23 * PAGE);
        // Only the last pull makes the next window due, and entering it
        // leaves the one before.
        assert_eq!(
            (t.due(9 * PAGE, false), t.due(15 * PAGE, false)),
            (None, Some(0))
        );
        assert_eq!(t.ahead(0, 23 * PAGE, false).2, Some(7 * PAGE..15 * PAGE));
        end(&mut t, 0, 31 * PAGE);
        let caught_up = Some(15 * PAGE..31 * PAGE);
        assert_eq!(t.miss(33 * PAGE, PAGE, 1, 8), (0, 8, caught_up));
    }

    #[test]
    fn a_due_window_is_counted_skipped_once() {
        let mut t = ramped();
        // The first use that found no room, and not the ones that retry.
        assert!(t.skip(0));
        assert!(!t.skip(0));
        assert!(!t.skip(0));
        // The window goes out at last; the one after it is another.
        t.ahead(0, 15 * PAGE, true);
        end(&mut t, 0, 23 * PAGE);
        assert!(t.skip(0));
        assert!(!t.skip(0));
        // A stream that is gone still counts.
        assert!(t.skip(3));
    }
}

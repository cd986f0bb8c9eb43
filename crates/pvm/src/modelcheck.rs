//! Bounded-interleaving model checking of the protocols around the
//! state lock (DESIGN.md §7, §10), in lieu of a vendored `loom`.
//!
//! The protocols whose correctness depends on *ordering between the
//! lock and something outside it* (a condvar's sleeper set, an atomic)
//! are modeled as small state machines and checked exhaustively over
//! every interleaving of their atomic steps:
//!
//! 1. **Stub wait/wake** — a faulting thread finds a `Sync` stub under
//!    the state lock, releases the lock and sleeps on the stub condvar;
//!    the filler publishes the page under the state lock and wakes.
//!    Safety: no lost wakeup and no deadlock. The buggy variant splits
//!    the condvar's atomic release-and-register to show the checker
//!    catches the classic lost-wakeup deadlock.
//!
//! 2. **Counted wake** — the vendored `Condvar` skips the underlying
//!    wake (a futex syscall) when its waiter count reads zero, and the
//!    driver notifies *after* dropping the state lock. Safety: no lost
//!    wakeup, because the count is bumped while the waiter still holds
//!    the mutex: a notifier that changed the predicate under that
//!    mutex either ran first (the waiter sees the predicate and never
//!    sleeps) or acquired it after the waiter released it, with the
//!    bump already visible. The buggy variant bumps the count after
//!    the release and the checker finds the skipped wake.
//!
//! 3. **A window in flight** — a pull window's pages wait parked
//!    behind their stubs until their arrival (DESIGN.md §10), while a
//!    second faulter, a toucher of the tail, the watchdog and a cache
//!    destroyer interleave with submit / arrive / touch / cancel /
//!    destroy. Safety: nobody reads a page before its arrival, every
//!    frame is a resident page's, a parked page's or free, and no stub
//!    is left that nothing will replace. The buggy variant is the
//!    engine as it was before pulls went split-phase — `fillUp` makes
//!    the tail resident at submit — and the checker rejects it with
//!    "read before arrival".
//!
//! 4. **Windows nobody asked for** — ahead windows (DESIGN.md §13)
//!    are model 3's window submitted by entries that then go their way:
//!    no faulter, no mailbox, and two of them in flight while the
//!    reader is still in the window before. The reader reaches the
//!    first one's head while it is mid-submit, a toucher wants the
//!    second one's tail, the watchdog and the destroyer interleave as
//!    before, and the mapper has a cap: a laundering push holds one of
//!    its three slots until it is delivered, and a faulter on some other
//!    page needs one. Each submit moves the stream on and drops behind
//!    the older of the two pulls that lag. Safety: model 3's predicates,
//!    a faulter never finds every slot taken by readahead and pushes,
//!    and drop-behind never takes the window the reader is in. One
//!    buggy variant is the ahead submit that takes the last slot
//!    instead of leaving it, rejected with "faulter forced behind
//!    readahead"; the other drops the newer lagging pull, rejected with
//!    "drop-behind took the window being read".
//!
//! The checker itself is a plain DFS over `(shared, locals, pcs)`
//! configurations with memoization and a hard state cap — deliberately
//! tiny, deterministic, and dependency-free. A step that returns
//! [`Outcome::Block`] is discarded (the explorer steps a *clone* of
//! the configuration), so blocked probes are side-effect-free by
//! construction. Reaching no runnable thread with work outstanding is
//! reported as a deadlock; a `violation` predicate over the shared
//! state reports safety failures, each with the full schedule that
//! produced it.

#![allow(clippy::type_complexity)]

use std::collections::HashSet;
use std::hash::Hash;

/// Result of one atomic step of a modeled thread.
enum Outcome {
    /// Advance to the next program counter.
    Next,
    /// Jump to an explicit program counter (loops, retries).
    Goto(usize),
    /// Cannot run in this configuration (lock held, no wake pending).
    /// The explorer discards the attempted step.
    Block,
    /// Thread finished.
    Done,
}

/// One modeled thread: a name for traces and a pure step function
/// `(shared, local, pc) -> Outcome`.
struct ThreadModel<S, L> {
    name: &'static str,
    local: L,
    step: fn(&mut S, &mut L, usize) -> Outcome,
}

/// What an exhaustive run explored (for non-vacuity asserts).
#[derive(Debug)]
struct Report {
    states: usize,
}

/// Hard cap on explored configurations: these models have dozens of
/// reachable states, so hitting the cap means a model regression, not
/// a big model.
const MAX_STATES: usize = 100_000;

/// Exhaustively explores every interleaving from the initial
/// configuration. Returns a violation or deadlock as `Err` with the
/// schedule that reached it.
fn explore<S, L>(
    shared: S,
    threads: Vec<ThreadModel<S, L>>,
    violation: fn(&S) -> Option<&'static str>,
) -> Result<Report, String>
where
    S: Clone + Eq + Hash,
    L: Clone + Eq + Hash,
{
    let steps: Vec<(&'static str, fn(&mut S, &mut L, usize) -> Outcome)> =
        threads.iter().map(|t| (t.name, t.step)).collect();
    let init: (S, Vec<(L, usize, bool)>) = (
        shared,
        threads.into_iter().map(|t| (t.local, 0, false)).collect(),
    );
    let mut visited = HashSet::new();
    let mut report = Report { states: 0 };
    let mut trace = Vec::new();
    dfs(
        init,
        &steps,
        violation,
        &mut visited,
        &mut trace,
        &mut report,
    )?;
    Ok(report)
}

fn dfs<S, L>(
    cfg: (S, Vec<(L, usize, bool)>),
    steps: &[(&'static str, fn(&mut S, &mut L, usize) -> Outcome)],
    violation: fn(&S) -> Option<&'static str>,
    visited: &mut HashSet<(S, Vec<(L, usize, bool)>)>,
    trace: &mut Vec<String>,
    report: &mut Report,
) -> Result<(), String>
where
    S: Clone + Eq + Hash,
    L: Clone + Eq + Hash,
{
    if !visited.insert(cfg.clone()) {
        return Ok(());
    }
    report.states += 1;
    assert!(
        report.states <= MAX_STATES,
        "model exceeded {MAX_STATES} states — the model, not the bound, is wrong"
    );
    if let Some(what) = violation(&cfg.0) {
        return Err(format!(
            "violation: {what}\n  schedule: {}",
            trace.join(" -> ")
        ));
    }
    let mut ran_any = false;
    let mut all_done = true;
    for i in 0..cfg.1.len() {
        if cfg.1[i].2 {
            continue;
        }
        all_done = false;
        let (name, step) = steps[i];
        let mut next = cfg.clone();
        let pc = next.1[i].1;
        match step(&mut next.0, &mut next.1[i].0, pc) {
            Outcome::Block => continue,
            Outcome::Next => next.1[i].1 = pc + 1,
            Outcome::Goto(p) => next.1[i].1 = p,
            Outcome::Done => next.1[i].2 = true,
        }
        ran_any = true;
        trace.push(format!("{name}@{pc}"));
        let res = dfs(next, steps, violation, visited, trace, report);
        trace.pop();
        res?;
    }
    if !ran_any && !all_done {
        let stuck: Vec<_> = cfg
            .1
            .iter()
            .zip(steps)
            .filter(|(t, _)| !t.2)
            .map(|(t, (name, _))| format!("{name}@{}", t.1))
            .collect();
        return Err(format!(
            "deadlock: {} blocked\n  schedule: {}",
            stuck.join(", "),
            trace.join(" -> ")
        ));
    }
    Ok(())
}

/// For a model whose property is liveness: a lost wake-up surfaces as
/// the explorer's deadlock report, so there is no safety predicate.
fn no_violation<S>(_: &S) -> Option<&'static str> {
    None
}

// ---------------------------------------------------------------
// Model 1: stub wait/wake.
// ---------------------------------------------------------------

/// Shared state of the stub handoff: one `Sync` stub and the state
/// lock.
#[derive(Clone, PartialEq, Eq, Hash)]
struct StubShared {
    state_locked: bool,
    /// false = `Sync` stub in the slot, true = page published.
    slot_present: bool,
    /// Condvar waiters registered on the stub.
    waiters: u8,
    /// Pending wake permits.
    wakes: u8,
}

impl StubShared {
    fn init() -> Self {
        StubShared {
            state_locked: false,
            slot_present: false,
            waiters: 0,
            wakes: 0,
        }
    }
}

/// The implemented waiter: check the slot under the state lock;
/// `Sync` means register-and-release *atomically* (condvar wait
/// semantics), then sleep until a wake permit arrives and recheck.
fn waiter_atomic(s: &mut StubShared, _l: &mut (), pc: usize) -> Outcome {
    match pc {
        0 => {
            if s.state_locked {
                return Outcome::Block;
            }
            s.state_locked = true;
            Outcome::Next
        }
        1 => {
            if s.slot_present {
                s.state_locked = false;
                return Outcome::Done;
            }
            // Condvar wait: registering the waiter and releasing the
            // mutex are one atomic action.
            s.waiters += 1;
            s.state_locked = false;
            Outcome::Next
        }
        2 => {
            if s.wakes == 0 {
                return Outcome::Block;
            }
            s.wakes -= 1;
            s.waiters -= 1;
            Outcome::Goto(0)
        }
        _ => unreachable!(),
    }
}

/// Buggy waiter: releases the state lock, *then* registers — the
/// filler can slip into the gap and its wake is lost.
fn waiter_split(s: &mut StubShared, _l: &mut (), pc: usize) -> Outcome {
    match pc {
        0 => {
            if s.state_locked {
                return Outcome::Block;
            }
            s.state_locked = true;
            Outcome::Next
        }
        1 => {
            if s.slot_present {
                s.state_locked = false;
                return Outcome::Done;
            }
            s.state_locked = false;
            Outcome::Next
        }
        2 => {
            s.waiters += 1;
            Outcome::Next
        }
        3 => {
            if s.wakes == 0 {
                return Outcome::Block;
            }
            s.wakes -= 1;
            s.waiters -= 1;
            Outcome::Goto(0)
        }
        _ => unreachable!(),
    }
}

/// The filler: publish the page and notify under the state lock.
fn filler(s: &mut StubShared, _l: &mut (), pc: usize) -> Outcome {
    match pc {
        0 => {
            if s.state_locked {
                return Outcome::Block;
            }
            s.state_locked = true;
            Outcome::Next
        }
        1 => {
            s.slot_present = true;
            s.wakes += s.waiters;
            s.state_locked = false;
            Outcome::Done
        }
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------
// Model 2: "notify only if waiters > 0" (the vendored Condvar).
// ---------------------------------------------------------------

/// Shared state of the counted-wake handoff: one mutex, the predicate
/// it guards, the shim's waiter count and the underlying primitive's
/// own sleeper set (whose register-and-release is atomic, as in
/// model 1).
#[derive(Clone, PartialEq, Eq, Hash)]
struct CountedShared {
    locked: bool,
    /// What the waiter waits for; only ever written under the mutex.
    predicate: bool,
    /// The shim's `waiters` atomic: what `notify_all` reads.
    count: u8,
    /// Threads asleep in the underlying condvar.
    sleeping: u8,
    /// Pending wake permits.
    wakes: u8,
}

impl CountedShared {
    fn init() -> Self {
        CountedShared {
            locked: false,
            predicate: false,
            count: 0,
            sleeping: 0,
            wakes: 0,
        }
    }
}

/// The implemented waiter: bump the count with the mutex held, sleep
/// (atomic register-and-release), and drop the count after
/// re-acquiring the mutex.
fn counted_waiter(s: &mut CountedShared, _l: &mut (), pc: usize) -> Outcome {
    match pc {
        0 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            Outcome::Next
        }
        1 => {
            if s.predicate {
                s.locked = false;
                return Outcome::Done;
            }
            s.count += 1;
            Outcome::Next
        }
        2 => {
            s.sleeping += 1;
            s.locked = false;
            Outcome::Next
        }
        3 => {
            if s.wakes == 0 {
                return Outcome::Block;
            }
            s.wakes -= 1;
            s.sleeping -= 1;
            Outcome::Next
        }
        4 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            s.count -= 1;
            Outcome::Goto(1)
        }
        _ => unreachable!(),
    }
}

/// Buggy waiter: goes to sleep first and bumps the count only after
/// the mutex is released — the notifier can read zero in the gap.
fn counted_waiter_late_bump(s: &mut CountedShared, _l: &mut (), pc: usize) -> Outcome {
    match pc {
        0 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            Outcome::Next
        }
        1 => {
            if s.predicate {
                s.locked = false;
                return Outcome::Done;
            }
            s.sleeping += 1;
            s.locked = false;
            Outcome::Next
        }
        2 => {
            s.count += 1;
            Outcome::Next
        }
        3 => {
            if s.wakes == 0 {
                return Outcome::Block;
            }
            s.wakes -= 1;
            s.sleeping -= 1;
            Outcome::Next
        }
        4 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            s.count -= 1;
            Outcome::Goto(1)
        }
        _ => unreachable!(),
    }
}

/// The notifier, as the driver does it: change the predicate under the
/// mutex, unlock, then wake — but only if the count reads non-zero.
fn counted_notifier(s: &mut CountedShared, _l: &mut (), pc: usize) -> Outcome {
    match pc {
        0 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            Outcome::Next
        }
        1 => {
            s.predicate = true;
            s.locked = false;
            Outcome::Next
        }
        2 => {
            if s.count > 0 {
                s.wakes += s.sleeping;
            }
            Outcome::Done
        }
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------
// Model 3: a pull window in flight.
// ---------------------------------------------------------------

/// Pages in a modeled window: the head (a faulter's demand page, or
/// the first page of an ahead window) and one tail page.
const WINDOW: usize = 2;

/// Windows in flight at most: model 3 has one, model 4 the two a
/// stream keeps ahead of its reader.
const WINDOWS: usize = 2;

#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
enum Slot {
    #[default]
    Absent,
    Stub,
    Present,
}

/// One window: its pages and its record in the completion engine.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Window {
    slot: [Slot; WINDOW],
    /// `Some(filled)` while the page is in the engine's parked table.
    parked: [Option<bool>; WINDOW],
    /// The page's arrival time has passed (a delivery advanced the
    /// clock to it).
    arrived: [bool; WINDOW],
    /// The window's record is in the completion queue (and its parked
    /// pages carry their arrival times).
    queued: bool,
    /// Its submitter is mid-submit, the lock released for the mapper.
    submitting: bool,
    /// It holds one of the mapper's slots, and was submitted ahead.
    holds_slot: bool,
    ahead: bool,
}

/// Model 4's stream names its pulls: 0 for none, this for the one its
/// reader is in, the next two for the modeled windows 0 and 1.
const READING: u8 = 1;

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct WindowShared {
    locked: bool,
    /// The seeded bug of model 3: `fillUp` lands the tail at submit.
    eager_tail: bool,
    /// The cache was destroyed.
    dead: bool,
    win: [Window; WINDOWS],
    free_frames: usize,
    read_early: bool,
    /// In-flight slots the windows' mapper has free (model 3's one
    /// window always finds one).
    slots_free: u8,
    /// The seeded bug of model 4: the ahead submit takes the last slot.
    takes_last_slot: bool,
    /// A faulter found no slot while readahead held one.
    forced: bool,
    /// Model 4's stream: the two pulls before its last, older first,
    /// and its last (the ring of `StreamTable::ahead`). A miss at
    /// `READING` set it up: nothing lags.
    before: [u8; 2],
    last: u8,
    /// The seeded bug of model 4: drop-behind takes `before[1]`.
    drops_newer: bool,
    /// The reader has gone on from `READING` to window 0.
    moved_on: bool,
    /// Drop-behind took the window the reader is in.
    dropped_read: bool,
}

/// Requests the modeled mapper may have in flight.
const SLOTS: u8 = 3;

/// A modeled thread's own state: the (window, page) a toucher wants;
/// the flag of a reaper (destroys) or mapper client (faults); the
/// window an ahead submitter sends next.
type Local = (usize, usize);

impl WindowShared {
    fn init(eager_tail: bool) -> Self {
        WindowShared {
            eager_tail,
            free_frames: WINDOW * WINDOWS,
            slots_free: SLOTS,
            last: READING,
            ..WindowShared::default()
        }
    }

    /// Model 4: a laundering push holds one of the mapper's slots.
    fn init_capped(takes_last_slot: bool, drops_newer: bool) -> Self {
        WindowShared {
            takes_last_slot,
            drops_newer,
            slots_free: SLOTS - 1,
            ..WindowShared::init(false)
        }
    }

    /// A miss, or an ahead submit: stubs and parked entries for window
    /// `w` (it stops at a resident page) and a slot of the mapper, then
    /// the mapper with the lock released.
    fn submit(&mut self, w: usize, ahead: bool) {
        let win = &mut self.win[w];
        let pages = win.slot.iter().take_while(|&&x| x == Slot::Absent).count();
        for k in 0..pages {
            (win.slot[k], win.parked[k]) = (Slot::Stub, Some(false));
        }
        win.submitting = true;
        (win.holds_slot, win.ahead) = (true, ahead);
        self.slots_free -= 1;
        self.locked = false;
    }

    /// The stream goes on to window `w` ahead of its reader, and drops
    /// behind the pull before the one the reader is in.
    fn ahead_of_reader(&mut self, w: usize) {
        let [older, newer] = self.before;
        let left = if self.drops_newer { newer } else { older };
        self.dropped_read |= left == READING && !self.moved_on;
        self.before = [newer, self.last];
        self.last = READING + 1 + w as u8;
    }

    /// `fillUp`: every page of window `w` that is still wanted gets a
    /// frame.
    fn fill_up(&mut self, w: usize) {
        for k in 0..WINDOW {
            if self.win[w].parked[k] == Some(false) {
                self.free_frames -= 1;
                if self.eager_tail && k > 0 {
                    self.win[w].parked[k] = None;
                    self.win[w].slot[k] = Slot::Present;
                } else {
                    self.win[w].parked[k] = Some(true);
                }
            }
        }
        self.locked = false;
    }

    /// Window `w`'s record leaves the queue, delivered or cancelled:
    /// its slot is the mapper's again.
    fn conclude(&mut self, w: usize) {
        let win = &mut self.win[w];
        win.queued = false;
        self.slots_free += u8::from(core::mem::take(&mut win.holds_slot));
        win.ahead = false;
    }

    /// Page `k` of window `w` arrives: a parked page takes its stub's
    /// place; one the mapper never filled leaves nothing but a cleared
    /// stub.
    fn arrive(&mut self, w: usize, k: usize) {
        let win = &mut self.win[w];
        win.arrived[k] = true;
        match win.parked[k].take() {
            Some(true) => win.slot[k] = Slot::Present,
            Some(false) => win.slot[k] = Slot::Absent,
            None => {}
        }
    }

    /// Delivers window `w` whole, as a wait for its completion does.
    fn deliver(&mut self, w: usize) {
        (0..WINDOW).for_each(|k| self.arrive(w, k));
        self.conclude(w);
    }

    /// Gives up every page of window `w` still parked: frames freed,
    /// stubs cleared.
    fn give_up(&mut self, w: usize) {
        for k in 0..WINDOW {
            if let Some(filled) = self.win[w].parked[k].take() {
                self.free_frames += usize::from(filled);
                self.win[w].slot[k] = Slot::Absent;
            }
        }
    }
}

fn window_violation(s: &WindowShared) -> Option<&'static str> {
    let pages = |of: fn(&Window, usize) -> bool| {
        s.win
            .iter()
            .map(|w| (0..WINDOW).filter(|&k| of(w, k)).count())
            .sum::<usize>()
    };
    let resident = pages(|w, k| w.slot[k] == Slot::Present);
    let parked = pages(|w, k| w.parked[k] == Some(true));
    if s.read_early {
        Some("read before arrival")
    } else if s.forced {
        Some("faulter forced behind readahead")
    } else if s.dropped_read {
        Some("drop-behind took the window being read")
    } else if s.free_frames + resident + parked != WINDOW * WINDOWS {
        Some("frame leaked")
    } else if pages(|w, k| (w.slot[k] == Slot::Stub) != w.parked[k].is_some()) > 0 {
        Some("a stub and its parked page parted")
    } else if !s.locked
        && s.win
            .iter()
            .any(|w| !w.submitting && !w.queued && w.parked != [None; WINDOW])
    {
        Some("a parked page nothing will deliver")
    } else {
        None
    }
}

/// A thread that wants page `k` of window `w`: a faulter on the head
/// (two of them race for the submit), a toucher of a tail, or model 4's
/// reader going on to the head of the first window ahead of it.
fn window_toucher(s: &mut WindowShared, &mut (w, k): &mut Local, pc: usize) -> Outcome {
    match pc {
        // Lock (also the mapper's `fillUp` re-locking, pc 2, and the
        // submitter re-locking after the protocol, pc 4).
        0 | 2 | 4 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            Outcome::Next
        }
        // One attempt, under the lock.
        1 => {
            s.moved_on |= (w, k) == (0, 0);
            let win = s.win[w];
            match win.slot[k] {
                _ if s.dead => {
                    s.locked = false;
                    Outcome::Done
                }
                Slot::Present => {
                    s.read_early |= !win.arrived[k];
                    s.locked = false;
                    Outcome::Done
                }
                // The page is parked and its arrival known: wait for
                // that, and no further. One the mapper never filled waits
                // for the window's completion, which lands what is left;
                // with the window's faulter mid-submit, a bounded sleep.
                Slot::Stub if win.queued && win.parked[k] == Some(true) => {
                    s.arrive(w, k);
                    Outcome::Goto(1)
                }
                Slot::Stub if win.queued => {
                    s.deliver(w);
                    Outcome::Goto(1)
                }
                Slot::Stub => {
                    s.locked = false;
                    Outcome::Goto(0)
                }
                // A miss on the head: stubs and parked entries for the
                // window, then the mapper with the lock released. (A miss
                // on the tail would be a window of its own.) Over the
                // mapper's cap it waits for a delivery first.
                Slot::Absent if k == 0 && !win.submitting && s.slots_free == 0 => {
                    s.locked = false;
                    Outcome::Goto(0)
                }
                Slot::Absent if k == 0 && !win.submitting => {
                    s.submit(w, false);
                    Outcome::Next
                }
                Slot::Absent => {
                    s.locked = false;
                    Outcome::Done
                }
            }
        }
        3 => {
            s.fill_up(w);
            Outcome::Next
        }
        // The record is queued; the attempt goes on under the lock.
        5 => {
            s.win[w].queued = true;
            s.win[w].submitting = false;
            Outcome::Goto(1)
        }
        _ => unreachable!(),
    }
}

/// The watchdog (`destroy` 0) cancels the queued windows; the cache
/// destroyer frees everything the cache has, in flight or resident.
fn window_reaper(s: &mut WindowShared, &mut (destroy, _): &mut Local, pc: usize) -> Outcome {
    if pc == 0 {
        if s.locked {
            return Outcome::Block;
        }
        s.locked = true;
        return Outcome::Next;
    }
    for w in 0..WINDOWS {
        if destroy == 1 {
            s.dead = true;
            s.give_up(w);
            for slot in &mut s.win[w].slot {
                if core::mem::replace(slot, Slot::Absent) == Slot::Present {
                    s.free_frames += 1;
                }
            }
        } else if s.win[w].queued {
            s.conclude(w);
            s.give_up(w);
        }
    }
    s.locked = false;
    Outcome::Done
}

// ---------------------------------------------------------------
// Model 4: two ahead windows, drop-behind, and the mapper's last slot.
// ---------------------------------------------------------------

/// The entries that find the stream's next windows due, one after the
/// other (`*w`: the window this one sends): each submits its window if
/// the mapper has two slots free (one, with the seeded bug), queues it
/// and goes its way; one that finds no room ends the run. Going on to
/// a window drops the stream's pull behind the reader's.
fn ahead_submitter(s: &mut WindowShared, (w, _): &mut Local, pc: usize) -> Outcome {
    match pc {
        0 | 2 | 4 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            Outcome::Next
        }
        1 => {
            let need = if s.takes_last_slot { 1 } else { 2 };
            if s.dead || s.win[*w].slot != [Slot::Absent; WINDOW] || s.slots_free < need {
                s.locked = false;
                return Outcome::Done;
            }
            s.ahead_of_reader(*w);
            s.submit(*w, true);
            Outcome::Next
        }
        3 => {
            s.fill_up(*w);
            Outcome::Next
        }
        5 => {
            s.win[*w].queued = true;
            s.win[*w].submitting = false;
            s.locked = false;
            *w += 1;
            if *w == WINDOWS {
                Outcome::Done
            } else {
                Outcome::Goto(0)
            }
        }
        _ => unreachable!(),
    }
}

/// The rest of the mapper's traffic. The laundering push (`faulter`
/// 0) is delivered and gives its slot back. The faulter on another
/// page takes a slot for its pull and gives it back at delivery;
/// finding none, it forces the earliest completion, as `perform` does.
fn mapper_client(s: &mut WindowShared, &mut (faulter, _): &mut Local, pc: usize) -> Outcome {
    match pc {
        0 | 2 => {
            if s.locked {
                return Outcome::Block;
            }
            s.locked = true;
            Outcome::Next
        }
        1 if faulter == 1 && s.slots_free == 0 => {
            // Readahead took the last slot, unless another faulter did.
            let held = |ahead| s.win.iter().any(|w| w.holds_slot && w.ahead == ahead);
            s.forced |= held(true) && !held(false);
            if let Some(w) = (0..WINDOWS).find(|&w| s.win[w].queued) {
                s.deliver(w);
            }
            s.locked = false;
            Outcome::Goto(0)
        }
        1 if faulter == 1 => {
            s.slots_free -= 1;
            s.locked = false;
            Outcome::Next
        }
        1 | 3 => {
            s.slots_free += 1;
            s.locked = false;
            Outcome::Done
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_threads() -> Vec<ThreadModel<WindowShared, Local>> {
        let thread = |name, local, step| ThreadModel { name, local, step };
        vec![
            thread(
                "faulter",
                (0, 0),
                window_toucher as fn(&mut _, &mut _, _) -> _,
            ),
            thread("second", (0, 0), window_toucher),
            thread("toucher", (0, 1), window_toucher),
            thread("watchdog", (0, 0), window_reaper),
            thread("destroyer", (1, 0), window_reaper),
        ]
    }

    /// The reader goes on to the head of the first window ahead; the
    /// toucher wants the tail of the second.
    fn ahead_threads() -> Vec<ThreadModel<WindowShared, Local>> {
        let thread = |name, local, step| ThreadModel { name, local, step };
        vec![
            thread(
                "ahead",
                (0, 0),
                ahead_submitter as fn(&mut _, &mut _, _) -> _,
            ),
            thread("reader", (0, 0), window_toucher),
            thread("toucher", (1, 1), window_toucher),
            thread("watchdog", (0, 0), window_reaper),
            thread("destroyer", (1, 0), window_reaper),
            thread("push", (0, 0), mapper_client),
            thread("faulter", (1, 0), mapper_client),
        ]
    }

    #[test]
    fn an_ahead_window_leaves_the_mappers_last_slot_to_a_faulter() {
        let report = explore(
            WindowShared::init_capped(false, false),
            ahead_threads(),
            window_violation,
        )
        .expect(
            "two windows with no faulter are as safe as one with, and never in a faulter's way",
        );
        assert!(
            report.states > 5000,
            "model vacuously small: {}",
            report.states
        );
    }

    #[test]
    fn an_ahead_submit_that_takes_the_last_slot_forces_a_faulter() {
        let err = explore(
            WindowShared::init_capped(true, false),
            ahead_threads(),
            window_violation,
        )
        .expect_err("the last slot taken by readahead must be caught");
        assert!(err.contains("faulter forced behind readahead"), "{err}");
    }

    #[test]
    fn drop_behind_that_takes_the_newer_lagging_pull_takes_the_window_being_read() {
        let err = explore(
            WindowShared::init_capped(false, true),
            ahead_threads(),
            window_violation,
        )
        .expect_err("dropping the reader's own window must be caught");
        assert!(
            err.contains("drop-behind took the window being read"),
            "{err}"
        );
    }

    #[test]
    fn nobody_reads_a_page_of_a_window_before_its_arrival() {
        let report = explore(
            WindowShared::init(false),
            window_threads(),
            window_violation,
        )
        .expect("parked pages stay behind their stubs in every interleaving");
        assert!(
            report.states > 200,
            "model vacuously small: {}",
            report.states
        );
    }

    #[test]
    fn a_tail_resident_at_submit_is_read_before_its_arrival() {
        let err = explore(WindowShared::init(true), window_threads(), window_violation)
            .expect_err("an eagerly landed tail must be caught");
        assert!(err.contains("read before arrival"), "{err}");
    }

    fn stub_threads(
        waiter: fn(&mut StubShared, &mut (), usize) -> Outcome,
    ) -> Vec<ThreadModel<StubShared, ()>> {
        vec![
            ThreadModel {
                name: "waiter",
                local: (),
                step: waiter,
            },
            ThreadModel {
                name: "filler",
                local: (),
                step: filler,
            },
        ]
    }

    #[test]
    fn stub_wait_wake_never_loses_a_wakeup() {
        let report = explore(
            StubShared::init(),
            stub_threads(waiter_atomic),
            no_violation,
        )
        .expect("atomic register-and-release must terminate in every interleaving");
        assert!(
            report.states > 5,
            "model vacuously small: {}",
            report.states
        );
    }

    #[test]
    fn stub_wait_with_split_release_deadlocks() {
        let err = explore(StubShared::init(), stub_threads(waiter_split), no_violation)
            .expect_err("a lost wakeup must surface as a deadlock");
        assert!(err.contains("deadlock"), "{err}");
    }

    fn counted_threads(
        waiter: fn(&mut CountedShared, &mut (), usize) -> Outcome,
    ) -> Vec<ThreadModel<CountedShared, ()>> {
        vec![
            ThreadModel {
                name: "waiter",
                local: (),
                step: waiter,
            },
            ThreadModel {
                name: "notifier",
                local: (),
                step: counted_notifier,
            },
        ]
    }

    #[test]
    fn counted_wake_never_loses_a_wakeup() {
        let report = explore(
            CountedShared::init(),
            counted_threads(counted_waiter),
            no_violation,
        )
        .expect("a count bumped under the mutex must never hide a waiter");
        assert!(
            report.states > 8,
            "model vacuously small: {}",
            report.states
        );
    }

    #[test]
    fn counted_wake_with_late_bump_deadlocks() {
        let err = explore(
            CountedShared::init(),
            counted_threads(counted_waiter_late_bump),
            no_violation,
        )
        .expect_err("a count bumped after the release must lose a wakeup");
        assert!(err.contains("deadlock"), "{err}");
        assert!(
            err.contains("waiter@3"),
            "the waiter must be the one asleep: {err}"
        );
    }
}

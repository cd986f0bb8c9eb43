//! Copy/move semantics across all deferred-copy techniques (§3.3.1,
//! §4.3).

mod common;

use chorus_gmi::{CacheId, CopyMode, CtxId, Gmi, GmiError, Prot, RegionId, VirtAddr};
use chorus_hal::OpKind;
use chorus_pvm::{MmuChoice, Pvm, SlotDump};
use common::*;
use std::sync::Arc;

#[test]
fn per_page_copy_defers_and_isolates() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x10, (4 * PS) as usize))
        .unwrap();
    let dst = pvm.cache_create(None).unwrap();
    let copies_before = pvm.mem_stats().copied;
    pvm.cache_copy_with(src, 0, dst, 0, 4 * PS, CopyMode::PerPage)
        .unwrap();
    // Nothing copied yet; four stubs installed.
    assert_eq!(pvm.mem_stats().copied, copies_before);
    assert_eq!(pvm.stats().cow_stubs_created, 4);
    let dump = pvm.dump_caches();
    let stub_count = dump
        .cache(dst)
        .unwrap()
        .slots
        .iter()
        .filter(|(_, s)| matches!(s, SlotDump::CowStub))
        .count();
    assert_eq!(stub_count, 4);

    // Reads through the stub see the source value without copying.
    assert_eq!(
        pvm.read_logical(dst, PS, 8).unwrap(),
        pattern(0x10, (4 * PS) as usize)[PS as usize..PS as usize + 8]
    );
    assert_eq!(
        pvm.mem_stats().copied,
        copies_before,
        "reads do not materialize"
    );

    // "When a write violation occurs on a copy-on-write page stub, a new
    // page frame is allocated with a copy of the source page."
    pvm.write_logical(dst, 0, b"DIFF").unwrap();
    assert_eq!(pvm.read_logical(src, 0, 4).unwrap(), pattern(0x10, 4));
    let mut expect = pattern(0x10, PS as usize);
    expect[..4].copy_from_slice(b"DIFF");
    assert_eq!(pvm.read_logical(dst, 0, PS as usize).unwrap(), expect);
}

#[test]
fn per_page_source_write_preserves_stub_values() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x40, PS as usize))
        .unwrap();
    let dst = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, dst, 0, PS, CopyMode::PerPage)
        .unwrap();
    // Writing the *source* must not change what the stub destination
    // reads.
    pvm.write_logical(src, 0, &pattern(0x99, PS as usize))
        .unwrap();
    assert_eq!(
        pvm.read_logical(dst, 0, PS as usize).unwrap(),
        pattern(0x40, PS as usize)
    );
    assert_eq!(
        pvm.read_logical(src, 0, PS as usize).unwrap(),
        pattern(0x99, PS as usize)
    );
}

#[test]
fn per_page_multiple_destinations_thread_on_source() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x40, PS as usize))
        .unwrap();
    // Copy the same source page to three destinations ("the source page
    // is accessible, for reads, through any cache to which it was
    // copied").
    let dsts: Vec<_> = (0..3)
        .map(|_| {
            let d = pvm.cache_create(None).unwrap();
            pvm.cache_copy_with(src, 0, d, 0, PS, CopyMode::PerPage)
                .unwrap();
            d
        })
        .collect();
    for &d in &dsts {
        assert_eq!(pvm.read_logical(d, 0, 8).unwrap(), pattern(0x40, 8));
    }
    // Source write: one original materialization serves all stubs.
    pvm.write_logical(src, 0, &pattern(0x99, PS as usize))
        .unwrap();
    for &d in &dsts {
        assert_eq!(
            pvm.read_logical(d, 0, PS as usize).unwrap(),
            pattern(0x40, PS as usize),
            "{d:?}"
        );
    }
    // Each destination can still diverge independently.
    pvm.write_logical(dsts[1], 0, b"mine").unwrap();
    assert_eq!(pvm.read_logical(dsts[0], 0, 4).unwrap(), pattern(0x40, 4));
    assert_eq!(pvm.read_logical(dsts[1], 0, 4).unwrap(), b"mine");
    assert_eq!(pvm.read_logical(dsts[2], 0, 4).unwrap(), pattern(0x40, 4));
}

#[test]
fn move_transfers_frames_without_copying() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x33, (4 * PS) as usize))
        .unwrap();
    let dst = pvm.cache_create(None).unwrap();
    let copies_before = pvm.mem_stats().copied;
    pvm.cache_move(src, 0, dst, 0, 4 * PS).unwrap();
    assert_eq!(pvm.mem_stats().copied, copies_before, "move must not bcopy");
    assert_eq!(pvm.stats().moved_frames, 4);
    assert_eq!(
        pvm.read_logical(dst, 0, (4 * PS) as usize).unwrap(),
        pattern(0x33, (4 * PS) as usize)
    );
    // Source content is undefined; its pages are gone.
    assert_eq!(pvm.cache_resident_pages(src).unwrap(), 0);
}

#[test]
fn move_with_offset_shift() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 2 * PS, &pattern(0x44, (2 * PS) as usize))
        .unwrap();
    let dst = pvm.cache_create(None).unwrap();
    pvm.cache_move(src, 2 * PS, dst, 6 * PS, 2 * PS).unwrap();
    assert_eq!(
        pvm.read_logical(dst, 6 * PS, (2 * PS) as usize).unwrap(),
        pattern(0x44, (2 * PS) as usize)
    );
}

#[test]
fn move_of_cow_protected_pages_falls_back_to_stubs() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x55, (2 * PS) as usize))
        .unwrap();
    // src now has a history child: its frames cannot be stolen.
    let child = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, child, 0, 2 * PS, CopyMode::HistoryCow)
        .unwrap();
    let dst = pvm.cache_create(None).unwrap();
    pvm.cache_move(src, 0, dst, 0, 2 * PS).unwrap();
    assert_eq!(
        pvm.stats().moved_frames,
        0,
        "protected frames must not be stolen"
    );
    // Both the history child and the move destination read the data.
    assert_eq!(pvm.read_logical(child, 0, 8).unwrap(), pattern(0x55, 8));
    assert_eq!(pvm.read_logical(dst, 0, 8).unwrap(), pattern(0x55, 8));
}

#[test]
fn eager_copy_handles_unaligned_ranges() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    let data = pattern(0x21, (3 * PS) as usize);
    pvm.write_logical(src, 0, &data).unwrap();
    let dst = pvm.cache_create(None).unwrap();
    // Unaligned offsets and size: byte-exact copy.
    pvm.cache_copy_with(src, 13, dst, 7, 2 * PS + 11, CopyMode::Eager)
        .unwrap();
    assert_eq!(
        pvm.read_logical(dst, 7, (2 * PS + 11) as usize).unwrap(),
        data[13..13 + (2 * PS + 11) as usize]
    );
    // Immediately isolated (eager = real copy).
    pvm.write_logical(src, 13, b"XX").unwrap();
    assert_eq!(pvm.read_logical(dst, 7, 2).unwrap(), data[13..15]);
}

#[test]
fn auto_mode_picks_technique_by_size() {
    let (pvm, _) = setup(200);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(1, (20 * PS) as usize))
        .unwrap();
    // Small aligned copy (<= 8 pages): per-page stubs.
    let d1 = pvm.cache_create(None).unwrap();
    pvm.cache_copy(src, 0, d1, 0, 4 * PS).unwrap();
    assert_eq!(pvm.stats().cow_stubs_created, 4);
    assert_eq!(pvm.stats().working_objects, 0);
    let h_before = pvm.dump_caches().cache(src).unwrap().history;
    assert_eq!(h_before, None, "per-page copies do not build history trees");
    // Large aligned copy: history objects.
    let d2 = pvm.cache_create(None).unwrap();
    pvm.cache_copy(src, 0, d2, 0, 20 * PS).unwrap();
    assert_eq!(pvm.dump_caches().cache(src).unwrap().history, Some(d2));
    // Unaligned copy: eager (no new stubs or history links; real byte
    // copies are charged).
    let d3 = pvm.cache_create(None).unwrap();
    let stubs_before = pvm.stats().cow_stubs_created;
    let bcopy_before = pvm.cost_model().count(chorus_hal::OpKind::BcopyPage);
    pvm.cache_copy(src, 1, d3, 0, PS).unwrap();
    assert_eq!(pvm.stats().cow_stubs_created, stubs_before);
    assert!(pvm.cost_model().count(chorus_hal::OpKind::BcopyPage) > bcopy_before);
    assert_eq!(
        pvm.read_logical(d3, 0, PS as usize).unwrap(),
        pattern(1, (20 * PS) as usize)[1..1 + PS as usize]
    );
}

#[test]
fn deferred_copy_rejects_unaligned_and_self() {
    let (pvm, _) = setup(16);
    let a = pvm.cache_create(None).unwrap();
    let b = pvm.cache_create(None).unwrap();
    assert!(matches!(
        pvm.cache_copy_with(a, 1, b, 0, PS, CopyMode::HistoryCow),
        Err(GmiError::Unaligned { .. })
    ));
    assert!(matches!(
        pvm.cache_copy_with(a, 0, b, 0, PS - 1, CopyMode::PerPage),
        Err(GmiError::Unaligned { .. })
    ));
    assert!(matches!(
        pvm.cache_copy_with(a, 0, a, PS, PS, CopyMode::HistoryCow),
        Err(GmiError::InvalidArgument(_))
    ));
    // Overlapping eager self-copy is rejected; disjoint is fine.
    pvm.write_logical(a, 0, &pattern(5, PS as usize)).unwrap();
    assert!(matches!(
        pvm.cache_copy_with(a, 0, a, 4, PS, CopyMode::Eager),
        Err(GmiError::InvalidArgument(_))
    ));
    pvm.cache_copy_with(a, 0, a, 4 * PS, PS, CopyMode::Eager)
        .unwrap();
    assert_eq!(pvm.read_logical(a, 4 * PS, 8).unwrap(), pattern(5, 8));
}

#[test]
fn copy_zero_size_is_noop() {
    let (pvm, _) = setup(8);
    let a = pvm.cache_create(None).unwrap();
    let b = pvm.cache_create(None).unwrap();
    for mode in [
        CopyMode::Auto,
        CopyMode::HistoryCow,
        CopyMode::PerPage,
        CopyMode::Eager,
    ] {
        pvm.cache_copy_with(a, 0, b, 0, 0, mode).unwrap();
    }
    assert_eq!(pvm.cache_count(), 2);
}

#[test]
fn per_page_copy_through_mapped_regions() {
    // The IPC scenario: copy a message between two mapped segments and
    // access both sides through their mappings.
    let (pvm, _) = setup(64);
    let sender = pvm.cache_create(None).unwrap();
    let receiver = pvm.cache_create(None).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0x1000), 2 * PS, Prot::RW, sender, 0)
        .unwrap();
    pvm.region_create(ctx, VirtAddr(0x8000), 2 * PS, Prot::RW, receiver, 0)
        .unwrap();
    write(&pvm, ctx, 0x1000, &pattern(0xAB, (2 * PS) as usize));
    pvm.cache_copy_with(sender, 0, receiver, 0, 2 * PS, CopyMode::PerPage)
        .unwrap();
    // The receiver's mapping reads the message...
    assert_eq!(
        read(&pvm, ctx, 0x8000, (2 * PS) as usize),
        pattern(0xAB, (2 * PS) as usize)
    );
    // ...the sender reuses its buffer...
    write(&pvm, ctx, 0x1000, &pattern(0xCD, (2 * PS) as usize));
    // ...and the receiver still sees the original message.
    assert_eq!(
        read(&pvm, ctx, 0x8000, (2 * PS) as usize),
        pattern(0xAB, (2 * PS) as usize)
    );
}

#[test]
fn copy_from_segment_backed_cache_pulls_through() {
    let (pvm, mgr) = setup(64);
    let content = pattern(0x60, (4 * PS) as usize);
    let seg = mgr.create_segment(&content);
    let file = pvm.cache_create(Some(seg)).unwrap();
    let anon = pvm.cache_create(None).unwrap();
    // Deferred copy from a file cache with nothing resident.
    pvm.cache_copy_with(file, 0, anon, 0, 4 * PS, CopyMode::HistoryCow)
        .unwrap();
    assert_eq!(
        pvm.read_logical(anon, PS, 16).unwrap(),
        content[PS as usize..PS as usize + 16]
    );
    assert!(
        pvm.stats().pull_ins >= 1,
        "data pulled through the copy chain"
    );
    // Writes in the copy do not touch the file.
    pvm.write_logical(anon, PS, b"local").unwrap();
    assert_eq!(mgr.segment_data(seg), content);
    assert_eq!(
        pvm.read_logical(file, PS, 5).unwrap(),
        content[PS as usize..PS as usize + 5]
    );
}

#[test]
fn move_into_larger_message_slot_then_back() {
    // Round-trip through a "transit slot" as IPC does (§5.1.6):
    // sender -> transit (copy), transit -> receiver (move).
    let (pvm, _) = setup(64);
    let sender = pvm.cache_create(None).unwrap();
    let transit = pvm.cache_create(None).unwrap();
    let receiver = pvm.cache_create(None).unwrap();
    let msg = pattern(0x7E, (2 * PS) as usize);
    pvm.write_logical(sender, 0, &msg).unwrap();
    pvm.cache_copy_with(sender, 0, transit, 4 * PS, 2 * PS, CopyMode::PerPage)
        .unwrap();
    pvm.cache_move(transit, 4 * PS, receiver, 0, 2 * PS)
        .unwrap();
    assert_eq!(pvm.read_logical(receiver, 0, msg.len()).unwrap(), msg);
    // Transit slot is empty again and reusable.
    assert_eq!(pvm.cache_resident_pages(transit).unwrap(), 0);
    pvm.write_logical(sender, 0, &pattern(0x11, (2 * PS) as usize))
        .unwrap();
    assert_eq!(
        pvm.read_logical(receiver, 0, msg.len()).unwrap(),
        msg,
        "receiver isolated"
    );
}

// ----- a dying source whose page a history copy and a stub both need ------

const HIST_VA: u64 = 0x1_0000;
const STUB_VA: u64 = 0x2_0000;

/// A source page with a history copy `hist` and a per-page copy `stub`,
/// both mapped in one context and read once, after which the source is
/// destroyed. With `keep_zombie` the source also holds a per-page stub
/// of its own, which keeps it from merging into `hist`: it stays a
/// zombie internal node. Asserts that the destroy copies nothing and
/// that both copies still read the original.
struct Shared {
    pvm: Arc<Pvm>,
    ctx: CtxId,
    hist: CacheId,
    hist_region: RegionId,
    original: Vec<u8>,
}

impl Shared {
    fn new(mmu: MmuChoice, keep_zombie: bool) -> Shared {
        let (pvm, _) = setup_with(32, |o| o.mmu = mmu);
        let original = pattern(0x5A, PS as usize);
        let src = pvm.cache_create(None).unwrap();
        pvm.write_logical(src, 0, &original).unwrap();
        if keep_zombie {
            let other = pvm.cache_create(None).unwrap();
            pvm.write_logical(other, 0, &pattern(0x0F, PS as usize))
                .unwrap();
            pvm.cache_copy_with(other, 0, src, PS, PS, CopyMode::PerPage)
                .unwrap();
        }
        let hist = pvm.cache_create(None).unwrap();
        let stub = pvm.cache_create(None).unwrap();
        pvm.cache_copy_with(src, 0, hist, 0, PS, CopyMode::HistoryCow)
            .unwrap();
        pvm.cache_copy_with(src, 0, stub, 0, PS, CopyMode::PerPage)
            .unwrap();
        let ctx = pvm.context_create().unwrap();
        let hist_region = pvm
            .region_create(ctx, VirtAddr(HIST_VA), PS, Prot::RW, hist, 0)
            .unwrap();
        pvm.region_create(ctx, VirtAddr(STUB_VA), PS, Prot::RW, stub, 0)
            .unwrap();
        let shared = Shared {
            pvm,
            ctx,
            hist,
            hist_region,
            original,
        };
        shared.assert_reads(&shared.original, &shared.original);

        let (copies, allocs, merges) = shared.charges();
        shared.pvm.cache_destroy(src).unwrap();
        let (copies_after, allocs_after, merges_after) = shared.charges();
        assert_eq!(copies_after - copies, 0, "the destroy copies nothing");
        assert_eq!(allocs_after - allocs, 0, "the destroy allocates nothing");
        assert_eq!(
            merges_after - merges,
            u64::from(!keep_zombie),
            "the zombie merges into the history copy unless it holds a stub"
        );
        let dump = shared.pvm.dump_caches();
        assert_eq!(
            dump.cache(hist)
                .unwrap()
                .slots
                .iter()
                .any(|&(o, s)| o == 0 && matches!(s, SlotDump::Page { .. })),
            !keep_zombie,
            "a merge carries the stubbed page down into the history copy"
        );
        shared.assert_reads(&shared.original, &shared.original);
        shared
    }

    /// (BcopyPage, FrameAlloc, zombie merges) so far.
    fn charges(&self) -> (u64, u64, u64) {
        let model = self.pvm.cost_model();
        (
            model.count(OpKind::BcopyPage),
            model.count(OpKind::FrameAlloc),
            self.pvm.stats().zombie_merges,
        )
    }

    fn assert_reads(&self, hist: &[u8], stub: &[u8]) {
        assert_eq!(read(&self.pvm, self.ctx, HIST_VA, PS as usize), hist);
        assert_eq!(read(&self.pvm, self.ctx, STUB_VA, PS as usize), stub);
    }
}

/// Both fates of the zombie, on both MMUs.
fn each_case(mut f: impl FnMut(MmuChoice, bool)) {
    for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
        for keep_zombie in [false, true] {
            f(mmu, keep_zombie);
        }
    }
}

#[test]
fn a_dying_source_keeps_its_stubbed_page_for_both_copies() {
    each_case(|mmu, keep_zombie| {
        let s = Shared::new(mmu, keep_zombie);
        s.pvm.check_invariants();
    });
}

/// Writes `writes` (true: the history copy, false: the stub holder) in
/// order, then checks every byte and the copies those writes made.
fn writes_cost(mmu: MmuChoice, keep_zombie: bool, writes: &[bool], copies: u64) {
    let s = Shared::new(mmu, keep_zombie);
    let before = s.charges().0;
    let (mut hist, mut stub) = (s.original.clone(), s.original.clone());
    for &on_hist in writes {
        let (va, bytes, tag) = if on_hist {
            (HIST_VA, &mut hist, b"hist")
        } else {
            (STUB_VA, &mut stub, b"stub")
        };
        write(&s.pvm, s.ctx, va + 8, tag);
        bytes[8..12].copy_from_slice(tag);
        s.assert_reads(&hist, &stub);
    }
    let case = format!("{mmu:?}, keep_zombie {keep_zombie}, writes {writes:?}");
    assert_eq!(s.charges().0 - before, copies, "{case}");
    s.pvm.check_invariants();
}

#[test]
fn the_first_write_on_either_side_makes_the_one_copy() {
    // (history first, stub holder first, one side only): after a merge
    // the history copy owns the page and its first write hands the
    // original to the stub; a zombie that stays is copied out of by
    // each side that writes, as before the source died.
    let orders: [(&[bool], u64, u64); 4] = [
        (&[true, false], 1, 2),
        (&[false, true], 1, 2),
        (&[true], 1, 1),
        (&[false], 1, 1),
    ];
    each_case(|mmu, keep_zombie| {
        for (writes, merged, kept) in orders {
            let copies = if keep_zombie { kept } else { merged };
            writes_cost(mmu, keep_zombie, writes, copies);
            // A second round of writes is in place.
            writes_cost(mmu, keep_zombie, &[writes, writes].concat(), copies);
        }
    });
}

#[test]
fn nobody_writes_and_the_history_copy_dies_without_a_copy() {
    each_case(|mmu, keep_zombie| {
        let s = Shared::new(mmu, keep_zombie);
        let before = s.charges().0;
        s.pvm.region_destroy(s.hist_region).unwrap();
        s.pvm.cache_destroy(s.hist).unwrap();
        assert_eq!(
            read(&s.pvm, s.ctx, STUB_VA, PS as usize),
            s.original,
            "the stub holder is handed the page"
        );
        write(&s.pvm, s.ctx, STUB_VA, b"mine");
        assert_eq!(
            s.charges().0 - before,
            0,
            "{mmu:?}, keep_zombie {keep_zombie}"
        );
        s.pvm.check_invariants();
    });
}

#[test]
fn a_merge_hands_a_page_the_history_copy_replaced_to_its_stubs() {
    for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
        let (pvm, _) = setup_with(32, |o| o.mmu = mmu);
        let original = pattern(0x3C, PS as usize);
        let src = pvm.cache_create(None).unwrap();
        pvm.write_logical(src, 0, &original).unwrap();
        let hist = pvm.cache_create(None).unwrap();
        let stub = pvm.cache_create(None).unwrap();
        pvm.cache_copy_with(src, 0, hist, 0, PS, CopyMode::HistoryCow)
            .unwrap();
        pvm.cache_copy_with(src, 0, stub, 0, PS, CopyMode::PerPage)
            .unwrap();
        let ctx = pvm.context_create().unwrap();
        pvm.region_create(ctx, VirtAddr(HIST_VA), PS, Prot::RW, hist, 0)
            .unwrap();
        pvm.region_create(ctx, VirtAddr(STUB_VA), PS, Prot::RW, stub, 0)
            .unwrap();
        write(&pvm, ctx, HIST_VA, b"mine");
        assert_eq!(read(&pvm, ctx, STUB_VA, PS as usize), original);
        // The history copy has its own version: the merge gives the
        // source's page to the stub holder instead of freeing it.
        let model = pvm.cost_model();
        let copies = model.count(OpKind::BcopyPage);
        let merges = pvm.stats().zombie_merges;
        pvm.cache_destroy(src).unwrap();
        assert_eq!(pvm.stats().zombie_merges - merges, 1);
        assert_eq!(read(&pvm, ctx, STUB_VA, PS as usize), original);
        write(&pvm, ctx, STUB_VA, b"also");
        assert_eq!(model.count(OpKind::BcopyPage) - copies, 0, "{mmu:?}");
        let mut hist_bytes = original.clone();
        hist_bytes[..4].copy_from_slice(b"mine");
        assert_eq!(read(&pvm, ctx, HIST_VA, PS as usize), hist_bytes);
        pvm.check_invariants();
    }
}

// ----- a move hands a transit slot's stubs to the receiver (§5.1.6) -------

const A_VA: u64 = 0x1_0000;
const B_VA: u64 = 0x2_0000;

/// The first per-page stub on a page mapped writable once: the stub's
/// own protect plus the one MMU entry it turns read-only.
const FIRST_STUB_PROTECTS: u64 = 2;

/// (ProtectPage, BcopyPage, FrameAlloc, stubs created) so far.
fn stub_charges(pvm: &Pvm) -> [u64; 4] {
    let model = pvm.cost_model();
    [
        model.count(OpKind::ProtectPage),
        model.count(OpKind::BcopyPage),
        model.count(OpKind::FrameAlloc),
        pvm.stats().cow_stubs_created,
    ]
}

fn charged_since(pvm: &Pvm, before: [u64; 4]) -> [u64; 4] {
    let now = stub_charges(pvm);
    core::array::from_fn(|k| now[k] - before[k])
}

/// `cache`'s slot at `off`, if it has one.
fn slot_at(pvm: &Pvm, cache: CacheId, off: u64) -> Option<SlotDump> {
    let dump = pvm.dump_caches();
    let slots = &dump.cache(cache).unwrap().slots;
    slots.iter().find(|&&(o, _)| o == off).map(|&(_, s)| s)
}

/// A source `a` mapped at `A_VA` and written (so its page is mapped
/// writable), and a receiver `b` mapped at `B_VA`, on `mmu`.
fn sender_and_receiver(mmu: MmuChoice, original: &[u8]) -> (Arc<Pvm>, CtxId, CacheId, CacheId) {
    let (pvm, _) = setup_with(32, |o| o.mmu = mmu);
    let (a, b) = (
        pvm.cache_create(None).unwrap(),
        pvm.cache_create(None).unwrap(),
    );
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(A_VA), PS, Prot::RW, a, 0)
        .unwrap();
    pvm.region_create(ctx, VirtAddr(B_VA), PS, Prot::RW, b, 0)
        .unwrap();
    write(&pvm, ctx, A_VA, original);
    (pvm, ctx, a, b)
}

#[test]
fn a_move_hands_a_stub_to_the_receiver_as_it_stands() {
    for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
        let original = pattern(0x6B, PS as usize);
        let (pvm, ctx, a, b) = sender_and_receiver(mmu, &original);
        let transit = pvm.cache_create(None).unwrap();
        pvm.cache_copy_with(a, 0, transit, 0, PS, CopyMode::PerPage)
            .unwrap();
        let before = stub_charges(&pvm);
        pvm.cache_move(transit, 0, b, 0, PS).unwrap();
        assert_eq!(
            charged_since(&pvm, before),
            [0; 4],
            "{mmu:?}: a moved stub protects, copies, allocates and creates nothing"
        );
        assert_eq!(slot_at(&pvm, transit, 0), None, "{mmu:?}");
        assert_eq!(slot_at(&pvm, b, 0), Some(SlotDump::CowStub), "{mmu:?}");
        assert_eq!(read(&pvm, ctx, B_VA, PS as usize), original);

        // The sender writes: its one copy goes to the receiver, whose
        // own write is then in place.
        let copies = pvm.cost_model().count(OpKind::BcopyPage);
        write(&pvm, ctx, A_VA, b"sent");
        assert_eq!(read(&pvm, ctx, B_VA, PS as usize), original);
        write(&pvm, ctx, B_VA + 8, b"mine");
        assert_eq!(
            pvm.cost_model().count(OpKind::BcopyPage) - copies,
            1,
            "{mmu:?}"
        );
        let (mut sent, mut mine) = (original.clone(), original.clone());
        sent[..4].copy_from_slice(b"sent");
        mine[8..12].copy_from_slice(b"mine");
        assert_eq!(read(&pvm, ctx, A_VA, PS as usize), sent);
        assert_eq!(read(&pvm, ctx, B_VA, PS as usize), mine);
        pvm.check_invariants();
    }
}

#[test]
fn a_moved_location_stub_resolves_on_the_receivers_read() {
    for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
        let (pvm, _) = setup_with(8, |o| o.mmu = mmu);
        let original = pattern(0x2D, PS as usize);
        let a = pvm.cache_create(None).unwrap();
        pvm.write_logical(a, 0, &original).unwrap();
        // Swap the source page out by thrashing.
        let noise = pvm.cache_create(None).unwrap();
        pvm.write_logical(noise, 0, &pattern(9, (16 * PS) as usize))
            .unwrap();
        assert_eq!(pvm.cache_resident_pages(a).unwrap(), 0, "{mmu:?}");
        let (transit, b) = (
            pvm.cache_create(None).unwrap(),
            pvm.cache_create(None).unwrap(),
        );
        pvm.cache_copy_with(a, 0, transit, 0, PS, CopyMode::PerPage)
            .unwrap();
        let before = stub_charges(&pvm);
        pvm.cache_move(transit, 0, b, 0, PS).unwrap();
        assert_eq!(charged_since(&pvm, before), [0; 4], "{mmu:?}");
        assert_eq!(slot_at(&pvm, transit, 0), None, "{mmu:?}");
        assert_eq!(slot_at(&pvm, b, 0), Some(SlotDump::CowStub), "{mmu:?}");
        assert_eq!(pvm.read_logical(b, 0, PS as usize).unwrap(), original);
        pvm.write_logical(a, 0, b"sent").unwrap();
        assert_eq!(pvm.read_logical(b, 0, PS as usize).unwrap(), original);
        pvm.check_invariants();
    }
}

#[test]
fn a_stub_the_sources_history_copy_needs_is_copied_not_moved() {
    for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
        let original = pattern(0x4E, PS as usize);
        let (pvm, ctx, a, b) = sender_and_receiver(mmu, &original);
        let transit = pvm.cache_create(None).unwrap();
        let hist = pvm.cache_create(None).unwrap();
        pvm.cache_copy_with(a, 0, transit, 0, PS, CopyMode::PerPage)
            .unwrap();
        pvm.cache_copy_with(transit, 0, hist, 0, PS, CopyMode::HistoryCow)
            .unwrap();
        pvm.cache_move(transit, 0, b, 0, PS).unwrap();
        assert_eq!(
            slot_at(&pvm, transit, 0),
            Some(SlotDump::CowStub),
            "{mmu:?}: the history copy still reads through the source's stub"
        );
        assert_eq!(pvm.read_logical(hist, 0, PS as usize).unwrap(), original);
        assert_eq!(read(&pvm, ctx, B_VA, PS as usize), original);
        write(&pvm, ctx, A_VA, b"sent");
        assert_eq!(pvm.read_logical(hist, 0, PS as usize).unwrap(), original);
        assert_eq!(read(&pvm, ctx, B_VA, PS as usize), original);
        pvm.check_invariants();
    }
}

#[test]
fn a_page_that_carries_stubs_is_protected_once() {
    for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
        let original = pattern(0x17, PS as usize);
        let (pvm, ctx, a, _) = sender_and_receiver(mmu, &original);
        let (d1, d2) = (
            pvm.cache_create(None).unwrap(),
            pvm.cache_create(None).unwrap(),
        );
        let protects = || pvm.cost_model().count(OpKind::ProtectPage);
        let before = protects();
        pvm.cache_copy_with(a, 0, d1, 0, PS, CopyMode::PerPage)
            .unwrap();
        assert_eq!(protects() - before, FIRST_STUB_PROTECTS, "{mmu:?}");
        let before = protects();
        pvm.cache_copy_with(a, 0, d2, 0, PS, CopyMode::PerPage)
            .unwrap();
        assert_eq!(protects() - before, 0, "{mmu:?}: already read-only");
        write(&pvm, ctx, A_VA, b"sent");
        for d in [d1, d2] {
            assert_eq!(pvm.read_logical(d, 0, PS as usize).unwrap(), original);
        }
        pvm.check_invariants();
    }
}

//! Property tests of the PVM's address-space management: the region
//! list against a naive interval model, and mapped access against a
//! flat-memory oracle.

mod common;

use chorus_gmi::{Gmi, GmiError, Prot, RegionId, VirtAddr};
use chorus_pvm::MmuChoice;
use proptest::prelude::*;

const PS: u64 = common::PS;
const SLOTS: u64 = 32; // Virtual window of 32 pages for the fuzz.

#[derive(Clone, Debug)]
enum RegionOp {
    Create { page: u8, pages: u8 },
    Destroy { idx: usize },
    Split { idx: usize, at_page: u8 },
    Find { page: u8 },
}

fn region_op() -> impl Strategy<Value = RegionOp> {
    prop_oneof![
        3 => (0..SLOTS as u8, 1..8u8).prop_map(|(page, pages)| RegionOp::Create { page, pages }),
        2 => (0..16usize).prop_map(|idx| RegionOp::Destroy { idx }),
        2 => (0..16usize, 1..8u8).prop_map(|(idx, at_page)| RegionOp::Split { idx, at_page }),
        2 => (0..SLOTS as u8).prop_map(|page| RegionOp::Find { page }),
    ]
}

/// Reference model: a list of (start_page, pages) intervals.
#[derive(Default)]
struct IntervalModel {
    spans: Vec<(u64, u64, RegionId)>,
}

impl IntervalModel {
    fn overlaps(&self, start: u64, pages: u64) -> bool {
        self.spans
            .iter()
            .any(|&(s, n, _)| s < start + pages && start < s + n)
    }

    fn find(&self, page: u64) -> Option<RegionId> {
        self.spans
            .iter()
            .find(|&&(s, n, _)| page >= s && page < s + n)
            .map(|&(_, _, r)| r)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// Region create/destroy/split/find agrees with a naive interval
    /// model, on both MMUs: overlaps rejected exactly when the model says
    /// so, lookups land in the right region, splits preserve coverage.
    /// Every region is written as it is created, so destroy and split
    /// run over mapped pages, and a destroyed region's pages fault.
    #[test]
    fn region_list_matches_interval_model(ops in proptest::collection::vec(region_op(), 1..80)) {
        for mmu in [MmuChoice::Soft, MmuChoice::TwoLevel] {
            let (pvm, _) = common::setup_with(64, |o| o.mmu = mmu);
            let ctx = pvm.context_create().unwrap();
            let cache = pvm.cache_create(None).unwrap();
            let mut model = IntervalModel::default();

            for op in ops.iter().cloned() {
                match op {
                    RegionOp::Create { page, pages } => {
                        let start = page as u64 % SLOTS;
                        let pages = (pages as u64).min(SLOTS - start).max(1);
                        let addr = VirtAddr(start * PS);
                        let res = pvm.region_create(ctx, addr, pages * PS, Prot::RW, cache, start * PS);
                        if model.overlaps(start, pages) {
                            prop_assert!(matches!(res, Err(GmiError::RegionOverlap { .. })), "{res:?}");
                        } else {
                            let id = res.unwrap();
                            pvm.vm_write(ctx, addr, &[start as u8]).unwrap();
                            model.spans.push((start, pages, id));
                        }
                    }
                    RegionOp::Destroy { idx } => {
                        if model.spans.is_empty() { continue; }
                        let (start, _, id) = model.spans.swap_remove(idx % model.spans.len());
                        pvm.region_destroy(id).unwrap();
                        prop_assert!(pvm.region_status(id).is_err());
                        // The page written at creation is no longer mapped.
                        let gone = pvm.vm_read(ctx, VirtAddr(start * PS), &mut [0u8]);
                        prop_assert!(matches!(gone, Err(GmiError::SegmentationFault { .. })), "{gone:?}");
                    }
                    RegionOp::Split { idx, at_page } => {
                        if model.spans.is_empty() { continue; }
                        let i = idx % model.spans.len();
                        let (start, pages, id) = model.spans[i];
                        let at = at_page as u64;
                        let res = pvm.region_split(id, at * PS);
                        if at == 0 || at >= pages {
                            prop_assert!(res.is_err());
                        } else {
                            let upper = res.unwrap();
                            model.spans[i] = (start, at, id);
                            model.spans.push((start + at, pages - at, upper));
                        }
                    }
                    RegionOp::Find { page } => {
                        let va = VirtAddr((page as u64 % SLOTS) * PS + 3);
                        let got = pvm.find_region(ctx, va).ok();
                        prop_assert_eq!(got, model.find(page as u64 % SLOTS));
                    }
                }
                // Region operations do not run the checker themselves.
                pvm.check_invariants();
                // Cross-check the full listing.
                let listing = pvm.region_list(ctx).unwrap();
                prop_assert_eq!(listing.len(), model.spans.len());
                let mut addrs: Vec<u64> = listing.iter().map(|(_, s)| s.addr.0).collect();
                prop_assert!(addrs.windows(2).all(|w| w[0] < w[1]), "sorted: {addrs:?}");
                addrs.sort_unstable();
                let mut expect: Vec<u64> = model.spans.iter().map(|&(s, _, _)| s * PS).collect();
                expect.sort_unstable();
                prop_assert_eq!(addrs, expect);
            }
        }
    }

    /// Mapped access through regions (windows at arbitrary page-aligned
    /// segment offsets) agrees with a flat-memory oracle, including
    /// across region splits and re-creations.
    #[test]
    fn mapped_access_matches_flat_oracle(
        writes in proptest::collection::vec(
            (0..SLOTS as u32 * 64, 1..48u8, any::<u8>()),
            1..40,
        ),
        window_page in 0..8u8,
    ) {
        let (pvm, _) = common::setup(64);
        let ctx = pvm.context_create().unwrap();
        let cache = pvm.cache_create(None).unwrap();
        // A region whose window starts at an arbitrary page offset.
        let win_off = window_page as u64 * PS;
        let base = VirtAddr(0x4_0000);
        let size = 16 * PS;
        pvm.region_create(ctx, base, size, Prot::RW, cache, win_off).unwrap();
        let mut oracle = vec![0u8; size as usize];

        for (off, len, seed) in writes {
            let off = off as u64 % (size - 64);
            let len = len as usize;
            let data: Vec<u8> = (0..len).map(|k| seed.wrapping_add(k as u8)).collect();
            pvm.vm_write(ctx, VirtAddr(base.0 + off), &data).unwrap();
            oracle[off as usize..off as usize + len].copy_from_slice(&data);
        }
        // Mapped reads agree with the oracle...
        let mut got = vec![0u8; size as usize];
        pvm.vm_read(ctx, base, &mut got).unwrap();
        prop_assert_eq!(&got, &oracle);
        // ...and the unified cache sees the same bytes at the window
        // offset (explicit access path, §3.2).
        let mut through_cache = vec![0u8; size as usize];
        pvm.cache_read(cache, win_off, &mut through_cache).unwrap();
        prop_assert_eq!(&through_cache, &oracle);
    }
}

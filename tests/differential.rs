//! Differential model testing: random operation sequences are applied
//! both to a memory manager under test and to a trivially-correct oracle
//! that tracks the logical bytes of every cache. After every step the
//! full logical contents must agree.
//!
//! The same harness runs against the PVM (history objects) and — once a
//! second `Gmi` implementation is in scope — against the Mach-style
//! shadow baseline, which also makes the two implementations
//! behaviourally equivalent by transitivity. Frame pools are kept small
//! so page replacement, lazy swap binding and stub re-pointing all fire
//! during the random walks.

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CacheId, CopyMode, Gmi};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::trace::{Resolution, TraceEvent};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use proptest::prelude::*;
use std::sync::Arc;

const PS: u64 = 64;
const PAGES: u64 = 6;
const SIZE: usize = (PS * PAGES) as usize;
const MAX_CACHES: usize = 6;

#[derive(Clone, Debug)]
enum Op {
    Create,
    Destroy {
        idx: usize,
    },
    Write {
        idx: usize,
        off: u16,
        len: u8,
        seed: u8,
    },
    CopyHistory {
        src: usize,
        dst: usize,
        src_page: u8,
        dst_page: u8,
        pages: u8,
        cor: bool,
    },
    CopyPerPage {
        src: usize,
        dst: usize,
        src_page: u8,
        dst_page: u8,
        pages: u8,
    },
    CopyEager {
        src: usize,
        dst: usize,
        src_off: u16,
        dst_off: u16,
        len: u8,
    },
    Move {
        src: usize,
        dst: usize,
        src_page: u8,
        dst_page: u8,
        pages: u8,
    },
    Sync {
        idx: usize,
    },
    Flush {
        idx: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Create),
        1 => (0..MAX_CACHES).prop_map(|idx| Op::Destroy { idx }),
        6 => (0..MAX_CACHES, 0..SIZE as u16, 1..64u8, any::<u8>())
            .prop_map(|(idx, off, len, seed)| Op::Write { idx, off, len, seed }),
        3 => (0..MAX_CACHES, 0..MAX_CACHES, 0..PAGES as u8, 0..PAGES as u8, 1..=PAGES as u8, any::<bool>())
            .prop_map(|(src, dst, src_page, dst_page, pages, cor)| Op::CopyHistory {
                src, dst, src_page, dst_page, pages, cor
            }),
        3 => (0..MAX_CACHES, 0..MAX_CACHES, 0..PAGES as u8, 0..PAGES as u8, 1..=PAGES as u8)
            .prop_map(|(src, dst, src_page, dst_page, pages)| Op::CopyPerPage {
                src, dst, src_page, dst_page, pages
            }),
        2 => (0..MAX_CACHES, 0..MAX_CACHES, 0..SIZE as u16, 0..SIZE as u16, 1..96u8)
            .prop_map(|(src, dst, src_off, dst_off, len)| Op::CopyEager {
                src, dst, src_off, dst_off, len
            }),
        2 => (0..MAX_CACHES, 0..MAX_CACHES, 0..PAGES as u8, 0..PAGES as u8, 1..=PAGES as u8)
            .prop_map(|(src, dst, src_page, dst_page, pages)| Op::Move {
                src, dst, src_page, dst_page, pages
            }),
        1 => (0..MAX_CACHES).prop_map(|idx| Op::Sync { idx }),
        1 => (0..MAX_CACHES).prop_map(|idx| Op::Flush { idx }),
    ]
}

/// The oracle: plain byte arrays plus an "undefined" mask (move leaves
/// its source undefined, so those bytes are exempt from comparison).
struct Model {
    caches: Vec<Option<(Vec<u8>, Vec<bool>)>>,
}

impl Model {
    fn new() -> Model {
        Model { caches: Vec::new() }
    }

    fn live(&self, idx: usize) -> Option<usize> {
        // Map a raw index onto the idx-th live slot, wrapping.
        let live: Vec<usize> = self
            .caches
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            None
        } else {
            Some(live[idx % live.len()])
        }
    }
}

fn clamp_range(off: u64, len: u64) -> (u64, u64) {
    let off = off.min(SIZE as u64 - 1);
    let len = len.min(SIZE as u64 - off).max(1);
    (off, len)
}

fn clamp_pages(page: u8, pages: u8) -> (u64, u64) {
    let page = (page as u64).min(PAGES - 1);
    let pages = (pages as u64).min(PAGES - page).max(1);
    (page * PS, pages * PS)
}

fn run_differential<G: Gmi>(gmi: &G, ops: &[Op]) {
    run_differential_with(gmi, ops, |_| {});
}

/// Like [`run_differential`], calling `before_op(index)` before every
/// operation — the hook for sprinkling mapper faults into the walk.
fn run_differential_with<G: Gmi>(gmi: &G, ops: &[Op], mut before_op: impl FnMut(usize)) {
    let mut model = Model::new();
    let mut ids: Vec<Option<CacheId>> = Vec::new();

    for (op_index, op) in ops.iter().enumerate() {
        before_op(op_index);
        match op.clone() {
            Op::Create => {
                if model.caches.iter().filter(|c| c.is_some()).count() >= MAX_CACHES {
                    continue;
                }
                let id = gmi.cache_create(None).unwrap();
                model
                    .caches
                    .push(Some((vec![0u8; SIZE], vec![false; SIZE])));
                ids.push(Some(id));
            }
            Op::Destroy { idx } => {
                let Some(i) = model.live(idx) else { continue };
                gmi.cache_destroy(ids[i].take().unwrap()).unwrap();
                model.caches[i] = None;
            }
            Op::Write {
                idx,
                off,
                len,
                seed,
            } => {
                let Some(i) = model.live(idx) else { continue };
                let (off, len) = clamp_range(off as u64, len as u64);
                let data: Vec<u8> = (0..len)
                    .map(|k| seed.wrapping_add(k as u8).wrapping_mul(31))
                    .collect();
                gmi.cache_write(ids[i].unwrap(), off, &data).unwrap();
                let (bytes, undef) = model.caches[i].as_mut().unwrap();
                bytes[off as usize..(off + len) as usize].copy_from_slice(&data);
                undef[off as usize..(off + len) as usize].fill(false);
            }
            Op::CopyHistory {
                src,
                dst,
                src_page,
                dst_page,
                pages,
                cor,
            } => {
                let (Some(s), Some(d)) = (model.live(src), model.live(dst.wrapping_add(1))) else {
                    continue;
                };
                if s == d {
                    continue;
                }
                let (so, mut sz) = clamp_pages(src_page, pages);
                let (dof, dsz) = clamp_pages(dst_page, pages);
                sz = sz.min(dsz);
                let mode = if cor {
                    CopyMode::HistoryCor
                } else {
                    CopyMode::HistoryCow
                };
                gmi.cache_copy_with(ids[s].unwrap(), so, ids[d].unwrap(), dof, sz, mode)
                    .unwrap();
                model_copy(&mut model, s, d, so, dof, sz);
            }
            Op::CopyPerPage {
                src,
                dst,
                src_page,
                dst_page,
                pages,
            } => {
                let (Some(s), Some(d)) = (model.live(src), model.live(dst.wrapping_add(1))) else {
                    continue;
                };
                if s == d {
                    continue;
                }
                let (so, mut sz) = clamp_pages(src_page, pages);
                let (dof, dsz) = clamp_pages(dst_page, pages);
                sz = sz.min(dsz);
                gmi.cache_copy_with(
                    ids[s].unwrap(),
                    so,
                    ids[d].unwrap(),
                    dof,
                    sz,
                    CopyMode::PerPage,
                )
                .unwrap();
                model_copy(&mut model, s, d, so, dof, sz);
            }
            Op::CopyEager {
                src,
                dst,
                src_off,
                dst_off,
                len,
            } => {
                let (Some(s), Some(d)) = (model.live(src), model.live(dst.wrapping_add(1))) else {
                    continue;
                };
                if s == d {
                    continue;
                }
                let (so, mut sz) = clamp_range(src_off as u64, len as u64);
                let (dof, dsz) = clamp_range(dst_off as u64, len as u64);
                sz = sz.min(dsz);
                gmi.cache_copy_with(
                    ids[s].unwrap(),
                    so,
                    ids[d].unwrap(),
                    dof,
                    sz,
                    CopyMode::Eager,
                )
                .unwrap();
                model_copy(&mut model, s, d, so, dof, sz);
            }
            Op::Move {
                src,
                dst,
                src_page,
                dst_page,
                pages,
            } => {
                let (Some(s), Some(d)) = (model.live(src), model.live(dst.wrapping_add(1))) else {
                    continue;
                };
                if s == d {
                    continue;
                }
                let (so, mut sz) = clamp_pages(src_page, pages);
                let (dof, dsz) = clamp_pages(dst_page, pages);
                sz = sz.min(dsz);
                gmi.cache_move(ids[s].unwrap(), so, ids[d].unwrap(), dof, sz)
                    .unwrap();
                model_copy(&mut model, s, d, so, dof, sz);
                // The source fragment becomes undefined.
                let (_, undef) = model.caches[s].as_mut().unwrap();
                undef[so as usize..(so + sz) as usize].fill(true);
            }
            Op::Sync { idx } => {
                let Some(i) = model.live(idx) else { continue };
                gmi.cache_sync(ids[i].unwrap(), 0, SIZE as u64).unwrap();
            }
            Op::Flush { idx } => {
                let Some(i) = model.live(idx) else { continue };
                gmi.cache_flush(ids[i].unwrap(), 0, SIZE as u64).unwrap();
            }
        }

        // Full-state comparison after every operation.
        for (i, entry) in model.caches.iter().enumerate() {
            let Some((bytes, undef)) = entry else {
                continue;
            };
            let mut got = vec![0u8; SIZE];
            gmi.cache_read(ids[i].unwrap(), 0, &mut got).unwrap();
            for k in 0..SIZE {
                if !undef[k] {
                    assert_eq!(
                        got[k], bytes[k],
                        "cache #{i} byte {k} diverged after {op:?}"
                    );
                }
            }
        }
    }
}

fn model_copy(model: &mut Model, s: usize, d: usize, so: u64, dof: u64, sz: u64) {
    let (src_bytes, src_undef) = model.caches[s].as_ref().unwrap().clone();
    let (bytes, undef) = model.caches[d].as_mut().unwrap();
    bytes[dof as usize..(dof + sz) as usize]
        .copy_from_slice(&src_bytes[so as usize..(so + sz) as usize]);
    undef[dof as usize..(dof + sz) as usize]
        .copy_from_slice(&src_undef[so as usize..(so + sz) as usize]);
}

fn pvm_under_test(frames: u32) -> Arc<Pvm> {
    pvm_with_manager(frames).0
}

fn pvm_with_manager(frames: u32) -> (Arc<Pvm>, Arc<MemSegmentManager>) {
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .telemetry(|t| {
                    t.trace(TraceConfig {
                        enabled: true,
                        ..TraceConfig::default()
                    })
                })
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        mgr.clone(),
    ));
    (pvm, mgr)
}

fn shadow_under_test(frames: u32) -> Arc<chorus_shadow::ShadowVm> {
    let mgr = Arc::new(MemSegmentManager::new());
    Arc::new(chorus_shadow::ShadowVm::new(
        chorus_shadow::ShadowOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost: CostParams::zero(),
            collapse_chains: true,
        },
        mgr,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn pvm_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let pvm = pvm_under_test(256);
        run_differential(&*pvm, &ops);
        pvm.check_invariants();
    }

    #[test]
    fn pvm_matches_model_under_memory_pressure(ops in proptest::collection::vec(op_strategy(), 1..50)) {
        // A pool smaller than one cache's full size: constant eviction.
        let pvm = pvm_under_test(16);
        run_differential(&*pvm, &ops);
        pvm.check_invariants();
    }

    /// The Mach-style baseline must agree with the same oracle — and
    /// hence, by transitivity, with the PVM: the two deferred-copy
    /// algorithms are behaviourally equivalent (only their structure and
    /// costs differ). The baseline has no page replacement, so the frame
    /// pool is sized to the working set.
    #[test]
    fn shadow_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let vm = shadow_under_test(4096);
        run_differential(&*vm, &ops);
    }

    /// Transient mapper faults sprinkled through the walk must be healed
    /// by the retry policy without perturbing a single logical byte:
    /// fault-untouched caches — and, since single transient faults always
    /// heal, *every* cache — still matches the oracle after every op.
    #[test]
    fn pvm_matches_model_under_transient_faults(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        every in 1..5usize,
    ) {
        let (pvm, mgr) = pvm_with_manager(16);
        run_differential_with(&*pvm, &ops, |i| {
            if i % every == 0 {
                mgr.fail_next_pull();
            }
        });
        pvm.check_invariants();
    }
}

/// The shipped paging path against the oracle. Two anonymous caches,
/// together three times the pool, are filled (so their pages go out
/// through the write-behind queue) and then walked by two sequential
/// cursors each — one reading, one writing half a cache ahead — with
/// random jumps in between, so the stream tables carry two streams per
/// cache plus noise. Every `every`-th operation the next `pullIn` fails
/// transiently (a multi-page one included) and the retry must heal it.
#[test]
fn pvm_matches_model_on_two_streams_under_transient_faults() {
    const BIG: u64 = 60;
    for (seed, every) in [(1u64, 3usize), (2, 5), (3, 7), (4, 11)] {
        let (pvm, mgr) = pvm_with_manager(40);
        let caches = [
            pvm.cache_create(None).unwrap(),
            pvm.cache_create(None).unwrap(),
        ];
        let mut model = [
            vec![0u8; (BIG * PS) as usize],
            vec![0u8; (BIG * PS) as usize],
        ];
        let mut x = seed;
        let mut rand = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..(BIG * 2 + 1200) as usize {
            if i % every == 0 {
                mgr.fail_next_pull();
            }
            let which = i % 2;
            let step = (i / 2) as u64;
            let (page, write) = match step {
                s if s < BIG => (s, true),
                s if s % 3 == 0 => (s / 3 % BIG, false),
                s if s % 3 == 1 => ((s / 3 + BIG / 2) % BIG, true),
                _ => (rand() % BIG, rand() % 4 == 0),
            };
            let at = page * PS + rand() % (PS - 8);
            let range = at as usize..at as usize + 8;
            if write {
                let value = rand().to_le_bytes();
                pvm.cache_write(caches[which], at, &value).unwrap();
                model[which][range].copy_from_slice(&value);
            } else {
                let mut got = [0u8; 8];
                pvm.cache_read(caches[which], at, &mut got).unwrap();
                assert_eq!(got, model[which][range], "seed={seed} op {i} page {page}");
            }
        }
        for (cache, bytes) in caches.into_iter().zip(&model) {
            let mut got = vec![0u8; bytes.len()];
            pvm.cache_read(cache, 0, &mut got).unwrap();
            assert!(got == *bytes, "seed={seed}: final contents diverged");
        }
        let stats = pvm.stats();
        assert!(stats.readahead_pages > 0, "seed={seed}: {stats:?}");
        assert!(stats.write_behind_pushes > 0, "seed={seed}: {stats:?}");
        assert!(stats.mapper_retries > 0, "seed={seed}: {stats:?}");
        pvm.check_invariants();
    }
}

/// Regression: exact shrunk case from an earlier divergence (runs
/// against both managers).
#[test]
fn regression_eager_perpage_history_pvm() {
    let vm = pvm_under_test(256);
    regression_ops_1(&*vm);
    vm.check_invariants();
}

#[test]
fn shadow_regression_eager_perpage_history() {
    let vm = shadow_under_test(4096);
    regression_ops_1(&*vm);
}

fn regression_ops_1<G: Gmi>(vm: &G) {
    let ops = vec![
        Op::Create,
        Op::Create,
        Op::CopyEager {
            src: 1,
            dst: 5,
            src_off: 0,
            dst_off: 300,
            len: 21,
        },
        Op::CopyPerPage {
            src: 0,
            dst: 0,
            src_page: 5,
            dst_page: 1,
            pages: 1,
        },
        Op::CopyHistory {
            src: 1,
            dst: 1,
            src_page: 1,
            dst_page: 0,
            pages: 1,
            cor: false,
        },
        Op::Write {
            idx: 0,
            off: 284,
            len: 37,
            seed: 0,
        },
        Op::Create,
        Op::Create,
        Op::Create,
        Op::Write {
            idx: 1,
            off: 63,
            len: 2,
            seed: 0,
        },
    ];
    run_differential(vm, &ops);
}

/// Regression: zombie-merge chain leaving a dangling history pointer.
#[test]
fn regression_merge_dangling_history_pvm() {
    let vm = pvm_under_test(256);
    let ops = vec![
        Op::Create,
        Op::Create,
        Op::Create,
        Op::Create,
        Op::CopyHistory {
            src: 5,
            dst: 2,
            src_page: 0,
            dst_page: 0,
            pages: 1,
            cor: false,
        },
        Op::CopyHistory {
            src: 1,
            dst: 1,
            src_page: 2,
            dst_page: 0,
            pages: 1,
            cor: false,
        },
        Op::Destroy { idx: 5 },
        Op::CopyHistory {
            src: 2,
            dst: 3,
            src_page: 0,
            dst_page: 1,
            pages: 1,
            cor: false,
        },
        Op::Destroy { idx: 4 },
    ];
    run_differential(&*vm, &ops);
    vm.check_invariants();
}

// ----- trace/counter invariants -------------------------------------------

/// Counts drained trace events matching `pred`.
fn count_events(
    records: &[chorus_pvm::trace::TraceRecord],
    pred: impl Fn(&TraceEvent) -> bool,
) -> u64 {
    records.iter().filter(|r| pred(&r.event)).count() as u64
}

/// A deterministic faulting workload: regions, demand-zero touches,
/// deferred copies with forced real copies, under memory pressure so
/// evictions and pull-ins fire.
fn faulting_workload(pvm: &Pvm) {
    use chorus_gmi::{Access, Prot, VirtAddr};
    let base = VirtAddr(0x10_0000);
    let cpy_base = VirtAddr(0x80_0000);
    let ctx = pvm.context_create().expect("ctx");
    let src = pvm.cache_create(None).expect("src");
    pvm.region_create(ctx, base, PAGES * PS, Prot::RW, src, 0)
        .expect("region");
    for p in 0..PAGES {
        pvm.vm_write(ctx, VirtAddr(base.0 + p * PS), &[p as u8])
            .expect("touch");
    }
    let cpy = pvm.cache_create(None).expect("cpy");
    pvm.cache_copy(src, 0, cpy, 0, PAGES * PS).expect("copy");
    pvm.region_create(ctx, cpy_base, PAGES * PS, Prot::RW, cpy, 0)
        .expect("cpy region");
    for p in 0..PAGES {
        pvm.vm_write(ctx, VirtAddr(base.0 + p * PS), &[0xC0])
            .expect("dirty src");
    }
    let mut b = [0u8; 1];
    for p in 0..PAGES {
        pvm.vm_read(ctx, VirtAddr(cpy_base.0 + p * PS), &mut b)
            .expect("read copy");
    }
    // Re-fault already-mapped pages: soft faults that change nothing.
    for _ in 0..4 {
        for p in 0..PAGES {
            pvm.handle_fault(ctx, VirtAddr(cpy_base.0 + p * PS), Access::Read)
                .expect("soft fault");
        }
    }
    pvm.context_destroy(ctx).expect("ctx destroy");
}

/// Every counter with a paired trace point must agree exactly with the
/// drained event stream, and the fault histogram must have one sample
/// per completed fault.
#[test]
fn trace_events_agree_with_counters() {
    let (pvm, _mgr) = pvm_with_manager(8); // tiny pool: force eviction
    faulting_workload(&pvm);
    let tracer = pvm.tracer();
    assert_eq!(tracer.dropped(), 0, "ring overflow would skew the counts");
    let records = tracer.drain();
    let stats = pvm.stats();

    let enters = count_events(&records, |e| matches!(e, TraceEvent::FaultEnter { .. }));
    let exits = count_events(&records, |e| matches!(e, TraceEvent::FaultExit { .. }));
    let failed = count_events(&records, |e| {
        matches!(
            e,
            TraceEvent::FaultExit {
                resolution: Resolution::Failed,
                ..
            }
        )
    });
    assert_eq!(enters, exits, "unbalanced fault enter/exit");
    assert_eq!(failed, 0, "workload must not fail any fault");
    assert_eq!(enters, stats.faults, "trace vs counter fault totals");

    // Per-resolution exits never exceed their counters (zero-fill and
    // cow-copy counters also count non-fault paths like cache_write).
    let zero_fill_exits = count_events(&records, |e| {
        matches!(
            e,
            TraceEvent::FaultExit {
                resolution: Resolution::ZeroFill,
                ..
            }
        )
    });
    assert!(zero_fill_exits <= stats.zero_fills);
    assert!(zero_fill_exits > 0, "demand-zero touches must zero-fill");

    // Paired instants: these bump and trace at the same site.
    let evictions = count_events(&records, |e| matches!(e, TraceEvent::Eviction { .. }));
    assert_eq!(evictions, stats.evictions);
    assert!(evictions > 0, "8-frame pool must evict");
    let pushes = count_events(&records, |e| matches!(e, TraceEvent::HistoryPush { .. }));
    assert_eq!(pushes, stats.history_pushes);
    let waits = count_events(&records, |e| matches!(e, TraceEvent::StubWait { .. }));
    assert_eq!(waits, stats.stub_waits);

    // One histogram sample per completed fault.
    let hist = tracer.histogram(chorus_pvm::trace::Phase::FaultTotal);
    assert_eq!(hist.count(), exits, "fault histogram samples");

    // pullIn upcalls: one Ok end per counted pull.
    let pull_ok = count_events(&records, |e| {
        matches!(
            e,
            TraceEvent::UpcallEnd {
                kind: chorus_pvm::trace::UpcallKind::PullIn,
                outcome: chorus_pvm::trace::UpcallOutcome::Ok,
                ..
            }
        )
    });
    assert_eq!(pull_ok, stats.pull_ins);
}

/// `PvmStats::delta` across a live workload: the delta of two snapshots
/// equals the counters of the second run alone.
#[test]
fn snapshot_delta_isolates_second_run() {
    let (pvm, _mgr) = pvm_with_manager(64);
    faulting_workload(&pvm);
    let before = pvm.stats();
    faulting_workload(&pvm);
    let after = pvm.stats();
    let delta = after.delta(&before);
    assert_eq!(delta.faults, after.faults - before.faults);
    assert!(delta.faults > 0, "second run must fault");
    assert_eq!(delta.zero_fills, after.zero_fills - before.zero_fills);
    assert_eq!(delta.evictions, after.evictions - before.evictions);
    // Field-wise saturating subtraction: deltas never underflow.
    let nonsense = before.delta(&after);
    assert_eq!(nonsense.faults, 0);
}

//! Cross-crate fault-injection suite: the PVM driving the real Nucleus
//! segment manager over a [`FaultyMapper`].
//!
//! Mappers are independent actors (§5.1.1), so the memory manager must
//! treat every mapper reply as unreliable. These tests inject the full
//! failure taxonomy — transient errors, permanent death, slow replies,
//! truncated replies, crash-once — and assert the recovery protocol:
//! transient faults heal invisibly through retry, permanent faults
//! quarantine exactly the affected caches, blocked faulters always wake
//! with an error rather than deadlocking, and a failed pageout never
//! loses a dirty page that a later successful retry can write back.

mod common;

use chorus_gmi::{Gmi, GmiError, Prot, RetryPolicy, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::trace::{TraceEvent, UpcallKind, UpcallOutcome};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use common::{stack, stack_costed, FaultStack, Lcg, PS};
use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const SEG_PAGES: u64 = 4;
const SEG_SIZE: usize = (PS * SEG_PAGES) as usize;

/// Runs a deterministic read/write workload over `n_segs` file-backed
/// segments under memory pressure, maintaining a byte oracle. Every
/// operation must succeed (the plan is expected to be heal-able), and
/// the final contents seen through the PVM must equal the oracle.
fn healing_workload(stack: &FaultStack, seed: u64, n_segs: usize, ops: usize) {
    let pvm = &stack.pvm;
    let mut oracle = Vec::new();
    let mut ctxs = Vec::new();
    let ctx = pvm.context_create().unwrap();
    for i in 0..n_segs {
        let init: Vec<u8> = (0..SEG_SIZE)
            .map(|k| (k as u8).wrapping_mul(7).wrapping_add(i as u8))
            .collect();
        let cap = stack.files.create_segment(&init);
        let seg = stack.seg_mgr.segment_for(cap);
        let cache = pvm.cache_create(Some(seg)).unwrap();
        let base = 0x10_0000 * (i as u64 + 1);
        pvm.region_create(ctx, VirtAddr(base), SEG_SIZE as u64, Prot::RW, cache, 0)
            .unwrap();
        oracle.push(init);
        ctxs.push(base);
    }
    let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    for _ in 0..ops {
        let i = (rng.next() as usize) % n_segs;
        let off = (rng.next() as usize) % (SEG_SIZE - 32);
        let len = 1 + (rng.next() as usize) % 31;
        let base = ctxs[i];
        if rng.next().is_multiple_of(3) {
            let byte = rng.next() as u8;
            let data: Vec<u8> = (0..len).map(|k| byte.wrapping_add(k as u8)).collect();
            pvm.vm_write(ctx, VirtAddr(base + off as u64), &data)
                .unwrap_or_else(|e| panic!("write seed={seed} off={off} len={len}: {e}"));
            oracle[i][off..off + len].copy_from_slice(&data);
        } else {
            let mut buf = vec![0u8; len];
            pvm.vm_read(ctx, VirtAddr(base + off as u64), &mut buf)
                .unwrap_or_else(|e| panic!("read seed={seed} off={off} len={len}: {e}"));
            assert_eq!(buf, &oracle[i][off..off + len], "seed={seed} diverged");
        }
    }
    // Full final comparison of every segment.
    for (i, base) in ctxs.iter().enumerate() {
        let mut got = vec![0u8; SEG_SIZE];
        pvm.vm_read(ctx, VirtAddr(*base), &mut got)
            .unwrap_or_else(|e| panic!("final read seed={seed} seg={i}: {e}"));
        assert_eq!(got, oracle[i], "seed={seed} segment {i} diverged");
    }
    pvm.check_invariants();
}

/// A plan mixing every heal-able fault kind, scheduled by `seed`.
fn healable_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        transient_per_mille: 150,
        permanent_per_mille: 0,
        delay_per_mille: 100,
        delay_ns: 20_000,
        truncate_per_mille: 100,
        crash_at_op: Some(seed % 17 + 3),
        hang_at_op: None,
    }
}

/// Retry policy generous enough that the ~250‰ effective per-attempt
/// fault rate of [`healable_plan`] cannot plausibly exhaust it
/// (0.25^10 ≈ 1e-6 per upcall; the schedule is deterministic, so the
/// seeds below are verified once and stay verified).
fn generous_retry(config: &mut PvmConfig) {
    config.retry = RetryPolicy {
        max_attempts: 10,
        ..RetryPolicy::default()
    };
}

/// Sets `push_cluster_pages` when a case names a value; `None` leaves
/// whatever `PvmConfig::default()` ships, so the pageout cases below
/// run on the shipped laundering path as well as on a pinned one.
fn push_cluster(config: &mut PvmConfig, pages: Option<u64>) {
    if let Some(n) = pages {
        config.push_cluster_pages = n;
    }
}

#[test]
fn thirty_two_seeds_of_transient_faults_all_heal() {
    let mut total_retries = 0u64;
    let mut total_faults = 0usize;
    for seed in 0..32u64 {
        let s = stack(8, healable_plan(seed), healable_plan(!seed), generous_retry);
        healing_workload(&s, seed, 3, 40);
        total_retries += s.pvm.stats().mapper_retries;
        total_faults += s.faulty_files.take_log().len() + s.faulty_swap.take_log().len();
        assert_eq!(s.pvm.stats().quarantined_caches, 0, "seed={seed}");
    }
    assert!(
        total_faults > 100,
        "plans injected too little: {total_faults}"
    );
    assert!(total_retries > 50, "retries never fired: {total_retries}");
}

#[test]
fn permanent_failure_quarantines_only_the_affected_cache() {
    // File mapper dies permanently on its first operation; a second
    // clean mapper on another port is untouched.
    let dead_plan = FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(3)
    };
    let s = stack(16, dead_plan, FaultPlan::quiet(0), |_| {});
    let clean = Arc::new(MemMapper::new(PortName(7)));
    s.seg_mgr.register_mapper(PortName(7), clean.clone());

    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let bad_init = vec![0xAA; SEG_SIZE];
    let good_init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let bad_seg = s.seg_mgr.segment_for(s.files.create_segment(&bad_init));
    let good_seg = s.seg_mgr.segment_for(clean.create_segment(&good_init));
    let bad_cache = pvm.cache_create(Some(bad_seg)).unwrap();
    let good_cache = pvm.cache_create(Some(good_seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x10_0000),
        SEG_SIZE as u64,
        Prot::RW,
        bad_cache,
        0,
    )
    .unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x20_0000),
        SEG_SIZE as u64,
        Prot::RW,
        good_cache,
        0,
    )
    .unwrap();

    let mut buf = [0u8; 16];
    // First touch: the permanent failure surfaces as MapperUnavailable.
    let err = pvm.vm_read(ctx, VirtAddr(0x10_0000), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::MapperUnavailable { .. }), "{err}");
    // Thereafter the cache answers with its quarantine error.
    let err = pvm.vm_read(ctx, VirtAddr(0x10_0000), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    let err = pvm.cache_read(bad_cache, 0, &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    assert_eq!(pvm.stats().quarantined_caches, 1);

    // The innocent cache is fully functional and correct.
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, good_init);

    // Recovery path: after the mapper "restarts", a *fresh* cache on the
    // same segment works again — quarantine is per-cache, not global.
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    let fresh = pvm.cache_create(Some(bad_seg)).unwrap();
    pvm.cache_read(fresh, 0, &mut got).unwrap();
    assert_eq!(got, bad_init);
    pvm.check_invariants();
}

#[test]
fn concurrent_faulters_all_unblock_with_errors_not_deadlock() {
    // Every pull fails transiently and the policy gives up quickly: all
    // four faulters of the same page must return an error within the
    // watchdog window — none may deadlock on the cleared sync stub.
    let all_fail = FaultPlan {
        transient_per_mille: 1000,
        ..FaultPlan::quiet(11)
    };
    let s = stack(16, all_fail, FaultPlan::quiet(0), |c| {
        c.retry = RetryPolicy {
            max_attempts: 2,
            initial_backoff_ns: 1_000,
            ..RetryPolicy::default()
        };
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init = vec![0x42; SEG_SIZE];
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::RW, cache, 0)
        .unwrap();

    let (tx, rx) = mpsc::channel();
    for _ in 0..4 {
        let pvm = Arc::clone(pvm);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            let res = pvm.vm_read(ctx, VirtAddr(16), &mut buf);
            tx.send(res).unwrap();
        });
    }
    drop(tx);
    for _ in 0..4 {
        let res = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("faulter deadlocked");
        let err = res.expect_err("pull cannot succeed under this plan");
        assert!(
            matches!(
                err,
                GmiError::SegmentIo { .. } | GmiError::MapperTimeout { .. }
            ),
            "{err}"
        );
    }
    // The sync stubs were cleaned up: once the mapper heals, the very
    // same page is pulled successfully.
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    let mut buf = [0u8; 8];
    pvm.vm_read(ctx, VirtAddr(16), &mut buf).unwrap();
    assert_eq!(buf, [0x42; 8]);
    pvm.check_invariants();
}

#[test]
fn slow_mapper_times_out_against_the_simulated_deadline() {
    // Each attempt burns 0.6 simulated seconds then fails transiently;
    // the 1-second deadline trips on the second attempt.
    let slow = FaultPlan {
        transient_per_mille: 1000,
        delay_per_mille: 1000,
        delay_ns: 600_000_000,
        ..FaultPlan::quiet(5)
    };
    let s = stack(16, slow, FaultPlan::quiet(0), |_| {});
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let seg = s
        .seg_mgr
        .segment_for(s.files.create_segment(&vec![1; SEG_SIZE]));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::RW, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    let err = pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::MapperTimeout { .. }), "{err}");
    assert!(pvm.stats().mapper_timeouts >= 1);
    // Timeouts are transient: the cache is NOT quarantined.
    assert_eq!(pvm.stats().quarantined_caches, 0);
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf, [1; 4]);
}

#[test]
fn failed_pageout_never_loses_a_dirty_page() {
    // The swap mapper rejects every write; a pageout forced by memory
    // pressure fails, the triggering fault returns the error, and the
    // dirty page stays dirty in memory. After the mapper heals, the
    // retried pageout writes the page back and nothing is lost.
    for cluster in [None, Some(1)] {
        failed_pageout_case(cluster);
    }
}

fn failed_pageout_case(cluster: Option<u64>) {
    let bad_swap = FaultPlan {
        transient_per_mille: 1000,
        ..FaultPlan::quiet(9)
    };
    let s = stack(4, FaultPlan::quiet(0), bad_swap, |c| {
        c.retry = RetryPolicy::no_retry();
        push_cluster(c, cluster);
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let pages = 8u64;
    pvm.region_create(ctx, VirtAddr(0x10_0000), pages * PS, Prot::RW, cache, 0)
        .unwrap();

    // Dirty pages page-by-page until a pageout is forced and fails.
    let mut oracle = vec![Vec::new(); pages as usize];
    let mut failed = 0u64;
    for p in 0..pages {
        let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
        match pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data) {
            Ok(()) => oracle[p as usize] = data,
            Err(e) => {
                assert!(e.is_transient(), "{e}");
                failed += 1;
            }
        }
    }
    assert!(failed > 0, "pressure never forced a failing pageout");
    assert_eq!(s.swap.swapped_out_bytes(), 0, "no write may have landed");

    // Heal the swap mapper; re-run the failed writes.
    s.faulty_swap.set_plan(FaultPlan::quiet(0));
    for p in 0..pages {
        if oracle[p as usize].is_empty() {
            let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
            pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data)
                .unwrap();
            oracle[p as usize] = data;
        }
    }
    assert!(
        s.swap.swapped_out_bytes() > 0,
        "retried pageout must reach the swap mapper"
    );
    // Every page — including those whose earlier pageout failed — holds
    // exactly its oracle bytes.
    for p in 0..pages {
        let mut got = vec![0u8; PS as usize];
        pvm.vm_read(ctx, VirtAddr(0x10_0000 + p * PS), &mut got)
            .unwrap();
        assert_eq!(got, oracle[p as usize], "page {p} lost data");
    }
    pvm.check_invariants();
}

#[test]
fn clustered_pull_clamps_at_segment_end() {
    // Regression: a fully-backed cache owns *every* offset, so an
    // unclamped 8-page cluster faulting at page 0 of a 4-page segment
    // would pull past the segment end — wasted mapper I/O and frames
    // full of sparse zeroes. With the clamp the run stops at the
    // segment's known length.
    let s = stack(16, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.pull_cluster_pages = 8;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    // The region is twice the segment, so offsets past the segment end
    // are addressable (and owned, the cache being fully backed).
    pvm.region_create(ctx, VirtAddr(0), 2 * SEG_SIZE as u64, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf[0], 0);
    assert_eq!(pvm.stats().pull_ins, 1);
    // The last in-segment page rode along in the clamped cluster...
    pvm.vm_read(ctx, VirtAddr(3 * PS), &mut buf).unwrap();
    assert_eq!(
        pvm.stats().pull_ins,
        1,
        "page 3 must already be resident from the clustered pull"
    );
    // ...but the first page past the segment end did not.
    pvm.vm_read(ctx, VirtAddr(4 * PS), &mut buf).unwrap();
    assert_eq!(
        pvm.stats().pull_ins,
        2,
        "the cluster must stop at the segment end"
    );
    assert_eq!(buf, [0u8; 4], "data past the segment end is sparse zeroes");
    pvm.check_invariants();
}

#[test]
fn clustered_pull_stops_at_resident_pages() {
    // Regression: a cluster extending over an already-resident page (or
    // an in-transit stub) must stop rather than re-pull it.
    let s = stack(16, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.pull_cluster_pages = 8;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    // First fault at page 2: pulls pages 2..4 (clamped at segment end).
    pvm.vm_read(ctx, VirtAddr(2 * PS), &mut buf).unwrap();
    assert_eq!(pvm.stats().pull_ins, 1);
    // Fault at page 0: the cluster must stop at resident page 2.
    pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(pvm.stats().pull_ins, 2);
    // Everything is now resident; no pull may fire again, and every
    // byte matches the segment.
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0), &mut got).unwrap();
    assert_eq!(got, init);
    assert_eq!(pvm.stats().pull_ins, 2, "re-pulled a resident page");
    pvm.check_invariants();
}

#[test]
fn batched_writeback_faults_never_lose_dirty_pages() {
    // The full healing workload with clustering and the writeback
    // daemon on, under transient/truncate/crash fault sprinkling on
    // *writes* as well as reads: batched copyBacks fail mid-run, and
    // every failed batch, waited for or laundered, is split and
    // retried page by page (its own record completes as a failed
    // multi-page push) — and the byte oracle proves no dirty page is
    // ever lost. Truncated writes land half the batch before dying, so
    // the idempotent-rewrite path is exercised too.
    for cluster in [None, Some(4)] {
        batched_writeback_case(cluster);
    }
}

fn batched_writeback_case(cluster: Option<u64>) {
    let mut batches = 0u64;
    let mut splits = 0u64;
    for seed in 0..12u64 {
        let plan = FaultPlan {
            seed,
            transient_per_mille: 150,
            permanent_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
            truncate_per_mille: 150,
            crash_at_op: Some(seed % 13 + 2),
            hang_at_op: None,
        };
        let s = stack(
            8,
            plan,
            FaultPlan {
                seed: !seed,
                ..plan
            },
            |c| {
                generous_retry(c);
                push_cluster(c, cluster);
            },
        );
        healing_workload(&s, seed, 3, 40);
        let stats = s.pvm.stats();
        batches += stats.push_out_batches;
        splits += stats.push_batch_splits;
        let left_dirty = |r: &&chorus_pvm::trace::TraceRecord| {
            matches!(
                r.event,
                TraceEvent::UpcallComplete {
                    kind: UpcallKind::PushOut,
                    outcome: UpcallOutcome::Transient,
                    pages: 2..,
                    ..
                }
            )
        };
        splits += s.pvm.tracer().drain().iter().filter(left_dirty).count() as u64;
        assert_eq!(stats.quarantined_caches, 0, "seed={seed}");
    }
    assert!(batches > 0, "clustered pushOut never fired ({cluster:?})");
    assert!(
        splits > 0,
        "no batch ever failed (and split, or stayed dirty): faults too weak ({cluster:?})"
    );
}

#[test]
fn batched_pushout_permanent_death_quarantines_without_data_loss_elsewhere() {
    // The file mapper dies permanently right before a batched sync
    // pushOut: the split pass aborts on the first page, nothing partial
    // lands on the segment, the cache is quarantined exactly once, and
    // an unrelated cache on a clean mapper is untouched.
    for cluster in [None, Some(4)] {
        batched_pushout_death_case(cluster);
    }
}

fn batched_pushout_death_case(cluster: Option<u64>) {
    let s = stack(16, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        push_cluster(c, cluster);
    });
    let clean = Arc::new(MemMapper::new(PortName(7)));
    s.seg_mgr.register_mapper(PortName(7), clean.clone());
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init = vec![0x11u8; SEG_SIZE];
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x10_0000),
        SEG_SIZE as u64,
        Prot::RW,
        cache,
        0,
    )
    .unwrap();
    let good_init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let good_seg = s.seg_mgr.segment_for(clean.create_segment(&good_init));
    let good_cache = pvm.cache_create(Some(good_seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x20_0000),
        SEG_SIZE as u64,
        Prot::RW,
        good_cache,
        0,
    )
    .unwrap();

    // Dirty all four pages while the mapper is healthy...
    for p in 0..SEG_PAGES {
        let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
        pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data)
            .unwrap();
    }
    // ...then it dies, and the sync's 4-page batch fails, splits, and
    // aborts on the first per-page push.
    s.faulty_files.set_plan(FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(21)
    });
    let err = pvm.cache_sync(cache, 0, SEG_SIZE as u64).unwrap_err();
    assert!(matches!(err, GmiError::MapperUnavailable { .. }), "{err}");
    assert!(
        pvm.stats().push_batch_splits >= 1,
        "the multi-page batch must have split on failure"
    );
    assert_eq!(pvm.stats().quarantined_caches, 1);
    assert_eq!(
        s.files.segment_data(cap),
        init,
        "no partial write may land on the segment"
    );

    // The innocent cache on the clean mapper still works end to end.
    let tag: Vec<u8> = (0..PS).map(|k| 0xA5 ^ (k as u8)).collect();
    pvm.vm_write(ctx, VirtAddr(0x20_0000), &tag).unwrap();
    let mut got = vec![0u8; PS as usize];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, tag);
    pvm.check_invariants();
}

#[test]
fn adaptive_readahead_ramps_on_sequential_streams() {
    // A strictly sequential read over a long segment on the shipped
    // configuration: each miss landing where the previous pull ended
    // continues the stream and doubles its window, so the pull count
    // grows logarithmically, and the ramp counters record the
    // progression.
    let long_pages = 32u64;
    let init: Vec<u8> = (0..long_pages * PS).map(|k| (k % 251) as u8).collect();
    let s = stack(64, FaultPlan::quiet(0), FaultPlan::quiet(0), |_| {});
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), long_pages * PS, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    for p in 0..long_pages {
        pvm.vm_read(ctx, VirtAddr(p * PS), &mut buf).unwrap();
        assert_eq!(buf[0], ((p * PS) % 251) as u8, "page {p}");
    }
    let stats = pvm.stats();
    // Windows 1,2,4,8,8,... cover 32 pages in 7 pulls; page at a time
    // it would take 32.
    assert!(
        stats.pull_ins <= 8,
        "sequential stream did not ramp: {} pulls",
        stats.pull_ins
    );
    assert!(stats.readahead_hits >= 4, "{:?}", stats.readahead_hits);
    assert!(stats.readahead_ramps >= 3, "{:?}", stats.readahead_ramps);
    pvm.check_invariants();
}

/// The shipped paging path end to end: a mapped file and an anonymous
/// region, each three times their share of a 48-frame pool, each read
/// by one sequential cursor and written by another while a third of the
/// accesses jump at random. Streams widen the pulls, dirty victims go
/// through the write-behind queue. An access to the file may fail once
/// `file_may_die` says its mapper can.
fn two_stream_workload(
    s: &FaultStack,
    seed: u64,
    ops: u64,
    mut before_op: impl FnMut(u64),
    file_may_die: bool,
) -> TwoStreams {
    const PAGES: u64 = 72;
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init: Vec<u8> = (0..PAGES * PS).map(|k| (k % 253) as u8).collect();
    let cap = s.files.create_segment(&init);
    let file = pvm.cache_create(Some(s.seg_mgr.segment_for(cap))).unwrap();
    let anon = pvm.cache_create(None).unwrap();
    let bases = [0x100_0000u64, 0x200_0000];
    for (base, cache) in bases.into_iter().zip([file, anon]) {
        pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::RW, cache, 0)
            .unwrap();
    }
    let mut oracle = [init, vec![0u8; (PAGES * PS) as usize]];
    let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    for i in 0..ops {
        before_op(i);
        let which = (i % 2) as usize;
        // Per region: a read cursor, a write cursor half a region ahead,
        // and random jumps.
        let (page, write) = match (i / 2) % 3 {
            0 => ((i / 6) % PAGES, false),
            1 => ((i / 6 + PAGES / 2) % PAGES, true),
            _ => (rng.next() % PAGES, rng.next().is_multiple_of(4)),
        };
        let at = (page * PS + rng.next() % (PS - 8)) as usize;
        let va = VirtAddr(bases[which] + at as u64);
        let done = if write {
            let value = rng.next().to_le_bytes();
            pvm.vm_write(ctx, va, &value)
                .map(|()| oracle[which][at..at + 8].copy_from_slice(&value))
        } else {
            let mut got = [0u8; 8];
            pvm.vm_read(ctx, va, &mut got)
                .map(|()| assert_eq!(got, oracle[which][at..at + 8], "seed={seed} op {i}"))
        };
        if let Err(e) = done {
            assert!(file_may_die && which == 0, "seed={seed} op {i}: {e}");
        }
    }
    TwoStreams {
        ctx,
        file,
        cap,
        oracle,
    }
}

/// What [`two_stream_workload`] leaves behind: the file region at
/// 0x100_0000 and the anonymous one at 0x200_0000 of `ctx`, with the
/// bytes each must hold.
struct TwoStreams {
    ctx: chorus_gmi::CtxId,
    file: chorus_gmi::CacheId,
    cap: chorus_nucleus::Capability,
    oracle: [Vec<u8>; 2],
}

#[test]
fn two_stream_scans_on_the_shipped_config_lose_no_dirty_page() {
    // Transient, truncating and crash-once faults on reads and writes of
    // both mappers, the byte oracle on every access, the file's segment
    // compared after a final sync. Multi-page pulls are re-driven,
    // write-behind batches split and retry page by page.
    let (mut splits, mut readahead, mut write_behind) = (0, 0, 0);
    for seed in 0..8u64 {
        let s = stack(
            48,
            healable_plan(seed),
            healable_plan(!seed),
            generous_retry,
        );
        let w = two_stream_workload(&s, seed, 1500, |_| {}, false);
        s.pvm.cache_sync(w.file, 0, u64::MAX).unwrap();
        assert!(
            s.files.segment_data(w.cap) == w.oracle[0],
            "seed={seed}: segment diverged"
        );
        let stats = s.pvm.stats();
        assert_eq!(stats.quarantined_caches, 0, "seed={seed}");
        assert!(
            stats.mapper_retries > 0,
            "seed={seed}: plan injected nothing"
        );
        splits += stats.push_batch_splits;
        readahead += stats.readahead_pages;
        write_behind += stats.write_behind_pushes;
        s.pvm.check_invariants();
    }
    assert!(readahead > 0 && write_behind > 0 && splits > 0);
}

#[test]
fn two_stream_scans_survive_a_mapper_dying_under_write_behind() {
    // The file mapper dies for good a third of the way in, with file
    // pages on the write-behind queue and file pulls about to widen:
    // exactly that cache is quarantined, its queued pages are dropped
    // rather than pushed into the dead mapper, and the anonymous region
    // on the healthy swap mapper stays oracle-exact to the end.
    let s = stack(48, FaultPlan::quiet(3), FaultPlan::quiet(4), |_| {});
    let dead = FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(5)
    };
    let w = two_stream_workload(
        &s,
        3,
        1500,
        |i| {
            if i == 500 {
                s.faulty_files.set_plan(dead);
            }
        },
        true,
    );
    let stats = s.pvm.stats();
    assert_eq!(stats.quarantined_caches, 1, "{stats:?}");
    assert!(stats.write_behind_pushes > 0 && stats.readahead_pages > 0);
    let mut got = vec![0u8; w.oracle[1].len()];
    s.pvm
        .vm_read(w.ctx, VirtAddr(0x200_0000), &mut got)
        .unwrap();
    assert!(got == w.oracle[1], "the healthy region diverged");
    s.pvm.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Any seed, any heal-able fault mix: the stack stays oracle-exact.
    #[test]
    fn random_fault_schedules_agree_with_oracle(
        seed in any::<u64>(),
        transient in 0..150u32,
        truncate in 0..100u32,
        crash_at in 0..24u64,
    ) {
        let plan = FaultPlan {
            seed,
            transient_per_mille: transient,
            permanent_per_mille: 0,
            delay_per_mille: 80,
            delay_ns: 10_000,
            truncate_per_mille: truncate,
            crash_at_op: Some(crash_at),
            hang_at_op: None,
        };
        let s = stack(8, plan, FaultPlan { seed: !seed, ..plan }, generous_retry);
        healing_workload(&s, seed, 2, 30);
    }
}

// ----- trace correlation ---------------------------------------------------

/// Under an injected-fault plan, the trace stream must account for
/// every counted retry, timeout, quarantine and injected fault: each
/// `mapper_retries` increment has a matching `UpcallEnd{retries}`
/// record, and every fault the mapper logged appears as a
/// `mapper.inject` instant on the same timeline.
#[test]
fn injected_faults_and_retries_appear_in_the_trace() {
    let s = stack(8, healable_plan(9), healable_plan(!9), generous_retry);
    healing_workload(&s, 9, 3, 40);

    let tracer = s.pvm.tracer();
    assert_eq!(tracer.dropped(), 0, "ring overflow would skew the counts");
    let records = tracer.drain();
    let stats = s.pvm.stats();

    let injected_logged = s.faulty_files.take_log().len() + s.faulty_swap.take_log().len();
    let injected_traced = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::MapperFaultInjected { .. }))
        .count();
    assert_eq!(injected_traced, injected_logged);
    assert!(injected_traced > 0, "plan injected nothing");

    let retries_traced: u64 = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::UpcallEnd { retries, .. } => Some(retries),
            _ => None,
        })
        .sum();
    assert_eq!(retries_traced, stats.mapper_retries);
    assert!(retries_traced > 0, "retries never fired");

    let timeouts_traced = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::UpcallEnd {
                    outcome: UpcallOutcome::Timeout,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(timeouts_traced, stats.mapper_timeouts);

    let quarantines_traced = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Quarantine { .. }))
        .count() as u64;
    assert_eq!(quarantines_traced, stats.quarantined_caches);

    // Every upcall begins and ends exactly once.
    let starts = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::UpcallStart { .. }))
        .count();
    let ends = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::UpcallEnd { .. }))
        .count();
    assert_eq!(starts, ends, "unbalanced upcall start/end");

    // Successful pulls: one Ok pullIn end per counted pull_in.
    let pull_ok = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::UpcallEnd {
                    kind: chorus_pvm::trace::UpcallKind::PullIn,
                    outcome: UpcallOutcome::Ok,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(pull_ok, stats.pull_ins);
}

// ----- the completion engine -------------------------------------------------

/// Knobs used by the engine fault tests: clustered pulls feed multi-page
/// windows and write-behind feeds fire-and-collect pushes, all through
/// the completion scheduler. The pools are too small for a stream to
/// widen a window past the cluster size, so pull boundaries stay fixed.
fn async_knobs(c: &mut PvmConfig) {
    c.pull_cluster_pages = 4;
    c.push_cluster_pages = 4;
}

#[test]
fn completion_engine_heals_faults_without_dirty_page_loss() {
    // The healing workload under the completion engine with transient,
    // truncating and crash-once faults on both mappers: the byte oracle
    // proves no dirty page is lost while completions are in flight, and
    // draining retires every submission exactly once.
    for seed in 0..8u64 {
        let s = stack(8, healable_plan(seed), healable_plan(!seed), |c| {
            generous_retry(c);
            async_knobs(c);
        });
        healing_workload(&s, seed, 3, 40);
        s.pvm.drain_upcalls();
        let stats = s.pvm.stats();
        assert!(stats.async_submits > 0, "engine never engaged, seed={seed}");
        assert_eq!(
            stats.async_deliveries, stats.async_submits,
            "in-flight completion leaked, seed={seed}"
        );
        assert_eq!(stats.quarantined_caches, 0, "seed={seed}");
        s.pvm.check_invariants();
    }
}

/// Builds the OOO stack: real sun3 costs (the completion scheduler
/// orders by due time, which is degenerate under zero costs) over a
/// 12-frame pool.
fn ooo_stack() -> FaultStack {
    stack_costed(
        12,
        CostParams::sun3(),
        FaultPlan::quiet(0),
        FaultPlan::quiet(0),
        |_| {},
    )
}

/// Dirties an 8-page contiguous run plus one disjoint page on an
/// anonymous cache and fills the pool, so that the next allocation's
/// sweep sets page 0 and page 10 aside before it finds a clean victim.
/// Two light entries then launder one run each off the write-behind
/// queue: the 8-page push first (long service time) and the 1-page
/// push second (short service time), so the second, higher-id request
/// completes first. Returns (final sim time, stats).
fn ooo_run(s: &FaultStack) -> (u64, chorus_pvm::PvmStats) {
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let pages = 16u64;
    pvm.region_create(ctx, VirtAddr(0x10_0000), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    let write = |p: u64| {
        let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
        pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data)
            .unwrap();
    };
    let read = |p: u64| {
        let mut buf = [0u8; 4];
        pvm.vm_read(ctx, VirtAddr(0x10_0000 + p * PS), &mut buf)
            .unwrap();
    };
    // Ring order: page 0 and page 10 (dirty), three clean zero-fills,
    // then the rest of the run 0..8. All 12 frames are in use.
    write(0);
    write(10);
    (11..14).for_each(read);
    (1..8).for_each(write);
    // Each of these zero-fill faults blocks on nothing, so it is a
    // light entry: the first sets pages 0 and 10 aside, evicts a clean
    // page and launders the run round page 0; the second launders
    // page 10.
    read(14);
    read(15);
    pvm.drain_upcalls();
    pvm.check_invariants();
    (pvm.cost_model().now().nanos(), pvm.stats())
}

#[test]
fn async_completions_deliver_out_of_order_and_deterministically() {
    let s = ooo_stack();
    let (t1, stats1) = ooo_run(&s);
    assert!(stats1.async_submits >= 2, "{stats1:?}");
    assert_eq!(stats1.write_behind_pushes, 2, "{stats1:?}");
    assert_eq!(stats1.async_deliveries, stats1.async_submits);
    assert!(
        stats1.async_out_of_order >= 1,
        "the short push never overtook the long batch: {stats1:?}"
    );
    // No dirty page was lost across the out-of-order deliveries.
    assert_eq!(s.swap.swapped_out_bytes(), 9 * PS, "{stats1:?}");

    // Bit-identical repeat: same stack build, same workload, same
    // simulated clock and the same counter table.
    let (t2, stats2) = ooo_run(&ooo_stack());
    assert_eq!(t1, t2, "simulated time diverged across identical runs");
    assert_eq!(stats1, stats2, "counters diverged across identical runs");
}

// ===== liveness: the deadline watchdog =====

/// One simulated hour: the horizon a hung (timed-out) upcall parks at
/// when nobody cancels it.
const HOUR: u64 = 3_600_000_000_000;

/// A plan whose only fault is a hang: from upcall number `at` on, the
/// mapper wedges and every reply is a transient-looking `MapperTimeout`.
fn hang_plan(at: u64) -> FaultPlan {
    FaultPlan {
        seed: 1,
        transient_per_mille: 0,
        permanent_per_mille: 0,
        delay_per_mille: 0,
        delay_ns: 0,
        truncate_per_mille: 0,
        crash_at_op: None,
        hang_at_op: Some(at),
    }
}

fn file_region(
    s: &FaultStack,
    pages: u64,
    base: u64,
) -> (chorus_gmi::CtxId, chorus_gmi::CacheId, Vec<u8>) {
    let init: Vec<u8> = (0..pages * PS)
        .map(|k| (k as u8).wrapping_mul(7).wrapping_add(3))
        .collect();
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache = s.pvm.cache_create(Some(seg)).unwrap();
    let ctx = s.pvm.context_create().unwrap();
    s.pvm
        .region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    (ctx, cache, init)
}

#[test]
fn watchdog_cancels_hung_pull_and_degrades_the_segment_to_sync() {
    let s = stack(16, hang_plan(0), FaultPlan::quiet(2), async_knobs);
    let pvm = &s.pvm;
    let init: Vec<u8> = (0..SEG_SIZE)
        .map(|k| (k as u8).wrapping_mul(7).wrapping_add(3))
        .collect();
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    let base = 0x10_0000u64;
    pvm.region_create(ctx, VirtAddr(base), SEG_SIZE as u64, Prot::RW, cache, 0)
        .unwrap();

    // First fault: the window wedges in the hung mapper and parks in
    // flight; the faulter, waiting on its page, has the watchdog rule
    // on it: the window is cancelled at its deadline (about a
    // simulated second), not at the hung-reply horizon, and the faulter
    // gets the timeout. The second cancel makes the segment Suspected.
    let mut byte = [0u8; 1];
    for _ in 0..2 {
        let err = pvm.vm_read(ctx, VirtAddr(base), &mut byte).unwrap_err();
        assert!(matches!(err, GmiError::MapperTimeout { .. }), "{err}");
    }
    assert!(s.faulty_files.is_wedged());
    s.faulty_files.set_plan(FaultPlan::quiet(2));
    pvm.drain_upcalls();
    let stats = pvm.stats();
    assert_eq!(stats.watchdog_cancels, 2, "{stats:?}");
    assert_eq!(stats.suspected_mappers, 1, "{stats:?}");
    assert_eq!(stats.quarantined_caches, 0, "{stats:?}");
    let t = pvm.cost_model().now().nanos();
    assert!(t < HOUR, "watchdog waited for the hung reply: {t} ns");

    // A Suspected segment gets one request at a time, which is
    // slower but correct: the full content reads back.
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(base), &mut got).unwrap();
    assert_eq!(got, init);

    // No dirty page is lost across the recovery: overwrite the whole
    // segment and push it back.
    let new: Vec<u8> = (0..SEG_SIZE)
        .map(|k| (k as u8).wrapping_mul(13).wrapping_add(5))
        .collect();
    pvm.vm_write(ctx, VirtAddr(base), &new).unwrap();
    pvm.cache_sync(cache, 0, SEG_SIZE as u64).unwrap();
    assert_eq!(s.files.segment_data(cap), new, "dirty pages lost");
    pvm.check_invariants();
}

#[test]
fn watchdog_bounds_the_stall_where_the_bare_engine_waits_an_hour() {
    // Identical stacks, identical workload, one value: with a deadline
    // the hung pull is cancelled at it; with none (`deadline_ns = 0`)
    // the forced delivery must ride out the full hung-reply horizon.
    let run = |deadline: bool| {
        let s = stack(16, hang_plan(0), FaultPlan::quiet(2), |c| {
            async_knobs(c);
            if !deadline {
                c.retry.deadline_ns = 0;
            }
        });
        let (ctx, _cache, _init) = file_region(&s, SEG_PAGES, 0x10_0000);
        let mut byte = [0u8; 1];
        let err = s
            .pvm
            .vm_read(ctx, VirtAddr(0x10_0000), &mut byte)
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        s.pvm.drain_upcalls();
        s.pvm.check_invariants();
        (s.pvm.cost_model().now().nanos(), s.pvm.stats())
    };
    let (t_on, stats_on) = run(true);
    let (t_off, stats_off) = run(false);
    assert!(t_on < HOUR, "watchdog run stalled: {t_on} ns");
    assert!(t_off >= HOUR, "bare run finished early: {t_off} ns");
    assert_eq!(stats_on.watchdog_cancels, 1, "{stats_on:?}");
    assert_eq!(stats_off.watchdog_cancels, 0, "{stats_off:?}");

    // The watchdog path is bit-deterministic.
    let (t_on2, stats_on2) = run(true);
    assert_eq!(t_on, t_on2, "simulated time diverged");
    assert_eq!(stats_on, stats_on2, "counters diverged");
}

#[test]
fn repeated_hangs_escalate_from_suspected_to_quarantine() {
    let s = stack(16, hang_plan(0), FaultPlan::quiet(2), async_knobs);
    let pvm = &s.pvm;
    let (ctx, _cache, init) = file_region(&s, SEG_PAGES, 0x10_0000);
    let mut byte = [0u8; 1];
    for _ in 0..4 {
        let err = pvm
            .vm_read(ctx, VirtAddr(0x10_0000), &mut byte)
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
    }

    // The second cancellation suspected the segment; the fourth, the
    // quarantine threshold, poisons the cache.
    pvm.drain_upcalls();
    let err = pvm
        .vm_read(ctx, VirtAddr(0x10_0000), &mut byte)
        .unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    let stats = pvm.stats();
    assert_eq!(stats.watchdog_cancels, 4, "{stats:?}");
    assert_eq!(stats.suspected_mappers, 1, "{stats:?}");
    assert_eq!(stats.quarantined_caches, 1, "{stats:?}");

    // The quarantine is cache-level, the suspicion segment-level: a
    // fresh cache on the healed mapper works through the degraded
    // synchronous path.
    s.faulty_files.set_plan(FaultPlan::quiet(2));
    let cap2 = s.files.create_segment(&init);
    let seg2 = s.seg_mgr.segment_for(cap2);
    let cache2 = pvm.cache_create(Some(seg2)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x20_0000),
        SEG_SIZE as u64,
        Prot::RW,
        cache2,
        0,
    )
    .unwrap();
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, init);
    assert!(pvm.cost_model().now().nanos() < HOUR);
    pvm.check_invariants();
}

#[test]
fn the_default_config_survives_a_hung_mapper() {
    // `PvmConfig::default()`, no field touched: the deadline is the
    // watchdog, so a mapper that hangs on its first pull costs the
    // faulter a transient timeout at the retry deadline, not the
    // hung-reply horizon.
    const FRAMES: u32 = 16;
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let faulty = Arc::new(FaultyMapper::new(files.clone(), hang_plan(0)));
    seg_mgr.register_mapper(PortName(1), faulty.clone());
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: FRAMES,
            cost: CostParams::sun3(),
            config: PvmConfig::default(),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    );
    faulty.attach_clock(pvm.cost_model());
    let init: Vec<u8> = (0..SEG_SIZE).map(|k| (k as u8) ^ 0x5A).collect();
    let seg = seg_mgr.segment_for(files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::READ, cache, 0)
        .unwrap();

    let err = pvm.vm_read(ctx, VirtAddr(0), &mut [0u8; 1]).unwrap_err();
    assert!(matches!(err, GmiError::MapperTimeout { .. }), "{err}");
    assert!(err.is_transient());
    let t = pvm.cost_model().now().nanos();
    assert!(t < 2_000_000_000, "the default rode out the hang: {t} ns");
    pvm.drain_upcalls();
    let stats = pvm.stats();
    assert_eq!(stats.watchdog_cancels, 1, "{stats:?}");
    assert_eq!(pvm.free_frames(), FRAMES, "the cancelled window leaked");

    faulty.set_plan(FaultPlan::quiet(0));
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0), &mut got).unwrap();
    assert_eq!(got, init, "the healed mapper serves the retry");
    pvm.check_invariants();
}

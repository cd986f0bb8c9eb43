//! Multi-threaded fault stress: concurrent faulting, eviction, unmap
//! and cache control against one PVM instance, under a frame pool small
//! enough that page replacement runs continuously. Invariants are
//! checked after quiescing (they take the state lock, so checking every
//! op would serialize the very races under test), and a byte oracle
//! verifies that no write was lost and no read saw foreign data.

mod common;

use chorus_gmi::{Access, Gmi, Prot, VirtAddr};
use common::*;
use std::sync::{Arc, Barrier};

const THREADS: usize = 4;
const PAGES_PER_THREAD: u64 = 8;
const ROUNDS: u8 = 30;

/// Each thread owns a disjoint page range of one shared cache, mapped
/// through its own context, and rewrites/rereads it while a chaos
/// thread syncs and flushes the cache and churns scratch regions. The
/// 24-frame pool is smaller than the 32-page working set, so faults,
/// evictions and pull-ins interleave constantly.
#[test]
fn threads_hammer_shared_cache_under_tiny_pool() {
    let (pvm, _mgr) = setup_with(24, |o| o.config.check_invariants = false);
    let cache = pvm.cache_create(None).unwrap();
    let total = THREADS as u64 * PAGES_PER_THREAD;
    let base = 0x1_0000u64;

    let ctxs: Vec<_> = (0..THREADS)
        .map(|_| {
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), total * PS, Prot::RW, cache, 0)
                .unwrap();
            ctx
        })
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let mut handles = Vec::new();
    for (t, &ctx) in ctxs.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let lo = base + t as u64 * PAGES_PER_THREAD * PS;
            for round in 0..ROUNDS {
                let tag = (t as u8) << 5 | round;
                for p in 0..PAGES_PER_THREAD {
                    write(&pvm, ctx, lo + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..PAGES_PER_THREAD {
                    assert_eq!(
                        read(&pvm, ctx, lo + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: lost or foreign bytes"
                    );
                }
            }
        }));
    }

    // Chaos: cache sync/flush plus scratch region create/write/destroy,
    // all racing the faulting threads. Control operations may refuse
    // transiently (pages pinned mid-fault); only the workers' byte
    // oracle and the final invariant sweep define correctness.
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(ROUNDS) * 4 {
                let _ = pvm.cache_sync(cache, 0, total * PS);
                if i % 3 == 0 {
                    let _ = pvm.cache_flush(cache, (i % total) * PS, PS);
                }
                let (ctx, region, scratch) = anon_region(&pvm, 2);
                write(&pvm, ctx, 0x1_0000, &pattern(0xEE, PS as usize));
                pvm.region_destroy(region).unwrap();
                pvm.cache_destroy(scratch).unwrap();
                pvm.context_destroy(ctx).unwrap();
            }
        })
    };

    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");

    pvm.check_invariants();

    // Final oracle: every partition still holds its last-round pattern,
    // readable through any context.
    for (t, &ctx) in ctxs.iter().enumerate() {
        let tag = (t as u8) << 5 | (ROUNDS - 1);
        let lo = base + t as u64 * PAGES_PER_THREAD * PS;
        for p in 0..PAGES_PER_THREAD {
            assert_eq!(
                read(&pvm, ctx, lo + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

/// The writeback-vs-eviction race: page replacement launders dirty
/// runs in clustered batches while worker threads rewrite those same
/// pages and a chaos thread flushes them mid-batch. A page can be
/// invalidated between the batched pushOut upcall and its copyBack
/// (the short-run protocol then retries the tail page by page), and a
/// page rewritten while its batch is in flight must come out of
/// `finish_clean` still dirty. The byte oracle is the referee: no
/// rewrite may be lost to a stale batch landing after it.
#[test]
fn clustered_writeback_races_flushes_without_losing_writes() {
    let (pvm, _mgr) = setup_with(24, |o| {
        o.config.check_invariants = false;
        o.config.push_cluster_pages = 4;
    });
    let cache = pvm.cache_create(None).unwrap();
    let total = THREADS as u64 * PAGES_PER_THREAD;
    let base = 0x1_0000u64;

    let ctxs: Vec<_> = (0..THREADS)
        .map(|_| {
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), total * PS, Prot::RW, cache, 0)
                .unwrap();
            ctx
        })
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    // The workers rewrite in lockstep, so that every round dirties the
    // whole working set (a third more than the pool) however the
    // threads are scheduled: replacement must meet dirty victims.
    let lockstep = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for (t, &ctx) in ctxs.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        let lockstep = Arc::clone(&lockstep);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let lo = base + t as u64 * PAGES_PER_THREAD * PS;
            for round in 0..ROUNDS {
                lockstep.wait();
                let tag = (t as u8) << 5 | round;
                for p in 0..PAGES_PER_THREAD {
                    write(&pvm, ctx, lo + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..PAGES_PER_THREAD {
                    assert_eq!(
                        read(&pvm, ctx, lo + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: lost or foreign bytes"
                    );
                }
            }
        }));
    }

    // Chaos: flush pages out from under in-flight laundering batches.
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(ROUNDS) * 8 {
                let _ = pvm.cache_flush(cache, (i % total) * PS, 2 * PS);
                if i % 5 == 0 {
                    let _ = pvm.cache_sync(cache, 0, total * PS);
                }
            }
        })
    };

    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");
    pvm.check_invariants();

    let stats = pvm.stats();
    assert!(
        stats.push_out_batches > 0,
        "clustered writeback never completed a batch"
    );
    assert!(
        stats.write_behind_pushes + stats.demand_pushes > 0,
        "replacement never laundered despite sustained pressure"
    );

    // Final oracle: every partition holds its last-round pattern.
    for (t, &ctx) in ctxs.iter().enumerate() {
        let tag = (t as u8) << 5 | (ROUNDS - 1);
        let lo = base + t as u64 * PAGES_PER_THREAD * PS;
        for p in 0..PAGES_PER_THREAD {
            assert_eq!(
                read(&pvm, ctx, lo + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

/// The soft-fault-vs-eviction race: one thread re-faults pages it has
/// just mapped while another keeps flushing the cache out from under
/// it. A fault on a still-mapped page must succeed without changing
/// anything, and the faulter must transparently re-pull flushed pages.
#[test]
fn soft_faults_survive_eviction_races() {
    let (pvm, mgr) = setup_with(12, |o| o.config.check_invariants = false);
    const PAGES: u64 = 4;
    let seg = mgr.create_segment(&pattern(7, (PAGES * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    let base = 0x2_0000u64;
    pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::READ, cache, 0)
        .unwrap();

    let barrier = Arc::new(Barrier::new(2));
    let faulter = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..4_000u64 {
                let va = VirtAddr(base + (i % PAGES) * PS);
                // vm_read maps the page if needed; the direct
                // handle_fault then lands on a (usually) mapped page.
                let mut b = [0u8; 2];
                pvm.vm_read(ctx, va, &mut b).unwrap();
                assert_eq!(
                    b[0],
                    7u8.wrapping_add((((i % PAGES) * PS) % 256) as u8),
                    "flushed page came back with wrong bytes"
                );
                pvm.handle_fault(ctx, va, Access::Read).unwrap();
            }
        })
    };
    let evictor = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..1_000u64 {
                // Flush may refuse while a pull pins the page; keep going.
                let _ = pvm.cache_flush(cache, (i % PAGES) * PS, PS);
            }
        })
    };
    faulter.join().expect("faulter");
    evictor.join().expect("evictor");

    pvm.check_invariants();
}

// ---------------------------------------------------------------------
// Hard faults on disjoint caches: each thread pulls through its own
// cache while the driver gives the state lock up around every upcall,
// so the other threads' faults, evictions and kills run in the gaps.
// ---------------------------------------------------------------------

/// Concurrent hard faults on disjoint caches: every thread owns its own
/// file-backed cache and pulls a cold working set while the others do
/// the same. The pulls must land, and every byte must come from the
/// faulting thread's own segment.
#[test]
fn parallel_hard_faults_on_disjoint_caches() {
    const PAGES: u64 = 16;
    let (pvm, mgr) = setup_with(PAGES as u32 * THREADS as u32 + 8, |o| {
        o.config.check_invariants = false;
    });
    let base = 0x4_0000u64;
    let mut ctxs = Vec::new();
    for t in 0..THREADS {
        let seg = mgr.create_segment(&pattern(0x40 | t as u8, (PAGES * PS) as usize));
        let cache = pvm.cache_create(Some(seg)).unwrap();
        let ctx = pvm.context_create().unwrap();
        pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::READ, cache, 0)
            .unwrap();
        ctxs.push(ctx);
    }

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = ctxs
        .iter()
        .enumerate()
        .map(|(t, &ctx)| {
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let want = pattern(0x40 | t as u8, (PAGES * PS) as usize);
                for p in 0..PAGES {
                    assert_eq!(
                        read(&pvm, ctx, base + p * PS, PS as usize),
                        want[(p * PS) as usize..((p + 1) * PS) as usize],
                        "thread {t} page {p}: foreign bytes"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("faulting thread");
    }

    assert!(
        pvm.stats().pull_ins > 0,
        "cold reads must pull from the mappers"
    );
    pvm.check_invariants();
}

/// Hard faults vs eviction: two caches' working sets overcommit a tiny
/// pool, so every round's re-faults race page replacement stealing
/// frames from the *other* cache (a pull in flight on one cache, victim
/// pages on another). A chaos thread flushes pages out from under both.
#[test]
fn hard_faults_race_eviction_across_caches() {
    const WORKERS: usize = 2;
    const PAGES: u64 = 8;
    const SPINS: u8 = 20;
    let (pvm, mgr) = setup_with(12, |o| {
        o.config.check_invariants = false;
    });
    let base = 0x1_0000u64;
    // Segment-backed caches: eviction pushes dirty pages to the mapper
    // and the re-fault pulls them back, so `pull_ins` witnesses the
    // evict/re-pull cycle (anonymous caches never pull).
    let setups: Vec<_> = (0..WORKERS)
        .map(|_| {
            let seg = mgr.create_segment(&vec![0u8; (PAGES * PS) as usize]);
            let cache = pvm.cache_create(Some(seg)).unwrap();
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::RW, cache, 0)
                .unwrap();
            (ctx, cache)
        })
        .collect();

    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let mut handles = Vec::new();
    for (t, &(ctx, _)) in setups.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for round in 0..SPINS {
                let tag = (t as u8) << 5 | round;
                for p in 0..PAGES {
                    write(&pvm, ctx, base + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..PAGES {
                    assert_eq!(
                        read(&pvm, ctx, base + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: eviction lost a write"
                    );
                }
            }
        }));
    }
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        let caches: Vec<_> = setups.iter().map(|&(_, c)| c).collect();
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(SPINS) * 6 {
                let cache = caches[(i % caches.len() as u64) as usize];
                let _ = pvm.cache_flush(cache, (i % PAGES) * PS, PS);
                if i % 5 == 0 {
                    let _ = pvm.cache_sync(cache, 0, PAGES * PS);
                }
            }
        })
    };
    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");

    let stats = pvm.stats();
    assert!(
        stats.pull_ins > 0,
        "an overcommitted pool must evict and re-pull"
    );
    pvm.check_invariants();

    // Final oracle: each cache holds its thread's last-round pattern.
    for (t, &(ctx, _)) in setups.iter().enumerate() {
        let tag = (t as u8) << 5 | (SPINS - 1);
        for p in 0..PAGES {
            assert_eq!(
                read(&pvm, ctx, base + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

/// Two clients scan their own mapped files through one frame pool a
/// third the size of the combined working set, so each thread's hard
/// faults keep evicting under the other's. Regression for the demand
/// page of a delivery being left unpinned between `fillUp`'s unlock and
/// the faulter's re-lock: the other thread's eviction took it and the
/// faulter reported a transient `pullIn returned without fillUp`. No
/// access may fail, transiently or otherwise, and every byte must match.
#[test]
fn two_scanners_on_a_shared_pool_never_see_a_transient_error() {
    const SCANNERS: u64 = 2;
    const FILE_PAGES: u64 = 48;
    const OPS: u64 = 100_000;
    let (pvm, mgr) = setup_with(32, |o| o.config.check_invariants = false);
    let barrier = Arc::new(Barrier::new(SCANNERS as usize));
    let handles: Vec<_> = (0..SCANNERS)
        .map(|t| {
            let content = pattern(0x40 + t as u8, (FILE_PAGES * PS) as usize);
            let cache = pvm
                .cache_create(Some(mgr.create_segment(&content)))
                .unwrap();
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(0), FILE_PAGES * PS, Prot::READ, cache, 0)
                .unwrap();
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut x = 0x9E37_79B9u64 + t;
                let mut buf = [0u8; 8];
                for op in 0..OPS {
                    // Even ops step a page-stride cursor, odd ops jump.
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let page = if op % 2 == 0 {
                        (op / 2) % FILE_PAGES
                    } else {
                        (x >> 33) % FILE_PAGES
                    };
                    let off = (page * PS + (x >> 20) % (PS - 8)) as usize;
                    pvm.vm_read(ctx, VirtAddr(off as u64), &mut buf)
                        .unwrap_or_else(|e| panic!("scanner {t} op {op} page {page}: {e}"));
                    assert_eq!(buf, content[off..off + 8], "scanner {t} op {op}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(pvm.stats().evictions > OPS / 4, "the pool never thrashed");
    pvm.check_invariants();
}

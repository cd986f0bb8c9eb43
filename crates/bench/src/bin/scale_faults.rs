//! Multi-core fault scalability: wall-clock fault throughput under
//! concurrency, with and without the lock-avoiding soft-fault fast path.
//!
//! Two workloads:
//!
//! * `resident-read` — every thread owns a private context mapping a
//!   shared, fully-resident cache read-only, pre-faults all its pages,
//!   then hammers `handle_fault` on already-mapped pages. These are pure
//!   soft faults: with the fast path on they complete against the
//!   sharded translation cache without the state mutex; with it off
//!   every one serializes behind the mutex.
//! * `cow-write` — every thread runs private deferred-copy rounds
//!   (cache_copy + write faults forcing real copies). These faults
//!   mutate shared state, so they take the mutex either way; the
//!   workload bounds what the fast path *cannot* speed up.
//!
//! Costs are `CostParams::zero()`: this benchmark measures wall-clock
//! scalability of the locking structure, not the simulated Sun-3/60.
//! Simulated-time results (Tables 5–7, Figure 3) are unaffected by the
//! fast path — see EXPERIMENTS.md for the bit-identity check.
//!
//! A third workload exercises the `parallel_faults` lock-domain
//! decomposition:
//!
//! * `hard-fault` — every thread owns a *disjoint* cache backed by its
//!   own segment and demand-pulls every page exactly once. With
//!   `parallel_faults` on, each thread holds only its cache's fault
//!   stripe across the pull, and `fillUp` copies the delivered bytes
//!   into landing frames outside every domain lock, so disjoint-cache
//!   hard faults proceed in parallel. Each thread verifies the pulled
//!   bytes, and the run asserts the striped driver actually engaged
//!   (`cache_stripe_acqs > 0`, `pull_ins > 0`). On a machine with at
//!   least 4 hardware threads the bench asserts 4-thread throughput is
//!   at least 2x 1-thread (minimum over reps); otherwise the speedup
//!   gate is recorded as skipped with the reason in the JSON.
//!
//! Usage: `cargo run --release -p chorus-bench --bin scale_faults
//!   [--json] [--quick] [--threads N]`
//!
//! `--threads N` runs the hard-fault scenario only, with thread counts
//! `{1, N}`.

use chorus_bench::{bench_args, json, PAGE};
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{Access, Gmi, Prot, SyncShim, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::{Arc, Barrier};

/// Pages per thread in both workloads.
const PAGES: u64 = 32;

struct Shape {
    threads: &'static [usize],
    /// `handle_fault` calls per thread (resident-read).
    read_ops: u64,
    /// Deferred-copy rounds per thread (cow-write).
    cow_rounds: u64,
}

const FULL: Shape = Shape {
    threads: &[1, 2, 4, 8],
    read_ops: 100_000,
    cow_rounds: 16,
};
const QUICK: Shape = Shape {
    threads: &[1, 2, 4],
    read_ops: 10_000,
    cow_rounds: 4,
};

struct Row {
    workload: &'static str,
    fast_path: bool,
    threads: usize,
    ops: u64,
    wall_ms: f64,
    faults_per_sec: f64,
    fast_path_hits: u64,
    fast_path_fallbacks: u64,
    shard_contention: u64,
}

fn make_pvm(fast_path: bool, frames: u32) -> (Arc<Pvm>, Arc<MemSegmentManager>) {
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false).fast_path(fast_path))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        SyncShim::wrap(mgr.clone()),
    ));
    (pvm, mgr)
}

/// Pure soft faults on a shared resident cache: each thread pre-faults
/// its mapping of every page, then re-faults them `read_ops` times.
fn run_resident_read(fast_path: bool, threads: usize, read_ops: u64) -> Row {
    // Frame pool sized so nothing is ever evicted: one copy of the
    // cache's pages plus slack.
    let (pvm, _mgr) = make_pvm(fast_path, (PAGES as u32) * 2 + 16);
    let cache = pvm.cache_create(None).expect("cache");
    for p in 0..PAGES {
        pvm.cache_write(cache, p * PAGE, &[p as u8; 8])
            .expect("fill");
    }
    let base = VirtAddr(0x100_0000);
    let ctxs: Vec<_> = (0..threads)
        .map(|_| {
            let ctx = pvm.context_create().expect("ctx");
            pvm.region_create(ctx, base, PAGES * PAGE, Prot::READ, cache, 0)
                .expect("region");
            // Pre-fault: install every MMU mapping (and fast-path entry).
            let mut b = [0u8; 1];
            for p in 0..PAGES {
                pvm.vm_read(ctx, VirtAddr(base.0 + p * PAGE), &mut b)
                    .expect("prefault");
            }
            ctx
        })
        .collect();

    pvm.reset_stats();
    let barrier = Arc::new(Barrier::new(threads));
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = ctxs
        .iter()
        .map(|&ctx| {
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..read_ops {
                    let p = i % PAGES;
                    pvm.handle_fault(ctx, VirtAddr(base.0 + p * PAGE), Access::Read)
                        .expect("soft fault");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("reader thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = pvm.stats();
    let ops = read_ops * threads as u64;
    Row {
        workload: "resident-read",
        fast_path,
        threads,
        ops,
        wall_ms: wall * 1e3,
        faults_per_sec: ops as f64 / wall,
        fast_path_hits: stats.fast_path_hits,
        fast_path_fallbacks: stats.fast_path_fallbacks,
        shard_contention: stats.shard_contention,
    }
}

/// Mutex-bound control: per-thread deferred-copy rounds with real COW
/// copies. Counts one "op" per forced copy fault.
fn run_cow_write(fast_path: bool, threads: usize, rounds: u64) -> Row {
    // Each thread keeps a 32-page source plus one live 32-page copy.
    let frames = ((PAGES as u32) * 2) * (threads as u32) + 32;
    let (pvm, _mgr) = make_pvm(fast_path, frames);
    let src_base = VirtAddr(0x100_0000);
    let cpy_base = VirtAddr(0x800_0000);
    let setups: Vec<_> = (0..threads)
        .map(|t| {
            let ctx = pvm.context_create().expect("ctx");
            let src = pvm.cache_create(None).expect("src cache");
            pvm.region_create(ctx, src_base, PAGES * PAGE, Prot::RW, src, 0)
                .expect("src region");
            for p in 0..PAGES {
                pvm.vm_write(ctx, VirtAddr(src_base.0 + p * PAGE), &[t as u8, p as u8])
                    .expect("prefill");
            }
            (ctx, src)
        })
        .collect();

    pvm.reset_stats();
    let barrier = Arc::new(Barrier::new(threads));
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = setups
        .iter()
        .map(|&(ctx, src)| {
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..rounds {
                    let cpy = pvm.cache_create(None).expect("cpy cache");
                    pvm.cache_copy(src, 0, cpy, 0, PAGES * PAGE)
                        .expect("deferred copy");
                    let region = pvm
                        .region_create(ctx, cpy_base, PAGES * PAGE, Prot::RW, cpy, 0)
                        .expect("cpy region");
                    // Dirty every source page: each write forces a real
                    // copy for the outstanding deferred-copy stub.
                    for p in 0..PAGES {
                        pvm.vm_write(ctx, VirtAddr(src_base.0 + p * PAGE), &[round as u8])
                            .expect("dirty source");
                    }
                    pvm.region_destroy(region).expect("destroy region");
                    pvm.cache_destroy(cpy).expect("destroy cpy");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("cow thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = pvm.stats();
    let ops = rounds * PAGES * threads as u64;
    Row {
        workload: "cow-write",
        fast_path,
        threads,
        ops,
        wall_ms: wall * 1e3,
        faults_per_sec: ops as f64 / wall,
        fast_path_hits: stats.fast_path_hits,
        fast_path_fallbacks: stats.fast_path_fallbacks,
        shard_contention: stats.shard_contention,
    }
}

/// Pages each thread demand-pulls in the hard-fault scenario.
const HARD_PAGES: u64 = 128;
/// Pull-cluster window of the hard-fault scenario (8 pages per upcall).
const HARD_CLUSTER: u64 = 8;

struct HardRow {
    parallel: bool,
    threads: usize,
    reps: u32,
    /// Hard faults per rep (threads x HARD_PAGES).
    ops: u64,
    /// Wall time of the fastest rep, ms.
    wall_ms: f64,
    /// Per-rep throughput, faults/s (index = rep).
    fps_reps: Vec<f64>,
    /// Throughput of the fastest rep.
    faults_per_sec: f64,
    /// vs the 1-thread row with the same knob (fastest reps); 0 until
    /// filled in by the caller.
    speedup_vs_1t: f64,
    stripe_acqs: u64,
    stripe_contended: u64,
    pull_ins: u64,
    state_lock_contended: u64,
}

/// One rep of the hard-fault scenario: a fresh world, one disjoint
/// segment+cache+context per thread, every page demand-pulled once and
/// byte-verified. Returns (wall seconds, stats snapshot).
fn hard_fault_rep(parallel: bool, threads: usize) -> (f64, chorus_pvm::PvmStats) {
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: (HARD_PAGES as u32) * (threads as u32) + 64,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| {
                    p.check_invariants(false)
                        .parallel_faults(parallel)
                        .pull_cluster_pages(HARD_CLUSTER)
                })
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        SyncShim::wrap(mgr.clone()),
    ));
    let base = VirtAddr(0x100_0000);
    let ctxs: Vec<_> = (0..threads)
        .map(|t| {
            let content: Vec<u8> = (0..HARD_PAGES * PAGE)
                .map(|i| ((i % 251) as u8).wrapping_add(t as u8))
                .collect();
            let seg = mgr.create_segment(&content);
            let cache = pvm.cache_create(Some(seg)).expect("cache");
            let ctx = pvm.context_create().expect("ctx");
            pvm.region_create(ctx, base, HARD_PAGES * PAGE, Prot::READ, cache, 0)
                .expect("region");
            (ctx, t)
        })
        .collect();

    pvm.reset_stats();
    let barrier = Arc::new(Barrier::new(threads));
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = ctxs
        .iter()
        .map(|&(ctx, t)| {
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut buf = [0u8; 16];
                for p in 0..HARD_PAGES {
                    let off = p * PAGE;
                    pvm.vm_read(ctx, VirtAddr(base.0 + off), &mut buf)
                        .expect("hard fault");
                    for (k, &b) in buf.iter().enumerate() {
                        let want = (((off + k as u64) % 251) as u8).wrapping_add(t as u8);
                        assert_eq!(b, want, "pulled bytes (thread {t}, page {p}, byte {k})");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hard-fault thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = pvm.stats();
    // The scenario is all hard faults: every page must have come from
    // the mapper, and with the knob on the striped driver must engage.
    assert!(stats.pull_ins > 0, "hard faults must pull from the mapper");
    if parallel {
        assert!(
            stats.cache_stripe_acqs > 0,
            "parallel_faults on: the striped driver must engage"
        );
    }
    (wall, stats)
}

fn run_hard_faults(parallel: bool, threads: usize, reps: u32) -> HardRow {
    let ops = HARD_PAGES * threads as u64;
    let mut fps_reps = Vec::new();
    let mut best_wall = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let (wall, stats) = hard_fault_rep(parallel, threads);
        fps_reps.push(ops as f64 / wall);
        best_wall = best_wall.min(wall);
        last = Some(stats);
    }
    let stats = last.expect("at least one rep");
    HardRow {
        parallel,
        threads,
        reps,
        ops,
        wall_ms: best_wall * 1e3,
        faults_per_sec: ops as f64 / best_wall,
        fps_reps,
        speedup_vs_1t: 0.0,
        stripe_acqs: stats.cache_stripe_acqs,
        stripe_contended: stats.cache_stripe_contended,
        pull_ins: stats.pull_ins,
        state_lock_contended: stats.state_lock_contended,
    }
}

fn throughput(rows: &[Row], workload: &str, fast: bool, threads: usize) -> Option<f64> {
    rows.iter()
        .find(|r| r.workload == workload && r.fast_path == fast && r.threads == threads)
        .map(|r| r.faults_per_sec)
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let thread_override: Option<usize> = args.value("--threads").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--threads takes a positive integer, got {v:?}"))
    });

    let mut rows = Vec::new();
    if thread_override.is_none() {
        for &fast in &[true, false] {
            for &t in shape.threads {
                rows.push(run_resident_read(fast, t, shape.read_ops));
            }
        }
        for &fast in &[true, false] {
            for &t in shape.threads {
                rows.push(run_cow_write(fast, t, shape.cow_rounds));
            }
        }
    }

    // Hard-fault scenario: knob-on rows across the thread grid, plus a
    // knob-off contrast at the top thread count.
    let reps: u32 = if quick { 2 } else { 3 };
    let hard_threads: Vec<usize> = match thread_override {
        Some(n) => {
            let mut v = vec![1];
            if n > 1 {
                v.push(n);
            }
            v
        }
        None => {
            let mut v: Vec<usize> = shape.threads.to_vec();
            if !v.contains(&1) {
                v.insert(0, 1);
            }
            v
        }
    };
    let mut hard_rows: Vec<HardRow> = hard_threads
        .iter()
        .map(|&t| run_hard_faults(true, t, reps))
        .collect();
    let top = *hard_threads.iter().max().expect("thread grid");
    hard_rows.push(run_hard_faults(false, top, reps));
    for i in 0..hard_rows.len() {
        let base = hard_rows
            .iter()
            .find(|r| r.parallel == hard_rows[i].parallel && r.threads == 1)
            .map(|r| r.faults_per_sec)
            .unwrap_or(hard_rows[i].faults_per_sec);
        hard_rows[i].speedup_vs_1t = hard_rows[i].faults_per_sec / base;
    }

    // The speedup gate: with >= 4 hardware threads, knob-on 4-thread
    // hard-fault throughput must be at least 2x 1-thread, for the
    // *minimum* over rep pairs. Fewer cores bound the speedup by the
    // machine, not the locking, so the gate records itself skipped.
    let gate_pair = (
        hard_rows.iter().find(|r| r.parallel && r.threads == 1),
        hard_rows.iter().find(|r| r.parallel && r.threads == 4),
    );
    let (gate_asserted, gate_reason, gate_speedup) = match gate_pair {
        (Some(t1), Some(t4)) => {
            let min_speedup = t4
                .fps_reps
                .iter()
                .zip(&t1.fps_reps)
                .map(|(a, b)| a / b)
                .fold(f64::INFINITY, f64::min);
            if cores >= 4 {
                assert!(
                    min_speedup >= 2.0,
                    "parallel_faults: 4-thread hard-fault throughput must be >= 2x \
                     1-thread on a >=4-core machine (min over {reps} reps: {min_speedup:.2}x)"
                );
                (true, "asserted".to_string(), min_speedup)
            } else {
                (
                    false,
                    format!("only {cores} hardware thread(s) available"),
                    min_speedup,
                )
            }
        }
        _ => (
            false,
            "no 1-thread/4-thread knob-on pair in the grid".to_string(),
            0.0,
        ),
    };

    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .str("workload", r.workload)
                .bool("fast_path", r.fast_path)
                .int("threads", r.threads as u64)
                .int("ops", r.ops)
                .num("wall_ms", r.wall_ms)
                .num("faults_per_sec", r.faults_per_sec)
                .int("fast_path_hits", r.fast_path_hits)
                .int("fast_path_fallbacks", r.fast_path_fallbacks)
                .int("shard_contention", r.shard_contention)
                .build()
        });
        let hard_encoded = hard_rows.iter().map(|r| {
            json::Obj::new()
                .str("workload", "hard-fault")
                .bool("parallel_faults", r.parallel)
                .int("threads", r.threads as u64)
                .int("reps", u64::from(r.reps))
                .int("ops", r.ops)
                .num("wall_ms", r.wall_ms)
                .num("faults_per_sec", r.faults_per_sec)
                .num("speedup_vs_1t", r.speedup_vs_1t)
                .raw(
                    "fps_reps",
                    &json::array(r.fps_reps.iter().map(|v| json::number(*v))),
                )
                .int("stripe_acqs", r.stripe_acqs)
                .int("stripe_contended", r.stripe_contended)
                .int("pull_ins", r.pull_ins)
                .int("state_lock_contended", r.state_lock_contended)
                .build()
        });
        let gate = json::Obj::new()
            .bool("asserted", gate_asserted)
            .str("reason", &gate_reason)
            .num("min_speedup", gate_speedup)
            .int("cores", cores as u64)
            .build();
        println!(
            "{}",
            json::Obj::bench("scale_faults")
                .int("cores", cores as u64)
                .bool("quick", quick)
                .raw("rows", &json::array(encoded))
                .raw("hard_rows", &json::array(hard_encoded))
                .raw("hard_fault_gate", &gate)
                .build()
        );
        return;
    }

    println!(
        "Fault scalability ({} hardware threads available)\n\
         resident-read: {} soft faults/thread; cow-write: {} rounds x {} pages/thread\n",
        cores, shape.read_ops, shape.cow_rounds, PAGES
    );
    println!("  workload      | fast path | threads |       faults/s | fp hits | contention");
    for r in &rows {
        println!(
            "  {:<13} | {:<9} | {:>7} | {:>14.0} | {:>7} | {:>10}",
            r.workload,
            if r.fast_path { "on" } else { "off" },
            r.threads,
            r.faults_per_sec,
            r.fast_path_hits,
            r.shard_contention
        );
    }
    println!();
    for &t in shape.threads {
        if let (Some(on), Some(off)) = (
            throughput(&rows, "resident-read", true, t),
            throughput(&rows, "resident-read", false, t),
        ) {
            println!("  resident-read @{t}T: fast path on/off = {:.2}x", on / off);
        }
    }
    if let (Some(t1), Some(t4)) = (
        throughput(&rows, "resident-read", true, 1),
        throughput(&rows, "resident-read", true, 4),
    ) {
        println!(
            "  resident-read fast-on: 4T vs 1T aggregate throughput = {:.2}x",
            t4 / t1
        );
        if cores < 4 {
            println!(
                "  (only {cores} hardware thread(s): parallel speedup is bounded by the\n\
                 \u{20}  machine, not the locking; the on/off ratio above isolates the\n\
                 \u{20}  lock-avoidance win)"
            );
        }
    }

    println!(
        "\nHard faults: {} pages/thread pulled from disjoint caches ({} reps, cluster {})",
        HARD_PAGES, reps, HARD_CLUSTER
    );
    println!("  parallel | threads |       faults/s | vs 1T | stripe acq/cont | pulls");
    for r in &hard_rows {
        println!(
            "  {:<8} | {:>7} | {:>14.0} | {:>4.2}x | {:>9}/{:<5} | {:>5}",
            if r.parallel { "on" } else { "off" },
            r.threads,
            r.faults_per_sec,
            r.speedup_vs_1t,
            r.stripe_acqs,
            r.stripe_contended,
            r.pull_ins,
        );
    }
    println!(
        "  speedup gate: {} (min speedup {:.2}x, {})",
        if gate_asserted { "ASSERTED" } else { "skipped" },
        gate_speedup,
        gate_reason
    );
}

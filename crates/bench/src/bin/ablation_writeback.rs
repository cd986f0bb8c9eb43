//! Ablation: clustered asynchronous writeback — the pageout pipeline
//! (DESIGN.md §9) under a dirty-scan workload.
//!
//! A working set of dirty pages larger than the frame pool is rewritten
//! in repeated sequential scans, so page replacement runs continuously
//! and every victim is dirty. The sweep varies the `pushOut` cluster
//! size: clustering amortizes the fixed per-request mapper overhead
//! over a run of contiguous dirty pages (`pushout_upcalls` drops while
//! `pages_cleaned` stays constant). Every access here is a hard fault,
//! so the write-behind queue never finds a light entry to drain on and
//! each push is a demand push (`fault.evictStall` counts them). After
//! the scans every page is read back: a page that does not hold its
//! last tag is a lost page.
//!
//! Tracing is on explicitly (the stall histogram needs it); the
//! determinism rule says tracing never advances the simulated clock,
//! and a built-in self-check re-runs one configuration and asserts
//! byte-identical clocks and counters.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_writeback [--json] [--quick]`

use chorus_bench::{assert_deterministic, bench_args, json, PAGE};
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::trace::Phase;
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use std::sync::Arc;

const FRAMES: u32 = 64;
const CLUSTERS: [u64; 3] = [1, 4, 8];

struct Shape {
    /// Dirty working set in pages (> FRAMES, so replacement never stops).
    ws_pages: u64,
    /// Full sequential rewrite passes over the working set.
    scans: u64,
}

const FULL: Shape = Shape {
    ws_pages: 192,
    scans: 4,
};
const QUICK: Shape = Shape {
    ws_pages: 96,
    scans: 2,
};

struct Row {
    cluster: u64,
    /// Successful `pushOut` mapper requests (batched or single).
    pushout_upcalls: u64,
    /// Dirty pages written back (each counts once per clean).
    pages_cleaned: u64,
    /// Demand faults that stalled on a synchronous dirty eviction.
    evict_stalls: u64,
    evict_stall_p99_ns: u64,
    sim_ms: f64,
    faults: u64,
    /// Pages whose bytes after the run are not their last tag.
    lost_pages: u64,
}

fn run_config(shape: &Shape, cluster: u64) -> Row {
    let mgr = Arc::new(MemSegmentManager::new());
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 239) as u8)
        .collect();
    let seg = mgr.create_segment(&content);
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: FRAMES,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false).push_cluster_pages(cluster))
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
    );
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();
    let model = pvm.cost_model();
    let t0 = model.now();
    for scan in 0..shape.scans {
        for p in 0..shape.ws_pages {
            let tag = [(scan as u8) ^ (p as u8); 16];
            pvm.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
        }
    }
    let sim_ms = model.now().since(t0).millis();
    let stats = pvm.stats();
    let stall = pvm.tracer().histogram(Phase::EvictStall);
    let last = shape.scans - 1;
    let lost_pages = (0..shape.ws_pages)
        .filter(|&p| {
            let mut got = [0u8; 16];
            pvm.vm_read(ctx, VirtAddr(p * PAGE), &mut got).unwrap();
            got != [(last as u8) ^ (p as u8); 16]
        })
        .count() as u64;
    Row {
        cluster,
        pushout_upcalls: stats.push_out_batches,
        pages_cleaned: stats.push_outs,
        evict_stalls: stall.count(),
        evict_stall_p99_ns: stall.percentile(0.99),
        sim_ms,
        faults: stats.faults,
        lost_pages,
    }
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // The simulated clock and every counter must agree bit for bit
    // across reruns (tracing is on in both).
    assert_deterministic("writeback pipeline", || {
        let r = run_config(shape, 4);
        (
            r.sim_ms.to_bits(),
            r.pushout_upcalls,
            r.pages_cleaned,
            r.evict_stalls,
            r.faults,
        )
    });

    let rows: Vec<Row> = CLUSTERS.iter().map(|&c| run_config(shape, c)).collect();
    assert!(rows.iter().all(|r| r.lost_pages == 0), "a row lost a page");

    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .int("cluster", r.cluster)
                .int("pushout_upcalls", r.pushout_upcalls)
                .int("pages_cleaned", r.pages_cleaned)
                .int("evict_stalls", r.evict_stalls)
                .int("evict_stall_p99_ns", r.evict_stall_p99_ns)
                .num("sim_ms", r.sim_ms)
                .int("faults", r.faults)
                .int("lost_pages", r.lost_pages)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_writeback")
                .int("ws_pages", shape.ws_pages)
                .int("scans", shape.scans)
                .int("frames", u64::from(FRAMES))
                .bool("quick", quick)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }

    println!(
        "Writeback ablation: {} sequential rewrite scans of a {}-page dirty\n\
         working set over {} frames\n",
        shape.scans, shape.ws_pages, FRAMES
    );
    println!(
        "  cluster | pushOut upcalls | pages cleaned | evict stalls | stall p99 (ns) | sim ms | lost pages"
    );
    for r in &rows {
        println!(
            "  {:>7} | {:>15} | {:>13} | {:>12} | {:>14} | {:>10.1} | {:>10}",
            r.cluster,
            r.pushout_upcalls,
            r.pages_cleaned,
            r.evict_stalls,
            r.evict_stall_p99_ns,
            r.sim_ms,
            r.lost_pages,
        );
    }
    let (base, best) = (&rows[0], &rows[rows.len() - 1]);
    println!(
        "\n  cluster={} vs cluster={}: {:.1}x fewer pushOut requests",
        best.cluster,
        base.cluster,
        base.pushout_upcalls as f64 / best.pushout_upcalls.max(1) as f64,
    );
}

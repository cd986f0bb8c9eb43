//! Ablation: liveness under a hung mapper (DESIGN.md §11) — the
//! completion engine's deadline watchdog against an engine with no
//! deadline.
//!
//! A file-backed working set is swept through clustered pulls while the
//! mapper wedges mid-run (every reply from then on is a
//! hang). The client skips failed pages, heals the mapper after the
//! third visible error and revisits the failures — the question is what
//! the *kernel* does with the replies that never arrived:
//!
//! * with no deadline (`retry.deadline_ns = 0`), the parked request is
//!   only resolved when a faulter or the final drain forces it, paying
//!   the full hung-reply horizon (one simulated hour) — the workload
//!   completes but stalls;
//! * with the default deadline, the request is cancelled at it (about a
//!   simulated second) and the mapper is marked Suspected, so
//!   end-to-end time stays within sight of the healthy baseline.
//!
//! In every configuration the byte oracle must hold: a hang may cost
//! time, never data.
//!
//! The layer must stay deterministic: a built-in self-check re-runs the
//! default configuration and asserts bit-identical clocks and counters.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_pressure [--json] [--quick]`

use chorus_bench::{assert_deterministic, bench_args, json, PAGE};
use chorus_gmi::{Gmi, Prot, RetryPolicy, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

const FRAMES: u32 = 16;
const PULL_CLUSTER: u64 = 4;
/// The upcall number at which the mapper wedges (mid-sweep).
const HANG_AT: u64 = 6;

struct Shape {
    ws_pages: u64,
    sweeps: u64,
}

const FULL: Shape = Shape {
    ws_pages: 64,
    sweeps: 3,
};
const QUICK: Shape = Shape {
    ws_pages: 32,
    sweeps: 2,
};

struct Row {
    scenario: &'static str,
    hang: bool,
    /// Whether requests carry the default deadline (none otherwise).
    deadline: bool,
    client_errors: u64,
    watchdog_cancels: u64,
    suspected_mappers: u64,
    lost_pages: u64,
    faults: u64,
    sim_ms: f64,
}

fn run_config(shape: &Shape, scenario: &'static str, hang: bool, deadline: bool) -> Row {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let plan = if hang {
        FaultPlan {
            hang_at_op: Some(HANG_AT),
            ..FaultPlan::quiet(7)
        }
    } else {
        FaultPlan::quiet(7)
    };
    let faulty = Arc::new(FaultyMapper::new(files.clone(), plan));
    seg_mgr.register_mapper(PortName(1), faulty.clone());
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: FRAMES,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false).pull_cluster_pages(PULL_CLUSTER))
                .retry(RetryPolicy {
                    deadline_ns: if deadline {
                        RetryPolicy::default().deadline_ns
                    } else {
                        0
                    },
                    ..RetryPolicy::default()
                })
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    );
    faulty.attach_clock(pvm.cost_model());

    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 239) as u8)
        .collect();
    let cap = files.create_segment(&content);
    let seg = seg_mgr.segment_for(cap);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();

    let model = pvm.cost_model();
    let t0 = model.now();
    let mut client_errors = 0u64;
    let mut lost_pages = 0u64;
    let mut healed = false;
    let mut failed = Vec::new();
    let mut buf = [0u8; 16];
    // Sweep pass: a failed page is skipped (revisited below), so the
    // wedged window spans several clustered faults. The mapper heals after the third visible
    // error; the kernel still owns every reply that never arrived.
    for _ in 0..shape.sweeps {
        for p in 0..shape.ws_pages {
            match pvm.vm_read(ctx, VirtAddr(p * PAGE), &mut buf) {
                Ok(()) => {
                    if buf[0] != ((p * PAGE) % 239) as u8 {
                        lost_pages += 1;
                    }
                }
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    client_errors += 1;
                    if client_errors >= 3 && !healed {
                        faulty.set_plan(FaultPlan::quiet(7));
                        healed = true;
                    }
                    failed.push(p);
                }
            }
        }
    }
    // Recovery pass: every failed page must eventually read clean.
    for p in failed {
        let mut tries = 0;
        loop {
            match pvm.vm_read(ctx, VirtAddr(p * PAGE), &mut buf) {
                Ok(()) => break,
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    client_errors += 1;
                    if !healed {
                        faulty.set_plan(FaultPlan::quiet(7));
                        healed = true;
                    }
                    tries += 1;
                    assert!(tries < 64, "transient fault never healed");
                }
            }
        }
        if buf[0] != ((p * PAGE) % 239) as u8 {
            lost_pages += 1;
        }
    }
    // A hang may cost time, never data: rewrite the working set and
    // push it back through the (healed) mapper.
    for p in 0..shape.ws_pages {
        let tag = [(p % 251) as u8; 16];
        pvm.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
    }
    pvm.cache_sync(cache, 0, shape.ws_pages * PAGE).unwrap();
    let stored = files.segment_data(cap);
    for p in 0..shape.ws_pages {
        if stored[(p * PAGE) as usize] != (p % 251) as u8 {
            lost_pages += 1;
        }
    }
    pvm.drain_upcalls();
    let stats = pvm.stats();
    Row {
        scenario,
        hang,
        deadline,
        client_errors,
        watchdog_cancels: stats.watchdog_cancels,
        suspected_mappers: stats.suspected_mappers,
        lost_pages,
        faults: stats.faults,
        sim_ms: model.now().since(t0).millis(),
    }
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // Determinism self-check: the cancel path must be bit-identical.
    assert_deterministic("pressure layer", || {
        let r = run_config(shape, "selfcheck", true, true);
        (
            r.sim_ms.to_bits(),
            r.client_errors,
            r.watchdog_cancels,
            r.faults,
        )
    });

    let rows = vec![
        run_config(shape, "healthy baseline", false, true),
        run_config(shape, "hang, no deadline", true, false),
        run_config(shape, "hang + deadline", true, true),
    ];
    let baseline = &rows[0];
    let bare = &rows[1];
    let dog = &rows[2];
    for r in &rows {
        assert_eq!(
            r.lost_pages, 0,
            "{}: a hang must never cost data",
            r.scenario
        );
    }
    assert!(
        dog.sim_ms * 100.0 < bare.sim_ms,
        "watchdog must cut the hung-reply stall by orders of magnitude: \
         {} ms vs {} ms",
        dog.sim_ms,
        bare.sim_ms
    );
    assert!(
        dog.watchdog_cancels >= 1 && dog.suspected_mappers >= 1,
        "watchdog never ruled"
    );

    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .str("scenario", r.scenario)
                .bool("hang", r.hang)
                .bool("deadline", r.deadline)
                .int("client_errors", r.client_errors)
                .int("watchdog_cancels", r.watchdog_cancels)
                .int("suspected_mappers", r.suspected_mappers)
                .int("lost_pages", r.lost_pages)
                .int("faults", r.faults)
                .num("sim_ms", r.sim_ms)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_pressure")
                .int("ws_pages", shape.ws_pages)
                .int("sweeps", shape.sweeps)
                .int("frames", u64::from(FRAMES))
                .bool("quick", quick)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }

    println!(
        "Pressure ablation: {} sweeps over a {}-page working set on {}\n\
         frames; the mapper wedges at upcall {} and is healed by the\n\
         client after its third visible error\n",
        shape.sweeps, shape.ws_pages, FRAMES, HANG_AT
    );
    println!("  scenario          | errors | cancels | suspected | lost | sim time");
    for r in &rows {
        println!(
            "  {:<17} | {:>6} | {:>7} | {:>9} | {:>4} | {:>12.1} ms",
            r.scenario,
            r.client_errors,
            r.watchdog_cancels,
            r.suspected_mappers,
            r.lost_pages,
            r.sim_ms,
        );
    }
    println!(
        "\n  hung reply: with no deadline the engine pays {:.0} ms (the\n\
         hung-reply horizon); the watchdog resolves it in {:.1} ms ({:.0}x\n\
         better) against a healthy baseline of {:.1} ms.",
        bare.sim_ms,
        dog.sim_ms,
        bare.sim_ms / dog.sim_ms,
        baseline.sim_ms,
    );
}

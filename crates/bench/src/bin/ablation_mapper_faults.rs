//! Ablation: mapper fault injection × retry policy (robustness
//! extension). Mappers are independent actors (§5.1.1), so their
//! replies can fail transiently; this ablation measures what the retry
//! protocol buys: with retries enabled, injected transient faults are
//! healed inside the fault path and clients see none of them, at a
//! simulated-time cost that scales with the fault rate. With retries
//! disabled, every injected fault surfaces to a client.
//!
//! Usage: `cargo run -p chorus-bench --bin ablation_mapper_faults [--json]`

use chorus_bench::{json, PAGE};
use chorus_gmi::{Gmi, Prot, RetryPolicy, VirtAddr};
use chorus_hal::{CostParams, OpKind, PageGeometry};
use chorus_nucleus::{FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::{Dim, DimCounter, Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

const PAGES: u64 = 32;
const SWEEPS: u64 = 4;

struct Row {
    fault_per_mille: u32,
    policy: &'static str,
    client_errors: u64,
    mapper_retries: u64,
    retry_charges: u64,
    sim_ms: f64,
}

fn run(fault_per_mille: u32, policy: RetryPolicy, policy_name: &'static str) -> Row {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let plan = FaultPlan {
        seed: 0xC0FFEE ^ u64::from(fault_per_mille),
        transient_per_mille: fault_per_mille,
        permanent_per_mille: 0,
        delay_per_mille: 0,
        delay_ns: 0,
        truncate_per_mille: 0,
        crash_at_op: None,
        hang_at_op: None,
    };
    let faulty = Arc::new(FaultyMapper::new(files.clone(), plan));
    seg_mgr.register_mapper(PortName(1), faulty.clone());
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: (PAGES / 2) as u32,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .retry(policy)
                .paging(|p| p.check_invariants(false))
                // Telemetry never charges the cost model, so the table
                // below is identical with the knob on; each scenario
                // double-checks the dimensional counters against the
                // globals they shadow (see the asserts after the sweep).
                .telemetry(|t| t.telemetry(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    );
    faulty.attach_clock(pvm.cost_model());

    let content: Vec<u8> = (0..PAGES * PAGE).map(|i| (i % 239) as u8).collect();
    let seg = seg_mgr.segment_for(files.create_segment(&content));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PAGES * PAGE, Prot::READ, cache, 0)
        .unwrap();

    // Repeated sequential scans under pressure: half the working set
    // fits, so every sweep re-pulls evicted pages through the faulty
    // mapper. A client-visible error is retried at the client level
    // (bounded), mirroring what a real program would have to do.
    let model = pvm.cost_model();
    let t0 = model.now();
    let mut client_errors = 0u64;
    let mut buf = [0u8; 64];
    for _ in 0..SWEEPS {
        for p in 0..PAGES {
            let mut tries = 0;
            loop {
                match pvm.vm_read(ctx, VirtAddr(p * PAGE), &mut buf) {
                    Ok(()) => break,
                    Err(e) => {
                        assert!(e.is_transient(), "{e}");
                        client_errors += 1;
                        tries += 1;
                        assert!(tries < 64, "transient fault never healed");
                    }
                }
            }
            assert_eq!(buf[0], ((p * PAGE) % 239) as u8, "bytes diverged");
        }
    }
    // Dimensional-telemetry consistency, once per scenario: the gauges
    // must agree with the HAL and the completion engine, and the
    // per-entity counters must sum to the global cells they shadow.
    let stats = pvm.stats();
    let sample = pvm.sample_now();
    let mem = pvm.mem_stats();
    assert_eq!(
        u64::from(sample.free_frames),
        u64::from(PAGES as u32 / 2) - mem.in_use,
        "free-frame gauge vs hal MemStats"
    );
    assert_eq!(
        sample.inflight_upcalls,
        stats.async_submits - stats.async_deliveries,
        "in-flight gauge vs completion-table population"
    );
    let by_cache: u64 = pvm
        .telemetry()
        .table(Dim::Cache)
        .iter()
        .map(|(_, c)| c[DimCounter::Faults as usize])
        .sum();
    assert_eq!(by_cache, stats.faults, "per-cache fault counters vs global");
    Row {
        fault_per_mille,
        policy: policy_name,
        client_errors,
        mapper_retries: pvm.stats().mapper_retries,
        retry_charges: model.count(OpKind::MapperRetry),
        sim_ms: model.now().since(t0).millis(),
    }
}

fn main() {
    let emit_json = std::env::args().any(|a| a == "--json");
    let mut rows = Vec::new();
    for &per_mille in &[0u32, 50, 100, 200] {
        rows.push(run(per_mille, RetryPolicy::no_retry(), "no_retry"));
        rows.push(run(per_mille, RetryPolicy::default(), "default"));
    }
    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .int("fault_per_mille", u64::from(r.fault_per_mille))
                .str("policy", r.policy)
                .int("client_errors", r.client_errors)
                .int("mapper_retries", r.mapper_retries)
                .int("retry_charges", r.retry_charges)
                .num("sim_ms", r.sim_ms)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_mapper_faults")
                .int("pages", PAGES)
                .int("sweeps", SWEEPS)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }
    println!(
        "Mapper-fault ablation: {SWEEPS} sweeps over a {PAGES}-page segment,\n\
         frame pool of {} (every sweep re-pulls through the faulty mapper)\n",
        PAGES / 2
    );
    println!("  fault rate | policy   | client errors | kernel retries | simulated time");
    for r in &rows {
        println!(
            "  {:>7}\u{2030}  | {:<8} | {:>13} | {:>14} | {:>11.2} ms",
            r.fault_per_mille, r.policy, r.client_errors, r.mapper_retries, r.sim_ms
        );
    }
    println!(
        "\nWith retries the kernel heals transient mapper faults inside the\n\
         fault path (clients see zero errors); without, every injected fault\n\
         surfaces to a client, which must implement its own retry loop."
    );
}

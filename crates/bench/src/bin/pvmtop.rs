//! `pvmtop`: a one-shot operator's view of a live PVM — top-N caches by
//! fault/dirty heat, per-mapper health (Healthy / Suspected /
//! Quarantined), per-phase latency percentiles and the gauge sample the
//! counters cannot express — and the check that the dimensional
//! telemetry (DESIGN.md §12) attributes what it sees.
//!
//! The binary drives a seeded scenario — several file-backed caches of
//! graded heat, one cold anonymous cache, one cache behind a mapper
//! that dies permanently on its first pull — then renders the snapshot
//! and writes it to `reports/pvmtop.txt`; the human output also prints
//! the state lock's wall-clock profile, which stays out of the report
//! and the `--json` envelope. The scenario is self-checking: it runs
//! twice and must agree to the nanosecond, the gauge sampler must have
//! fired, the hottest cache must rank first and the dead mapper must be
//! flagged Quarantined. Its series and dimensional tables are exported
//! as `reports/telemetry.json`, plus `reports/telemetry.trace.json`, a
//! chrome-trace file whose counter tracks (`mem.free`,
//! `engine.queues`, `residency`) plot the gauges over simulated time.
//! The layer has no knob, so what it costs is what every run pays: the
//! scoreboard (`benchmark/`) and the paper tables measure it.
//!
//! Usage: `cargo run --release -p chorus-bench --bin pvmtop [--json] [--out DIR]`

use chorus_bench::{json, PAGE};
use chorus_gmi::{CacheId, Gmi, Prot, SegmentId, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::{pvmtop, MapperState, Pvm, PvmConfig, PvmOptions, TraceConfig, TraceSink};
use std::path::PathBuf;
use std::sync::Arc;

/// How many cache rows the rendered table keeps.
const TOP_N: usize = 5;

/// The scenario's PVM, left as the scenario ends, with the caches the
/// checks name.
struct Scenario {
    pvm: Arc<Pvm>,
    hot: CacheId,
    sick_segment: SegmentId,
}

/// Graded heat, a cold cache and a permanently failing mapper, tracing
/// on.
fn scenario() -> Scenario {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let sick_files = Arc::new(MemMapper::new(PortName(2)));
    let sick = Arc::new(FaultyMapper::new(
        sick_files.clone(),
        FaultPlan {
            permanent_per_mille: 1000,
            ..FaultPlan::quiet(42)
        },
    ));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), sick.clone());
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            // Smaller than any one cache's working set, so every sweep
            // re-pulls through the clock and heat scales with sweeps.
            frames: 6,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .trace(TraceConfig {
                    enabled: true,
                    ..TraceConfig::default()
                })
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    sick.attach_clock(pvm.cost_model());
    let ctx = pvm.context_create().unwrap();

    // Graded heat: cache i gets `4 * (i + 1)` write sweeps over 8
    // file-backed pages, so the hottest cache is unambiguous and the
    // ranking exercises more than a binary hot/cold split.
    let mut caches = Vec::new();
    for i in 0..3u64 {
        let content: Vec<u8> = (0..8 * PAGE).map(|b| (b % 251) as u8).collect();
        let seg = seg_mgr.segment_for(files.create_segment(&content));
        let cache = pvm.cache_create(Some(seg)).unwrap();
        let base = 0x100_0000 + i * 0x10_0000;
        pvm.region_create(ctx, VirtAddr(base), 8 * PAGE, Prot::RW, cache, 0)
            .unwrap();
        for s in 0..4 * (i + 1) {
            for p in 0..8u64 {
                let tag = [(s * 8 + p) as u8; 8];
                pvm.vm_write(ctx, VirtAddr(base + p * PAGE), &tag).unwrap();
            }
        }
        caches.push(cache);
    }
    let hot = *caches.last().unwrap();

    // Cold: two anonymous pages, one touch.
    let cold = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x800_0000), 2 * PAGE, Prot::RW, cold, 0)
        .unwrap();
    pvm.vm_write(ctx, VirtAddr(0x800_0000), &[1u8]).unwrap();

    // Sick: the first pull dies permanently; the kernel poisons the
    // cache and the mapper row must read Quarantined.
    let sick_content: Vec<u8> = vec![7u8; (2 * PAGE) as usize];
    let sick_seg = seg_mgr.segment_for(sick_files.create_segment(&sick_content));
    let sick_cache = pvm.cache_create(Some(sick_seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x900_0000),
        2 * PAGE,
        Prot::READ,
        sick_cache,
        0,
    )
    .unwrap();
    let mut b = [0u8; 1];
    assert!(
        pvm.vm_read(ctx, VirtAddr(0x900_0000), &mut b).is_err(),
        "permanent mapper death must surface"
    );

    Scenario {
        pvm,
        hot,
        sick_segment: sick_seg,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let emit_json = args.iter().any(|a| a == "--json");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("reports"));

    let Scenario {
        pvm,
        hot,
        sick_segment,
    } = scenario();
    let again = scenario().pvm;
    let sim_ns = |pvm: &Pvm| pvm.cost_model().now().nanos();
    assert_eq!(
        sim_ns(&pvm),
        sim_ns(&again),
        "scenario is not deterministic"
    );
    let top = pvm.top();
    assert_eq!(top, again.top(), "pvmtop snapshot is not deterministic");
    let series = pvm.telemetry_series();
    let samples = series.len() as u64;
    assert!(samples > 0, "the gauge sampler never fired");
    let hottest = top.hottest_cache().expect("caches exist");
    assert_eq!(hottest.cache, hot, "hottest cache must rank first");
    let sick_row = top.mapper(sick_segment).expect("sick mapper row");
    assert_eq!(
        sick_row.state,
        MapperState::Quarantined,
        "dead mapper must be flagged"
    );

    let rendered = pvmtop::render(&top, TOP_N);
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let txt_path = out_dir.join("pvmtop.txt");
    std::fs::write(&txt_path, &rendered).expect("write pvmtop.txt");
    let sink = TraceSink::capture(&pvm.tracer()).with_telemetry(series);
    let telemetry_path = out_dir.join("telemetry.json");
    let trace_path = out_dir.join("telemetry.trace.json");
    std::fs::write(&telemetry_path, sink.telemetry_json(&pvm.telemetry()))
        .expect("write telemetry json");
    std::fs::write(&trace_path, sink.chrome_trace_json()).expect("write trace json");
    if emit_json {
        let cache_rows = top.caches.iter().take(TOP_N).map(|c| {
            json::Obj::new()
                .int("index", u64::from(c.index))
                .int("faults", c.faults)
                .int("pull_ins", c.pull_ins)
                .int("push_outs", c.push_outs)
                .int("evictions", c.evictions)
                .int("resident_pages", c.resident_pages)
                .int("dirty_pages", c.dirty_pages)
                .bool("poisoned", c.poisoned)
                .build()
        });
        let mapper_rows = top.mappers.iter().map(|m| {
            json::Obj::new()
                .int("segment", m.segment.0)
                .str("state", m.state.label())
                .int("pull_ins", m.pull_ins)
                .int("push_outs", m.push_outs)
                .int("retries", m.retries)
                .int("timeouts", m.timeouts)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("pvmtop")
                .int("sim_ns", top.sim_ns)
                .int("faults", pvm.stats().faults)
                .int("samples", samples)
                .int("caches", top.caches.len() as u64)
                .int("mappers", top.mappers.len() as u64)
                .int("free_frames", u64::from(top.sample.free_frames))
                .int("gmap_slots", top.sample.gmap_slots)
                .int("ahead_pulls", top.sample.ahead_pulls)
                .int("ahead_skipped", top.sample.ahead_skipped)
                .bool("hot_cache_first", hottest.cache == hot)
                .bool(
                    "sick_quarantined",
                    sick_row.state == MapperState::Quarantined
                )
                .raw("top_caches", &json::array(cache_rows))
                .raw("mappers_health", &json::array(mapper_rows))
                .str("rendered", &txt_path.display().to_string())
                .str("telemetry_json", &telemetry_path.display().to_string())
                .str("trace_json", &trace_path.display().to_string())
                .build()
        );
        return;
    }

    println!("{rendered}");
    // The state lock's profile is host time and varies run to run: it
    // is printed here, never written to the report or the --json.
    println!("{}", pvm.lock_profile().render());
    println!(
        "snapshot written to {}; telemetry to {} and {}",
        txt_path.display(),
        telemetry_path.display(),
        trace_path.display()
    );
}

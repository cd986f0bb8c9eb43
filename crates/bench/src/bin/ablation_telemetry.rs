//! Ablation: the dimensional-telemetry layer (DESIGN.md §12) — per-cache,
//! per-context and per-mapper counter rows, the sim-time gauge sampler
//! and the `pvmtop` attribution surface — on a seeded scenario.
//!
//! **Does attribution work?** One hot cache (repeated write sweeps), one
//! cold cache (a single touch) and one cache behind a permanently
//! failing mapper. `pvmtop` must rank the hot cache first and flag the
//! sick mapper Quarantined, and two runs must agree to the nanosecond.
//! The layer has no knob, so what it costs is what every run pays: the
//! scoreboard (`benchmark/`) and the paper tables measure it.
//!
//! The scenario's series and dimensional tables are exported as the
//! `telemetry.json` artifact plus a chrome-trace file whose counter
//! tracks (`mem.free`, `engine.queues`, `residency`) plot the gauges
//! over simulated time.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_telemetry [--json] [--out DIR]`

use chorus_bench::{json, PAGE};
use chorus_gmi::{Gmi, Prot, SegmentId, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::{pvmtop, MapperState, Pvm, PvmConfig, PvmOptions, TraceConfig, TraceSink};
use std::path::PathBuf;
use std::sync::Arc;

struct Scenario {
    top: chorus_pvm::PvmTop,
    hot_cache_first: bool,
    sick_quarantined: bool,
    sick_segment: SegmentId,
    telemetry_json: String,
    trace_json: String,
    sim_ns: u64,
    faults: u64,
    samples: u64,
}

/// Hot cache + cold cache + permanently failing mapper, tracing on;
/// returns the `pvmtop` verdicts and both export artifacts.
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
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 24,
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
    );
    sick.attach_clock(pvm.cost_model());

    let ctx = pvm.context_create().unwrap();

    // Hot: 16 file-backed pages, four write sweeps under pressure.
    let hot_content: Vec<u8> = (0..16 * PAGE).map(|i| (i % 239) as u8).collect();
    let hot_seg = seg_mgr.segment_for(files.create_segment(&hot_content));
    let hot = pvm.cache_create(Some(hot_seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0x100_0000), 16 * PAGE, Prot::RW, hot, 0)
        .unwrap();
    for s in 0..4u64 {
        for p in 0..16u64 {
            let tag = [(s * 16 + p) as u8; 8];
            pvm.vm_write(ctx, VirtAddr(0x100_0000 + p * PAGE), &tag)
                .unwrap();
        }
    }

    // Cold: two anonymous pages, one touch.
    let cold = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x800_0000), 2 * PAGE, Prot::RW, cold, 0)
        .unwrap();
    pvm.vm_write(ctx, VirtAddr(0x800_0000), &[1u8]).unwrap();

    // Sick: the first pull dies permanently; the kernel must poison the
    // cache and `pvmtop` must pin the mapper Quarantined.
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
    let err = pvm.vm_read(ctx, VirtAddr(0x900_0000), &mut b);
    assert!(err.is_err(), "permanent mapper death must surface");

    let top = pvm.top();
    let hot_cache_first = top.hottest_cache().map(|c| c.cache) == Some(hot);
    let sick_quarantined = top
        .mapper(sick_seg)
        .is_some_and(|m| m.state == MapperState::Quarantined);
    let series = pvm.telemetry_series();
    let samples = series.len() as u64;
    let sink = TraceSink::capture(&pvm.tracer()).with_telemetry(series);
    Scenario {
        hot_cache_first,
        sick_quarantined,
        sick_segment: sick_seg,
        telemetry_json: sink.telemetry_json(&pvm.telemetry()),
        trace_json: sink.chrome_trace_json(),
        sim_ns: pvm.cost_model().now().nanos(),
        faults: pvm.stats().faults,
        samples,
        top,
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

    let s = scenario();
    let s2 = scenario();
    assert_eq!(s.sim_ns, s2.sim_ns, "scenario is not deterministic");
    assert_eq!(s.top, s2.top, "pvmtop snapshot is not deterministic");
    assert!(s.samples > 0, "the gauge sampler never fired");
    assert!(s.hot_cache_first, "pvmtop must rank the hot cache first");
    assert!(
        s.sick_quarantined,
        "pvmtop must flag the dead mapper Quarantined"
    );

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let telemetry_path = out_dir.join("telemetry.json");
    let trace_path = out_dir.join("telemetry.trace.json");
    std::fs::write(&telemetry_path, &s.telemetry_json).expect("write telemetry json");
    std::fs::write(&trace_path, &s.trace_json).expect("write trace json");

    if emit_json {
        println!(
            "{}",
            json::Obj::bench("ablation_telemetry")
                .int("sim_ns", s.sim_ns)
                .int("faults", s.faults)
                .int("samples", s.samples)
                .bool("hot_cache_first", s.hot_cache_first)
                .bool("sick_quarantined", s.sick_quarantined)
                .int("scenario_caches", s.top.caches.len() as u64)
                .int("scenario_mappers", s.top.mappers.len() as u64)
                .str("telemetry_json", &telemetry_path.display().to_string())
                .str("trace_json", &trace_path.display().to_string())
                .build()
        );
        return;
    }

    println!(
        "Telemetry attribution: a hot, a cold and a quarantined cache;\n\
         {} faults, {} gauge samples over {:.3} ms of simulated time\n",
        s.faults,
        s.samples,
        s.sim_ns as f64 / 1e6,
    );
    println!(
        "  hottest cache ranked first: {}; mapper of segment\n\
         {:?} flagged {}; artifacts:\n    {}\n    {}\n",
        s.hot_cache_first,
        s.sick_segment,
        s.top
            .mapper(s.sick_segment)
            .map_or("<missing>", |m| m.state.label()),
        telemetry_path.display(),
        trace_path.display(),
    );
    println!("{}", pvmtop::render(&s.top, 5));
}

//! Ablation: segment caching (§5.1.3) during a `make`-like workload.
//!
//! "This segment caching strategy has a very significant impact on the
//! performance of program loading (Unix exec) when the same programs are
//! loaded frequently, such as occurs during a large make."
//!
//! The workload: a driver process repeatedly forks and execs the same
//! compiler image, touching its text. Compared: segment caching enabled
//! vs disabled (caches discarded when unreferenced).
//!
//! Usage: `cargo run -p chorus-bench --bin ablation_segment_cache`

use chorus_hal::{CostParams, PageGeometry};
use chorus_mix::{ProcessManager, ProgramStore};
use chorus_nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

const EXECS: usize = 20;

fn run(caching: bool) -> (f64, u64, chorus_nucleus::SegmentCachingStats) {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap);
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 2048,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let model = pvm.cost_model();
    let nucleus = Arc::new(Nucleus::new(pvm, seg_mgr, 8));
    nucleus.set_segment_caching(caching, 64);
    let store = Arc::new(ProgramStore::new(files, PageGeometry::SUN3_PAGE_SIZE));
    let page = PageGeometry::SUN3_PAGE_SIZE as usize;
    store.register("sh", b"shell", b"env");
    store.register("cc", &vec![0x90u8; 16 * page], &vec![0x42u8; 4 * page]);
    let pm = ProcessManager::new(nucleus.clone(), store);

    let driver = pm.spawn("sh").unwrap();
    let text_pages = 16u64;
    let t0 = model.now();
    for _ in 0..EXECS {
        let worker = pm.fork(driver).unwrap();
        pm.exec(worker, "cc").unwrap();
        // The "compiler" runs: touches all its text and some data.
        let mut buf = vec![0u8; 64];
        for p in 0..text_pages {
            pm.read_mem(
                worker,
                chorus_gmi::VirtAddr(pm.text_base().0 + p * page as u64),
                &mut buf,
            )
            .unwrap();
        }
        pm.write_mem(worker, pm.data_base(), b"object code")
            .unwrap();
        pm.exit(worker, 0).unwrap();
        let _ = pm.wait(driver);
    }
    let total = model.now().since(t0).millis();
    let pulls = pm.nucleus().gmi().stats().pull_ins;
    (total / EXECS as f64, pulls, nucleus.segment_caching_stats())
}

fn main() {
    println!("Segment-caching ablation: {EXECS} fork+exec of a 16-page program\n");
    let (ms_on, pulls_on, stats_on) = run(true);
    let (ms_off, pulls_off, stats_off) = run(false);
    println!("  caching ON : {ms_on:>8.2} ms/exec | pullIn upcalls: {pulls_on:>4} | {stats_on:?}");
    println!(
        "  caching OFF: {ms_off:>8.2} ms/exec | pullIn upcalls: {pulls_off:>4} | {stats_off:?}"
    );
    println!(
        "\nspeedup from segment caching: {:.2}x (text pages stay cached across execs)",
        ms_off / ms_on
    );
}

//! Walks through the Figure 3 history-object scenarios (a–d), printing
//! the cache graph after every step so the tree construction can be
//! compared against the paper's figures.
//!
//! Usage: `cargo run -p chorus-bench --bin figure3`

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CopyMode, Gmi};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use std::sync::Arc;

const PAGE: u64 = PageGeometry::SUN3_PAGE_SIZE;

fn pvm() -> Arc<Pvm> {
    Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 256,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .trace(TraceConfig::from_env())
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        Arc::new(MemSegmentManager::new()),
    ))
}

fn main() {
    println!("Figure 3: history objects for copy-on-write\n");

    // ---- 3.a ------------------------------------------------------------
    let vm = pvm();
    let src = vm.cache_create(None).unwrap();
    for page in 0..3u64 {
        vm.write_logical(src, page * PAGE, &[page as u8 + 1; 8])
            .unwrap();
    }
    let cpy1 = vm.cache_create(None).unwrap();
    vm.cache_copy_with(src, 0, cpy1, 0, 3 * PAGE, CopyMode::HistoryCow)
        .unwrap();
    vm.write_logical(src, PAGE, b"2'").unwrap(); // Page 2 updated in src.
    vm.write_logical(cpy1, 2 * PAGE, b"3'").unwrap(); // Page 3 updated in cpy1.
    println!("--- Figure 3.a: cpy1 = copy of pages 1-3 of src; src page 2 and cpy1 page 3 updated");
    println!("    (src = {src:?}, cpy1 = {cpy1:?})");
    println!("{}", vm.dump_caches());

    // ---- 3.b ------------------------------------------------------------
    let vm = pvm();
    let src = vm.cache_create(None).unwrap();
    for page in 0..3u64 {
        vm.write_logical(src, page * PAGE, &[page as u8 + 1; 8])
            .unwrap();
    }
    let cpy1 = vm.cache_create(None).unwrap();
    vm.cache_copy_with(src, 0, cpy1, 0, 3 * PAGE, CopyMode::HistoryCow)
        .unwrap();
    vm.write_logical(src, PAGE, b"2'").unwrap();
    let copy_of_cpy1 = vm.cache_create(None).unwrap();
    vm.cache_copy_with(cpy1, 0, copy_of_cpy1, 0, 3 * PAGE, CopyMode::HistoryCow)
        .unwrap();
    vm.write_logical(cpy1, 2 * PAGE, b"3'").unwrap();
    let _ = vm.read_logical(cpy1, 0, 8).unwrap();
    let _ = vm.read_logical(copy_of_cpy1, PAGE, 8).unwrap();
    println!("--- Figure 3.b: cpy1 copied to copyOfCpy1; cpy1 page 3 modified");
    println!("    (src = {src:?}, cpy1 = {cpy1:?}, copyOfCpy1 = {copy_of_cpy1:?})");
    println!("{}", vm.dump_caches());

    // ---- 3.c ------------------------------------------------------------
    let vm = pvm();
    let src = vm.cache_create(None).unwrap();
    for page in 0..4u64 {
        vm.write_logical(src, page * PAGE, &[page as u8 + 1; 8])
            .unwrap();
    }
    let cpy1 = vm.cache_create(None).unwrap();
    vm.cache_copy_with(src, 0, cpy1, 0, 4 * PAGE, CopyMode::HistoryCow)
        .unwrap();
    let cpy2 = vm.cache_create(None).unwrap();
    vm.cache_copy_with(src, 0, cpy2, 0, 4 * PAGE, CopyMode::HistoryCow)
        .unwrap();
    vm.write_logical(src, 2 * PAGE, b"3'").unwrap();
    vm.write_logical(cpy1, 2 * PAGE, b"3''").unwrap();
    vm.write_logical(cpy2, 3 * PAGE, b"4'").unwrap();
    println!("--- Figure 3.c: src copied twice; working object w1 inserted");
    println!("    (src = {src:?}, cpy1 = {cpy1:?}, cpy2 = {cpy2:?})");
    println!("{}", vm.dump_caches());
    println!("working objects created: {}", vm.stats().working_objects);

    // ---- 3.d ------------------------------------------------------------
    let vm = pvm();
    let src = vm.cache_create(None).unwrap();
    for page in 0..4u64 {
        vm.write_logical(src, page * PAGE, &[page as u8 + 1; 8])
            .unwrap();
    }
    let mut copies = Vec::new();
    for _ in 0..3 {
        let c = vm.cache_create(None).unwrap();
        vm.cache_copy_with(src, 0, c, 0, 4 * PAGE, CopyMode::HistoryCow)
            .unwrap();
        copies.push(c);
    }
    println!("--- Figure 3.d: src copied three times; two working objects");
    println!("    (src = {src:?}, copies = {copies:?})");
    println!("{}", vm.dump_caches());
    println!("working objects created: {}", vm.stats().working_objects);

    if std::env::args().any(|a| a == "--dump-structs") {
        println!("\nPVM statistics for the 3.d run:\n{:#?}", vm.stats());
        println!("\ncost-model snapshot:\n{}", vm.cost_model().snapshot());
    }
}

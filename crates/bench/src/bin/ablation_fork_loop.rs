//! Ablation: the fork-and-exit loop of §4.2.5 (a Unix shell).
//!
//! "When a Unix process forks, the child's data segment is a copy of the
//! parent's. After the fork, data modified by the parent is held by its
//! shadow, even after the child exits... the shadow must be merged with
//! the source after the child exits. This garbage collection is a major
//! complication of the Mach algorithm." The history technique eliminates
//! the problem for the source cache.
//!
//! The loop: copy the shell's data (fork), dirty one parent page, delete
//! the copy (child exit) — N times. Reported: live descriptor objects,
//! GC/merge work, and the simulated cost per iteration, for (a) PVM with
//! history objects, (b) shadow objects with chain GC, (c) shadow objects
//! without GC (unbounded chains).
//!
//! Usage: `cargo run -p chorus-bench --bin ablation_fork_loop`

use chorus_bench::PAGE;
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::Gmi;
use chorus_hal::{CostParams, PageGeometry};
use chorus_shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;

const ITER: usize = 50;
const PAGES: u64 = 8;

fn run<G: Gmi>(gmi: &G, model: &chorus_hal::CostModel) -> (f64, u64) {
    let src = gmi.cache_create(None).unwrap();
    for p in 0..PAGES {
        gmi.cache_write(src, p * PAGE, &[p as u8; 32]).unwrap();
    }
    let t0 = model.now();
    for i in 0..ITER {
        let child = gmi.cache_create(None).unwrap();
        gmi.cache_copy(src, 0, child, 0, PAGES * PAGE).unwrap();
        // The shell keeps working: one parent page dirtied per loop.
        gmi.cache_write(src, 0, &[i as u8; 16]).unwrap();
        gmi.cache_destroy(child).unwrap();
    }
    let per_iter = model.now().since(t0).millis() / ITER as f64;
    (per_iter, 0)
}

fn main() {
    println!("Fork-and-exit loop ablation: {ITER} iterations, {PAGES}-page data segment\n");

    // (a) PVM with history objects.
    let world = chorus_bench::pvm_world(1024);
    let (ms, _) = run(&*world.gmi, &world.model);
    println!(
        "history objects (PVM):      {ms:>7.3} ms/iter | live caches after loop: {:>3} | zombie merges: {}",
        world.gmi.cache_count(),
        world.gmi.stats().zombie_merges,
    );

    // (b) Shadow objects with chain GC.
    let mgr = Arc::new(MemSegmentManager::new());
    let vm = ShadowVm::new(
        ShadowOptions {
            geometry: PageGeometry::sun3(),
            frames: 1024,
            cost: CostParams::sun3(),
            collapse_chains: true,
        },
        mgr,
    );
    let model = vm.cost_model();
    let (ms, _) = run(&vm, &model);
    println!(
        "shadow objects + GC:        {ms:>7.3} ms/iter | live objects after loop: {:>3} | chain collapses: {}",
        vm.object_count(),
        vm.stats().collapses,
    );

    // (c) Shadow objects without GC: the chains the paper warns about.
    let mgr = Arc::new(MemSegmentManager::new());
    let vm = ShadowVm::new(
        ShadowOptions {
            geometry: PageGeometry::sun3(),
            frames: 4096,
            cost: CostParams::sun3(),
            collapse_chains: false,
        },
        mgr,
    );
    let model = vm.cost_model();
    let (ms, _) = run(&vm, &model);
    println!(
        "shadow objects, no GC:      {ms:>7.3} ms/iter | live objects after loop: {:>3} | max chain depth: {}",
        vm.object_count(),
        vm.stats().max_chain_depth,
    );
    println!(
        "\nExpected shape: the history-object source needs no GC (bounded\n\
         state by construction); shadow chains need merges to stay bounded\n\
         and grow linearly without them."
    );
}

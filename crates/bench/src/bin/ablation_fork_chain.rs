//! Ablation: fork chains (child forks child forks child …).
//!
//! Measures how the cost of reading an unmodified page from the deepest
//! descendant grows with chain depth — the lookup walks the history tree
//! upward (PVM) or the shadow chain downward (baseline).
//!
//! Usage: `cargo run -p chorus-bench --bin ablation_fork_chain`

use chorus_bench::PAGE;
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CacheId, CopyMode, Gmi};
use chorus_hal::{CostParams, PageGeometry};
use chorus_shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;

const PAGES: u64 = 4;

fn build_chain<G: Gmi>(gmi: &G, depth: usize, mode: CopyMode) -> CacheId {
    let mut cur = gmi.cache_create(None).unwrap();
    for p in 0..PAGES {
        gmi.cache_write(cur, p * PAGE, &[p as u8; 16]).unwrap();
    }
    for i in 0..depth {
        let child = gmi.cache_create(None).unwrap();
        gmi.cache_copy_with(cur, 0, child, 0, PAGES * PAGE, mode)
            .unwrap();
        // Each generation dirties one byte so intermediate caches hold
        // pages (otherwise chains collapse trivially).
        gmi.cache_write(child, 0, &[i as u8]).unwrap();
        cur = child;
    }
    cur
}

fn main() {
    println!("Fork-chain ablation: read an inherited page at the deepest descendant\n");
    println!("  depth | per-page stubs | history tree | shadow chain | shadow depth");
    for depth in [1usize, 2, 4, 8, 16, 32] {
        // PVM, per-page stubs (the Auto policy for a 4-page fragment):
        // each stub points directly at the source page descriptor, so
        // the read is O(1) regardless of depth (§4.3).
        let world = chorus_bench::pvm_world(4096);
        let leaf = build_chain(&*world.gmi, depth, CopyMode::PerPage);
        let t0 = world.model.now();
        let mut buf = vec![0u8; 16];
        // Page 3 was never modified: the read resolves to the root.
        world.gmi.cache_read(leaf, 3 * PAGE, &mut buf).unwrap();
        let stub_ms = world.model.now().since(t0).millis();

        // PVM, history trees (the large-fragment technique): the read
        // walks one tree link per generation.
        let world = chorus_bench::pvm_world(4096);
        let leaf = build_chain(&*world.gmi, depth, CopyMode::HistoryCow);
        let t0 = world.model.now();
        world.gmi.cache_read(leaf, 3 * PAGE, &mut buf).unwrap();
        let tree_ms = world.model.now().since(t0).millis();

        // Shadow chains.
        let mgr = Arc::new(MemSegmentManager::new());
        let vm = ShadowVm::new(
            ShadowOptions {
                geometry: PageGeometry::sun3(),
                frames: 4096,
                cost: CostParams::sun3(),
                collapse_chains: true,
            },
            mgr,
        );
        let leaf = build_chain(&vm, depth, CopyMode::HistoryCow);
        let model = vm.cost_model();
        let t0 = model.now();
        vm.cache_read(leaf, 3 * PAGE, &mut buf).unwrap();
        let shadow_ms = model.now().since(t0).millis();
        println!(
            "  {depth:>5} | {stub_ms:>11.4} ms | {tree_ms:>9.4} ms | {shadow_ms:>9.4} ms | {:>5}",
            vm.chain_depth(leaf, 3 * PAGE)
        );
    }
    println!(
        "\nBoth techniques walk one link per generation for inherited data;\n\
         the difference is where modified state accumulates (§4.2.5):\n\
         history trees keep the *source* clean, shadow chains keep the\n\
         source's state dispersed across its chain."
    );
}

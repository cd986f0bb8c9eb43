//! Ablation: MMU back-end independence (the paper's portability claim,
//! §5.2 — "these different ports require only the rewriting of the
//! (small) machine-dependent part of the PVM").
//!
//! Runs the Table 6 workload on both MMU back-ends and checks the
//! simulated results are identical: nothing above the `Mmu` trait can
//! tell them apart.
//!
//! Usage: `cargo run -p chorus-bench --bin ablation_mmu`

use chorus_bench::{run_table6, World, REGION_SIZES, TOUCH_PAGES};
use chorus_gmi::testing::MemSegmentManager;
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{MmuChoice, Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

fn world(mmu: MmuChoice) -> World<Pvm> {
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 512,
            cost: CostParams::sun3(),
            mmu,
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false))
                .build()
                .expect("valid config"),
        },
        mgr.clone(),
    ));
    let model = pvm.cost_model();
    World {
        gmi: pvm,
        model,
        mgr,
    }
}

fn main() {
    println!("MMU back-end ablation (PVM portability)\n");
    let soft = run_table6(&world(MmuChoice::Soft), "SoftMmu (hash tables)");
    let two = run_table6(&world(MmuChoice::TwoLevel), "TwoLevelMmu (table walks)");
    println!("{}", soft.render("Table 6 workload"));
    println!("{}", two.render("Table 6 workload"));
    let mut max_rel = 0.0f64;
    for row in 0..REGION_SIZES.len() {
        for col in 0..TOUCH_PAGES.len() {
            if let (Some(a), Some(b)) = (soft.cells[row][col], two.cells[row][col]) {
                max_rel = max_rel.max((a.sim_ms - b.sim_ms).abs() / a.sim_ms);
            }
        }
    }
    println!(
        "maximum relative difference between back-ends: {:.4}%",
        max_rel * 100.0
    );
    assert!(
        max_rel < 0.01,
        "the machine-independent layer must not see the MMU"
    );
    println!("PASS: results are independent of the MMU back-end");
}

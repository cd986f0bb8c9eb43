//! The PVM must pass the generic GMI conformance suite.

use chorus_gmi::conformance::{self, Fixture};
use chorus_gmi::testing::MemSegmentManager;
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

#[test]
fn pvm_passes_gmi_conformance() {
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        let gmi = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(256),
                frames: 128,
                cost: CostParams::zero(),
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true))
                    .build()
                    .expect("valid config"),
                ..PvmOptions::default()
            },
            mgr.clone(),
        ));
        Fixture { gmi, mgr }
    });
}

#[test]
fn pvm_passes_gmi_conformance_under_pressure() {
    // A small pool: the same contract must hold with constant pageout.
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        let gmi = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(256),
                frames: 6,
                cost: CostParams::zero(),
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true))
                    .build()
                    .expect("valid config"),
                ..PvmOptions::default()
            },
            mgr.clone(),
        ));
        Fixture { gmi, mgr }
    });
}

#[test]
fn pvm_passes_gmi_conformance_through_v2() {
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        // Knobs that put traffic through the completion engine:
        // clustered pulls are multi-page windows and write-behind
        // issues fire-and-collect pushes.
        let config = PvmConfig::builder()
            .paging(|p| {
                p.check_invariants(true)
                    .pull_cluster_pages(4)
                    .push_cluster_pages(4)
            })
            .build()
            .expect("valid config");
        let options = PvmOptions {
            geometry: PageGeometry::new(256),
            frames: 16,
            cost: CostParams::zero(),
            config,
            ..PvmOptions::default()
        };
        let gmi = Arc::new(Pvm::new(options, mgr.clone()));
        Fixture { gmi, mgr }
    });
}

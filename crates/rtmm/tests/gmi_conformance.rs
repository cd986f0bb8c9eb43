//! The minimal real-time MM must pass the generic GMI conformance
//! suite: the paper's replaceability claim made executable.

use chorus_gmi::conformance::{self, Fixture};
use chorus_gmi::testing::MemSegmentManager;
use chorus_hal::{CostParams, PageGeometry};
use chorus_rtmm::{MinimalMm, MinimalOptions};
use std::sync::Arc;

#[test]
fn minimal_mm_passes_gmi_conformance() {
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        let options = MinimalOptions {
            geometry: PageGeometry::new(256),
            frames: 512,
            cost: CostParams::zero(),
        };
        let gmi = Arc::new(MinimalMm::new(options, mgr.clone()));
        Fixture { gmi, mgr }
    });
}

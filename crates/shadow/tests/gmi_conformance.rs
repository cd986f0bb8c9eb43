//! The shadow-object baseline must pass the generic GMI conformance
//! suite (it shares the interface contract even as a comparator).

use chorus_gmi::conformance::{self, Fixture};
use chorus_gmi::testing::MemSegmentManager;
use chorus_hal::{CostParams, PageGeometry};
use chorus_shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;

#[test]
fn shadow_passes_gmi_conformance() {
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        let gmi = Arc::new(ShadowVm::new(
            ShadowOptions {
                geometry: PageGeometry::new(256),
                frames: 512,
                cost: CostParams::zero(),
                collapse_chains: true,
            },
            mgr.clone(),
        ));
        Fixture { gmi, mgr }
    });
}

//! Regression: `spawn` with segment caching disabled must not reclaim
//! a cache that outstanding per-page location stubs still reference.
use chorus_hal::{CostParams, PageGeometry};
use chorus_mix::{ProcessManager, ProgramStore};
use chorus_nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

#[test]
fn fork_with_segment_caching_disabled() {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap);
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(256),
            frames: 512,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let nucleus = Arc::new(Nucleus::new(pvm, seg_mgr, 4));
    nucleus.set_segment_caching(false, 0);
    let store = Arc::new(ProgramStore::new(files, 256));
    store.register("sh", b"shell", b"env");
    let pm = ProcessManager::new(nucleus, store);
    let driver = pm.spawn("sh").unwrap();
    let w = pm.fork(driver).unwrap();
    let mut buf = vec![0u8; 3];
    pm.read_mem(w, pm.data_base(), &mut buf).unwrap();
    assert_eq!(&buf, b"env");
}

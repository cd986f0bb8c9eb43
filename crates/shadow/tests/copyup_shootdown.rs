//! Regression: when a copy materializes its own version of a page,
//! every context that mapped the *old* version through the same cache
//! must be shot down and re-fault onto the new page — otherwise mapped
//! reads keep seeing the pre-copy frame (found by the IPC receive path
//! of the replaceability test).

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;
const PS: u64 = 256;

#[test]
fn mapped_readers_observe_copy_up_through_same_entry() {
    let vm = ShadowVm::new(
        ShadowOptions {
            geometry: PageGeometry::new(PS),
            frames: 4096,
            cost: CostParams::zero(),
            collapse_chains: true,
        },
        Arc::new(MemSegmentManager::new()),
    );
    let shell = vm.context_create().unwrap();
    let child = vm.context_create().unwrap();
    let heap = 1u64 << 20;
    let a = vm.cache_create(None).unwrap(); // shell heap
    vm.region_create(shell, VirtAddr(heap), 4 * PS, Prot::RW, a, 0)
        .unwrap();
    vm.vm_write(shell, VirtAddr(heap), b"heap-state").unwrap();
    let b = vm.cache_create(None).unwrap(); // fork copy
    vm.cache_copy(a, 0, b, 0, 4 * PS).unwrap();
    let rb = vm
        .region_create(child, VirtAddr(heap), 4 * PS, Prot::RW, b, 0)
        .unwrap();
    vm.vm_write(child, VirtAddr(heap), b"child-own!").unwrap();
    vm.region_destroy(rb).unwrap();
    vm.cache_destroy(b).unwrap(); // exec frees the old heap
    let c = vm.cache_create(None).unwrap(); // new heap
    let rc = vm
        .region_create(child, VirtAddr(heap), 4 * PS, Prot::RW, c, 0)
        .unwrap();
    vm.vm_write(child, VirtAddr(heap), &vec![0x5A; (2 * PS) as usize])
        .unwrap();
    let t = vm.cache_create(None).unwrap(); // transit
    vm.cache_copy(c, 0, t, 0, 2 * PS).unwrap(); // IPC send
    vm.region_destroy(rc).unwrap();
    vm.cache_destroy(c).unwrap(); // child exit
                                  // IPC receive: move transit -> shell heap, read through the mapping.
    vm.cache_move(t, 0, a, 0, 2 * PS).unwrap();
    vm.cache_invalidate(t, 0, 8 * PS).unwrap();
    let mut buf = vec![0u8; (2 * PS) as usize];
    vm.cache_read(a, 0, &mut buf).unwrap();
    assert_eq!(buf, vec![0x5A; (2 * PS) as usize], "cache read");
    vm.vm_read(shell, VirtAddr(heap), &mut buf).unwrap();
    assert_eq!(buf, vec![0x5A; (2 * PS) as usize], "mapped read");
}

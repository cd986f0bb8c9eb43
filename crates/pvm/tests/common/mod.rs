//! Shared helpers for the PVM integration tests.
#![allow(dead_code)] // Not every test binary uses every helper.

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CacheId, CtxId, Gmi, Prot, RegionId, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{MmuChoice, Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

/// Small page size so tests exercise multi-page behaviour cheaply.
pub const PS: u64 = 256;

/// Builds a PVM with `frames` frames of 256-byte pages over an in-memory
/// segment manager.
pub fn setup(frames: u32) -> (Arc<Pvm>, Arc<MemSegmentManager>) {
    setup_with(frames, |_o| {})
}

/// Builds a PVM, letting the caller tweak options.
pub fn setup_with(
    frames: u32,
    tweak: impl FnOnce(&mut PvmOptions),
) -> (Arc<Pvm>, Arc<MemSegmentManager>) {
    let mgr = Arc::new(MemSegmentManager::new());
    let mut options = PvmOptions {
        geometry: PageGeometry::new(PS),
        frames,
        cost: CostParams::zero(),
        mmu: MmuChoice::Soft,
        config: PvmConfig::builder()
            .paging(|p| p.check_invariants(true))
            .build()
            .expect("valid config"),
    };
    tweak(&mut options);
    (Arc::new(Pvm::new(options, mgr.clone())), mgr)
}

/// Creates a context with one anonymous (temporary-cache) region.
pub fn anon_region(pvm: &Pvm, pages: u64) -> (CtxId, RegionId, CacheId) {
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let region = pvm
        .region_create(ctx, VirtAddr(0x1_0000), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    (ctx, region, cache)
}

/// Byte pattern helper.
pub fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

/// Reads `len` bytes at `va`.
pub fn read(pvm: &Pvm, ctx: CtxId, va: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    pvm.vm_read(ctx, VirtAddr(va), &mut buf).unwrap();
    buf
}

/// Writes bytes at `va`.
pub fn write(pvm: &Pvm, ctx: CtxId, va: u64, data: &[u8]) {
    pvm.vm_write(ctx, VirtAddr(va), data).unwrap();
}

//! Quickstart: build a PVM, map memory, and watch the paper's machinery
//! work — demand-zero faults, a mapped file through a segment manager,
//! a deferred copy with history objects, and explicit copy access to the
//! same unified cache.
//!
//! Run with: `cargo run --example quickstart`

use chorus_vm::gmi::testing::MemSegmentManager;
use chorus_vm::gmi::{CopyMode, Gmi, Prot, VirtAddr};
use chorus_vm::hal::{CostParams, PageGeometry};
use chorus_vm::pvm::{Pvm, PvmOptions};
use std::sync::Arc;

fn main() -> chorus_vm::gmi::Result<()> {
    // A machine: 8 KB pages (the paper's Sun-3/60), 256 frames (2 MB),
    // costs calibrated to the paper so we can read simulated times.
    let mapper = Arc::new(MemSegmentManager::new());
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 256,
            cost: CostParams::sun3(),
            ..PvmOptions::default()
        },
        mapper.clone(),
    );
    let page = pvm.geometry().page_size();

    // --- 1. An address space with an anonymous region -------------------
    let ctx = pvm.context_create()?;
    let anon = pvm.cache_create(None)?; // Temporary cache: no segment yet.
    pvm.region_create(ctx, VirtAddr(0x1_0000), 4 * page, Prot::RW, anon, 0)?;

    // First touch demand-allocates zero-filled memory (Table 6's path).
    let mut buf = vec![0xFFu8; 8];
    pvm.vm_read(ctx, VirtAddr(0x1_0000), &mut buf)?;
    assert_eq!(buf, vec![0; 8]);
    pvm.vm_write(ctx, VirtAddr(0x1_0000), b"hello vm")?;
    println!(
        "demand-zero region: wrote through a page fault; stats: {:?}",
        pvm.stats()
    );

    // --- 2. A mapped file (segment) --------------------------------------
    let file_content: Vec<u8> = (0..2 * page).map(|i| (i % 251) as u8).collect();
    let segment = mapper.create_segment(&file_content);
    let file_cache = pvm.cache_create(Some(segment))?;
    pvm.region_create(ctx, VirtAddr(0x10_0000), 2 * page, Prot::RW, file_cache, 0)?;
    let mut buf = vec![0u8; 16];
    pvm.vm_read(ctx, VirtAddr(0x10_0000 + page), &mut buf)?;
    assert_eq!(buf, file_content[page as usize..page as usize + 16]);
    println!(
        "mapped file: pulled {} page(s) in on demand",
        pvm.stats().pull_ins
    );

    // The SAME cache serves explicit read/write access — the unified
    // cache that solves the dual-caching problem (§3.2).
    let mut through_copy_path = vec![0u8; 16];
    pvm.cache_read(file_cache, page, &mut through_copy_path)?;
    assert_eq!(through_copy_path, buf);

    // --- 3. A deferred copy with history objects -------------------------
    let snapshot = pvm.cache_create(None)?;
    pvm.cache_copy_with(file_cache, 0, snapshot, 0, 2 * page, CopyMode::HistoryCow)?;
    // Modify the file; the snapshot keeps the original (the original
    // migrates into the history object on the write fault).
    pvm.vm_write(ctx, VirtAddr(0x10_0000), b"MODIFIED")?;
    let mut snap = vec![0u8; 8];
    pvm.cache_read(snapshot, 0, &mut snap)?;
    assert_eq!(
        snap,
        file_content[..8],
        "snapshot sees pre-modification bytes"
    );
    println!(
        "deferred copy: {} history push(es), {} copy-on-write cop(ies)",
        pvm.stats().history_pushes,
        pvm.stats().cow_copies
    );

    // --- 4. Write-back and the simulated clock ---------------------------
    pvm.cache_sync(file_cache, 0, 2 * page)?;
    assert_eq!(&mapper.segment_data(segment)[..8], b"MODIFIED");
    println!("sync pushed the dirty page to its mapper");
    println!(
        "\nsimulated Sun-3/60 time elapsed: {}",
        pvm.cost_model().now()
    );
    println!("cache graph:\n{}", pvm.dump_caches());
    Ok(())
}

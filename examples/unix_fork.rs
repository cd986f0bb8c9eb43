//! The paper's motivating Unix workload (§5.1.5): a shell forks
//! children, children exec programs, pipelines copy data — all mapped
//! onto Chorus Nucleus objects over the PVM.
//!
//! Prints the history-tree statistics that distinguish the paper's
//! design: forks are O(1) in copied data, shells don't accumulate
//! bookkeeping, and `exec` of a recently-run program hits the segment
//! cache.
//!
//! Run with: `cargo run --example unix_fork`

use chorus_vm::gmi::VirtAddr;
use chorus_vm::hal::{CostParams, PageGeometry};
use chorus_vm::mix::{ProcessManager, ProgramStore};
use chorus_vm::nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_vm::pvm::{Pvm, PvmOptions};
use std::sync::Arc;

fn main() -> chorus_vm::gmi::Result<()> {
    // Wire a little Chorus site: file mapper, swap mapper, PVM, Nucleus.
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap.clone());
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 1024,
            cost: CostParams::sun3(),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let nucleus = Arc::new(Nucleus::new(pvm, seg_mgr, 8));
    let page = PageGeometry::SUN3_PAGE_SIZE as usize;

    // A tiny "filesystem" of programs.
    let store = Arc::new(ProgramStore::new(files, page as u64));
    store.register("sh", b"#!/bin/sh binary image", b"PS1='$ ' HOME=/root");
    store.register("cc", &vec![0xC7u8; 8 * page], &vec![0x01u8; 2 * page]);
    let pm = ProcessManager::new(nucleus.clone(), store);

    // --- A login shell ---------------------------------------------------
    let shell = pm.spawn("sh")?;
    pm.write_mem(shell, pm.data_base(), b"shell state: $?=0")?;
    println!("spawned sh as {shell:?}");

    // --- fork: deferred copy of data+stack, shared text -------------------
    let resident_before = pm.nucleus().gmi().resident_page_count();
    let child = pm.fork(shell)?;
    println!(
        "fork materialized {} page(s) (deferred copy: rgnInitFromActor)",
        pm.nucleus().gmi().resident_page_count() - resident_before
    );
    // Child sees parent state; diverges privately.
    let mut buf = vec![0u8; 17];
    pm.read_mem(child, pm.data_base(), &mut buf)?;
    assert_eq!(&buf, b"shell state: $?=0");
    pm.write_mem(child, pm.data_base(), b"child")?;
    pm.read_mem(shell, pm.data_base(), &mut buf)?;
    assert_eq!(&buf, b"shell state: $?=0", "COW isolates the parent");

    // --- exec: rgnMap text, rgnInit data, rgnAllocate stack ---------------
    pm.exec(child, "cc")?;
    let mut text = vec![0u8; 4];
    pm.read_mem(child, pm.text_base(), &mut text)?;
    assert_eq!(text, vec![0xC7; 4]);
    println!("exec'd cc in {child:?}");
    pm.exit(child, 0)?;
    let _ = pm.wait(shell);

    // --- the large-make loop: segment caching pays off --------------------
    let pulls_before = pm.nucleus().gmi().stats().pull_ins;
    for _ in 0..6 {
        let worker = pm.fork(shell)?;
        pm.exec(worker, "cc")?;
        let mut b = vec![0u8; 8];
        for p in 0..8u64 {
            pm.read_mem(worker, VirtAddr(pm.text_base().0 + p * page as u64), &mut b)?;
        }
        pm.exit(worker, 0)?;
        let _ = pm.wait(shell);
    }
    let stats = nucleus.segment_caching_stats();
    println!(
        "6x fork+exec cc: segment-cache hits={} misses={}, extra text pulls={}",
        stats.hits,
        stats.misses,
        pm.nucleus().gmi().stats().pull_ins - pulls_before
    );

    // --- shell fork/exit loop: no bookkeeping accumulates -----------------
    for i in 0..10u8 {
        let c = pm.fork(shell)?;
        pm.write_mem(c, pm.data_base(), &[i])?;
        pm.write_mem(shell, VirtAddr(pm.data_base().0 + 1), &[i])?;
        pm.exit(c, 0)?;
        let _ = pm.wait(shell);
    }
    println!(
        "10x fork/exit: {} live caches, {} zombie merges (bounded history state)",
        pm.nucleus().gmi().cache_count(),
        pm.nucleus().gmi().stats().zombie_merges
    );
    println!("swap traffic so far: {} bytes", swap.swapped_out_bytes());
    println!("simulated time: {}", pm.nucleus().gmi().cost_model().now());
    Ok(())
}

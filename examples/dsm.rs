//! Distributed shared virtual memory over the GMI cache-control
//! operations — the external-manager use case the paper designs for
//! (§3.3.3: "to implement distributed coherent virtual memory [Li &
//! Hudak], it needs to flush and/or lock the cache at times").
//!
//! Two simulated sites each run their own PVM; the single-writer/
//! multiple-reader manager from `chorus_nucleus::dsm` keeps their
//! mapped views coherent using only the public interface:
//! `pullIn`/`pushOut`/`getWriteAccess` upcalls plus `cache.sync`,
//! `cache.invalidate` and `cache.setProtection` downcalls. No PVM
//! internals are touched.
//!
//! Run with: `cargo run --example dsm`

use chorus_vm::gmi::{Gmi, Prot, Result, SegmentId, VirtAddr};
use chorus_vm::hal::{CostParams, PageGeometry};
use chorus_vm::nucleus::{DsmDirectory, DsmSiteManager};
use chorus_vm::pvm::{Pvm, PvmOptions};
use std::sync::Arc;

const PAGE: u64 = PageGeometry::SUN3_PAGE_SIZE;
const SITES: usize = 2;
const BASE: u64 = 0x4000_0000;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let dir = DsmDirectory::new(PAGE, (4 * PAGE) as usize);

    // Two sites, each its own machine + PVM + mapping of the shared
    // segment at the same address.
    let mut pvms = Vec::new();
    let mut ctxs = Vec::new();
    let mut registered = Vec::new();
    for site in 0..SITES {
        let mgr = Arc::new(DsmSiteManager::new(site, dir.clone()));
        let pvm = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::sun3(),
                frames: 128,
                cost: CostParams::sun3(),
                ..PvmOptions::default()
            },
            mgr,
        ));
        let cache = pvm.cache_create(Some(SegmentId(1)))?;
        let ctx = pvm.context_create()?;
        pvm.region_create(ctx, VirtAddr(BASE), 4 * PAGE, Prot::RW, cache, 0)?;
        registered.push((pvm.clone(), cache));
        ctxs.push(ctx);
        pvms.push(pvm);
    }
    dir.register_sites(registered);

    let read_u64 = |site: usize, addr: u64| -> Result<u64> {
        let mut b = [0u8; 8];
        pvms[site].vm_read(ctxs[site], VirtAddr(addr), &mut b)?;
        Ok(u64::from_le_bytes(b))
    };
    let write_u64 = |site: usize, addr: u64, v: u64| -> Result<()> {
        pvms[site].vm_write(ctxs[site], VirtAddr(addr), &v.to_le_bytes())
    };

    // Site 0 writes; site 1 must observe it.
    write_u64(0, BASE, 41)?;
    assert_eq!(read_u64(1, BASE)?, 41);
    println!("site1 reads site0's write: 41  (writer synced + demoted on fetch)");

    // Site 1 takes ownership and increments; site 0 observes.
    write_u64(1, BASE, 42)?;
    assert_eq!(read_u64(0, BASE)?, 42);
    println!("site0 reads site1's write: 42  (reader copy invalidated, re-pulled)");

    // Ping-pong a counter across the sites.
    for i in 0..10 {
        let site = i % 2;
        let v = read_u64(site, BASE)?;
        write_u64(site, BASE, v + 1)?;
    }
    assert_eq!(read_u64(0, BASE)?, 52);
    assert_eq!(read_u64(1, BASE)?, 52);
    println!("10 alternating increments: both sites agree on 52");

    // Independent pages don't interfere: each site owns one page.
    write_u64(0, BASE + PAGE, 1000)?;
    write_u64(1, BASE + 2 * PAGE, 2000)?;
    assert_eq!(read_u64(1, BASE + PAGE)?, 1000);
    assert_eq!(read_u64(0, BASE + 2 * PAGE)?, 2000);

    let stats = dir.stats();
    println!(
        "\ncoherence traffic: {} invalidations, {} writer demotions, {} write grants, \
         {} getWriteAccess upcalls at site0",
        stats.invalidations,
        stats.demotions,
        stats.write_grants,
        pvms[0].stats().write_access_upcalls
    );
    println!("simulated time at site0: {}", pvms[0].cost_model().now());
    println!("The protocol used only public GMI operations (Tables 3 + 4).");
    Ok(())
}

//! Distributed shared memory coherence over the GMI (§3.3.3), using the
//! `chorus_nucleus::dsm` single-writer/multiple-reader manager with real
//! PVM sites.

use chorus_gmi::{Gmi, Prot, SegmentId, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{DsmDirectory, DsmSiteManager};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use chorus_vm::gmi::CtxId;
use std::sync::Arc;

const PS: u64 = 256;
const BASE: u64 = 0x4000_0000;

struct Site {
    pvm: Arc<Pvm>,
    ctx: CtxId,
}

fn build(sites: usize, pages: u64) -> (Arc<DsmDirectory>, Vec<Site>) {
    let dir = DsmDirectory::new(PS, (pages * PS) as usize);
    let mut built = Vec::new();
    let mut registered = Vec::new();
    for site in 0..sites {
        let mgr = Arc::new(DsmSiteManager::new(site, dir.clone()));
        let pvm = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(PS),
                frames: 64,
                cost: CostParams::zero(),
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true))
                    .build()
                    .expect("valid config"),
                ..PvmOptions::default()
            },
            mgr,
        ));
        let cache = pvm.cache_create(Some(SegmentId(1))).unwrap();
        let ctx = pvm.context_create().unwrap();
        pvm.region_create(ctx, VirtAddr(BASE), pages * PS, Prot::RW, cache, 0)
            .unwrap();
        registered.push((pvm.clone(), cache));
        built.push(Site { pvm, ctx });
    }
    dir.register_sites(registered);
    (dir, built)
}

fn read_u64(s: &Site, addr: u64) -> u64 {
    let mut b = [0u8; 8];
    s.pvm.vm_read(s.ctx, VirtAddr(addr), &mut b).unwrap();
    u64::from_le_bytes(b)
}

fn write_u64(s: &Site, addr: u64, v: u64) {
    s.pvm
        .vm_write(s.ctx, VirtAddr(addr), &v.to_le_bytes())
        .unwrap();
}

#[test]
fn writes_propagate_between_two_sites() {
    let (_dir, sites) = build(2, 4);
    write_u64(&sites[0], BASE, 41);
    assert_eq!(
        read_u64(&sites[1], BASE),
        41,
        "reader sees the writer's value"
    );
    write_u64(&sites[1], BASE, 42);
    assert_eq!(read_u64(&sites[0], BASE), 42, "old reader copy invalidated");
}

#[test]
fn alternating_counter_is_sequentially_consistent() {
    let (dir, sites) = build(2, 4);
    write_u64(&sites[0], BASE, 0);
    for i in 0..20 {
        let s = &sites[i % 2];
        let v = read_u64(s, BASE);
        write_u64(s, BASE, v + 1);
    }
    assert_eq!(read_u64(&sites[0], BASE), 20);
    assert_eq!(read_u64(&sites[1], BASE), 20);
    let stats = dir.stats();
    assert!(stats.invalidations > 0, "{stats:?}");
    assert!(stats.demotions > 0, "{stats:?}");
}

#[test]
fn independent_pages_do_not_interfere() {
    let (dir, sites) = build(3, 4);
    // Each site owns its own page; no cross-invalidation needed after
    // the initial grants.
    for (i, s) in sites.iter().enumerate() {
        write_u64(s, BASE + i as u64 * PS, 1000 + i as u64);
    }
    let grants_after_setup = dir.stats().write_grants;
    for round in 0..5u64 {
        for (i, s) in sites.iter().enumerate() {
            let addr = BASE + i as u64 * PS;
            assert_eq!(read_u64(s, addr), 1000 + i as u64 + round);
            write_u64(s, addr, 1000 + i as u64 + round + 1);
        }
    }
    assert_eq!(
        dir.stats().write_grants,
        grants_after_setup,
        "page owners keep writing without new grants"
    );
    // Cross reads still see the freshest values.
    assert_eq!(read_u64(&sites[0], BASE + PS), 1006);
    assert_eq!(read_u64(&sites[2], BASE), 1005);
}

#[test]
fn three_site_broadcast_read_after_write() {
    let (dir, sites) = build(3, 2);
    write_u64(&sites[1], BASE + 8, 0xFEED);
    for s in &sites {
        assert_eq!(read_u64(s, BASE + 8), 0xFEED);
    }
    // A new write invalidates both other replicas.
    let inv_before = dir.stats().invalidations;
    write_u64(&sites[2], BASE + 8, 0xBEEF);
    assert!(
        dir.stats().invalidations >= inv_before + 2,
        "{:?}",
        dir.stats()
    );
    for s in &sites {
        assert_eq!(read_u64(s, BASE + 8), 0xBEEF);
    }
}

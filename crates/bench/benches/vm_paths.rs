//! Criterion wall-clock benches of individual VM paths: fault
//! resolution, deferred-copy setup, IPC transfer through the transit
//! segment, and the fork syscall sequence.

use chorus_bench::{pvm_world, PAGE};
use chorus_gmi::{CopyMode, Gmi, Prot, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_mix::{ProcessManager, ProgramStore};
use chorus_nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench_fault_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_paths");

    group.bench_function("demand_zero_fault", |b| {
        let world = pvm_world(4096);
        let ctx = world.gmi.context_create().unwrap();
        let cache = world.gmi.cache_create(None).unwrap();
        world
            .gmi
            .region_create(ctx, VirtAddr(0), 3000 * PAGE, Prot::RW, cache, 0)
            .unwrap();
        let mut p = 0u64;
        b.iter(|| {
            world
                .gmi
                .vm_write(ctx, VirtAddr((p % 3000) * PAGE), &[1])
                .unwrap();
            p += 1;
            if p.is_multiple_of(3000) {
                world.gmi.cache_invalidate(cache, 0, 3000 * PAGE).unwrap();
            }
        });
    });

    group.bench_function("cow_fault_resolution", |b| {
        let world = pvm_world(4096);
        let src = world.gmi.cache_create(None).unwrap();
        for p in 0..64 {
            world.gmi.cache_write(src, p * PAGE, &[p as u8]).unwrap();
        }
        b.iter(|| {
            let dst = world.gmi.cache_create(None).unwrap();
            world
                .gmi
                .cache_copy_with(src, 0, dst, 0, 64 * PAGE, CopyMode::HistoryCow)
                .unwrap();
            // Dirty every destination page (64 COW resolutions).
            for p in 0..64 {
                world.gmi.cache_write(dst, p * PAGE, &[0xFF]).unwrap();
            }
            world.gmi.cache_destroy(dst).unwrap();
        });
    });

    group.bench_function("per_page_stub_setup_8p", |b| {
        let world = pvm_world(4096);
        let src = world.gmi.cache_create(None).unwrap();
        for p in 0..8 {
            world.gmi.cache_write(src, p * PAGE, &[p as u8]).unwrap();
        }
        b.iter(|| {
            let dst = world.gmi.cache_create(None).unwrap();
            world
                .gmi
                .cache_copy_with(src, 0, dst, 0, 8 * PAGE, CopyMode::PerPage)
                .unwrap();
            world.gmi.cache_destroy(dst).unwrap();
        });
    });

    group.finish();
}

fn mix_world() -> ProcessManager<Pvm> {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap);
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 4096,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let nucleus = Arc::new(Nucleus::new(pvm, seg_mgr, 8));
    let store = Arc::new(ProgramStore::new(files, PageGeometry::SUN3_PAGE_SIZE));
    let page = PageGeometry::SUN3_PAGE_SIZE as usize;
    store.register("sh", &vec![1u8; page], &vec![2u8; 2 * page]);
    ProcessManager::new(nucleus, store)
}

fn bench_unix_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("unix_paths");

    group.bench_function("fork_exit_wait", |b| {
        let pm = mix_world();
        let shell = pm.spawn("sh").unwrap();
        pm.write_mem(shell, pm.data_base(), &[3u8; 64]).unwrap();
        b.iter(|| {
            let child = pm.fork(shell).unwrap();
            pm.exit(child, 0).unwrap();
            let _ = pm.wait(shell);
        });
    });

    group.bench_function("ipc_64k_roundtrip", |b| {
        let pm = mix_world();
        let a = pm.spawn("sh").unwrap();
        let bb = pm.spawn("sh").unwrap();
        let pipe = pm.pipe();
        let len = 8 * PAGE;
        pm.write_mem(a, pm.heap_base(), &vec![7u8; len as usize])
            .unwrap();
        b.iter(|| {
            pm.pipe_write(a, pipe, pm.heap_base(), len).unwrap();
            pm.pipe_read(bb, pipe, pm.heap_base(), len, Duration::from_secs(1))
                .unwrap();
        });
    });

    group.finish();
}

criterion_group! {
    name = paths;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_fault_paths, bench_unix_paths
}
criterion_main!(paths);

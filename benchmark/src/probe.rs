//! Probes that sit beside the workloads: unit costs of the HAL, which
//! cannot be interposed (`MmuChoice` is an enum, not an injectable
//! `Mmu`), and the paper-fidelity guard.

use crate::world::{Backend, PAGE};
use chorus_vm::gmi::testing::MemSegmentManager;
use chorus_vm::gmi::{Gmi, Prot, SyncShim, VirtAddr};
use chorus_vm::hal::{
    Access, CostModel, CostParams, FrameNo, Mmu, PageGeometry, PhysicalMemory, SoftMmu, Vpn,
};
use chorus_vm::pvm::Pvm;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean wall nanoseconds of one call of each HAL primitive.
pub struct HalUnits {
    pub alloc_zeroed: f64,
    pub copy_frame: f64,
    pub release: f64,
    pub map: f64,
    pub unmap: f64,
    pub protect: f64,
    pub translate_hit: f64,
    pub translate_miss: f64,
}

/// Calls per primitive: `BATCH * PASSES` = 2^20.
const BATCH: u32 = 1024;
const PASSES: u32 = 1024;

fn timed(total_ns: &mut u64, f: impl FnOnce()) {
    let start = Instant::now();
    f();
    *total_ns += start.elapsed().as_nanos() as u64;
}

/// Times `PhysicalMemory` and `SoftMmu` directly, on the same cost
/// parameters as the product so every call pays its charge. Each
/// primitive runs in batches over 1024 frames or pages, so the working
/// set (8 MiB of frames) is closer to the product's than a single hot
/// frame would be.
pub fn hal_units() -> HalUnits {
    let geom = PageGeometry::sun3();
    let model = Arc::new(CostModel::new(CostParams::sun3()));
    let per_call = |ns: u64| ns as f64 / (f64::from(BATCH) * f64::from(PASSES));

    let mut phys = PhysicalMemory::new(geom, BATCH, model.clone());
    let (mut alloc, mut copy, mut release) = (0, 0, 0);
    let mut frames: Vec<FrameNo> = Vec::with_capacity(BATCH as usize);
    for _ in 0..PASSES {
        timed(&mut alloc, || {
            for _ in 0..BATCH {
                frames.push(phys.alloc_zeroed().expect("pool sized to the batch"));
            }
        });
        timed(&mut copy, || {
            let half = frames.len() / 2;
            for i in 0..frames.len() {
                phys.copy_frame(frames[i], frames[(i + half) % frames.len()]);
            }
        });
        timed(&mut release, || {
            for f in frames.drain(..) {
                phys.release(f);
            }
        });
    }

    let mut mmu = SoftMmu::new(geom, model);
    let ctx = mmu.ctx_create();
    mmu.switch(ctx);
    let (mut map, mut unmap, mut protect, mut miss, mut hit) = (0, 0, 0, 0, 0);
    let va = |page: u32| VirtAddr(u64::from(page) * PAGE);
    for _ in 0..PASSES {
        timed(&mut map, || {
            for p in 0..BATCH {
                mmu.map(ctx, Vpn(u64::from(p)), FrameNo(p), Prot::RW);
            }
        });
        timed(&mut protect, || {
            for p in 0..BATCH {
                black_box(mmu.protect(ctx, Vpn(u64::from(p)), Prot::READ));
            }
        });
        // Consecutive pages evict each other from the 64-entry
        // direct-mapped TLB, so a first sweep only misses.
        timed(&mut miss, || {
            for p in 0..BATCH {
                black_box(mmu.translate(ctx, va(p), Access::Read, false)).ok();
            }
        });
        // The sweep left the last 64 pages cached.
        timed(&mut hit, || {
            for i in 0..BATCH {
                let p = BATCH - 64 + i % 64;
                black_box(mmu.translate(ctx, va(p), Access::Read, false)).ok();
            }
        });
        timed(&mut unmap, || {
            for p in 0..BATCH {
                black_box(mmu.unmap(ctx, Vpn(u64::from(p))));
            }
        });
    }
    HalUnits {
        alloc_zeroed: per_call(alloc),
        copy_frame: per_call(copy),
        release: per_call(release),
        map: per_call(map),
        unmap: per_call(unmap),
        protect: per_call(protect),
        translate_hit: per_call(hit),
        translate_miss: per_call(miss),
    }
}

// ----- paper fidelity ---------------------------------------------------------

const REGION_SIZES: [u64; 3] = [8 * 1024, 256 * 1024, 1024 * 1024];
const TOUCH_PAGES: [u64; 4] = [0, 1, 32, 128];
/// Iterations a cell is averaged over, after one unmeasured pass (the
/// procedure of `crates/bench`, whose numbers EXPERIMENTS.md quotes).
const ITERS: u32 = 8;

/// The Chorus rows of the paper's Table 6 (zero-filled allocation), ms.
const TABLE6_CHORUS: [[Option<f64>; 4]; 3] = [
    [Some(0.350), Some(1.50), None, None],
    [Some(0.352), Some(1.60), Some(36.6), None],
    [Some(0.390), Some(1.63), Some(37.7), Some(145.9)],
];
/// The Chorus rows of the paper's Table 7 (copy-on-write), ms.
const TABLE7_CHORUS: [[Option<f64>; 4]; 3] = [
    [Some(0.4), Some(2.10), None, None],
    [Some(0.7), Some(2.47), Some(55.7), None],
    [Some(2.4), Some(4.2), Some(57.2), Some(221.9)],
];

fn sim_ms(model: &CostModel, mut pass: impl FnMut()) -> f64 {
    pass();
    let start = model.now();
    for _ in 0..ITERS {
        pass();
    }
    model.now().since(start).millis() / f64::from(ITERS)
}

/// Largest relative error, in percent, of the PVM's Table 6 and
/// Table 7 cells against the paper's Chorus rows. The repository's
/// `table6` / `table7` bins remain the reference; this re-runs their
/// measurement so a simulator change that drifts from the paper shows
/// beside every scoreboard run. It does not depend on `crates/bench`,
/// which ROADMAP item 5 is about to reshape.
pub fn table_errors() -> (f64, f64) {
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = Pvm::create(512, SyncShim::wrap(mgr));
    let model = Backend::cost_model(&pvm);
    let g = &pvm;
    let (mut err6, mut err7) = (0.0f64, 0.0f64);
    let base = VirtAddr(0x100_0000);
    let copy_base = VirtAddr(0x800_0000);
    for (row, &size) in REGION_SIZES.iter().enumerate() {
        for (col, &pages) in TOUCH_PAGES.iter().enumerate() {
            if let Some(paper) = TABLE6_CHORUS[row][col] {
                let ctx = g.context_create().expect("context");
                let ms = sim_ms(&model, || {
                    let cache = g.cache_create(None).expect("cache");
                    let region = g
                        .region_create(ctx, base, size, Prot::RW, cache, 0)
                        .expect("region");
                    for p in 0..pages {
                        g.vm_write(ctx, VirtAddr(base.0 + p * PAGE), &[0xA5])
                            .expect("touch");
                    }
                    g.region_destroy(region).expect("region destroy");
                    g.cache_destroy(cache).expect("cache destroy");
                });
                g.context_destroy(ctx).expect("context destroy");
                err6 = err6.max((ms - paper).abs() / paper * 100.0);
            }
            if let Some(paper) = TABLE7_CHORUS[row][col] {
                let ctx = g.context_create().expect("context");
                let src = g.cache_create(None).expect("source cache");
                g.region_create(ctx, base, size, Prot::RW, src, 0)
                    .expect("source region");
                for p in 0..size / PAGE {
                    g.vm_write(ctx, VirtAddr(base.0 + p * PAGE), &[p as u8])
                        .expect("prefill");
                }
                let mut round = 0u8;
                let ms = sim_ms(&model, || {
                    round = round.wrapping_add(1);
                    let copy = g.cache_create(None).expect("copy cache");
                    g.cache_copy(src, 0, copy, 0, size).expect("deferred copy");
                    let region = g
                        .region_create(ctx, copy_base, size, Prot::RW, copy, 0)
                        .expect("copy region");
                    for p in 0..pages {
                        g.vm_write(ctx, VirtAddr(base.0 + p * PAGE), &[round])
                            .expect("dirty source");
                    }
                    g.region_destroy(region).expect("region destroy");
                    g.cache_destroy(copy).expect("copy destroy");
                });
                g.context_destroy(ctx).expect("context destroy");
                g.cache_destroy(src).expect("source destroy");
                err7 = err7.max((ms - paper).abs() / paper * 100.0);
            }
        }
    }
    (err6, err7)
}

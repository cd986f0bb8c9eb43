//! The paper's "replaceable unit" claim (§5.2): "The MM implementation
//! is the only difference between these Nucleus versions. All the other
//! Nucleus components, which access memory management facilities via
//! the GMI, are unaffected."
//!
//! This test runs the *entire* upper stack — Nucleus (segment manager,
//! segment caching, rgn* ops, transit-segment IPC) and Chorus/MIX
//! (fork/exec/exit/wait/pipes) — over both memory managers, asserting
//! identical observable behaviour. The stack is written once, generic
//! over `Gmi`; only the constructor below differs.

use chorus_gmi::{
    CacheId, CacheIo, Gmi, Prot, PullRequest, PushRequest, RetryPolicy, SegmentId, SegmentManagerV2,
};
use chorus_hal::{CostParams, PageGeometry};
use chorus_mix::{ProcessManager, ProgramStore};
use chorus_nucleus::{
    FaultPlan, FaultyMapper, MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper,
};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, ReplacementKind};
use chorus_shadow::{ShadowOptions, ShadowVm};
use chorus_vm::gmi::VirtAddr;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const PS: u64 = 256;

fn stack<G: Gmi>(
    gmi: Arc<G>,
    seg_mgr: Arc<NucleusSegmentManager>,
    files: Arc<MemMapper>,
) -> ProcessManager<G> {
    let nucleus = Arc::new(Nucleus::new(gmi, seg_mgr, 8));
    let store = Arc::new(ProgramStore::new(files, PS));
    store.register("sh", b"shell-text", b"shell-data");
    store.register(
        "worker",
        &vec![0xAAu8; (2 * PS) as usize],
        &vec![0xBBu8; PS as usize],
    );
    ProcessManager::new(nucleus, store)
}

fn managers() -> (Arc<NucleusSegmentManager>, Arc<MemMapper>) {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap);
    seg_mgr.set_default_mapper(PortName(2));
    (seg_mgr, files)
}

/// The scripted workload, written once for any `Gmi`.
fn unix_workload<G: Gmi>(pm: &ProcessManager<G>) -> Vec<Vec<u8>> {
    let mut observations = Vec::new();
    let mut observe = |buf: &[u8]| observations.push(buf.to_vec());

    let shell = pm.spawn("sh").unwrap();
    let mut buf = vec![0u8; 10];
    pm.read_mem(shell, pm.data_base(), &mut buf).unwrap();
    observe(&buf); // Initialized data.

    // Fork + COW isolation.
    pm.write_mem(shell, pm.heap_base(), b"heap-state").unwrap();
    let child = pm.fork(shell).unwrap();
    pm.write_mem(child, pm.heap_base(), b"child-own!").unwrap();
    pm.read_mem(shell, pm.heap_base(), &mut buf).unwrap();
    observe(&buf); // Parent unaffected.
    pm.read_mem(child, pm.heap_base(), &mut buf).unwrap();
    observe(&buf); // Child's own.

    // exec replaces the image.
    pm.exec(child, "worker").unwrap();
    pm.read_mem(child, pm.text_base(), &mut buf).unwrap();
    observe(&buf);
    pm.read_mem(child, pm.data_base(), &mut buf).unwrap();
    observe(&buf);

    // Pipe a message child -> shell through the transit segment.
    let pipe = pm.pipe();
    pm.write_mem(child, pm.heap_base(), &vec![0x5A; (2 * PS) as usize])
        .unwrap();
    pm.pipe_write(child, pipe, pm.heap_base(), 2 * PS).unwrap();
    pm.exit(child, 7).unwrap();
    observe(&[pm.wait(shell).unwrap().1 as u8]);
    let n = pm
        .pipe_read(shell, pipe, pm.heap_base(), 8 * PS, Duration::from_secs(1))
        .unwrap();
    let mut msg = vec![0u8; n as usize];
    pm.read_mem(shell, pm.heap_base(), &mut msg).unwrap();
    observe(&msg);

    // A fork-exit storm.
    for i in 0..5u8 {
        let c = pm.fork(shell).unwrap();
        pm.write_mem(c, pm.data_base(), &[i]).unwrap();
        pm.exit(c, i as i32).unwrap();
        observe(&[pm.wait(shell).unwrap().1 as u8]);
    }
    pm.read_mem(shell, pm.data_base(), &mut buf).unwrap();
    observe(&buf); // Shell data never perturbed by children.

    observations
}

#[test]
fn nucleus_and_mix_behave_identically_over_both_memory_managers() {
    // PVM stack.
    let (seg_mgr, files) = managers();
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 1024,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let pm = stack(pvm, seg_mgr, files);
    let pvm_obs = unix_workload(&pm);

    // Shadow stack: same code, different manager.
    let (seg_mgr, files) = managers();
    let shadow = Arc::new(ShadowVm::new(
        ShadowOptions {
            geometry: PageGeometry::new(PS),
            frames: 4096,
            cost: CostParams::zero(),
            collapse_chains: true,
        },
        seg_mgr.clone(),
    ));
    let pm = stack(shadow, seg_mgr, files);
    let shadow_obs = unix_workload(&pm);

    assert_eq!(pvm_obs.len(), shadow_obs.len());
    for (i, (a, b)) in pvm_obs.iter().zip(&shadow_obs).enumerate() {
        assert_eq!(a, b, "observation {i} diverged between memory managers");
    }
}

#[test]
fn minimal_rt_mm_runs_the_same_workload() {
    // The paper's third implementation (§5.2): the minimal real-time MM
    // copies eagerly and never pages, yet the identical Nucleus + MIX
    // stack must observe the same results.
    let (seg_mgr, files) = managers();
    let rt = Arc::new(chorus_rtmm::MinimalMm::new(
        chorus_rtmm::MinimalOptions {
            geometry: PageGeometry::new(PS),
            frames: 4096,
            cost: CostParams::zero(),
        },
        seg_mgr.clone(),
    ));
    let pm = stack(rt, seg_mgr, files);
    let rt_obs = unix_workload(&pm);

    let (seg_mgr, files) = managers();
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 1024,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let pm = stack(pvm, seg_mgr, files);
    assert_eq!(rt_obs, unix_workload(&pm));
}

#[test]
fn mmu_backends_behave_identically_under_the_full_stack() {
    let mut results = Vec::new();
    for mmu in [chorus_pvm::MmuChoice::Soft, chorus_pvm::MmuChoice::TwoLevel] {
        let (seg_mgr, files) = managers();
        let pvm = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(PS),
                frames: 1024,
                cost: CostParams::zero(),
                mmu,
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true))
                    .build()
                    .expect("valid config"),
            },
            seg_mgr.clone(),
        ));
        let pm = stack(pvm, seg_mgr, files);
        results.push(unix_workload(&pm));
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn workload_survives_memory_pressure_on_the_pvm() {
    // The same workload with a pool far below the working set: pageout,
    // lazy swap binding and re-pull must be transparent.
    let (seg_mgr, files) = managers();
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 4,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let pm = stack(pvm.clone(), seg_mgr, files);
    let pressured = unix_workload(&pm);
    assert!(pvm.stats().evictions > 0, "pressure must actually evict");

    // Reference run with ample memory.
    let (seg_mgr, files) = managers();
    let roomy = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 1024,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let pm = stack(roomy, seg_mgr, files);
    assert_eq!(pressured, unix_workload(&pm));
}

// ===== replaceable policies: the same claim one layer down ==================
//
// §5.2's replaceable-unit argument applies to replacement too: the
// clock decides alone or a segment manager advises it, and whoever
// decides may change *performance* but never observable behaviour.
// These tests race the policies through the identical Nucleus + MIX
// stack.

/// A replacement policy outside the core: a segment manager that, asked
/// for advice, lets only the most recently pulled candidate go. A fresh
/// page is the clock's last choice and this policy's first, so it is
/// the one that would take a page of a pull window still in flight if
/// the PVM did not pin it (DESIGN.md §13).
struct FreshFirst {
    inner: Arc<NucleusSegmentManager>,
    /// Pulled pages, oldest pull first.
    pulled: Mutex<Vec<(CacheId, u64)>>,
}

impl SegmentManagerV2 for FreshFirst {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> chorus_gmi::Result<()> {
        {
            let mut pulled = self.pulled.lock();
            for offset in (req.offset..req.offset + req.size).step_by(PS as usize) {
                pulled.retain(|&page| page != (req.cache, offset));
                pulled.push((req.cache, offset));
            }
        }
        self.inner.submit_pull(io, req)
    }

    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> chorus_gmi::Result<()> {
        self.inner.submit_push(io, req)
    }

    fn acquire_write_access(&self, seg: SegmentId, off: u64, size: u64) -> chorus_gmi::Result<()> {
        self.inner.acquire_write_access(seg, off, size)
    }

    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        self.inner.create_segment_v2(cache)
    }

    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        self.inner.segment_len(segment)
    }

    fn advise_victims(&self, candidates: &[(CacheId, u64)]) -> Vec<bool> {
        let pulled = self.pulled.lock();
        // `None` (zero-filled, never pulled) sorts before every pull.
        let freshness = |page| pulled.iter().position(|p| p == page);
        let freshest = candidates.iter().map(freshness).max();
        candidates
            .iter()
            .map(|page| Some(freshness(page)) == freshest)
            .collect()
    }
}

/// The raced policies: a label, the kind the PVM is configured with,
/// and whether [`FreshFirst`] stands between it and the Nucleus segment
/// manager (which approves every candidate).
const POLICIES: [(&str, ReplacementKind, bool); 3] = [
    ("clock", ReplacementKind::Clock, false),
    ("external", ReplacementKind::External, false),
    ("fresh-first", ReplacementKind::External, true),
];

fn advised(seg_mgr: &Arc<NucleusSegmentManager>, fresh_first: bool) -> Arc<dyn SegmentManagerV2> {
    if fresh_first {
        Arc::new(FreshFirst {
            inner: seg_mgr.clone(),
            pulled: Mutex::default(),
        })
    } else {
        seg_mgr.clone()
    }
}

#[test]
fn every_replacement_policy_preserves_workload_behaviour_under_pressure() {
    // Roomy reference with the default (clock) policy.
    let (seg_mgr, files) = managers();
    let roomy = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 1024,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let pm = stack(roomy, seg_mgr, files);
    let reference = unix_workload(&pm);

    for (label, replacement, fresh_first) in POLICIES {
        let (seg_mgr, files) = managers();
        // A PVM squeezed far below the working set. Two-page windows:
        // with one-page pulls no window is in flight while a victim is
        // picked, and `FreshFirst` has nothing to surface.
        let pvm = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(PS),
                frames: 4,
                cost: CostParams::zero(),
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true).pull_cluster_pages(2))
                    .replacement(replacement)
                    .build()
                    .expect("valid config"),
                ..PvmOptions::default()
            },
            advised(&seg_mgr, fresh_first),
        ));
        let pm = stack(pvm.clone(), seg_mgr, files);
        assert_eq!(unix_workload(&pm), reference, "{label} diverged");

        let stats = pvm.stats();
        assert!(stats.evictions > 0, "{label}: pressure must actually evict");
        assert!(
            stats.policy_victim_requests > 0 && stats.policy_victims >= stats.evictions,
            "{label}: victim selection bypassed the policy engine: {stats:?}"
        );
        if replacement == ReplacementKind::External {
            assert!(
                stats.policy_external_batches > 0,
                "{label}: external policy never consulted the manager: {stats:?}"
            );
        } else {
            assert_eq!(
                stats.policy_external_batches, 0,
                "{label}: kernel-resident policy issued victimAdvice upcalls"
            );
        }
    }
}

/// A tiny deterministic PRNG for the differential fault workload (the
/// mapper's own fault schedule uses its independent seeded RNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

#[test]
fn no_policy_loses_dirty_pages_under_mapper_faults() {
    // Cross-policy differential: the same seeded workload over faulty
    // mappers, once per replacement policy. Different policies evict
    // different pages — so the pageout/re-pull traffic, and hence the
    // points where faults strike, differ completely — yet every policy
    // must end with zero dirty-page loss: the bytes each run leaves on
    // the backing segments equal the oracle, and therefore each other.
    const SEG_PAGES: u64 = 4;
    const SEG_SIZE: usize = (PS * SEG_PAGES) as usize;
    const N_SEGS: usize = 3;
    const OPS: usize = 40;

    let healable = |seed: u64| FaultPlan {
        seed,
        transient_per_mille: 150,
        permanent_per_mille: 0,
        delay_per_mille: 100,
        delay_ns: 20_000,
        truncate_per_mille: 100,
        crash_at_op: Some(seed % 17 + 3),
        hang_at_op: None,
    };

    for seed in 0..3u64 {
        let mut images: Vec<(&'static str, Vec<Vec<u8>>)> = Vec::new();
        for (label, replacement, fresh_first) in POLICIES {
            let seg_mgr = Arc::new(NucleusSegmentManager::new());
            let files = Arc::new(MemMapper::new(PortName(1)));
            let faulty_files = Arc::new(FaultyMapper::new(files.clone(), healable(seed)));
            let swap = Arc::new(SwapMapper::new(PortName(2)));
            let faulty_swap = Arc::new(FaultyMapper::new(swap, healable(!seed)));
            seg_mgr.register_mapper(PortName(1), faulty_files.clone());
            seg_mgr.register_mapper(PortName(2), faulty_swap.clone());
            seg_mgr.set_default_mapper(PortName(2));
            let mut config = PvmConfig::builder()
                .paging(|p| p.check_invariants(true).pull_cluster_pages(2))
                .replacement(replacement)
                .build()
                .expect("valid config");
            // Generous enough that the ~250‰ per-attempt fault rate
            // cannot plausibly exhaust it (0.25^10 ≈ 1e-6 per upcall).
            config.retry = RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            };
            let pvm = Arc::new(Pvm::new(
                PvmOptions {
                    geometry: PageGeometry::new(PS),
                    frames: 8,
                    cost: CostParams::zero(),
                    config,
                    ..PvmOptions::default()
                },
                advised(&seg_mgr, fresh_first),
            ));
            faulty_files.attach_clock(pvm.cost_model());
            faulty_swap.attach_clock(pvm.cost_model());

            // File-backed segments plus a byte oracle. The working set
            // (12 pages) overflows the 8-frame pool, so the policies
            // actually steer pageout traffic through the faulty mapper.
            let ctx = pvm.context_create().unwrap();
            let mut oracle = Vec::new();
            let mut caps = Vec::new();
            let mut caches = Vec::new();
            for i in 0..N_SEGS {
                let init: Vec<u8> = (0..SEG_SIZE)
                    .map(|k| (k as u8).wrapping_mul(7).wrapping_add(i as u8))
                    .collect();
                let cap = files.create_segment(&init);
                let seg = seg_mgr.segment_for(cap);
                let cache = pvm.cache_create(Some(seg)).unwrap();
                let base = 0x10_0000 * (i as u64 + 1);
                pvm.region_create(ctx, VirtAddr(base), SEG_SIZE as u64, Prot::RW, cache, 0)
                    .unwrap();
                oracle.push(init);
                caps.push(cap);
                caches.push(cache);
            }
            let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
            for _ in 0..OPS {
                let i = (rng.next() as usize) % N_SEGS;
                let off = (rng.next() as usize) % (SEG_SIZE - 32);
                let len = 1 + (rng.next() as usize) % 31;
                let base = 0x10_0000 * (i as u64 + 1);
                if rng.next().is_multiple_of(3) {
                    let byte = rng.next() as u8;
                    let data: Vec<u8> = (0..len).map(|k| byte.wrapping_add(k as u8)).collect();
                    pvm.vm_write(ctx, VirtAddr(base + off as u64), &data)
                        .unwrap_or_else(|e| panic!("{label} seed={seed}: write failed: {e}"));
                    oracle[i][off..off + len].copy_from_slice(&data);
                } else {
                    let mut buf = vec![0u8; len];
                    pvm.vm_read(ctx, VirtAddr(base + off as u64), &mut buf)
                        .unwrap_or_else(|e| panic!("{label} seed={seed}: read failed: {e}"));
                    assert_eq!(
                        buf,
                        &oracle[i][off..off + len],
                        "{label} seed={seed} diverged from oracle"
                    );
                }
            }

            // Flush every cache through the still-faulty mapper and
            // read back the *segment's* bytes: zero dirty-page loss
            // means the backing store, not just the page cache, holds
            // exactly the oracle.
            let mut final_images = Vec::new();
            for (i, (&cap, &cache)) in caps.iter().zip(&caches).enumerate() {
                pvm.cache_sync(cache, 0, SEG_SIZE as u64)
                    .unwrap_or_else(|e| panic!("{label} seed={seed}: sync failed: {e}"));
                let bytes = files.segment_data(cap);
                assert_eq!(
                    bytes, oracle[i],
                    "{label} seed={seed}: segment {i} lost dirty bytes"
                );
                final_images.push(bytes);
            }
            let stats = pvm.stats();
            assert_eq!(stats.quarantined_caches, 0, "{label} seed={seed}");
            assert!(
                stats.evictions > 0,
                "{label} seed={seed}: no pressure, the policies were never exercised"
            );
            pvm.check_invariants();
            images.push((label, final_images));
        }

        // The differential closure: every policy left identical file
        // bytes, however differently it routed the pages there.
        let (first_label, first) = &images[0];
        for (label, image) in &images[1..] {
            assert_eq!(
                image, first,
                "seed={seed}: {label} and {first_label} left different file bytes"
            );
        }
    }
}

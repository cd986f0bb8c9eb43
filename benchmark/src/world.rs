//! World construction: one Chorus site (mappers, segment manager,
//! memory manager, Nucleus) in the shipped configuration.
//!
//! The harness sets no product knob: the PVM always runs
//! `PvmOptions { geometry: sun3, cost: CostParams::sun3(), config:
//! PvmConfig::default() }`, and only the frame count follows the
//! workload. The untraced world is monomorphised over the bare memory
//! manager; the traced world puts a wrapper at every trait boundary.

use crate::trace::{Tgmi, TracedGmi, TracedMapper, TracedSegMgr};
use chorus_vm::gmi::{Gmi, Prot, Result, SegmentManagerV2, SyncShim, VirtAddr};
use chorus_vm::hal::{CostModel, CostParams, PageGeometry};
use chorus_vm::nucleus::{
    Capability, Mapper, MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper,
};
use chorus_vm::pvm::{Pvm, PvmConfig, PvmOptions};
use chorus_vm::shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;

/// The paper's page size.
pub const PAGE: u64 = PageGeometry::SUN3_PAGE_SIZE;

/// Transit slots of the Nucleus (64 KiB each), as in the repository's
/// examples.
const TRANSIT_SLOTS: usize = 8;

const FILE_PORT: PortName = PortName(1);
const SWAP_PORT: PortName = PortName(2);

/// A memory manager the harness knows how to construct.
pub trait Backend: Gmi + Sized + Send + Sync + 'static {
    fn create(frames: u32, seg_mgr: Arc<dyn SegmentManagerV2>) -> Self;
    fn cost_model(&self) -> Arc<CostModel>;
    /// The PVM behind this backend, for its public counters.
    fn as_pvm(this: &Arc<Self>) -> Option<Arc<Pvm>> {
        let _ = this;
        None
    }
}

impl Backend for Pvm {
    fn create(frames: u32, seg_mgr: Arc<dyn SegmentManagerV2>) -> Pvm {
        Pvm::new(
            PvmOptions {
                geometry: PageGeometry::sun3(),
                frames,
                cost: CostParams::sun3(),
                config: PvmConfig::default(),
                ..PvmOptions::default()
            },
            seg_mgr,
        )
    }

    fn cost_model(&self) -> Arc<CostModel> {
        Pvm::cost_model(self)
    }

    fn as_pvm(this: &Arc<Pvm>) -> Option<Arc<Pvm>> {
        Some(this.clone())
    }
}

impl Backend for ShadowVm {
    fn create(frames: u32, seg_mgr: Arc<dyn SegmentManagerV2>) -> ShadowVm {
        ShadowVm::new(
            ShadowOptions {
                geometry: PageGeometry::sun3(),
                frames,
                cost: CostParams::sun3(),
                ..ShadowOptions::default()
            },
            seg_mgr,
        )
    }

    fn cost_model(&self) -> Arc<CostModel> {
        ShadowVm::cost_model(self)
    }
}

/// One Chorus site, as the workloads see it.
pub struct World<G: Tgmi> {
    pub nucleus: Arc<Nucleus<G>>,
    /// The file mapper ("file system"): program images and mapped files.
    pub files: Arc<MemMapper>,
    /// The default mapper for temporary (swap) segments.
    pub swap: Arc<SwapMapper>,
    /// The simulated Sun-3/60 clock and primitive-op counters.
    pub model: Arc<CostModel>,
    pub pvm: Option<Arc<Pvm>>,
    /// The upcall wrapper, on the traced world only.
    pub upcalls: Option<Arc<TracedSegMgr>>,
}

fn assemble<B: Backend, G: Tgmi>(
    frames: u32,
    traced: bool,
    under_nucleus: impl FnOnce(Arc<B>) -> Arc<G>,
) -> World<G> {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(FILE_PORT));
    let swap = Arc::new(SwapMapper::new(SWAP_PORT));
    let wrap = |m: Arc<dyn Mapper>| -> Arc<dyn Mapper> {
        if traced {
            Arc::new(TracedMapper::new(m))
        } else {
            m
        }
    };
    seg_mgr.register_mapper(FILE_PORT, wrap(files.clone()));
    seg_mgr.register_mapper(SWAP_PORT, wrap(swap.clone()));
    seg_mgr.set_default_mapper(SWAP_PORT);
    let bare = SyncShim::wrap(seg_mgr.clone());
    let upcalls = traced.then(|| Arc::new(TracedSegMgr::new(bare.clone(), PAGE)));
    let upcall_target = match &upcalls {
        Some(t) => t.clone() as Arc<dyn SegmentManagerV2>,
        None => bare,
    };
    let backend = Arc::new(B::create(frames, upcall_target));
    World {
        model: backend.cost_model(),
        pvm: B::as_pvm(&backend),
        nucleus: Arc::new(Nucleus::new(under_nucleus(backend), seg_mgr, TRANSIT_SLOTS)),
        files,
        swap,
        upcalls,
    }
}

impl<B: Backend + Tgmi> World<B> {
    /// The untraced world: no wrapper anywhere.
    pub fn bare(frames: u32) -> World<B> {
        assemble(frames, false, |backend| backend)
    }
}

impl<B: Backend> World<TracedGmi<B>> {
    /// The traced world: `TracedGmi` under the Nucleus, `TracedSegMgr`
    /// (handing down a `TracedCacheIo`) under the memory manager, and a
    /// `TracedMapper` around each mapper.
    pub fn traced(frames: u32) -> World<TracedGmi<B>> {
        assemble(frames, true, |backend| Arc::new(TracedGmi::new(backend)))
    }
}

/// Live caches and allocated frames of the PVM, for leak accounting.
#[derive(Clone, Copy, Default)]
pub struct Footprint {
    pub caches: i64,
    pub frames: i64,
}

impl<G: Tgmi> World<G> {
    pub fn footprint(&self) -> Option<Footprint> {
        self.pvm.as_ref().map(|p| Footprint {
            caches: p.cache_count() as i64,
            frames: p.mem_stats().in_use as i64,
        })
    }

    /// What the Nucleus segment cache (§5.1.3) still holds for `caps`
    /// once every actor is gone: caches it keeps on purpose, and the
    /// frames resident in them. Found by mapping each capability into a
    /// probe actor, which hits the kept cache.
    pub fn kept_by_segment_cache(&self, caps: &[(Capability, u64)]) -> Result<Footprint> {
        let stats = self.nucleus.segment_caching_stats();
        let mut kept = Footprint {
            caches: (stats.misses - stats.evictions) as i64,
            frames: 0,
        };
        let gmi = self.nucleus.gmi();
        let probe = self.nucleus.actor_create()?;
        for &(cap, size) in caps {
            let base = VirtAddr(1 << 32);
            let region = self
                .nucleus
                .rgn_map(probe, base, size, Prot::READ, cap, 0)?;
            let cache = gmi.region_status(region)?.cache;
            kept.frames += gmi.cache_resident_pages(cache)? as i64;
            self.nucleus.rgn_free(region)?;
        }
        self.nucleus.actor_destroy(probe)?;
        Ok(kept)
    }
}

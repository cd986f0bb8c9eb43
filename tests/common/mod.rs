//! The full paging stack the fault-injection and stream suites share:
//! PVM → NucleusSegmentManager → FaultyMapper(files) /
//! FaultyMapper(swap).
#![allow(dead_code)] // Not every test binary uses every helper.

use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{
    FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName, SwapMapper,
};
use chorus_pvm::trace::{TraceEvent, UpcallKind};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use std::sync::Arc;

pub const PS: u64 = 256;

pub struct FaultStack {
    pub pvm: Arc<Pvm>,
    pub seg_mgr: Arc<NucleusSegmentManager>,
    pub files: Arc<MemMapper>,
    pub faulty_files: Arc<FaultyMapper>,
    pub swap: Arc<SwapMapper>,
    pub faulty_swap: Arc<FaultyMapper>,
}

pub fn stack(
    frames: u32,
    file_plan: FaultPlan,
    swap_plan: FaultPlan,
    tweak: impl FnOnce(&mut PvmConfig),
) -> FaultStack {
    stack_costed(frames, CostParams::zero(), file_plan, swap_plan, tweak)
}

/// [`stack`] on a cost model of the caller's choosing.
pub fn stack_costed(
    frames: u32,
    cost: CostParams,
    file_plan: FaultPlan,
    swap_plan: FaultPlan,
    tweak: impl FnOnce(&mut PvmConfig),
) -> FaultStack {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let faulty_files = Arc::new(FaultyMapper::new(files.clone(), file_plan));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    let faulty_swap = Arc::new(FaultyMapper::new(swap.clone(), swap_plan));
    seg_mgr.register_mapper(PortName(1), faulty_files.clone());
    seg_mgr.register_mapper(PortName(2), faulty_swap.clone());
    seg_mgr.set_default_mapper(PortName(2));
    // The whole fault-injection suite runs traced: recovery must be
    // byte-identical with observability on.
    let mut config = PvmConfig::builder()
        .paging(|p| p.check_invariants(true))
        .telemetry(|t| {
            t.trace(TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            })
        })
        .build()
        .expect("valid config");
    tweak(&mut config);
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost,
            config,
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    faulty_files.attach_clock(pvm.cost_model());
    faulty_swap.attach_clock(pvm.cost_model());
    faulty_files.attach_tracer(pvm.tracer());
    faulty_swap.attach_tracer(pvm.tracer());
    FaultStack {
        pvm,
        seg_mgr,
        files,
        faulty_files,
        swap,
        faulty_swap,
    }
}

impl FaultStack {
    /// Drains the trace and returns the `(first page, pages)` of every
    /// upcall of `kind` started since the last drain, in order.
    pub fn upcalls(&self, kind: UpcallKind) -> Vec<(u64, u64)> {
        self.pvm
            .tracer()
            .drain()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::UpcallStart {
                    kind: k,
                    offset,
                    size,
                    ..
                } if k == kind => Some((offset / PS, size / PS)),
                _ => None,
            })
            .collect()
    }
}

/// A tiny deterministic PRNG for workload scheduling (the mapper's own
/// fault schedule uses its independent seeded RNG).
pub struct Lcg(pub u64);

impl Lcg {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

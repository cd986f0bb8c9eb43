//! Span recording for the traced run, and the wrappers that place a
//! span at every layer boundary the product exposes as a trait.
//!
//! Spans live on a per-thread stack, so a span's *self* time is its
//! duration minus its children's: a `fillUp` that has to evict issues a
//! `pushOut` from inside the pull, and a flat timer would count that
//! push twice. Every span of one op carries the op's id. Spans are
//! folded into per-call aggregates as they close; the first
//! [`RAW_HEAD_OPS`] ops and every [`RAW_EVERY`]th after keep their raw
//! spans for the chrome-trace file, up to a cap per thread.

use chorus_vm::gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, PageGeometry, Prot, PullRequest, PushRequest,
    RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_vm::nucleus::{Capability, Mapper};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Ops whose raw spans are all kept.
pub const RAW_HEAD_OPS: u64 = 10_000;
/// After the head, one op in this many keeps its raw spans.
pub const RAW_EVERY: u64 = 1000;
/// A thread stops keeping raw spans at this many: a `mix-make` job is
/// about 150 spans, and its first 10 000 would fill a 200 MB file.
const RAW_MAX_SPANS: usize = 250_000;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layer a span's self time is attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Harness,
    Mix,
    Nucleus,
    Pvm,
    Segmgr,
    Mapper,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Harness,
        Layer::Mix,
        Layer::Nucleus,
        Layer::Pvm,
        Layer::Segmgr,
        Layer::Mapper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Mix => "mix",
            Layer::Nucleus => "nucleus",
            Layer::Pvm => "pvm",
            Layer::Segmgr => "segmgr",
            Layer::Mapper => "mapper",
        }
    }
}

macro_rules! spans {
    ($($variant:ident = $name:literal in $layer:ident,)*) => {
        /// One traced call group. The name is the per-layer metric
        /// prefix (`<name>.calls`, `<name>.ns`).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Span {
            $($variant,)*
        }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            pub fn name(self) -> &'static str {
                match self {
                    $(Span::$variant => $name,)*
                }
            }

            pub fn layer(self) -> Layer {
                match self {
                    $(Span::$variant => Layer::$layer,)*
                }
            }
        }
    };
}

spans! {
    // The root span of one op: its self time is the harness's own work
    // (stream generation, oracle, bookkeeping).
    Op = "harness.op" in Harness,
    // The harness's calls into `mix::ProcessManager`. Their self time
    // includes the Nucleus code MIX calls, which cannot be interposed.
    MixFork = "mix.fork" in Mix,
    MixExec = "mix.exec" in Mix,
    MixExit = "mix.exit" in Mix,
    MixMem = "mix.mem" in Mix,
    MixPipe = "mix.pipe" in Mix,
    // The harness's direct calls into `nucleus::Nucleus`.
    NucIpcSend = "nucleus.ipc_send" in Nucleus,
    NucIpcReceive = "nucleus.ipc_receive" in Nucleus,
    NucMem = "nucleus.mem" in Nucleus,
    NucRgn = "nucleus.rgn" in Nucleus,
    // `TracedGmi`: every downcall of the GMI, grouped.
    GmiVmAccess = "gmi.vm_access" in Pvm,
    GmiCacheCopy = "gmi.cache_copy" in Pvm,
    GmiCacheMove = "gmi.cache_move" in Pvm,
    GmiCacheRw = "gmi.cache_rw" in Pvm,
    GmiRegion = "gmi.region" in Pvm,
    GmiContext = "gmi.context" in Pvm,
    GmiCacheLife = "gmi.cache_life" in Pvm,
    GmiCacheCtl = "gmi.cache_ctl" in Pvm,
    // `TracedSegMgr`: the upcalls out of the memory manager.
    UpcallPull = "upcall.pull" in Segmgr,
    UpcallPush = "upcall.push" in Segmgr,
    SegmentCreate = "segmgr.segment_create" in Segmgr,
    SegmgrOther = "segmgr.other" in Segmgr,
    // `TracedCacheIo`: the segment manager's calls back into the
    // memory manager while it services an upcall.
    FillUp = "cacheio.fill_up" in Pvm,
    CopyBack = "cacheio.copy_back" in Pvm,
    // `TracedMapper`.
    MapperRead = "mapper.read" in Mapper,
    MapperWrite = "mapper.write" in Mapper,
    MapperAllocTemp = "mapper.alloc_temp" in Mapper,
    MapperOther = "mapper.other" in Mapper,
}

/// What closed spans of one kind add up to.
#[derive(Clone)]
pub struct Agg {
    pub count: u64,
    /// Sum of inclusive durations.
    pub total_ns: u64,
    /// Sum of exclusive (self) durations.
    pub self_ns: u64,
    /// `log2[k]` counts inclusive durations in `[2^(k-1), 2^k)` ns.
    pub log2: [u64; 40],
}

impl Agg {
    const ZERO: Agg = Agg {
        count: 0,
        total_ns: 0,
        self_ns: 0,
        log2: [0; 40],
    };

    /// Mean inclusive nanoseconds per call (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Upper edge, in ns, of the log2 bucket holding the `q` quantile.
    pub fn log2_quantile(&self, q: f64) -> u64 {
        let k = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (bucket, &c) in self.log2.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= k {
                return 1 << bucket;
            }
        }
        0
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        for (a, b) in self.log2.iter_mut().zip(&other.log2) {
            *a += b;
        }
    }
}

struct Frame {
    span: Span,
    start: u64,
    child_ns: u64,
    /// Index of this span's record in `raw`, or `NO_RAW`.
    raw: u32,
}

const NO_RAW: u32 = u32::MAX;

/// One raw span, as written to the chrome-trace file.
pub struct RawSpan {
    span: Span,
    start: u64,
    end: u64,
    /// Index of the parent's record, or `NO_RAW` for an op's root.
    parent: u32,
    op: u64,
}

/// Everything one thread recorded.
pub struct ThreadTrace {
    stack: Vec<Frame>,
    agg: Vec<Agg>,
    raw: Vec<RawSpan>,
    op: u64,
    keep_raw: bool,
}

impl ThreadTrace {
    fn new() -> ThreadTrace {
        ThreadTrace {
            stack: Vec::with_capacity(16),
            agg: vec![Agg::ZERO; Span::ALL.len()],
            raw: Vec::new(),
            op: 0,
            keep_raw: false,
        }
    }

    fn enter(&mut self, span: Span, now: u64) {
        let raw = if self.keep_raw {
            let parent = self.stack.last().map_or(NO_RAW, |f| f.raw);
            self.raw.push(RawSpan {
                span,
                start: now,
                end: now,
                parent,
                op: self.op,
            });
            (self.raw.len() - 1) as u32
        } else {
            NO_RAW
        };
        self.stack.push(Frame {
            span,
            start: now,
            child_ns: 0,
            raw,
        });
    }

    fn exit(&mut self, now: u64) {
        let frame = self.stack.pop().expect("span exit without enter");
        let dur = now - frame.start;
        let agg = &mut self.agg[frame.span as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - frame.child_ns.min(dur);
        agg.log2[(64 - dur.leading_zeros()).min(39) as usize] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if frame.raw != NO_RAW {
            self.raw[frame.raw as usize].end = now;
        }
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

/// Closes its span when dropped.
pub struct SpanGuard;

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let now = now_ns();
        TRACE.with(|t| t.borrow_mut().exit(now));
    }
}

/// Opens a span on this thread; it closes when the guard drops.
#[inline]
pub fn span(span: Span) -> SpanGuard {
    let now = now_ns();
    TRACE.with(|t| t.borrow_mut().enter(span, now));
    SpanGuard
}

/// Marks an op boundary at `now`: closes the previous op's root span and,
/// if `next` names an op, opens that op's root at the same instant, so
/// the root spans of a round tile its wall time without gaps.
pub fn op_boundary(now: u64, next: Option<u64>) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if !t.stack.is_empty() {
            assert_eq!(t.stack.len(), 1, "op ended with an open span");
            t.exit(now);
        }
        if let Some(op) = next {
            t.op = op;
            t.keep_raw = (op < RAW_HEAD_OPS || op % RAW_EVERY == 0) && t.raw.len() < RAW_MAX_SPANS;
            t.enter(Span::Op, now);
        }
    });
}

/// Takes this thread's recording, leaving an empty one.
pub fn take() -> ThreadTrace {
    TRACE.with(|t| std::mem::replace(&mut *t.borrow_mut(), ThreadTrace::new()))
}

/// The per-span aggregates of several threads, added up.
pub fn merged(threads: &[ThreadTrace]) -> Vec<Agg> {
    let mut out = vec![Agg::ZERO; Span::ALL.len()];
    for t in threads {
        for (a, b) in out.iter_mut().zip(&t.agg) {
            a.merge(b);
        }
    }
    out
}

/// Writes the kept raw spans in chrome-trace format (load the file in
/// `chrome://tracing` or ui.perfetto.dev).
pub fn write_chrome(path: &std::path::Path, threads: &[ThreadTrace]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for (tid, t) in threads.iter().enumerate() {
        for (id, s) in t.raw.iter().enumerate() {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.span.name(),
                s.span.layer().name(),
                tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op,
                id,
                if s.parent == NO_RAW {
                    -1
                } else {
                    i64::from(s.parent)
                },
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

// ----- boundary wrappers ---------------------------------------------------

/// A memory manager the harness can run a workload on, traced or not.
pub trait Tgmi: Gmi + Send + Sync + 'static {
    /// Whether the harness's own calls into `mix` and `nucleus` open
    /// spans. False compiles them out: the untraced run carries no
    /// wrapper and no flag test.
    const TRACED: bool;
}

impl Tgmi for chorus_vm::pvm::Pvm {
    const TRACED: bool = false;
}

impl Tgmi for chorus_vm::shadow::ShadowVm {
    const TRACED: bool = false;
}

impl<G: Gmi + Send + Sync + 'static> Tgmi for TracedGmi<G> {
    const TRACED: bool = true;
}

/// Runs `f` inside a span on the traced run, and bare otherwise.
#[inline]
pub fn spanned<G: Tgmi, R>(s: Span, f: impl FnOnce() -> R) -> R {
    if G::TRACED {
        let _guard = span(s);
        f()
    } else {
        f()
    }
}

/// The GMI boundary: sits between `Nucleus<G>` / `ProcessManager<G>`
/// and the memory manager.
pub struct TracedGmi<G> {
    inner: Arc<G>,
}

impl<G> TracedGmi<G> {
    pub fn new(inner: Arc<G>) -> TracedGmi<G> {
        TracedGmi { inner }
    }
}

impl<G: Gmi> TracedGmi<G> {
    fn cache_io(&self) -> TracedCacheIo<'_> {
        TracedCacheIo {
            inner: &*self.inner,
        }
    }
}

impl<G: Gmi> CacheIo for TracedGmi<G> {
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        self.cache_io().fill_up(cache, offset, data)
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.cache_io().copy_back(cache, offset, buf)
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.cache_io().move_back(cache, offset, buf)
    }

    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        self.cache_io().copy_back_run(cache, offset, buf)
    }
}

impl<G: Gmi> Gmi for TracedGmi<G> {
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId> {
        let _s = span(Span::GmiCacheLife);
        self.inner.cache_create(segment)
    }

    fn cache_destroy(&self, cache: CacheId) -> Result<()> {
        let _s = span(Span::GmiCacheLife);
        self.inner.cache_destroy(cache)
    }

    fn cache_copy_with(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
        mode: CopyMode,
    ) -> Result<()> {
        let _s = span(Span::GmiCacheCopy);
        self.inner
            .cache_copy_with(src, src_offset, dst, dst_offset, size, mode)
    }

    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _s = span(Span::GmiCacheRw);
        self.inner.cache_read(cache, offset, buf)
    }

    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let _s = span(Span::GmiCacheRw);
        self.inner.cache_write(cache, offset, data)
    }

    fn cache_move(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        let _s = span(Span::GmiCacheMove);
        self.inner
            .cache_move(src, src_offset, dst, dst_offset, size)
    }

    fn context_create(&self) -> Result<CtxId> {
        let _s = span(Span::GmiContext);
        self.inner.context_create()
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        let _s = span(Span::GmiContext);
        self.inner.context_destroy(ctx)
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        let _s = span(Span::GmiContext);
        self.inner.context_switch(ctx)
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        let _s = span(Span::GmiRegion);
        self.inner.region_list(ctx)
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        let _s = span(Span::GmiRegion);
        self.inner.find_region(ctx, va)
    }

    fn region_create(
        &self,
        ctx: CtxId,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: CacheId,
        offset: u64,
    ) -> Result<RegionId> {
        let _s = span(Span::GmiRegion);
        self.inner
            .region_create(ctx, addr, size, prot, cache, offset)
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        let _s = span(Span::GmiRegion);
        self.inner.region_split(region, offset)
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        let _s = span(Span::GmiRegion);
        self.inner.region_set_protection(region, prot)
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        let _s = span(Span::GmiRegion);
        self.inner.region_lock_in_memory(region)
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        let _s = span(Span::GmiRegion);
        self.inner.region_unlock(region)
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        let _s = span(Span::GmiRegion);
        self.inner.region_status(region)
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        let _s = span(Span::GmiRegion);
        self.inner.region_destroy(region)
    }

    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_flush(cache, offset, size)
    }

    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_sync(cache, offset, size)
    }

    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_invalidate(cache, offset, size)
    }

    fn cache_set_protection(
        &self,
        cache: CacheId,
        offset: u64,
        size: u64,
        prot: Prot,
    ) -> Result<()> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_set_protection(cache, offset, size, prot)
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_lock_in_memory(cache, offset, size)
    }

    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_unlock(cache, offset, size)
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        let _s = span(Span::GmiVmAccess);
        self.inner.handle_fault(ctx, va, access)
    }

    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        let _s = span(Span::GmiVmAccess);
        self.inner.vm_read(ctx, va, buf)
    }

    fn vm_write(&self, ctx: CtxId, va: VirtAddr, buf: &[u8]) -> Result<()> {
        let _s = span(Span::GmiVmAccess);
        self.inner.vm_write(ctx, va, buf)
    }

    fn geometry(&self) -> PageGeometry {
        self.inner.geometry()
    }

    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64> {
        let _s = span(Span::GmiCacheCtl);
        self.inner.cache_resident_pages(cache)
    }
}

/// The `CacheIo` boundary: what a traced segment manager hands down in
/// place of the memory manager's own.
struct TracedCacheIo<'a> {
    inner: &'a dyn CacheIo,
}

impl CacheIo for TracedCacheIo<'_> {
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let _s = span(Span::FillUp);
        self.inner.fill_up(cache, offset, data)
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _s = span(Span::CopyBack);
        self.inner.copy_back(cache, offset, buf)
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _s = span(Span::CopyBack);
        self.inner.move_back(cache, offset, buf)
    }

    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        let _s = span(Span::CopyBack);
        self.inner.copy_back_run(cache, offset, buf)
    }
}

/// The upcall boundary: sits between the memory manager and the
/// segment manager it was constructed with.
pub struct TracedSegMgr {
    inner: Arc<dyn SegmentManagerV2>,
    page_size: u64,
    /// Pages requested by `pullIn` / `pushOut` upcalls. Statistics only,
    /// so relaxed.
    pub pull_pages: AtomicU64,
    pub push_pages: AtomicU64,
}

impl TracedSegMgr {
    pub fn new(inner: Arc<dyn SegmentManagerV2>, page_size: u64) -> TracedSegMgr {
        TracedSegMgr {
            inner,
            page_size,
            pull_pages: AtomicU64::new(0),
            push_pages: AtomicU64::new(0),
        }
    }
}

impl SegmentManagerV2 for TracedSegMgr {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        let _s = span(Span::UpcallPull);
        self.pull_pages
            .fetch_add(req.size / self.page_size, Ordering::Relaxed);
        self.inner.submit_pull(&TracedCacheIo { inner: io }, req)
    }

    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        let _s = span(Span::UpcallPush);
        self.push_pages
            .fetch_add(req.size / self.page_size, Ordering::Relaxed);
        self.inner.submit_push(&TracedCacheIo { inner: io }, req)
    }

    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::SegmgrOther);
        self.inner.acquire_write_access(segment, offset, size)
    }

    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        let _s = span(Span::SegmentCreate);
        self.inner.create_segment_v2(cache)
    }

    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        let _s = span(Span::SegmgrOther);
        self.inner.segment_len(segment)
    }

    fn advise_victims(&self, candidates: &[(CacheId, u64)]) -> Vec<bool> {
        let _s = span(Span::SegmgrOther);
        self.inner.advise_victims(candidates)
    }
}

/// The mapper boundary: wraps each mapper registered with the Nucleus
/// segment manager.
pub struct TracedMapper {
    inner: Arc<dyn Mapper>,
}

impl TracedMapper {
    pub fn new(inner: Arc<dyn Mapper>) -> TracedMapper {
        TracedMapper { inner }
    }
}

impl Mapper for TracedMapper {
    fn read(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<u8>> {
        let _s = span(Span::MapperRead);
        self.inner.read(cap, offset, size)
    }

    fn write(&self, cap: Capability, offset: u64, data: &[u8]) -> Result<()> {
        let _s = span(Span::MapperWrite);
        self.inner.write(cap, offset, data)
    }

    fn get_write_access(&self, cap: Capability, offset: u64, size: u64) -> Result<()> {
        let _s = span(Span::MapperOther);
        self.inner.get_write_access(cap, offset, size)
    }

    fn size(&self, cap: Capability) -> Option<u64> {
        let _s = span(Span::MapperOther);
        self.inner.size(cap)
    }

    fn allocate_temporary(&self) -> Result<Capability> {
        let _s = span(Span::MapperAllocTemp);
        self.inner.allocate_temporary()
    }
}

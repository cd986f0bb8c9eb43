//! One run of one workload: set-up, warm-up, the measured phase, the
//! final oracle check and teardown, and the metrics derived from them.

use crate::hist::median;
use crate::measure::{self, Phase, ROUNDS};
use crate::metrics::Values;
use crate::probe;
use crate::rng::fold;
use crate::trace::{self, Agg, Layer, Span, Tgmi, TracedGmi};
use crate::workloads::{self, Client, Clients, Kind, Spec, Tally, SPECS};
use crate::world::{Footprint, World};
use chorus_vm::gmi::Result;
use chorus_vm::hal::OpKind;
use chorus_vm::pvm::{Counter, Pvm, PvmStats};
use chorus_vm::shadow::ShadowVm;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Share of the untraced run's ops that each phase of a traced run
/// executes (first without wrappers, then with).
const TRACED_SHARE: f64 = 0.3;

/// A world with its clients warmed up, ready to measure.
struct Prepared<G: Tgmi> {
    world: World<G>,
    clients: Clients<G>,
    /// PVM footprint before the workload created anything.
    base: Option<Footprint>,
    warmup_failed: u64,
}

fn prepare<G: Tgmi>(spec: &Spec, seed: u64, world: World<G>) -> Result<Prepared<G>> {
    fn warm<C: Client>(clients: &mut [C], ops: u64) -> u64 {
        let mut failed = 0;
        for client in clients {
            for _ in 0..ops {
                failed += u64::from(!client.op());
            }
        }
        failed
    }
    let base = world.footprint();
    let mut clients = workloads::build(spec, &world, seed)?;
    let warmup_failed = match &mut clients {
        Clients::Mix(c) => warm(c, spec.warmup_ops),
        Clients::Ipc(c) => warm(c, spec.warmup_ops),
        Clients::Scan(c) => warm(c, spec.warmup_ops),
    };
    Ok(Prepared {
        world,
        clients,
        base,
        warmup_failed,
    })
}

/// The product's public counters, read before and after the phase.
struct Counters {
    stats: PvmStats,
    ops: Vec<u64>,
    segcache: (u64, u64, u64),
    swap_bytes: u64,
    upcall_pages: (u64, u64),
}

impl Counters {
    fn read<G: Tgmi>(world: &World<G>) -> Counters {
        let seg = world.nucleus.segment_caching_stats();
        Counters {
            stats: world.pvm.as_ref().map(|p| p.stats()).unwrap_or_default(),
            ops: OpKind::ALL
                .iter()
                .map(|&op| world.model.count(op))
                .collect(),
            segcache: (seg.hits, seg.misses, seg.evictions),
            swap_bytes: world.swap.swapped_out_bytes(),
            upcall_pages: world.upcalls.as_ref().map_or((0, 0), |u| {
                (
                    u.pull_pages.load(Ordering::Relaxed),
                    u.push_pages.load(Ordering::Relaxed),
                )
            }),
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            stats: self.stats.delta(&earlier.stats),
            ops: self
                .ops
                .iter()
                .zip(&earlier.ops)
                .map(|(a, b)| a - b)
                .collect(),
            segcache: (
                self.segcache.0 - earlier.segcache.0,
                self.segcache.1 - earlier.segcache.1,
                self.segcache.2 - earlier.segcache.2,
            ),
            swap_bytes: self.swap_bytes - earlier.swap_bytes,
            upcall_pages: (
                self.upcall_pages.0 - earlier.upcall_pages.0,
                self.upcall_pages.1 - earlier.upcall_pages.1,
            ),
        }
    }

    fn op(&self, kind: OpKind) -> u64 {
        self.ops[kind as usize]
    }
}

/// Everything one measured phase and its teardown produced.
struct Measured {
    phase: Phase,
    counters: Counters,
    tally: Tally,
    /// The final state matched the oracle and no warm-up op failed.
    correct: bool,
    /// Caches and frames still held after teardown, beyond the pre-run
    /// baseline and what the segment cache keeps on purpose.
    leaked: Option<Footprint>,
}

fn measure_and_finish<G: Tgmi>(prepared: Prepared<G>, ops_per_round: u64) -> Result<Measured> {
    fn go<G: Tgmi, C: Client>(
        world: &World<G>,
        mut clients: Vec<C>,
        base: Option<Footprint>,
        ops_per_round: u64,
    ) -> Result<Measured> {
        let before = Counters::read(world);
        let tally_before: Vec<Tally> = clients.iter().map(Client::tally).collect();
        let phase = measure::run(&mut clients, &world.model, ops_per_round);
        let counters = Counters::read(world).since(&before);
        let mut tally = Tally::default();
        for (client, was) in clients.iter().zip(&tally_before) {
            let now = client.tally();
            tally.transient_retries += now.transient_retries - was.transient_retries;
            tally.dirtied_pages += now.dirtied_pages - was.dirtied_pages;
            tally.stream_fp = fold(tally.stream_fp, now.stream_fp);
        }
        let mut correct = true;
        let mut kept_caps = Vec::new();
        for client in clients {
            let (ok, caps) = client.finish()?;
            correct &= ok;
            kept_caps.extend(caps);
        }
        let leaked = match (base, world.footprint()) {
            (Some(base), Some(end)) => {
                let kept = world.kept_by_segment_cache(&kept_caps)?;
                Some(Footprint {
                    caches: end.caches - base.caches - kept.caches,
                    frames: end.frames - base.frames - kept.frames,
                })
            }
            _ => None,
        };
        Ok(Measured {
            phase,
            counters,
            tally,
            correct,
            leaked,
        })
    }
    let Prepared {
        world,
        clients,
        base,
        warmup_failed,
    } = prepared;
    let mut measured = match clients {
        Clients::Mix(c) => go(&world, c, base, ops_per_round)?,
        Clients::Ipc(c) => go(&world, c, base, ops_per_round)?,
        Clients::Scan(c) => go(&world, c, base, ops_per_round)?,
    };
    measured.correct &= warmup_failed == 0;
    Ok(measured)
}

fn ops_per_round(spec: &Spec, seconds: f64) -> u64 {
    let per_client_round = spec.ops_per_second as f64 * seconds / (spec.threads * ROUNDS) as f64;
    (per_client_round.ceil() as u64).max(1)
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Quantities that repeat bit for bit on a one-thread workload when
    /// seed and `--seconds` repeat.
    pub exact: Vec<(String, String)>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
}

fn exact_rows(m: &Measured) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    let mut row =
        |name: String, value: &dyn std::fmt::Display| rows.push((name, value.to_string()));
    row("ops".into(), &m.phase.ops);
    row(
        "stream_fp".into(),
        &format_args!("{:016x}", m.tally.stream_fp),
    );
    row("sim_ns".into(), &m.phase.sim_ns);
    row("op_sim_p99_ns".into(), &m.phase.sim.quantile(0.99));
    row("transient_retries".into(), &m.tally.transient_retries);
    if let Some(leaked) = m.leaked {
        row("leaked_caches".into(), &leaked.caches);
        row("leaked_frames".into(), &leaked.frames);
    }
    for &c in Counter::ALL {
        row(format!("counter.{}", c.label()), &m.counters.stats.get(c));
    }
    for &op in OpKind::ALL {
        row(format!("op.{}", op.label()), &m.counters.op(op));
    }
    rows
}

fn sim_us_per_op(phase: &Phase) -> f64 {
    phase.sim_ns as f64 / 1e3 / phase.ops as f64
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, setups: usize) -> Result<Outcome> {
    let timed_setup = || {
        let start = Instant::now();
        let prepared = prepare(spec, seed, World::<Pvm>::bare(spec.frames));
        (prepared, start.elapsed().as_secs_f64())
    };
    let (prepared, first) = timed_setup();
    let m = measure_and_finish(prepared?, ops_per_round(spec, seconds))?;
    // Read before the set-ups that follow: building and dropping more
    // worlds in this process fragments the heap, which made the peak
    // depend on the seed.
    let peak_rss_mb = peak_rss_mib();
    let mut setup_s = vec![first];
    for _ in 1..setups {
        let (prepared, took) = timed_setup();
        drop(prepared?);
        setup_s.push(took);
    }

    let mut metrics = Values::end_to_end();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("ops_per_s", median(&m.phase.round_ops_per_s));
    metrics.set("op_wall_p90_ns", median(&m.phase.round_p90_ns));
    metrics.set("sim_us_per_op", sim_us_per_op(&m.phase));
    metrics.set("op_sim_p99_us", m.phase.sim.quantile(0.99) / 1e3);
    metrics.set("peak_rss_mb", peak_rss_mb);
    Ok(Outcome {
        correct: m.correct,
        attempted: m.phase.ops,
        failed: m.phase.failed,
        metrics,
        exact: exact_rows(&m),
        notes: vec![
            format!("setups_s={setup_s:?}"),
            format!(
                "rounds_ops_per_s={:?}",
                m.phase
                    .round_ops_per_s
                    .iter()
                    .map(|r| r.round())
                    .collect::<Vec<_>>()
            ),
            format!(
                "op_wall_ns over the phase: p50={:.0} p90={:.0} p99={:.0} p999={:.0}",
                m.phase.wall.quantile(0.5),
                m.phase.wall.quantile(0.9),
                m.phase.wall.quantile(0.99),
                m.phase.wall.quantile(0.999),
            ),
        ],
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: every per-layer metric.
///
/// It measures the workload twice on the same op stream, first on the
/// bare world (public counters, and the rate tracing is compared with),
/// then on the traced world (spans). Beside them run the HAL probe, the
/// Table 6/7 fidelity guard and a short `mix-make` on the shadow-object
/// baseline.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, trace_file: &Path) -> Result<Outcome> {
    let per_round = ((ops_per_round(spec, seconds) as f64 * TRACED_SHARE).ceil() as u64).max(1);
    let bare = measure_and_finish(
        prepare(spec, seed, World::<Pvm>::bare(spec.frames))?,
        per_round,
    )?;
    let traced = measure_and_finish(
        prepare(spec, seed, World::<TracedGmi<Pvm>>::traced(spec.frames))?,
        per_round,
    )?;
    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }
    trace::write_chrome(trace_file, &traced.phase.traces).expect("write the chrome trace");
    let hal = probe::hal_units();
    let (err6, err7) = probe::table_errors();
    let mix = SPECS
        .iter()
        .find(|s| s.kind == Kind::MixMake)
        .expect("mix-make is a workload");
    let shadow = measure_and_finish(
        prepare(mix, seed, World::<ShadowVm>::bare(mix.frames))?,
        ops_per_round(mix, seconds / 10.0),
    )?;

    let agg = trace::merged(&traced.phase.traces);
    let of = |s: Span| &agg[s as usize];
    let ops = bare.phase.ops;
    let kop = ops as f64 / 1e3;
    let c = &bare.counters;
    let st = &c.stats;
    let mut v = Values::per_layer();
    let mut notes = Vec::new();

    // Shares of the traced run's wall time, by exclusive span time.
    let wall = traced.phase.thread_wall_ns as f64;
    let mut attributed = 0.0;
    let mut share = [0.0; Layer::ALL.len()];
    for &s in Span::ALL {
        share[s.layer() as usize] += of(s).self_ns as f64 / wall;
        attributed += of(s).self_ns as f64 / wall;
    }
    for layer in [Layer::Harness, Layer::Mix, Layer::Nucleus, Layer::Pvm] {
        v.set(
            &format!("{}.self_share", layer.name()),
            share[layer as usize],
        );
    }
    v.set("segmgr.self_share", share[Layer::Segmgr as usize]);
    v.set("mapper.self_share", share[Layer::Mapper as usize]);
    v.set("harness.attribution_gap", (1.0 - attributed).abs());
    let rate = |m: &Measured| median(&m.phase.round_ops_per_s);
    v.set("harness.trace_overhead", 1.0 - rate(&traced) / rate(&bare));
    v.set("harness.op_wall_p50_ns", bare.phase.wall.quantile(0.5));
    v.set("harness.op_wall_p99_ns", bare.phase.wall.quantile(0.99));
    v.set("harness.op_wall_p999_ns", bare.phase.wall.quantile(0.999));
    v.set("harness.op_sim_p50_us", bare.phase.sim.quantile(0.5) / 1e3);
    v.set(
        "harness.op_sim_p999_us",
        bare.phase.sim.quantile(0.999) / 1e3,
    );
    v.set(
        "harness.transient_retries",
        bare.tally.transient_retries as f64,
    );
    let leaked = bare.leaked.expect("the PVM reports its footprint");
    v.set("harness.leaked_caches", leaked.caches as f64);
    v.set("harness.leaked_frames", leaked.frames as f64);

    // Calls and mean inclusive time of every span group.
    let mut gmi_calls = 0;
    for &s in Span::ALL {
        let a: &Agg = of(s);
        if a.count > 0 {
            notes.push(format!(
            "span {:<24} calls={:<10} mean_ns={:<10.0} self_share={:<8.4} p50_ns<={:<8} p99_ns<={}",
            s.name(),
            a.count,
            a.mean_ns(),
            a.self_ns as f64 / wall,
            a.log2_quantile(0.5),
            a.log2_quantile(0.99),
        ));
        }
        if s.name().starts_with("gmi.") {
            gmi_calls += a.count;
        }
        match s {
            Span::Op | Span::SegmgrOther | Span::MapperOther => {}
            Span::SegmentCreate | Span::MapperAllocTemp => {
                v.set(&format!("{}.calls", s.name()), a.count as f64);
            }
            _ => {
                v.set(&format!("{}.calls", s.name()), a.count as f64);
                v.set(&format!("{}.ns", s.name()), a.mean_ns());
            }
        }
    }
    v.set(
        "gmi.calls_per_op",
        gmi_calls as f64 / traced.phase.ops as f64,
    );

    // Upcall shape, at the boundary that sees it.
    let (pull_pages, push_pages) = traced.counters.upcall_pages;
    let upcalls = of(Span::UpcallPull).count + of(Span::UpcallPush).count;
    v.set("upcall.pull.pages", pull_pages as f64);
    v.set("upcall.push.pages", push_pages as f64);
    v.set(
        "upcall.per_kop",
        upcalls as f64 / (traced.phase.ops as f64 / 1e3),
    );
    v.set(
        "upcall.pages_per_call",
        ratio(pull_pages + push_pages, upcalls),
    );
    v.set(
        "upcall.push_per_dirtied_page",
        ratio(push_pages, traced.tally.dirtied_pages),
    );

    // The product's own counters over the bare phase.
    v.set("pvm.faults_per_op", st.faults as f64 / ops as f64);
    v.set("pvm.hard_fault_ratio", ratio(st.pull_ins, st.faults));
    v.set(
        "pvm.fast_path_hit_ratio",
        ratio(st.fast_path_hits, st.faults),
    );
    for counter in [
        Counter::ZeroFills,
        Counter::CowCopies,
        Counter::HistoryPushes,
        Counter::WorkingObjects,
        Counter::ZombieMerges,
        Counter::CowStubsCreated,
        Counter::MovedFrames,
        Counter::Evictions,
        Counter::ClockFullSweeps,
        Counter::EmergencyPageouts,
        Counter::StubWaits,
        Counter::ShardContention,
        Counter::MapperRetries,
    ] {
        v.set(&format!("pvm.{}", counter.label()), st.get(counter) as f64);
    }
    v.set(
        "pvm.state_lock_acqs_per_op",
        st.state_lock_acqs as f64 / ops as f64,
    );
    v.set(
        "pvm.state_lock_contended_ratio",
        ratio(st.state_lock_contended, st.state_lock_acqs),
    );
    let (hits, misses, evictions) = c.segcache;
    v.set("nucleus.segcache.hit_ratio", ratio(hits, hits + misses));
    v.set("nucleus.segcache.evictions", evictions as f64);
    v.set("mapper.swap_bytes", c.swap_bytes as f64);
    for kind in [
        OpKind::FrameAlloc,
        OpKind::BzeroPage,
        OpKind::BcopyPage,
        OpKind::MapPage,
        OpKind::UnmapPage,
        OpKind::ProtectPage,
        OpKind::TlbMiss,
        OpKind::GlobalMapOp,
        OpKind::HistoryOp,
        OpKind::SegmentIoPage,
        OpKind::IpcOp,
    ] {
        v.set(&format!("hal.op.{}", kind.label()), c.op(kind) as f64 / kop);
    }

    // The HAL cannot be interposed: estimate its share of the bare
    // phase's wall time from exact op counts and probed unit costs.
    let translates = of(Span::GmiVmAccess).count as f64 * ops as f64 / traced.phase.ops as f64;
    let hal_ns = c.op(OpKind::BzeroPage) as f64 * hal.alloc_zeroed
        + c.op(OpKind::BcopyPage) as f64 * hal.copy_frame
        + c.op(OpKind::FrameFree) as f64 * hal.release
        + c.op(OpKind::MapPage) as f64 * hal.map
        + c.op(OpKind::UnmapPage) as f64 * hal.unmap
        + c.op(OpKind::ProtectPage) as f64 * hal.protect
        + (c.op(OpKind::TlbMiss) + st.faults) as f64 * hal.translate_miss
        + (translates - c.op(OpKind::TlbMiss) as f64).max(0.0) * hal.translate_hit;
    let hal_share = hal_ns / bare.phase.thread_wall_ns as f64;
    v.set("hal.share_est", hal_share);
    v.set("pvm.core_share_est", share[Layer::Pvm as usize] - hal_share);
    for (name, ns) in [
        ("alloc_zeroed", hal.alloc_zeroed),
        ("copy_frame", hal.copy_frame),
        ("release", hal.release),
        ("map", hal.map),
        ("unmap", hal.unmap),
        ("protect", hal.protect),
        ("translate_hit", hal.translate_hit),
        ("translate_miss", hal.translate_miss),
    ] {
        v.set(&format!("hal.unit_ns.{name}"), ns);
    }

    v.set("fidelity.table6_err_pct", err6);
    v.set("fidelity.table7_err_pct", err7);
    v.set("shadow.sim_us_per_op", sim_us_per_op(&shadow.phase));
    v.set("shadow.ops_per_s", rate(&shadow));

    // On one thread the wrappers must not change what the simulator
    // does: both phases ran the same stream.
    let undisturbed = spec.threads > 1 || bare.phase.sim_ns == traced.phase.sim_ns;
    if !undisturbed {
        notes.push(format!(
            "FAIL tracing changed simulated time: {} ns bare, {} ns traced",
            bare.phase.sim_ns, traced.phase.sim_ns
        ));
    }
    Ok(Outcome {
        correct: bare.correct && traced.correct && shadow.correct && undisturbed,
        attempted: bare.phase.ops + traced.phase.ops + shadow.phase.ops,
        failed: bare.phase.failed + traced.phase.failed + shadow.phase.failed,
        metrics: v,
        exact: exact_rows(&bare),
        notes,
    })
}

//! Ablation: replacement (DESIGN.md §13), the clock alone against the
//! clock advised by the segment manager (`External`, here a manager
//! that approves everything, so what shows is the protocol's cost and
//! its batching), across three scenarios:
//!
//! * `scale` — repeated sequential read scans of a working set three
//!   times the frame pool: the classic sequential-flood case where
//!   recency protection cannot help (pulls are pinned at two pages:
//!   this bench's segment manager states no segment lengths, so the
//!   stream table adds nothing — `ablation_readahead` covers that);
//! * `writeback` — dirty rewrite scans: every victim is dirty, so
//!   victim choice decides how often the pageout pipeline (write-behind
//!   queue, clustered `pushOut`) runs;
//! * `pressure` — a hot set rewritten every round while a cold stream
//!   sweeps through the remaining frames: the case a reuse-tracking
//!   policy outside the core would be written for.
//!
//! Every combination self-checks its bytes against the generating
//! pattern, and the default policy (clock) is asserted bit-identical to
//! a config that never mentions the policy section at all.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_policies [--json] [--quick]`

use chorus_bench::{assert_deterministic, bench_args, json, pvm_world_config, World, PAGE};
use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_pvm::{Pvm, PvmConfig, ReplacementKind};

const FRAMES: u32 = 64;

struct Shape {
    /// Working set in pages (3x the frame pool, so replacement runs).
    ws_pages: u64,
    /// Sequential passes in the scale and writeback scenarios.
    scans: u64,
    /// Hot pages rewritten every pressure round (fits in the pool).
    hot_pages: u64,
    /// Hot-rewrite + cold-stream rounds in the pressure scenario.
    rounds: u64,
}

const FULL: Shape = Shape {
    ws_pages: 192,
    scans: 4,
    hot_pages: 24,
    rounds: 6,
};
const QUICK: Shape = Shape {
    ws_pages: 96,
    scans: 2,
    hot_pages: 16,
    rounds: 3,
};

struct Row {
    scenario: &'static str,
    replacement: &'static str,
    faults: u64,
    pull_ins: u64,
    evictions: u64,
    victim_requests: u64,
    victims: u64,
    external_batches: u64,
    external_fallbacks: u64,
    sim_ms: f64,
}

impl Row {
    fn fingerprint(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sim_ms.to_bits(),
            self.faults,
            self.pull_ins,
            self.victim_requests,
            self.victims,
        )
    }
}

/// Builds the raced world with a minimum pull window of
/// `pull_cluster` pages (1 = the default), shared across every combo
/// so the only raced variable is the policy. `policy: None` builds the
/// control config that never names one (the default must behave
/// identically to an explicit clock selection).
fn world(policy: Option<ReplacementKind>, pull_cluster: u64) -> World<Pvm> {
    let builder =
        PvmConfig::builder().paging(|p| p.check_invariants(false).pull_cluster_pages(pull_cluster));
    let config = match policy {
        Some(kind) => builder.replacement(kind),
        None => builder,
    }
    .build()
    .expect("valid config");
    pvm_world_config(FRAMES, config)
}

fn finish(
    w: &World<Pvm>,
    scenario: &'static str,
    policy: Option<ReplacementKind>,
    sim_ms: f64,
) -> Row {
    let stats = w.gmi.stats();
    Row {
        scenario,
        replacement: policy.unwrap_or(ReplacementKind::Clock).label(),
        faults: stats.faults,
        pull_ins: stats.pull_ins,
        evictions: stats.evictions,
        victim_requests: stats.policy_victim_requests,
        victims: stats.policy_victims,
        external_batches: stats.policy_external_batches,
        external_fallbacks: stats.policy_external_fallbacks,
        sim_ms,
    }
}

/// Sequential read scans: the working set floods the pool `scans`
/// times, two pages a pull whatever the policy.
fn run_scale(shape: &Shape, policy: Option<ReplacementKind>) -> Row {
    let w = world(policy, 2);
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 241) as u8)
        .collect();
    let seg = w.mgr.create_segment(&content);
    let cache = w.gmi.cache_create(Some(seg)).unwrap();
    let ctx = w.gmi.context_create().unwrap();
    w.gmi
        .region_create(
            ctx,
            VirtAddr(0),
            shape.ws_pages * PAGE,
            Prot::READ,
            cache,
            0,
        )
        .unwrap();
    let t0 = w.model.now();
    let mut buf = [0u8; 16];
    for _ in 0..shape.scans {
        for p in 0..shape.ws_pages {
            w.gmi.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
            assert_eq!(buf[0], ((p * PAGE) % 241) as u8, "scan read wrong bytes");
        }
    }
    finish(&w, "scale", policy, w.model.now().since(t0).millis())
}

/// Dirty rewrite scans with the pageout pipeline on: every victim is
/// dirty, so the policy's choices feed straight into `pushOut` batches.
fn run_writeback(shape: &Shape, policy: Option<ReplacementKind>) -> Row {
    let w = world(policy, 1);
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 239) as u8)
        .collect();
    let seg = w.mgr.create_segment(&content);
    let cache = w.gmi.cache_create(Some(seg)).unwrap();
    let ctx = w.gmi.context_create().unwrap();
    w.gmi
        .region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();
    let t0 = w.model.now();
    for scan in 0..shape.scans {
        for p in 0..shape.ws_pages {
            let tag = [(scan as u8) ^ (p as u8); 16];
            w.gmi.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
        }
    }
    // Read-back self-check: the last scan's tags must survive however
    // aggressively the raced policy paged them out and back in.
    let last = shape.scans - 1;
    let mut buf = [0u8; 16];
    for p in 0..shape.ws_pages {
        w.gmi.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
        assert_eq!(buf[0], (last as u8) ^ (p as u8), "dirty page lost");
    }
    finish(&w, "writeback", policy, w.model.now().since(t0).millis())
}

/// Hot/cold skew: the hot set is rewritten every round while a cold
/// stream walks the rest of the working set.
fn run_pressure(shape: &Shape, policy: Option<ReplacementKind>) -> Row {
    let w = world(policy, 1);
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 233) as u8)
        .collect();
    let seg = w.mgr.create_segment(&content);
    let cache = w.gmi.cache_create(Some(seg)).unwrap();
    let ctx = w.gmi.context_create().unwrap();
    w.gmi
        .region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();
    let cold_pages = shape.ws_pages - shape.hot_pages;
    let t0 = w.model.now();
    let mut buf = [0u8; 8];
    for round in 0..shape.rounds {
        for p in 0..shape.hot_pages {
            let tag = [(round as u8).wrapping_add(p as u8); 8];
            w.gmi.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
        }
        // One cold chunk per round, striding the tail of the region.
        let chunk = cold_pages / shape.rounds;
        for k in 0..chunk {
            let p = shape.hot_pages + round * chunk + k;
            w.gmi.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
            assert_eq!(buf[0], ((p * PAGE) % 233) as u8, "cold read wrong bytes");
        }
    }
    finish(&w, "pressure", policy, w.model.now().since(t0).millis())
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // Determinism self-check, once per policy on the writeback
    // scenario (the one verify.sh smokes): re-running a policy must
    // reproduce the simulated clock and every counter bit for bit.
    for kind in ReplacementKind::ALL {
        assert_deterministic(&format!("policy {} writeback", kind.label()), || {
            run_writeback(shape, Some(kind)).fingerprint()
        });
    }

    // Bit-identity of the defaults: a config that never names the
    // policy section must match an explicit clock selection in every
    // scenario.
    for (name, run) in [
        (
            "scale",
            run_scale as fn(&Shape, Option<ReplacementKind>) -> Row,
        ),
        ("writeback", run_writeback),
        ("pressure", run_pressure),
    ] {
        let control = run(shape, None);
        let explicit = run(shape, Some(ReplacementKind::Clock));
        assert_eq!(
            control.fingerprint(),
            explicit.fingerprint(),
            "default config must be bit-identical to explicit clock in {name}"
        );
    }

    let mut rows = Vec::new();
    for kind in ReplacementKind::ALL {
        rows.push(run_scale(shape, Some(kind)));
        rows.push(run_writeback(shape, Some(kind)));
        rows.push(run_pressure(shape, Some(kind)));
    }

    // Headline cross-checks, asserted so regressions fail loudly.
    for r in &rows {
        assert!(
            r.evictions > 0,
            "{}/{}: no replacement ran",
            r.scenario,
            r.replacement
        );
        assert!(
            r.victims >= r.evictions,
            "{}/{}: evictions bypassed the policy engine",
            r.scenario,
            r.replacement
        );
        if r.replacement == "external" {
            assert!(
                r.external_batches > 0,
                "{}: external policy never consulted the segment manager",
                r.scenario
            );
        } else {
            assert_eq!(
                r.external_batches, 0,
                "{}/{}: the clock shipped advice batches",
                r.scenario, r.replacement
            );
        }
    }
    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .str("scenario", r.scenario)
                .str("replacement", r.replacement)
                .int("faults", r.faults)
                .int("pull_ins", r.pull_ins)
                .int("evictions", r.evictions)
                .int("victim_requests", r.victim_requests)
                .int("victims", r.victims)
                .int("external_batches", r.external_batches)
                .int("external_fallbacks", r.external_fallbacks)
                .num("sim_ms", r.sim_ms)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_policies")
                .int("ws_pages", shape.ws_pages)
                .int("scans", shape.scans)
                .int("hot_pages", shape.hot_pages)
                .int("rounds", shape.rounds)
                .int("frames", u64::from(FRAMES))
                .bool("quick", quick)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }

    println!(
        "Policy ablation: {} replacement policies raced over {} frames;\n\
         scale/writeback = {} scans of {} pages,\n\
         pressure = {} rounds of {} hot pages + cold stream\n",
        ReplacementKind::ALL.len(),
        FRAMES,
        shape.scans,
        shape.ws_pages,
        shape.rounds,
        shape.hot_pages,
    );
    println!(
        "  scenario  | policy   | faults | pulls | evict | victims (req) | ext batch/fb | sim ms"
    );
    for r in &rows {
        println!(
            "  {:<9} | {:<8} | {:>6} | {:>5} | {:>5} | {:>6} ({:>4}) | {:>5}/{:<5} | {:>8.1}",
            r.scenario,
            r.replacement,
            r.faults,
            r.pull_ins,
            r.evictions,
            r.victims,
            r.victim_requests,
            r.external_batches,
            r.external_fallbacks,
            r.sim_ms,
        );
    }
}

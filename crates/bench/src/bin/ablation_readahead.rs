//! Ablation: stream-aware pull windows — §3.3.3's "the MM may
//! unilaterally decide to cache a fragment of data", decided per cache
//! by a table of at most four sequential streams (DESIGN.md §13). There
//! is no knob to turn: the table is the shipped pull path, so the rows
//! are access *shapes* over the same file and pool, and the columns are
//! what the table made of each: how many `pullIn` round trips, how many
//! of them went out ahead of their reader, how many pages each carried,
//! how much of the readahead was evicted untouched, and the simulated
//! time. Each shape runs at two pools, the file three times either: at
//! 64 frames a stream at the full window keeps one window in flight
//! ahead of its reader, at 256 two (the window being read and the two
//! ahead stay under a quarter of the pool).
//!
//! Usage: `cargo run -p chorus-bench --bin ablation_readahead [--json]`

use chorus_bench::{json, PAGE};
use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

/// The frame pools; the mapped file is three times the pool, and read
/// twice over.
const POOLS: [u32; 2] = [64, 256];

struct Row {
    frames: u32,
    shape: &'static str,
    pull_ins: u64,
    ahead_pulls: u64,
    pulled_pages: u64,
    readahead_unused: u64,
    sim_ms: f64,
}

/// The page touched by access `i` of a shape over a file of `pages`.
type Shape = fn(i: u64, random: u64, pages: u64) -> u64;

const SHAPES: [(&str, Shape); 4] = [
    ("sequential", |i, _, pages| i % pages),
    ("two-streams", |i, _, pages| {
        (i / 2 + (i % 2) * (pages / 2)) % pages
    }),
    (
        "seq+random",
        |i, r, pages| {
            if i % 2 == 0 {
                (i / 2) % pages
            } else {
                r
            }
        },
    ),
    ("random", |_, r, _| r),
];

fn run(frames: u32, shape: &'static str, page_of: Shape) -> Row {
    let pages = 3 * u64::from(frames);
    // A file mapper that knows its segments' lengths: a stream only
    // widens a pull inside bounds the mapper has stated.
    let mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    mgr.register_mapper(PortName(1), files.clone());
    let content: Vec<u8> = (0..pages * PAGE).map(|i| (i % 241) as u8).collect();
    let seg = mgr.segment_for(files.create_segment(&content));
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        mgr.clone(),
    );
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), pages * PAGE, Prot::READ, cache, 0)
        .unwrap();
    let model = pvm.cost_model();
    let t0 = model.now();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut buf = [0u8; 8];
    for i in 0..2 * pages {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = page_of(i, (lcg >> 33) % pages, pages);
        pvm.vm_read(ctx, VirtAddr(page * PAGE), &mut buf).unwrap();
        // Data correct whatever the window.
        assert_eq!(buf[..], content[(page * PAGE) as usize..][..8]);
    }
    let stats = pvm.stats();
    Row {
        frames,
        shape,
        pull_ins: stats.pull_ins,
        ahead_pulls: stats.ahead_pulls,
        // The head of an ahead window is readahead as well.
        pulled_pages: stats.pull_ins + stats.readahead_pages - stats.ahead_pulls,
        readahead_unused: stats.readahead_unused,
        sim_ms: model.now().since(t0).millis(),
    }
}

fn main() {
    let emit_json = std::env::args().any(|a| a == "--json");
    let rows: Vec<Row> = POOLS
        .iter()
        .flat_map(|&frames| SHAPES.iter().map(move |&(name, f)| run(frames, name, f)))
        .collect();
    // Headline cross-checks, asserted so regressions fail loudly: a
    // stream must amortise the round trip, and random misses must not
    // be charged for readahead nobody uses.
    for frames in POOLS {
        let by = |shape: &str| {
            rows.iter()
                .find(|r| (r.frames, r.shape) == (frames, shape))
                .expect("row")
        };
        assert!(by("sequential").pulled_pages >= 4 * by("sequential").pull_ins);
        assert!(by("two-streams").pulled_pages >= 4 * by("two-streams").pull_ins);
        // Half the accesses are random misses of one page each: the
        // stream among them must still ramp.
        assert!(by("seq+random").pulled_pages * 2 >= 3 * by("seq+random").pull_ins);
        assert!(by("random").readahead_unused * 10 <= by("random").pulled_pages);
    }
    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .int("frames", u64::from(r.frames))
                .int("pages", 3 * u64::from(r.frames))
                .str("shape", r.shape)
                .int("pull_ins", r.pull_ins)
                .int("ahead_pulls", r.ahead_pulls)
                .int("pulled_pages", r.pulled_pages)
                .int("readahead_unused", r.readahead_unused)
                .num("sim_ms", r.sim_ms)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_readahead")
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }
    println!(
        "Stream-table ablation: each file read twice over (6 x frames reads) \
         through a pool of a third its size\n"
    );
    println!(
        "  frames | shape       | pullIn upcalls | of them ahead | pages/pull | unused readahead | simulated time | per read"
    );
    for r in &rows {
        println!(
            "  {:>6} | {:<11} | {:>14} | {:>13} | {:>10.2} | {:>16} | {:>11.2} ms | {:.3} ms",
            r.frames,
            r.shape,
            r.pull_ins,
            r.ahead_pulls,
            r.pulled_pages as f64 / r.pull_ins as f64,
            r.readahead_unused,
            r.sim_ms,
            r.sim_ms / (6 * r.frames) as f64
        );
    }
    println!(
        "\nEach pullIn costs one IPC round trip plus one segment_io_page per\n\
         page: a detected stream trades a longer transfer for fewer round\n\
         trips, and a miss that continues no stream pulls one page. A stream\n\
         at the full window has its next one pulled while it reads this one\n\
         (its next two, in a pool where the three stay under a quarter): the\n\
         same round trips, and the reader waits for fewer of them."
    );
}

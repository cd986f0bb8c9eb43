//! Shared harness for regenerating the paper's evaluation (§5.3).
//!
//! Every table and figure has a binary in `src/bin/` (see DESIGN.md's
//! experiment index); this library holds the common machinery: world
//! construction for both memory managers on the calibrated Sun-3/60 cost
//! model, the Table 6 / Table 7 measurement loops, and table rendering.
//!
//! Times are reported in *simulated milliseconds* from the cost model
//! (primitive costs calibrated so `bcopy`(8 KB) = 1.40 ms and `bzero` =
//! 0.87 ms, §5.3) and, where useful, wall-clock numbers. Both managers
//! run on identical primitive costs, so differences reflect algorithmic
//! structure — the substance of the paper's Chorus-vs-Mach comparison.

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CacheId, Gmi, Prot, VirtAddr};
use chorus_hal::{CostModel, CostParams, PageGeometry};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use chorus_shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;

/// The paper's page size (Sun-3/60).
pub const PAGE: u64 = PageGeometry::SUN3_PAGE_SIZE;

/// Region sizes of Tables 6 and 7.
pub const REGION_SIZES: [u64; 3] = [8 * 1024, 256 * 1024, 1024 * 1024];

/// Touched/copied page counts of Tables 6 and 7.
pub const TOUCH_PAGES: [u64; 4] = [0, 1, 32, 128];

/// Iterations to average over (the model is deterministic; averaging
/// smooths allocator reuse effects only).
pub const ITERS: u32 = 8;

/// A memory manager under benchmark, with its cost model.
pub struct World<G: Gmi> {
    /// The manager.
    pub gmi: Arc<G>,
    /// Its cost model (simulated clock).
    pub model: Arc<CostModel>,
    /// The backing segment manager.
    pub mgr: Arc<MemSegmentManager>,
}

/// Builds the PVM world on the calibrated cost model.
///
/// `CHORUS_TRACE=1` turns tracing on in every bench world;
/// tables and figures must stay bit-identical either way: the
/// tracing bit-identity check in scripts/verify.sh regenerates
/// `table6` and `table7` (built here) and `figure3` with it on.
pub fn pvm_world(frames: u32) -> World<Pvm> {
    pvm_world_traced(frames, TraceConfig::from_env())
}

/// Builds the PVM world with an explicit trace configuration (the
/// overheads bench measures tracing-on vs tracing-off directly).
pub fn pvm_world_traced(frames: u32, trace: TraceConfig) -> World<Pvm> {
    let config = PvmConfig::builder()
        .paging(|p| p.check_invariants(false))
        .trace(trace)
        .build()
        .expect("valid config");
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames,
            cost: CostParams::sun3(),
            config,
            ..PvmOptions::default()
        },
        mgr.clone(),
    ));
    let model = pvm.cost_model();
    World {
        gmi: pvm,
        model,
        mgr,
    }
}

/// Builds the shadow-object (Mach-style) world on the same cost model
/// parameters.
pub fn shadow_world(frames: u32) -> World<ShadowVm> {
    let mgr = Arc::new(MemSegmentManager::new());
    let vm = Arc::new(ShadowVm::new(
        ShadowOptions {
            geometry: PageGeometry::sun3(),
            frames,
            cost: CostParams::sun3(),
            collapse_chains: true,
        },
        mgr.clone(),
    ));
    let model = vm.cost_model();
    World {
        gmi: vm,
        model,
        mgr,
    }
}

/// One cell of a Table 6/7 matrix: simulated milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cell {
    /// Simulated milliseconds (cost model).
    pub sim_ms: f64,
    /// Wall-clock microseconds of the simulation itself (informational).
    pub wall_us: f64,
}

/// A full benchmark matrix (rows = region sizes, cols = touched pages).
#[derive(Clone, Debug)]
pub struct Matrix {
    /// Label, e.g. "Chorus (PVM)" or "Mach-style (shadow)".
    pub label: String,
    /// `cells[row][col]`; `None` where pages exceed the region.
    pub cells: Vec<Vec<Option<Cell>>>,
}

impl Matrix {
    /// Renders in the paper's layout.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}: {}\n", self.label, title));
        out.push_str("  region size |");
        for &p in &TOUCH_PAGES {
            out.push_str(&format!(" {:>5} pages |", p));
        }
        out.push('\n');
        out.push_str(&format!("  {}\n", "-".repeat(14 + TOUCH_PAGES.len() * 14)));
        for (row, &size) in REGION_SIZES.iter().enumerate() {
            out.push_str(&format!("  {:>8} KB |", size / 1024));
            for col in 0..TOUCH_PAGES.len() {
                match self.cells[row][col] {
                    Some(c) => out.push_str(&format!(" {:>8.2} ms |", c.sim_ms)),
                    None => out.push_str(&format!(" {:>11} |", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Cell accessor by (region size, pages).
    pub fn cell(&self, size: u64, pages: u64) -> Option<Cell> {
        let row = REGION_SIZES.iter().position(|&s| s == size)?;
        let col = TOUCH_PAGES.iter().position(|&p| p == pages)?;
        self.cells[row][col]
    }

    /// JSON encoding, shape-compatible with the former serde derive:
    /// `{"label":"...","cells":[[{"sim_ms":..,"wall_us":..}|null,..],..]}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|row| {
                let cols: Vec<String> = row
                    .iter()
                    .map(|cell| match cell {
                        Some(c) => c.to_json(),
                        None => "null".to_string(),
                    })
                    .collect();
                format!("[{}]", cols.join(","))
            })
            .collect();
        format!(
            "{{\"label\":{},\"cells\":[{}]}}",
            json::string(&self.label),
            rows.join(",")
        )
    }
}

impl Cell {
    /// JSON encoding: `{"sim_ms":..,"wall_us":..}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sim_ms\":{},\"wall_us\":{}}}",
            json::number(self.sim_ms),
            json::number(self.wall_us)
        )
    }
}

/// Minimal JSON encoding helpers for the `--json` output of the bench
/// binaries (the workspace builds offline, without serde).
pub mod json {
    /// Encodes a string with the escapes JSON requires.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Encodes an `f64` (JSON has no NaN/infinity; those become null).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Encodes a homogeneous array from already-encoded JSON values.
    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let items: Vec<String> = items.into_iter().collect();
        format!("[{}]", items.join(","))
    }

    /// Incremental JSON object builder — the one `--json` serialization
    /// path every bench binary shares. Field order is insertion order,
    /// so output is deterministic.
    #[derive(Default)]
    pub struct Obj {
        fields: Vec<String>,
    }

    impl Obj {
        /// An empty object; usually seeded with [`Obj::bench`].
        pub fn new() -> Obj {
            Obj::default()
        }

        /// The standard envelope: `{"bench":"<name>",...}`.
        pub fn bench(name: &str) -> Obj {
            Obj::new().str("bench", name)
        }

        /// Adds a string field.
        pub fn str(self, key: &str, value: &str) -> Obj {
            self.raw(key, &string(value))
        }

        /// Adds a float field.
        pub fn num(self, key: &str, value: f64) -> Obj {
            self.raw(key, &number(value))
        }

        /// Adds an integer field.
        pub fn int(self, key: &str, value: u64) -> Obj {
            self.raw(key, &value.to_string())
        }

        /// Adds a boolean field.
        pub fn bool(self, key: &str, value: bool) -> Obj {
            self.raw(key, if value { "true" } else { "false" })
        }

        /// Adds a field whose value is already-encoded JSON (an array,
        /// a nested object, `null`).
        pub fn raw(mut self, key: &str, encoded: &str) -> Obj {
            self.fields.push(format!("{}:{}", string(key), encoded));
            self
        }

        /// Finishes the object.
        pub fn build(self) -> String {
            format!("{{{}}}", self.fields.join(","))
        }
    }
}

/// The common CLI every bench binary shares: `--json` switches to the
/// machine-readable envelope, `--quick` selects the reduced CI shape,
/// and bin-specific flags are inspected with [`BenchArgs::flag`] /
/// [`BenchArgs::value`].
pub struct BenchArgs {
    /// Emit the JSON envelope instead of human-readable text.
    pub json: bool,
    /// Run the reduced shape (CI smoke).
    pub quick: bool,
    args: Vec<String>,
}

/// Parses the process arguments into a [`BenchArgs`].
pub fn bench_args() -> BenchArgs {
    BenchArgs::parse(std::env::args().skip(1))
}

impl BenchArgs {
    /// Parses an explicit argument list (tests).
    pub fn parse(args: impl IntoIterator<Item = String>) -> BenchArgs {
        let args: Vec<String> = args.into_iter().collect();
        BenchArgs {
            json: args.iter().any(|a| a == "--json"),
            quick: args.iter().any(|a| a == "--quick"),
            args,
        }
    }

    /// Whether a bare flag (e.g. `--verbose`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The operand following a valued flag (`--threads 4`), if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.get(at + 1).map(String::as_str)
    }

    /// Selects between a full and a quick shape.
    pub fn shape<'a, T>(&self, full: &'a T, quick: &'a T) -> &'a T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Runs the same seedless deterministic scenario twice and asserts the
/// extracted fingerprints (simulated clock, counters — anything
/// `PartialEq`) agree bit for bit. The shared self-check the ablation
/// binaries run before measuring: a benchmark whose workload is not
/// reproducible is reporting noise.
pub fn assert_deterministic<K: PartialEq + std::fmt::Debug>(
    what: &str,
    mut run: impl FnMut() -> K,
) {
    let a = run();
    let b = run();
    assert!(
        a == b,
        "{what} is not deterministic:\n  first:  {a:?}\n  second: {b:?}"
    );
}

/// Runs one measured closure, returning simulated ms + wall-clock µs.
pub fn measure<G: Gmi>(world: &World<G>, mut f: impl FnMut()) -> Cell {
    // Warm once (allocator paths), then measure the average of ITERS.
    f();
    let sim0 = world.model.now();
    let wall0 = std::time::Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let sim_ms = world.model.now().since(sim0).millis() / ITERS as f64;
    let wall_us = wall0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
    Cell { sim_ms, wall_us }
}

/// Table 6: zero-filled memory allocation. Creates a region of each
/// size, touches (writes one byte into) the first N pages to demand
/// zero-filled memory, and destroys everything.
pub fn run_table6<G: Gmi>(world: &World<G>, label: &str) -> Matrix {
    let base = VirtAddr(0x100_0000);
    let ctx = world.gmi.context_create().expect("ctx");
    let mut cells = Vec::new();
    for &size in &REGION_SIZES {
        let mut row = Vec::new();
        for &pages in &TOUCH_PAGES {
            if pages * PAGE > size {
                row.push(None);
                continue;
            }
            let cell = measure(world, || {
                let cache = world.gmi.cache_create(None).expect("cache");
                let region = world
                    .gmi
                    .region_create(ctx, base, size, Prot::RW, cache, 0)
                    .expect("region");
                for p in 0..pages {
                    world
                        .gmi
                        .vm_write(ctx, VirtAddr(base.0 + p * PAGE), &[0xA5])
                        .expect("touch");
                }
                world.gmi.region_destroy(region).expect("destroy region");
                world.gmi.cache_destroy(cache).expect("destroy cache");
            });
            row.push(Some(cell));
        }
        cells.push(row);
    }
    world.gmi.context_destroy(ctx).expect("ctx destroy");
    Matrix {
        label: label.to_string(),
        cells,
    }
}

/// Table 7: copy-on-write. The source region is created and fully
/// allocated before the measurement; the timed part creates the copy
/// (deferred), forces real copies by modifying N source pages, then
/// deallocates and destroys the copy region.
pub fn run_table7<G: Gmi>(world: &World<G>, label: &str) -> Matrix {
    let src_base = VirtAddr(0x100_0000);
    let cpy_base = VirtAddr(0x800_0000);
    let mut cells = Vec::new();
    for &size in &REGION_SIZES {
        let mut row = Vec::new();
        for &pages in &TOUCH_PAGES {
            if pages * PAGE > size {
                row.push(None);
                continue;
            }
            // Fresh source per cell, fully allocated up front.
            let ctx = world.gmi.context_create().expect("ctx");
            let src_cache = world.gmi.cache_create(None).expect("src cache");
            world
                .gmi
                .region_create(ctx, src_base, size, Prot::RW, src_cache, 0)
                .expect("src region");
            for p in 0..size / PAGE {
                world
                    .gmi
                    .vm_write(ctx, VirtAddr(src_base.0 + p * PAGE), &[p as u8])
                    .expect("prefill");
            }
            let mut round = 0u8;
            let cell = measure(world, || {
                round = round.wrapping_add(1);
                let cpy = world.gmi.cache_create(None).expect("cpy cache");
                world
                    .gmi
                    .cache_copy(src_cache, 0, cpy, 0, size)
                    .expect("deferred copy");
                let region = world
                    .gmi
                    .region_create(ctx, cpy_base, size, Prot::RW, cpy, 0)
                    .expect("cpy region");
                // Force real copies: modify N pages of the source.
                for p in 0..pages {
                    world
                        .gmi
                        .vm_write(ctx, VirtAddr(src_base.0 + p * PAGE), &[round])
                        .expect("dirty source");
                }
                world.gmi.region_destroy(region).expect("destroy region");
                world.gmi.cache_destroy(cpy).expect("destroy cpy");
            });
            row.push(Some(cell));
            world.gmi.context_destroy(ctx).expect("ctx destroy");
            world.gmi.cache_destroy(src_cache).expect("src destroy");
        }
        cells.push(row);
    }
    Matrix {
        label: label.to_string(),
        cells,
    }
}

/// Paper reference values (ms) for side-by-side printing.
pub mod paper {
    /// Table 6, Chorus rows (ms), indexed by region then pages.
    pub const TABLE6_CHORUS: [[Option<f64>; 4]; 3] = [
        [Some(0.350), Some(1.50), None, None],
        [Some(0.352), Some(1.60), Some(36.6), None],
        [Some(0.390), Some(1.63), Some(37.7), Some(145.9)],
    ];
    /// Table 6, Mach rows (ms).
    pub const TABLE6_MACH: [[Option<f64>; 4]; 3] = [
        [Some(1.57), Some(3.12), None, None],
        [Some(1.81), Some(3.19), Some(46.8), None],
        [Some(1.89), Some(3.26), Some(47.0), Some(180.8)],
    ];
    /// Table 7, Chorus rows (ms).
    pub const TABLE7_CHORUS: [[Option<f64>; 4]; 3] = [
        [Some(0.4), Some(2.10), None, None],
        [Some(0.7), Some(2.47), Some(55.7), None],
        [Some(2.4), Some(4.2), Some(57.2), Some(221.9)],
    ];
    /// Table 7, Mach rows (ms).
    pub const TABLE7_MACH: [[Option<f64>; 4]; 3] = [
        [Some(2.7), Some(4.82), None, None],
        [Some(2.9), Some(5.12), Some(66.4), None],
        [Some(3.08), Some(5.18), Some(67.0), Some(256.41)],
    ];

    /// Renders a reference matrix in the same layout.
    pub fn render(label: &str, table: &[[Option<f64>; 4]; 3]) -> String {
        let mut out = String::new();
        out.push_str(&format!("{label} (paper, ms)\n"));
        out.push_str("  region size |     0 pages |     1 pages |    32 pages |   128 pages |\n");
        out.push_str(&format!("  {}\n", "-".repeat(70)));
        for (row, &size) in super::REGION_SIZES.iter().enumerate() {
            out.push_str(&format!("  {:>8} KB |", size / 1024));
            for cell in &table[row] {
                match cell {
                    Some(v) => out.push_str(&format!(" {v:>8.2} ms |")),
                    None => out.push_str(&format!(" {:>11} |", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Convenience: a fully-populated anonymous cache of `pages` pages.
pub fn filled_cache<G: Gmi>(world: &World<G>, pages: u64, tag: u8) -> CacheId {
    let cache = world.gmi.cache_create(None).expect("cache");
    for p in 0..pages {
        let data = vec![tag.wrapping_add(p as u8); 16];
        world.gmi.cache_write(cache, p * PAGE, &data).expect("fill");
    }
    cache
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_args_parse_flags_and_values() {
        let a = BenchArgs::parse(
            ["--json", "--threads", "4", "--verbose"]
                .into_iter()
                .map(String::from),
        );
        assert!(a.json);
        assert!(!a.quick);
        assert!(a.flag("--verbose"));
        assert_eq!(a.value("--threads"), Some("4"));
        assert_eq!(a.value("--missing"), None);
        let full = 10u64;
        let quick = 2u64;
        assert_eq!(*a.shape(&full, &quick), 10);
        assert_eq!(
            *BenchArgs::parse(["--quick".to_string()]).shape(&full, &quick),
            2
        );
    }

    #[test]
    fn assert_deterministic_accepts_stable_runs() {
        let mut n = 0u64;
        assert_deterministic("counter", || {
            n += 1;
            42u64
        });
        assert_eq!(n, 2, "the self-check runs the scenario twice");
    }

    #[test]
    fn table6_pvm_matches_paper_within_tolerance() {
        let world = pvm_world(512);
        let m = run_table6(&world, "Chorus (PVM)");
        // Calibration check: each defined cell within 15% of the paper.
        for (row, &size) in REGION_SIZES.iter().enumerate() {
            for (col, &pages) in TOUCH_PAGES.iter().enumerate() {
                let Some(reference) = paper::TABLE6_CHORUS[row][col] else {
                    continue;
                };
                let got = m.cells[row][col].expect("cell").sim_ms;
                let err = (got - reference).abs() / reference;
                assert!(
                    err < 0.15,
                    "{size}B/{pages}p: got {got:.3} ms, paper {reference:.3} ms ({:.0}% off)",
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn table7_pvm_matches_paper_shape() {
        let world = pvm_world(512);
        let m = run_table7(&world, "Chorus (PVM)");
        // Structural checks: deferred copy cost is near-independent of
        // size; per-page COW cost dominates.
        let defer_small = m.cell(8 * 1024, 0).unwrap().sim_ms;
        let defer_large = m.cell(1024 * 1024, 0).unwrap().sim_ms;
        assert!(
            defer_small < 1.0,
            "deferred copy of 8 KB: {defer_small:.3} ms"
        );
        assert!(
            defer_large < 4.0,
            "deferred copy of 1 MB: {defer_large:.3} ms"
        );
        // Pinned: the write to the one source page re-protects the
        // entry already there in place instead of unmapping and mapping
        // it again (DESIGN.md §5).
        let one = m.cell(8 * 1024, 1).unwrap().sim_ms;
        assert_eq!(format!("{one:.2}"), "2.09", "8 KB / 1 page: {one} ms");
        let full = m.cell(1024 * 1024, 128).unwrap().sim_ms;
        let reference = paper::TABLE7_CHORUS[2][3].unwrap();
        let err = (full - reference).abs() / reference;
        assert!(
            err < 0.15,
            "128-page COW: got {full:.1} ms vs paper {reference:.1} ms"
        );
    }

    #[test]
    fn shadow_is_structurally_more_expensive_on_copies() {
        let pvm = pvm_world(512);
        let shadow = shadow_world(512);
        let mp = run_table7(&pvm, "pvm");
        let ms = run_table7(&shadow, "shadow");
        // The paper's qualitative claims that survive the substitution
        // (see EXPERIMENTS.md): whenever real copying happens (pages >=
        // 1) the history technique beats the shadow pair, and the
        // small-fragment constant favours Chorus. The 0-page cells of
        // larger regions are the one place the baseline wins in steady
        // state (repeat copies shadow an already-empty top object and
        // skip re-protection — visible in the paper's own Mach column
        // being nearly size-independent).
        // (a) The whole small-fragment row (8 KB) favours the history
        // technique.
        for &pages in &[0u64, 1] {
            let p = mp.cell(8 * 1024, pages).unwrap().sim_ms;
            let s = ms.cell(8 * 1024, pages).unwrap().sim_ms;
            assert!(
                p < s,
                "8 KB / {pages} pages: pvm {p:.3} ms vs shadow {s:.3} ms"
            );
        }
        // (b) The marginal cost of an actual copy-on-write fault is
        // lower with history objects (no chain walk).
        let p_marginal = (mp.cell(1024 * 1024, 128).unwrap().sim_ms
            - mp.cell(1024 * 1024, 0).unwrap().sim_ms)
            / 128.0;
        let s_marginal = (ms.cell(1024 * 1024, 128).unwrap().sim_ms
            - ms.cell(1024 * 1024, 0).unwrap().sim_ms)
            / 128.0;
        assert!(
            p_marginal < s_marginal,
            "per-page COW: pvm {p_marginal:.3} ms vs shadow {s_marginal:.3} ms"
        );
    }
}

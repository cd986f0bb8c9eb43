//! Regenerates Table 5: component sizes, with the paper's machine-
//! independent / machine-dependent split mapped onto this repository's
//! crates (lines counted include comments and docs, like the paper's
//! "lines of code includes header files and comments").
//!
//! Usage: `cargo run -p chorus-bench --bin table5`

use std::path::Path;

/// Lines of a `.rs` file, or of every `.rs` file under a directory.
fn count_lines(path: &Path) -> u64 {
    if path.extension().is_some_and(|e| e == "rs") {
        return std::fs::read_to_string(path).map_or(0, |text| text.lines().count() as u64);
    }
    std::fs::read_dir(path)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| count_lines(&entry.path()))
        .sum()
}

fn main() {
    // Locate the workspace root relative to this binary's manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crate_lines = |name: &str| count_lines(&root.join("crates").join(name).join("src"));

    println!("Table 5 (analogue): Chorus memory-management component sizes\n");
    println!("Machine-Independent Part                         paper (C++ lines)");
    let gmi = crate_lines("gmi");
    let nucleus = crate_lines("nucleus") + crate_lines("mix");
    let pvm = crate_lines("pvm");
    // Counters, per-entity rows, pvmtop, dumps and the tracer: what the
    // paper's PVM does not have, counted apart from the core it
    // compares with.
    let pvm_src = root.join("crates/pvm/src");
    let observability: u64 = ["stats.rs", "telemetry.rs", "pvmtop.rs", "debug.rs", "trace"]
        .iter()
        .map(|f| count_lines(&pvm_src.join(f)))
        .sum();
    println!("  GMI definition (chorus-gmi)        {gmi:>6}      (interface tables)");
    println!("  Nucleus MM part (nucleus+mix)      {nucleus:>6}      1820");
    println!(
        "  PVM core                           {:>6}      1980",
        pvm - observability
    );
    println!("  PVM observability                  {observability:>6}");
    println!(
        "  total                              {:>6}      3700",
        gmi + nucleus + pvm
    );

    println!("\nMMU-Dependent Part                               paper (C++ lines)");
    let hal = crate_lines("hal");
    println!("  simulated hardware + MMU back-ends {hal:>6}      790-1120 per MMU");
    println!(
        "\n(The paper's point — a small swappable machine-dependent layer —\n\
         is reproduced by the chorus-hal Mmu trait with two back-ends\n\
         validated by one conformance suite; everything above it is\n\
         machine independent.)"
    );

    println!("\nComparator (not in the paper's table):");
    println!(
        "  shadow-object baseline              {:>6}",
        crate_lines("shadow")
    );
    println!(
        "  bench harness                       {:>6}",
        crate_lines("bench")
    );
}

//! Regenerates Table 5: component sizes, with the paper's machine-
//! independent / machine-dependent split mapped onto this repository's
//! crates. Every row counts like for like: the lines of each file up to
//! its first `#[cfg(test)]` item (its unit tests), comments and docs
//! included, like the paper's "lines of code includes header files and
//! comments"; a test-only module (`#[cfg(test)] mod x;`) is skipped.
//!
//! Usage: `cargo run -p chorus-bench --bin table5`

use std::path::Path;

/// Non-test lines of a `.rs` file, or of every `.rs` file under a
/// directory but the test-only modules its files declare.
fn count_lines(path: &Path) -> u64 {
    if path.extension().is_some_and(|e| e == "rs") {
        return std::fs::read_to_string(path).map_or(0, |text| non_test(&text).0);
    }
    let entries: Vec<_> = std::fs::read_dir(path)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .collect();
    let test_only: Vec<String> = entries
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .flat_map(|p| non_test(&std::fs::read_to_string(p).unwrap_or_default()).1)
        .collect();
    entries
        .iter()
        .filter(|p| {
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            !test_only.iter().any(|m| m == stem)
        })
        .map(|p| count_lines(p))
        .sum()
}

/// The lines of `text` before its first `#[cfg(test)]` item, and the
/// names of the test-only modules it declares on the way (such a
/// declaration does not end the count).
fn non_test(text: &str) -> (u64, Vec<String>) {
    let mut lines = text.lines();
    let (mut count, mut test_only) = (0, Vec::new());
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]" {
            let item = lines.next().unwrap_or("").trim();
            let item = item
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ");
            match item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
                Some(module) => test_only.push(module.to_string()),
                None => break,
            }
            continue;
        }
        count += 1;
    }
    (count, test_only)
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

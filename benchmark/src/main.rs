//! The repository's end-to-end scoreboard. See `benchmark/README.md`.
//!
//! `benchmark/run.sh` builds this binary in release mode and runs it.
//! With `--workload` it runs that workload once in this process and
//! prints its metrics, ending with the one-line JSON result the
//! benchmark contract asks for. Without, it runs every workload, each
//! in a process of its own (`--check` and `--aa` compare such runs).

mod hist;
mod measure;
mod metrics;
mod probe;
mod rng;
mod run;
mod trace;
mod workloads;
mod world;

use metrics::{END_TO_END, RUN_SECONDS};
use run::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Spec, SPECS};

const DEFAULT_SEED: u64 = 1989;
/// `--smoke` measures for this long.
const SMOKE_SECONDS: f64 = 1.0;
/// The traced run's `harness.attribution_gap` may not exceed this.
const MAX_ATTRIBUTION_GAP: f64 = 0.02;

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                        [--traced] [--smoke] [--check] [--aa]
  --workload W   run one workload in this process (the benchmark contract's form)
  --seed N       seed of the op streams (default 1989)
  --seconds S    how long a run measures (default 10; the op count follows from it)
  --trace 0|1    with --workload: 0 prints the end-to-end metrics, 1 the per-layer ones
  --traced       without --workload: also make the traced run of every workload
  --smoke        measure for 1 s and set up once
  --check        determinism self-test at --smoke size; exits non-zero on a miss
  --aa           run the full set twice and apply the bounds; exits non-zero on a miss";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    smoke: bool,
    check: bool,
    aa: bool,
    print_benchmark_json: bool,
    out_dir: PathBuf,
    /// `rustc -V` and `git rev-parse HEAD`, as `run.sh` found them.
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        traced: false,
        smoke: false,
        check: false,
        aa: false,
        print_benchmark_json: false,
        out_dir: PathBuf::from("benchmark/out"),
        rustc: "unknown".to_string(),
        commit: "unknown".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--rustc" => args.rustc = value()?,
            "--commit" => args.commit = value()?,
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--aa" => args.aa = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The benchmark measures the shipped configuration only.
fn check_environment() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "debug build: PvmConfig::check_invariants defaults to on; build with --release"
                .to_string(),
        );
    }
    for knob in ["CHORUS_PARALLEL_FAULTS", "CHORUS_TRACE"] {
        if std::env::var_os(knob).is_some() {
            return Err(format!("{knob} is set: it changes the product's defaults"));
        }
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args, spec: &Spec) -> ExitCode {
    let (seconds, setups) = if args.smoke {
        (SMOKE_SECONDS, 1)
    } else {
        (args.seconds, run::SETUPS)
    };
    if spec.threads > nproc() {
        eprintln!(
            "warning: {} runs {} threads on {} hardware thread(s); its numbers say nothing about scaling",
            spec.name,
            spec.threads,
            nproc()
        );
    }
    println!(
        "# scoreboard workload={} seed={} seconds={} trace={} threads={} nproc={} rustc={:?} commit={}",
        spec.name,
        args.seed,
        seconds,
        u8::from(args.trace),
        spec.threads,
        nproc(),
        args.rustc,
        args.commit
    );
    let result = if args.trace {
        let file = args.out_dir.join(format!("{}.trace.json", spec.name));
        run::per_layer(spec, args.seed, seconds, &file)
    } else {
        run::end_to_end(spec, args.seed, seconds, setups)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} could not be set up or torn down: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    print_outcome(&outcome);
    ExitCode::SUCCESS
}

fn print_outcome(o: &Outcome) {
    for note in &o.notes {
        println!("# {note}");
    }
    for (name, value) in &o.exact {
        println!("exact\t{name}\t{value}");
    }
    println!(
        "ops_attempted\t{}\nops_failed\t{}\ncorrect\t{}",
        o.attempted, o.failed, o.correct
    );
    let mut json = Vec::new();
    for (name, value, unit) in o.metrics.rows() {
        println!("metric\t{name}\t{value}\t{unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        json.join(", ")
    );
}

// ----- runs in child processes: the full set, --check, --aa ---------------------

/// What the parent reads back from one child run.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
    ok: bool,
}

/// Runs one workload in a child process, echoing its output.
fn child(args: &Args, spec: &Spec, seed: u64, trace: bool, smoke: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rustc", &args.rustc, "--commit", &args.commit])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        metrics: BTreeMap::new(),
        exact: BTreeMap::new(),
        ok: output.status.success(),
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[..] {
            ["metric", name, value, _unit] => {
                run.metrics
                    .insert(name.to_string(), value.parse().expect("a number"));
            }
            ["exact", name, value] => {
                run.exact.insert(name.to_string(), value.to_string());
            }
            ["ops_failed", n] => run.ok &= n == "0",
            ["correct", c] => run.ok &= c == "true",
            _ => {}
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    println!();
    run
}

/// Runs every workload once (and traced, with `--traced`); returns the
/// untraced runs.
fn full_set(args: &Args, failures: &mut Vec<String>) -> Vec<ChildRun> {
    SPECS
        .iter()
        .map(|spec| {
            let plain = child(args, spec, args.seed, false, args.smoke);
            if !plain.ok {
                failures.push(format!("{}: failed ops or wrong outputs", spec.name));
            }
            if args.traced {
                let t = child(args, spec, args.seed, true, args.smoke);
                if !t.ok {
                    failures.push(format!(
                        "{} (traced): failed ops or wrong outputs",
                        spec.name
                    ));
                }
                let gap = t.metrics.get("harness.attribution_gap").copied();
                if gap.is_none_or(|g| g > MAX_ATTRIBUTION_GAP) {
                    failures.push(format!(
                        "{}: harness.attribution_gap {gap:?} exceeds {MAX_ATTRIBUTION_GAP}",
                        spec.name
                    ));
                }
            }
            plain
        })
        .collect()
}

fn differing(a: &BTreeMap<String, String>, b: &BTreeMap<String, String>) -> Vec<String> {
    a.iter()
        .filter(|(k, v)| b.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
        .collect()
}

/// `--check`: each one-thread workload repeats exactly for one seed and
/// generates a different stream for another; `BENCHMARK.json`, if it is
/// in the working directory, matches the metric tables.
fn check(args: &Args, failures: &mut Vec<String>) {
    for spec in SPECS.iter().filter(|s| s.threads == 1) {
        let first = child(args, spec, args.seed, false, true);
        let second = child(args, spec, args.seed, false, true);
        let other = child(args, spec, args.seed + 1, false, true);
        if !(first.ok && second.ok && other.ok) {
            failures.push(format!("{}: failed ops or wrong outputs", spec.name));
        }
        for miss in differing(&first.exact, &second.exact) {
            failures.push(format!("{}: not deterministic: {miss}", spec.name));
        }
        if first.exact.get("stream_fp") == other.exact.get("stream_fp") {
            failures.push(format!(
                "{}: the seed does not change the stream",
                spec.name
            ));
        }
    }
    if let Ok(committed) = std::fs::read_to_string("BENCHMARK.json") {
        if committed != metrics::benchmark_json() {
            failures.push(
                "BENCHMARK.json differs from `scoreboard --print-benchmark-json`".to_string(),
            );
        }
    }
}

/// `--aa`: two full sets of the same commit agree within the bounds,
/// and on one thread every exact quantity repeats.
fn aa(args: &Args, failures: &mut Vec<String>) {
    let first = full_set(args, failures);
    let second = full_set(args, failures);
    for ((spec, a), b) in SPECS.iter().zip(&first).zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let worse = if m.better == "lower" { y / x } else { x / y } - 1.0;
            let verdict = if worse > m.bound { "MISS" } else { "ok" };
            println!(
                "aa\t{}\t{}\t{x}\t{y}\t{:+.4}\tbound {}\t{verdict}",
                spec.name, m.name, worse, m.bound
            );
            if worse > m.bound {
                failures.push(format!(
                    "{}: {} went from {x} to {y}, beyond its bound {}",
                    spec.name, m.name, m.bound
                ));
            }
        }
        if spec.threads == 1 {
            for miss in differing(&a.exact, &b.exact) {
                failures.push(format!("{}: not deterministic: {miss}", spec.name));
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = check_environment() {
        eprintln!("error: refusing to measure: {e}");
        return ExitCode::from(2);
    }
    if let Some(name) = &args.workload {
        return match SPECS.iter().find(|s| s.name == name) {
            Some(spec) => run_one(&args, spec),
            None => {
                let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                eprintln!("error: no workload {name}; there are {names:?}");
                ExitCode::from(2)
            }
        };
    }
    let mut failures = Vec::new();
    if args.check {
        check(&args, &mut failures);
    } else if args.aa {
        aa(&args, &mut failures);
    } else {
        full_set(&args, &mut failures);
    }
    for failure in &failures {
        println!("FAIL {failure}");
    }
    if failures.is_empty() {
        println!("scoreboard: all runs correct");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

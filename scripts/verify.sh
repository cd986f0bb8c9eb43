#!/usr/bin/env bash
# Tier-1 verification wrapper for this workspace.
#
# Runs the full check sequence from .claude/skills/verify/SKILL.md:
# release build, test suite, format gate, clippy gate, doc gate
# (rustdoc warnings are errors), the writeback-pipeline smoke
# (clustering must cut pushOut requests >=4x and no row may lose a
# page),
# the pressure smoke (the deadline watchdog must bound hung-upcall
# stalls with zero data loss), the read-ahead
# smoke (a sequential stream must amortize pullIn upcalls and, pulled
# ahead, not wait for them; random misses must not pay for it), the
# mapper-fault
# smoke (retries must heal transient faults with zero client errors),
# the telemetry smoke (the knob must be free when off — bit-identical
# sim clocks — and cost <=5% wall when on, with pvmtop attributing a
# seeded hot-cache/sick-mapper scenario), the replacement smoke (the
# clock and the externally advised clock race the three
# ablation_policies scenarios with per-combo determinism self-checks
# and byte-verified workloads, and at full size the clock must pull
# fewer hot pages back than it did without hardware referenced bits),
# the pvmtop render smoke, the one-of-each gate (no allow(deprecated),
# no SyncShim outside its definition), the
# release-mode concurrency stress, the tracing
# bit-identity check (Table 5 regenerated with CHORUS_TRACE=1 must
# match the committed reports/table5.txt byte for byte — the
# determinism rule: no trace call may advance the cost-model clock),
# and the end-to-end scoreboard (benchmark/) at smoke size plus its
# determinism self-test: every workload must finish with 0 failed ops
# and correct bytes, and the one-thread workloads must repeat their
# `exact` lines run to run.
#
# Every ablation smoke tees its --json output to a stable
# BENCH_<name>.json at the repo root; the committed copies are the
# reference artifacts, and the final step runs scripts/bench_diff.py
# fresh-vs-committed: deterministic (sim-clock / fault-counter) drift
# fails the run, wall-clock drift is warn-only.
#
# Usage: scripts/verify.sh            (from the repo root or anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

# The smokes below tee fresh --json output over the committed
# BENCH_<name>.json references, so snapshot the committed copies first;
# the drift report at the end compares fresh against snapshot.
tmp=$(mktemp)
refdir=$(mktemp -d)
trap 'rm -f "$tmp"; rm -rf "$refdir"' EXIT
cp BENCH_*.json "$refdir"/ 2>/dev/null || true

step "cargo build --release"
cargo build --release

step "cargo test -q (the workspace's default members)"
cargo test -q

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --no-deps (warnings are errors)"
# Only the chorus crates: the vendored third-party members are not
# held to this repo's documentation standard.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p chorus-hal -p chorus-gmi -p chorus-pvm -p chorus-shadow \
  -p chorus-nucleus -p chorus-mix -p chorus-rtmm -p chorus-bench \
  -p chorus-vm

step "ablation_writeback --quick: clustering amortizes, no page lost"
cargo run --release -q -p chorus-bench --bin ablation_writeback -- --json --quick |
  tee BENCH_writeback.json |
  python3 -c '
import json, sys
rows = {r["cluster"]: r for r in json.load(sys.stdin)["rows"]}
base, clustered = rows[1], rows[8]
assert clustered["pushout_upcalls"] * 4 <= base["pushout_upcalls"], (base, clustered)
assert all(r["lost_pages"] == 0 for r in rows.values()), rows
print("ok: pushOut upcalls %d -> %d (>=4x), 0 lost pages"
      % (base["pushout_upcalls"], clustered["pushout_upcalls"]))
'

step "ablation_pressure --quick: the deadline bounds hung-upcall stalls"
# The bench asserts internally that no configuration loses data, that
# the deadline cuts the hung-reply stall by >=100x, and that the whole
# layer is deterministic across re-runs.
cargo run --release -q -p chorus-bench --bin ablation_pressure -- --json --quick |
  tee BENCH_pressure.json |
  python3 -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
assert len(rows) == 3 and all(r["lost_pages"] == 0 for r in rows), rows
bare = next(r for r in rows if r["hang"] and not r["deadline"])
dog = next(r for r in rows if r["hang"] and r["deadline"])
assert dog["sim_ms"] * 100 < bare["sim_ms"], (bare, dog)
assert dog["watchdog_cancels"] >= 1 and dog["suspected_mappers"] >= 1, dog
print("ok: hung-reply stall %.0f ms -> %.1f ms" % (bare["sim_ms"], dog["sim_ms"]))
'

step "ablation_readahead: streams amortize pullIn upcalls, random misses pay nothing"
cargo run --release -q -p chorus-bench --bin ablation_readahead -- --json |
  tee BENCH_readahead.json |
  python3 -c '
import json, sys
rows = {r["shape"]: r for r in json.load(sys.stdin)["rows"]}
seq, two, rand = rows["sequential"], rows["two-streams"], rows["random"]
for r in (seq, two):
    assert r["pulled_pages"] >= 6 * r["pull_ins"], r
    assert r["readahead_unused"] == 0, r
assert rand["pulled_pages"] <= 1.05 * rand["pull_ins"], rand
assert seq["sim_ms"] * 2 < rand["sim_ms"], (seq, rand)
# Ahead pulls: a full-window stream does not wait for its round trips
# (1926.2 / 1700.8 ms before them), and makes no more of them (54 / 57
# / 173 pullIns before; stepping over resident pages saves seq+random
# a few). A miss that continues no stream is untouched, to the cent.
assert seq["sim_ms"] <= 1400 and two["sim_ms"] <= 1100, (seq, two)
assert seq["ahead_pulls"] * 2 > seq["pull_ins"], seq
for shape, pulls in (("sequential", 54), ("two-streams", 58), ("seq+random", 168)):
    assert abs(rows[shape]["pull_ins"] - pulls) <= 2, rows[shape]
assert (rand["pull_ins"], rand["ahead_pulls"], round(rand["sim_ms"], 2)) == (262, 0, 6060.53), rand
print("ok: %.1f pages/pull sequential, %.1f two streams, %.2f random"
      % tuple(r["pulled_pages"] / r["pull_ins"] for r in (seq, two, rand)))
'

step "ablation_policies --quick: clock vs external, raced"
# The bench asserts internally that every combination re-runs
# bit-identically (per-combo determinism self-check on the writeback
# scenario), that a config which never names the policy section is
# bit-identical to an explicit clock selection, and that each
# workload's bytes survive every policy (no dirty-page loss).
cargo run --release -q -p chorus-bench --bin ablation_policies -- --json --quick |
  tee BENCH_policies.json |
  python3 -c '
import json, sys
out = json.load(sys.stdin)
rows = out["rows"]
kinds = {"clock", "external"}
for scenario in ("scale", "writeback", "pressure"):
    have = {r["replacement"] for r in rows if r["scenario"] == scenario}
    assert have == kinds, (scenario, have)
assert all(r["victims"] >= r["evictions"] > 0 for r in rows), \
    "an eviction bypassed the policy engine"
ext = [r for r in rows if r["replacement"] == "external"]
assert ext and all(r["external_batches"] > 0 for r in ext), ext
print("ok: %d rows, every eviction policy-driven" % len(rows))
'

step "ablation_policies (full shape): the clock sees the hot set"
# With a software-only reference bit the clock could not tell the hot
# pages of `pressure` from the cold stream and pulled 267 pages. (The
# --quick shape cannot show it: its three rounds keep the hand four
# pages ahead of the rewrite whatever the clock knows, 102 pulls.)
cargo run --release -q -p chorus-bench --bin ablation_policies -- --json |
  python3 -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
clock = next(r for r in rows
             if r["scenario"] == "pressure" and r["replacement"] == "clock")
assert clock["pull_ins"] < 267, clock
print("ok: clock pulls %d pages under hot/cold pressure (267 without "
      "hardware referenced bits)" % clock["pull_ins"])
'

step "ablation_mapper_faults: retries heal transient faults"
cargo run --release -q -p chorus-bench --bin ablation_mapper_faults -- --json |
  tee BENCH_mapper_faults.json |
  python3 -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
hot = [r for r in rows if r["fault_per_mille"] == 200]
no_retry = next(r for r in hot if r["policy"] == "no_retry")
retry = next(r for r in hot if r["policy"] == "default")
assert retry["client_errors"] == 0 and retry["mapper_retries"] > 0, retry
assert no_retry["client_errors"] > 0, no_retry
print("ok: client errors %d -> 0 with retries (%d kernel retries)"
      % (no_retry["client_errors"], retry["mapper_retries"]))
'

step "ablation_telemetry --quick: knob free when off, <=5% wall when on"
# The bench asserts internally that the simulated clocks are
# bit-identical with the knob off and on, that the wall overhead stays
# within 5%, and that pvmtop ranks the seeded hot cache first and flags
# the dead mapper Quarantined.
cargo run --release -q -p chorus-bench --bin ablation_telemetry -- --json --quick |
  tee BENCH_telemetry.json |
  python3 -c '
import json, sys
out = json.load(sys.stdin)
assert out["sim_identical"], out
assert out["overhead_ok"], out
assert out["hot_cache_first"] and out["sick_quarantined"], out
print("ok: wall overhead %+.2f%%, hot cache first, sick mapper quarantined"
      % ((out["overhead_ratio"] - 1) * 100))
'

step "pvmtop: snapshot renders and self-checks"
cargo run --release -q -p chorus-bench --bin pvmtop -- --json |
  python3 -c '
import json, sys
out = json.load(sys.stdin)
assert out["hot_cache_first"] and out["sick_quarantined"], out
assert out["top_caches"][0]["faults"] >= out["top_caches"][-1]["faults"], out
print("ok: %d caches, %d mappers, hottest first" % (out["caches"], out["mappers"]))
'

step "one of each behind the upcall: no allow(deprecated), no SyncShim"
# One upcall trait: nothing in the workspace needs a deprecation
# silenced, and the fieldless SyncShim (kept for the frozen benchmark/)
# is named only where it is defined and re-exported.
if grep -rn 'allow(deprecated)' crates src tests examples; then
  echo "FAIL: #[allow(deprecated)] is back"; exit 1
fi
if grep -rn 'SyncShim' crates src tests examples |
  grep -v '^crates/gmi/src/\(traits\|lib\)\.rs:'; then
  echo "FAIL: SyncShim named outside crates/gmi/src/{traits,lib}.rs"; exit 1
fi
echo "ok"

step "release-mode concurrent_faults stress"
cargo test --release -q -p chorus-pvm --test concurrent_faults

step "tracing bit-identity: table5 with CHORUS_TRACE=1 vs committed report"
CHORUS_TRACE=1 cargo run --release -q -p chorus-bench --bin table5 > "$tmp"
diff -u reports/table5.txt "$tmp" ||
  { echo "FAIL: table5 output with tracing on differs from reports/table5.txt"; exit 1; }
echo "ok"

step "scoreboard --smoke: five workloads end to end, 0 failed ops"
# benchmark/run.sh exits non-zero on a failed op or a wrong byte
# (pipefail carries that through the tail).
bash benchmark/run.sh --smoke | tail -n 1

step "scoreboard --check: exact lines repeat, BENCHMARK.json matches"
bash benchmark/run.sh --check | tail -n 1

step "bench drift vs committed references (sim/fault fields gate)"
# The deterministic fields — simulated clocks, fault and upcall
# counters — must match the committed references bit for bit; any
# drift there is a behaviour change and fails the run (regenerate and
# commit the references when the change is intended). Wall-clock
# fields and their derivatives move with the machine and stay
# warn-only. A missing reference just means the bench is new this
# cycle.
drift=0
for f in BENCH_*.json; do
  if [ -f "$refdir/$f" ]; then
    python3 scripts/bench_diff.py "$refdir/$f" "$f" || drift=1
  else
    echo "  $f: no committed reference (new bench)"
  fi
done
if [ "$drift" -ne 0 ]; then
  echo "FAIL: deterministic bench fields drifted from the committed references"
  exit 1
fi

printf '\nverify: all checks passed\n'

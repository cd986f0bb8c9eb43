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
# the telemetry smoke (pvmtop must attribute a seeded
# hot-cache/sick-mapper scenario; the always-on counter rows and gauge
# sampler are held to the sim clock by the paper-table and scoreboard
# gates below), the pvmtop render smoke, the
# one-of-each gate (no allow(deprecated), no SyncShim outside its
# definition, no victim advice beside the clock, one call site each for
# the pushOut and pullIn upcalls, no `Outcome` beside the attempt's
# `Result<T, Stop>`, one `push_loc_stub(` caller, one call site each of
# the page methods in the Nucleus segment manager, one home for the
# readahead rules: no stream field named outside streams.rs), the
# hashing gate (no std HashMap/HashSet in the kernel crates), the
# release-mode concurrency stress, the tracing bit-identity check
# (table6, table7 and figure3, which build their PVMs with
# TraceConfig::from_env(), regenerated with CHORUS_TRACE=1 must match
# their committed reports byte for byte — the determinism rule: no
# trace call may advance the cost-model clock), the table5 currency
# check (the committed line counts of reports/table5.txt are current),
# the paper-table gate (table6, table7 and figure3 regenerated must
# match their committed reports byte for byte),
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
smoke=$(mktemp)
refdir=$(mktemp -d)
trap 'rm -f "$tmp" "$smoke"; rm -rf "$refdir"' EXIT
cp BENCH_*.json reports/scoreboard_exact.txt "$refdir"/ 2>/dev/null || true

step "cargo build --release"
cargo build --release

step "cargo test -q --no-fail-fast (the workspace's default members)"
# Every test binary runs even after one fails, so a run reports all the
# failures at once; the step still fails if any test does.
cargo test -q --no-fail-fast

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
rows = {(r["frames"], r["shape"]): r for r in json.load(sys.stdin)["rows"]}
for frames in (64, 256):
    seq, two, rand = (rows[frames, s] for s in ("sequential", "two-streams", "random"))
    for r in (seq, two):
        assert r["pulled_pages"] >= 6 * r["pull_ins"], r
        assert r["readahead_unused"] == 0, r
        assert r["ahead_pulls"] * 2 > r["pull_ins"], r
    assert rand["pulled_pages"] <= 1.05 * rand["pull_ins"], rand
    assert seq["sim_ms"] * 2 < rand["sim_ms"], (seq, rand)
seq, two, rand = (rows[64, s] for s in ("sequential", "two-streams", "random"))
# 64 frames keep one window ahead of a stream (1277.1 / 987.8 ms, 54 /
# 58 / 168 pullIns before what the stream has read went to the hand).
# seq+random pulls more on this one seed (168 -> 173, 3329.0 ->
# 3461.8 ms) and not over twenty (EXPERIMENTS.md "Two windows ahead").
# A ring that keeps its order moves it again on this seed (173 -> 181,
# 3338.5 -> 3456.2 ms), and again not over twenty: LCG seeds 1..=20
# read 179.9 -> 179.6 pulls, 3594.6 -> 3586.6 ms (EXPERIMENTS.md "The
# clock keeps its order").
# A miss that continues no stream pulls its one page and nothing ahead,
# to the cent. Its fault, on a read-only region, then probes the page
# after it for a resident run to map (one 2 us global-map lookup a
# pull: 6060.53 -> 6061.06 ms, DESIGN.md section 5). The one pull of
# two pages lands its second in a later wait: one 0.87 ms
# landing hidden in idle time (6061.06 -> 6060.18 ms, DESIGN.md
# section 10).
assert seq["sim_ms"] <= 1250 and two["sim_ms"] <= 980, (seq, two)
for shape, pulls in (("sequential", 52), ("two-streams", 56), ("seq+random", 181)):
    assert abs(rows[64, shape]["pull_ins"] - pulls) <= 2, rows[64, shape]
assert (rand["pull_ins"], rand["ahead_pulls"], round(rand["sim_ms"], 2)) == (262, 0, 6060.18), rand
# 256 frames keep two windows ahead: a read of the sequential stream
# costs less than at 64 (both files are three times their pool).
per_read = lambda r: r["sim_ms"] / (2 * r["pages"])
assert per_read(rows[256, "sequential"]) < per_read(seq), (rows[256, "sequential"], seq)
print("ok: %.1f pages/pull sequential, %.1f two streams, %.2f random; "
      "%.2f -> %.2f ms a sequential read at 64 -> 256 frames"
      % (*(r["pulled_pages"] / r["pull_ins"] for r in (seq, two, rand)),
         per_read(seq), per_read(rows[256, "sequential"])))
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

step "ablation_telemetry: pvmtop attributes the seeded scenario"
# The bench asserts internally that the scenario is deterministic, that
# the gauge sampler fired, and that pvmtop ranks the seeded hot cache
# first and flags the dead mapper Quarantined. Telemetry has no knob:
# that it never touches the sim clock is held by the paper-table and
# scoreboard exact-line gates, which run with it on.
cargo run --release -q -p chorus-bench --bin ablation_telemetry -- --json |
  tee BENCH_telemetry.json |
  python3 -c '
import json, sys
out = json.load(sys.stdin)
assert out["hot_cache_first"] and out["sick_quarantined"], out
print("ok: %d samples, hot cache first, sick mapper quarantined" % out["samples"])
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

step "one of each: no allow(deprecated), no SyncShim, one replacement policy, one request path, one attempt type, one stub threading, one data path, one home for readahead"
# One upcall trait: nothing in the workspace needs a deprecation
# silenced, and the fieldless SyncShim (kept for the frozen benchmark/)
# is named only where it is defined and re-exported. One replacement
# policy, the clock: the victim-advice path is gone, and the dead
# advise_victims upcall is named only where the trait declares it (the
# frozen benchmark/src/trace.rs implements it). The hot-set tests of
# crates/pvm/tests/reference.rs hold what the clock must see.
if grep -rn 'allow(deprecated)' crates src tests examples; then
  echo "FAIL: #[allow(deprecated)] is back"; exit 1
fi
if grep -rn 'SyncShim' crates src tests examples |
  grep -v '^crates/gmi/src/\(traits\|lib\)\.rs:'; then
  echo "FAIL: SyncShim named outside crates/gmi/src/{traits,lib}.rs"; exit 1
fi
if grep -rnE 'ReplacementKind|VictimAdvice|approve_victims|EXTERNAL_BATCH|ADVICE_SEGMENT|PolicyExternal' \
  crates src tests examples; then
  echo "FAIL: a second replacement path is back"; exit 1
fi
if grep -rn 'advise_victims' crates src tests examples |
  grep -v '^crates/gmi/src/traits\.rs:'; then
  echo "FAIL: advise_victims named outside crates/gmi/src/traits.rs"; exit 1
fi
# One request path: every pullIn and every pushOut is a completion-engine
# request, so each upcall is made from exactly one call site.
# An attempt returns `Result<T, Stop>` and a block propagates with `?`:
# no second outcome type beside it.
if grep -rnw 'Outcome' crates/pvm/src | grep -v '^crates/pvm/src/modelcheck\.rs:'; then
  echo "FAIL: Outcome named in crates/pvm/src outside modelcheck.rs"; exit 1
fi
# A per-page stub is threaded on its source by `thread_cow_stub` alone.
sites=$(grep -rn 'push_loc_stub(' crates/pvm/src | grep -vc '^crates/pvm/src/gmap\.rs:')
if [ "$sites" -ne 1 ]; then
  grep -rn 'push_loc_stub(' crates/pvm/src | grep -v '^crates/pvm/src/gmap\.rs:' || true
  echo "FAIL: push_loc_stub( at $sites call sites outside gmap.rs, not one"; exit 1
fi
for upcall in submit_push submit_pull; do
  sites=$(grep -rn "seg_mgr\.$upcall(" crates/pvm/src | wc -l)
  if [ "$sites" -ne 1 ]; then
    grep -rn "seg_mgr\.$upcall(" crates/pvm/src || true
    echo "FAIL: seg_mgr.$upcall( at $sites call sites in crates/pvm/src, not one"; exit 1
  fi
done
# Pages change hands: the Nucleus segment manager moves data between
# mapper and cache by the page methods alone, one call site each (its
# unit tests, after the first #[cfg(test)], are not counted).
sm_src=$(sed '/#\[cfg(test)\]/q' crates/nucleus/src/segment_manager.rs)
for call in read_pages fill_up_pages copy_back_pages write_pages; do
  sites=$(grep -c "$call(" <<< "$sm_src" || true)
  if [ "$sites" -ne 1 ]; then
    echo "FAIL: $call( at $sites call sites in segment_manager.rs, not one"; exit 1
  fi
done
if grep -nE 'mapper\.read\(|io\.fill_up\(' <<< "$sm_src"; then
  echo "FAIL: segment_manager.rs copies bytes where pages should change hands"; exit 1
fi
# Every readahead rule lives in crates/pvm/src/streams.rs: the rest of
# the PVM calls its narrow interface and names no stream field.
if grep -rnE '\.streams\.table|\.(armed|lag|skipped)\b' crates/pvm/src |
  grep -v '^crates/pvm/src/streams\.rs:'; then
  echo "FAIL: a stream field named outside crates/pvm/src/streams.rs"; exit 1
fi
echo "ok"

step "one hashing rule: no keyed std hash table in the kernel crates"
# Every table in the kernel crates is keyed by ids the kernel issues, so
# each is an FxHashMap/FxHashSet: unkeyed, the same order every run, and
# cheap on small keys. std's HashMap/HashSet/RandomState are named only
# where the Fx aliases are defined (crates/hal/src/fx.rs) and in the
# model checker's visited set (modelcheck.rs), which is no kernel table.
if grep -rnwE 'HashMap|HashSet|RandomState' \
  crates/{hal,gmi,pvm,nucleus,mix,shadow,rtmm}/src |
  grep -v -e '/modelcheck\.rs:' -e '^crates/hal/src/fx\.rs:'; then
  echo "FAIL: a std hash table in a kernel crate (use chorus_hal::FxHashMap)"; exit 1
fi
echo "ok"

step "release-mode concurrency stress: concurrent_faults, the state lock's handoff, shared pages"
# Races only show up in release. The domains tests hand the state lock
# between two threads 200k times (a lost increment fails) and hold it
# 20 ms under a spinning waiter (it must give up and park). The
# copy-on-write isolation tests check that a page shared by a frame and
# a mapper's segment is copied by whichever side writes it.
cargo test --release -q -p chorus-pvm --test concurrent_faults
cargo test --release -q -p chorus-pvm --lib domains
cargo test --release -q -p chorus-hal --lib frame
cargo test --release -q -p chorus-nucleus --lib mapper
cargo test --release -q -p chorus-pvm --test cache_control -- a_mapped_write_ a_mapper_write_

step "tracing bit-identity: table6, table7 and figure3 with CHORUS_TRACE=1 vs committed reports"
# Each of these builds its PVM with TraceConfig::from_env(), so tracing
# is on for the whole run: a trace point that advanced the simulated
# clock would move a number.
for t in table6 table7 figure3; do
  CHORUS_TRACE=1 cargo run --release -q -p chorus-bench --bin "$t" > "$tmp"
  diff -u "reports/$t.txt" "$tmp" ||
    { echo "FAIL: $t output with tracing on differs from reports/$t.txt"; exit 1; }
done
echo "ok"

step "table5: the committed line counts are current"
cargo run --release -q -p chorus-bench --bin table5 > "$tmp"
diff -u reports/table5.txt "$tmp" ||
  { echo "FAIL: table5 output differs from reports/table5.txt (regenerate it)"; exit 1; }
echo "ok"

step "paper tables: table6, table7 and figure3 vs committed reports"
# Tracing off this time. The simulated tables are deterministic, so a
# change that moves one must regenerate and commit its report.
for t in table6 table7 figure3; do
  cargo run --release -q -p chorus-bench --bin "$t" > "$tmp"
  diff -u "reports/$t.txt" "$tmp" ||
    { echo "FAIL: $t output differs from reports/$t.txt"; exit 1; }
done
echo "ok"

step "scoreboard --smoke: five workloads end to end, 0 failed ops"
# benchmark/run.sh exits non-zero on a failed op or a wrong byte
# (pipefail carries that through the tail).
bash benchmark/run.sh --smoke | tee "$smoke" | tail -n 1

step "scoreboard exact lines vs committed reference"
# The paper workloads' `exact` lines (simulated clocks, counters, op
# counts), keyed by workload, are the committed
# reports/scoreboard_exact.txt: like the BENCH_*.json references, a
# change that moves them must regenerate and commit the file (this step
# writes the fresh copy over it). file-scan-mt runs two threads and is
# not exact.
awk '/^# scoreboard / { w = $3; sub(/^workload=/, "", w) }
     /^exact\t/ && w ~ /^(mix-make|ipc-transit|file-scan|dirty-churn)$/ { print w "\t" $2 "\t" $3 }' \
  "$smoke" > reports/scoreboard_exact.txt
diff -u "$refdir/scoreboard_exact.txt" reports/scoreboard_exact.txt ||
  { echo "FAIL: scoreboard exact lines drifted from the committed reference"; exit 1; }
echo "ok: $(wc -l < reports/scoreboard_exact.txt) exact lines match"

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

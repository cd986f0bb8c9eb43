#!/usr/bin/env bash
# Alternating scoreboard pairs: a parent revision against the working tree.
#
#   scripts/pairs.sh PARENT_REV [WORKLOAD...] [--pairs N] [--seconds S]
#                    [--seed N] [--work DIR]
#
# Exports PARENT_REV (`git archive`, so the repository gains no worktree)
# into DIR/parent and builds each side's scoreboard into a target
# directory of its own (DIR/parent-target, DIR/change-target). Then, per
# workload, it runs the parent and the change alternately, parent first,
# N times each, through each side's own `benchmark/run.sh` with
# `--trace 0`, and prints every end-to-end metric: each pair's ratio
# (change / parent), the median and interquartile range of the ratios,
# and each side's median and IQR. It also says whether the `exact` lines
# of the two sides matched in every pair. Defaults: every workload, ten
# pairs, 10 s, seed 1989, DIR = target/pairs. Raw outputs stay in DIR.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

pairs=10 seconds=10 seed=1989 work="$repo/target/pairs" parent="" workloads=()
while (($#)); do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --work) work="$2"; shift 2 ;;
        -*) echo "unknown option $1" >&2; exit 2 ;;
        *) if [[ -z "$parent" ]]; then parent="$1"; else workloads+=("$1"); fi; shift ;;
    esac
done
[[ -n "$parent" ]] || { sed -n '2,16p' "$0" >&2; exit 2; }
((${#workloads[@]})) || workloads=(mix-make ipc-transit file-scan dirty-churn file-scan-mt)

rev="$(git -C "$repo" rev-parse --verify "$parent^{commit}")"
rm -rf "$work/parent" "$work/runs"
mkdir -p "$work/parent" "$work/runs"
git -C "$repo" archive "$rev" | tar -x -C "$work/parent"

run() { # side workload index
    local root="$repo"
    [[ "$1" == parent ]] && root="$work/parent"
    CARGO_TARGET_DIR="$work/$1-target" bash "$root/benchmark/run.sh" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$work/runs/$2.$1.$3.out" 2>"$work/runs/$2.$1.$3.err"
}

echo "pairs: parent ${rev:0:12} against the working tree of $(git -C "$repo" rev-parse --short HEAD);" \
    "$pairs pairs of ${seconds} s, seed $seed, nproc $(nproc), $(rustc -V)"
for side in parent change; do # build both before anything is timed
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$([[ $side == parent ]] && echo "$work/parent" || echo "$repo")/benchmark/Cargo.toml"
done
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        run parent "$w" "$i"
        run change "$w" "$i"
    done
    python3 - "$work/runs" "$w" "$pairs" <<'EOF'
import json, statistics, sys

runs, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])

def load(side, i):
    with open(f"{runs}/{workload}.{side}.{i}.out") as f:
        lines = f.read().splitlines()
    exact = [l for l in lines if l.startswith("exact\t")]
    return json.loads(lines[-1]), exact

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[1], q[2] - q[0]

sides = [(load("parent", i), load("change", i)) for i in range(pairs)]
same = sum(p[1] == c[1] for p, c in sides)
failed = [(p[0]["failed"], c[0]["failed"]) for p, c in sides]
print(f"\n{workload}: exact lines identical in {same}/{pairs} pairs; failed ops (parent, change) {sorted(set(failed))}")
print(f"  {'metric':<16}{'ratio med':>10}{'IQR':>8}  {'parent med':>12}{'IQR':>10}  {'change med':>12}{'IQR':>10}  ratios")
for name in sides[0][0][0]["metrics"]:
    par = [p[0]["metrics"][name]["value"] for p, _ in sides]
    chg = [c[0]["metrics"][name]["value"] for _, c in sides]
    ratios = [c / p if p else float("nan") for p, c in zip(par, chg)]
    rm, ri = quartiles(ratios)
    pm, pi = quartiles(par)
    cm, ci = quartiles(chg)
    each = " ".join(f"{r:.3f}" for r in ratios)
    print(f"  {name:<16}{rm:>10.3f}{ri:>8.3f}  {pm:>12.5g}{pi:>10.4g}  {cm:>12.5g}{ci:>10.4g}  {each}")
EOF
done

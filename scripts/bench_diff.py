#!/usr/bin/env python3
"""Compare two BENCH_<name>.json artifacts field by field.

The ablation benches emit one flat JSON object with scalar headline
fields plus a "rows" array of per-configuration objects (see
scripts/verify.sh, which tees each smoke's --json output to the repo
root). This script diffs two such files — typically a committed
reference against a fresh run — and prints the per-field deltas:

    scripts/bench_diff.py BENCH_readahead.json /tmp/fresh.json

Fields split into two classes:

* **Gating** — simulated clocks, fault/eviction/upcall counters and
  every other product of the deterministic cost model. The workloads
  are seedless and the determinism rule forbids observability from
  advancing the clock, so any drift here is a behaviour change; the
  exit status is 1 and verify.sh fails.
* **Warn-only** — wall-clock times and their derivatives (speedups,
  overheads). These move with the host; they are reported but never
  fail the run.

Rows are matched positionally after checking that their identifying
fields (non-numeric, non-warn) agree; a shape mismatch is an error,
not a silent skip.

Stdlib only — no third-party imports.
"""

import json
import sys

# Substrings that mark a field as machine-dependent (wall-clock time or
# anything derived from it). Matched case-insensitively against the
# final key segment.
WARN_PATTERNS = (
    "wall",
    "speedup",
    "overhead",
)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_warn_field(key):
    k = key.lower()
    return any(p in k for p in WARN_PATTERNS)


def fmt(v):
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def sink(path, key, gating, warns):
    """The list a difference at `path` (final segment `key`) lands in."""
    return warns if is_warn_field(key) else gating


def diff_scalar(path, key, a, b, gating, warns):
    out = sink(path, key, gating, warns)
    if is_number(a) and is_number(b):
        if a == b:
            return
        delta = b - a
        if a != 0:
            rel = f" ({delta / a:+.1%})"
        else:
            rel = ""
        out.append(f"  {path}: {fmt(a)} -> {fmt(b)} [{delta:+g}{rel}]")
    elif a != b:
        out.append(f"  {path}: {a!r} -> {b!r}")


def row_identity(row):
    """The fields that name a configuration row: non-numeric,
    non-machine-dependent scalars (lists of numbers — e.g. per-rep
    wall throughputs — are measurements, not identity)."""
    return {
        k: v
        for k, v in row.items()
        if not is_number(v) and not isinstance(v, list) and not is_warn_field(k)
    }


def diff_obj(prefix, a, b, gating, warns):
    for key in a:
        if key not in b:
            gating.append(f"  {prefix}{key}: only in first file")
    for key in b:
        if key not in a:
            gating.append(f"  {prefix}{key}: only in second file")
    for key, va in a.items():
        if key not in b:
            continue
        vb = b[key]
        path = f"{prefix}{key}"
        if isinstance(va, list) and isinstance(vb, list):
            if len(va) != len(vb):
                sys.exit(f"error: {path} length differs: {len(va)} vs {len(vb)}")
            for i, (ra, rb) in enumerate(zip(va, vb)):
                if isinstance(ra, dict) and isinstance(rb, dict):
                    ida, idb = row_identity(ra), row_identity(rb)
                    if ida != idb:
                        sys.exit(
                            f"error: {path}[{i}] identifies different "
                            f"configurations: {ida} vs {idb}"
                        )
                    label = "/".join(fmt(v) for v in ida.values()) or str(i)
                    diff_obj(f"{path}[{label}].", ra, rb, gating, warns)
                else:
                    diff_scalar(f"{path}[{i}]", key, ra, rb, gating, warns)
        elif isinstance(va, dict) and isinstance(vb, dict):
            diff_obj(f"{path}.", va, vb, gating, warns)
        else:
            diff_scalar(path, key, va, vb, gating, warns)


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} <reference.json> <candidate.json>")
    try:
        with open(sys.argv[1]) as f:
            a = json.load(f)
        with open(sys.argv[2]) as f:
            b = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        # A truncated reference (e.g. a bench that died mid-tee on a
        # previous run) should read as a warning, not a traceback.
        sys.exit(f"warning: unreadable bench json, skipping diff: {e}")
    if a.get("bench") != b.get("bench"):
        sys.exit(
            f"error: different benches: "
            f"{a.get('bench')!r} vs {b.get('bench')!r}"
        )
    gating = []
    warns = []
    diff_obj("", a, b, gating, warns)
    name = a.get("bench", "?")
    if not gating and not warns:
        print(f"{name}: identical")
        return
    if warns:
        print(f"{name}: {len(warns)} wall-clock field(s) differ (warn-only)")
        for line in warns:
            print(line)
    if gating:
        print(f"{name}: {len(gating)} deterministic field(s) differ")
        for line in gating:
            print(line)
        sys.exit(1)


if __name__ == "__main__":
    main()

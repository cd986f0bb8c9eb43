#!/usr/bin/env bash
# Builds the scoreboard in release mode and runs it: see README.md.
#
#   benchmark/run.sh                       every workload, end-to-end metrics
#   benchmark/run.sh --traced              ... and the per-layer metrics
#   benchmark/run.sh --workload file-scan --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --check | --aa | --smoke
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Run by hand, build into the repository's shared target/ directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/scoreboard" \
    --out-dir "$here/out" --rustc "$(rustc -V)" --commit "$commit" "$@"

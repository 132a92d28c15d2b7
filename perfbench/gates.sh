#!/usr/bin/env bash
# Runs the workspace's source gates over the benchmark's own sources:
# csim-lint (no-panic, no-wallclock, no-hash-export, no-unsafe) and
# csim-analyze with the committed, empty findings baseline, layering
# allowlist included. Both gates scan `src/` and `crates/*/src`, which
# do not include perfbench/, so this stages a copy of the tree with the
# benchmark sources as a binary of csim-bench (the crate the layering
# allowlist lets depend on every simulator crate) and gates the copy.
# Nothing in the repository is modified.
#
# Usage, from the repository root:  bash perfbench/gates.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
stage="$root/.bench_build/perfbench-gates"
trap 'rm -rf "$stage"' EXIT

cd "$root"
cargo build --release --offline --quiet -p csim-check --bin csim-lint -p csim-analyze --bin csim-analyze
bins="${CARGO_TARGET_DIR:-$root/target}/release"

rm -rf "$stage"
mkdir -p "$stage"
cp -r src crates tests examples Cargo.toml analyze-baseline.json "$stage"/
mkdir -p "$stage/crates/bench/src/bin/perfbench"
cp perfbench/src/*.rs "$stage/crates/bench/src/bin/perfbench/"

"$bins/csim-lint" "$stage" | tail -n 1
"$bins/csim-analyze" "$stage" --baseline "$stage/analyze-baseline.json" | tail -n 2
echo "perfbench gates: ok"

#!/usr/bin/env bash
# Builds the release lph-serve and the benchmark program from source, then
# runs one workload. Run from the repository root:
#
#   bash lphbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin lph-serve >&2
cargo build --release --offline --quiet --manifest-path lphbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lph-e2ebench" --server "$CARGO_TARGET_DIR/release/lph-serve" "$@"

#!/usr/bin/env bash
# Builds the benchmark offline, runs the full set (four workloads, both
# passes, one process per pass -> benchmark/out/result.json), then
# selfcheck. Extra arguments go to the full-set run, e.g.
#   benchmark/run.sh --seed 4099 --seconds 10
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo build --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run "$@"
cargo run --release --offline --quiet --manifest-path "$manifest" -- selfcheck

#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from this checkout's
# sources, then run it. From the repository root:
#   bash perfbench/run.sh --workload <figs-analytic|fig4-sim|serve-mix> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

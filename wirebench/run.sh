#!/usr/bin/env bash
# Builds the release `s2g` server and the benchmark from source, then runs
# one workload:
#   bash wirebench/run.sh --workload <score-bulk|fit-ingest|stream-push> \
#       --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p s2g-server --bin s2g 1>&2
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/s2g-wirebench" --s2g "$CARGO_TARGET_DIR/release/s2g" "$@"

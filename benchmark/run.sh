#!/usr/bin/env bash
# The one command: builds the benchmark, the per-layer probes and the real
# `repro` binary (fleet workers are `repro serve`), then runs `benchmark`
# with the arguments given. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
manifest=benchmark/Cargo.toml

cargo build --release --offline --quiet --manifest-path "$manifest" \
    -p tsvd-benchmark -p tsvd-harness --bin benchmark --bin repro

# The probes reach into crate internals, so a change that removes an
# internal can break their build. That must not take the end-to-end numbers
# with it: only a traced run needs them, and it says so if they are missing.
cargo build --release --offline --quiet --manifest-path "$manifest" \
    -p tsvd-benchmark-probes ||
    echo "benchmark/run.sh: the probes did not build; --trace runs will fail" >&2

exec "$CARGO_TARGET_DIR/release/benchmark" "$@"

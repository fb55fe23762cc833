#!/usr/bin/env bash
# Regenerates the committed `Ce` kernel-tier snapshot (BENCH_protocols.json).
# Run from the repo root. End-to-end numbers come from the repo benchmark
# (benchmark/run.sh), not from here.
#
# With --check, no snapshot is written: the IFMA kernel is re-measured
# against the ladder, failing (exit 1) below its floor at 512 or 1024
# bits. verify.sh runs this as its kernel-floor step.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--check" ]; then
    echo "== bench_protocols --check vs BENCH_protocols.json" >&2
    exec cargo run --release -q -p minshare-bench --bin bench_protocols -- \
        --check BENCH_protocols.json
fi

echo "== bench_protocols -> BENCH_protocols.json" >&2
cargo run --release -q -p minshare-bench --bin bench_protocols | tee BENCH_protocols.json

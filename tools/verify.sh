#!/usr/bin/env sh
# Tier-1 verification gate: build, test, then lint with the repo-local
# static analyzer against the checked-in findings baseline.
#
# Run from anywhere; operates on the repo this script lives in.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo build --release
# Formatting: every Rust file of the workspace's own crates, tests and
# examples is rustfmt-clean. vendor/ and benchmark/ are left as they
# are, and so are the analyzer's fixtures, whose findings are pinned to
# their line numbers.
rustfmt --edition 2021 --check $(find crates tests examples -name '*.rs' \
    -not -path 'crates/analyzer/tests/fixtures/*')
# The whole suite twice: on parallel test threads (cargo's default) and
# on one. Tests must not share files, ports or counters, and must not
# depend on how many cores the pool finds — a test that only passes in
# one of the two modes is a bug in the test or in the code under it.
cargo test -q
cargo test -q -- --test-threads=1
# The analyzer's own unit + fixture suite: every rule must prove both
# detection (seeded-bug fixtures flagged at the expected lines) and the
# clean pass before its verdict on the workspace means anything.
cargo test -q -p minshare-analyzer
# Gate the workspace against the findings baseline, and report how long
# the full scan takes (it runs on every commit, so its cost is watched).
t0=$(date +%s%N)
cargo run -q --release -p minshare-analyzer -- --baseline analyzer.baseline.toml
t1=$(date +%s%N)
echo "analyzer wall-time: $(( (t1 - t0) / 1000000 )) ms"
# The zero-count ratchet anchors record that the paper's minimal-sharing
# invariant (WIRE01), the pool/transport liveness invariant (LOCK01), the
# telemetry secrecy invariant (OBS01 — nothing but typed counters in the
# trace/metrics layer) and the unsafe-isolation invariant (UNSAFE01 —
# `unsafe` only in the IFMA kernel, crates/bignum/src/ifma.rs) hold
# everywhere in scope. Deleting an anchor would let findings creep back
# in silently, so their absence fails the gate.
for anchor in WIRE01 LOCK01 OBS01 UNSAFE01; do
    if ! grep -q "rule = \"$anchor\"" analyzer.baseline.toml; then
        echo "verify: missing $anchor ratchet anchor in analyzer.baseline.toml" >&2
        exit 1
    fi
done
# Doc comments may not name items that no longer exist: a broken
# intra-doc link fails the gate (rustdoc's other lints stay warnings).
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q
# Protocol conformance under the faults TCP presents: the fixed-seed
# suite runs as part of `cargo test` above; re-run it by name so a
# registration slip (e.g. the [[test]] entry disappearing) fails loudly.
# The simulated link is reliable and ordered, its seeded faults are
# jitter, stalls and bandwidth caps, and the contract is completion:
# every seeded run completes on both sides with the perfect link's
# outputs and protocol-layer bytes, and replays to the same trace digest.
cargo test -q --test conformance
# Cost-model reconciliation smoke: the profiler replays all four
# protocols with tracing on and judges the measured counters against the
# §6.1 formulas. The binary exits non-zero unless every protocol
# reconciles; the greps additionally pin the report shape — it must
# parse as the expected JSON and show exactly four ce_exact:true entries
# (measured encryption counts equal to the predictions, not merely
# close).
profile_json=$(cargo run -q --release -p minshare-bench --bin bench_protocols -- --profile smoke)
echo "$profile_json" | grep -q '"profile": *"smoke"'
[ "$(echo "$profile_json" | grep -o '"ce_exact":true' | wc -l)" -eq 4 ]
# Multi-session daemon conformance: N concurrent sessions × seeded
# timing schedules through the real server path, asserting per-session
# isolation against solo baselines (answers, trace digests, byte
# counters), typed Busy shedding, and graceful-shutdown draining.
cargo test -q --test multisession
# Daemon smoke over real loopback TCP: one `minshare serve` process;
# two concurrent `minshare client` sessions (intersection + equijoin),
# then a *sharded size-variant* session (intersection-size over 3
# client-elected buckets), then a live `minshare stats` scrape whose
# counters must equal the leakage-model ground truth, then a fourth
# session to trip `--shutdown-after 4` — which doubles as the
# graceful-shutdown check: the daemon must drain and exit 0 by itself.
# A zero-capacity daemon afterwards proves typed Busy shedding.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
printf 'apple\text:apple\ngrape\text:grape\nmelon\text:melon\npeach\text:peach\n' > "$smoke_dir/server.txt"
printf 'grape\nmelon\npear\n' > "$smoke_dir/c1.txt"
printf 'apple\nkiwi\n' > "$smoke_dir/c2.txt"
printf 'grape\nmelon\npear\napple\n' > "$smoke_dir/c3.txt"
minshare=target/release/minshare
# The smoke is a function of a launcher prefix so that it can run twice:
# as is, and pinned to one core (below).
daemon_smoke() {
    rm -f "$smoke_dir/port.txt"
    "$@" "$minshare" serve --listen 127.0.0.1:0 --values "$smoke_dir/server.txt" \
        --max-sessions 4 --shutdown-after 4 --seed 7 \
        --port-file "$smoke_dir/port.txt" > "$smoke_dir/serve.out" 2> "$smoke_dir/serve.err" &
    serve_pid=$!
    i=0
    while [ ! -s "$smoke_dir/port.txt" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "verify: daemon never wrote its port" >&2; exit 1; }
        sleep 0.1
    done
    port=$(cat "$smoke_dir/port.txt")
    "$@" "$minshare" client --connect "127.0.0.1:$port" --protocol intersection \
        --values "$smoke_dir/c1.txt" --seed 1 > "$smoke_dir/c1.out" 2>&1 &
    c1_pid=$!
    "$@" "$minshare" client --connect "127.0.0.1:$port" --protocol equijoin \
        --values "$smoke_dir/c2.txt" --seed 2 > "$smoke_dir/c2.out" 2>&1 &
    c2_pid=$!
    wait "$c1_pid"
    wait "$c2_pid"
    # Sharded size variant: the client elects 3 buckets, the daemon adopts
    # them, and the answer is a bare cardinality (grape, melon, apple → 3).
    "$@" "$minshare" client --connect "127.0.0.1:$port" --protocol intersection-size \
        --values "$smoke_dir/c3.txt" --seed 3 --shards 3 > "$smoke_dir/c3.out" 2>&1
    grep -q '^3$' "$smoke_dir/c3.out"
    grep -q 'status=ok' "$smoke_dir/c3.out"
    # Live telemetry scrape. Ground truth from the harness: 3 sessions so
    # far, each disclosing the daemon's 4 distinct values (3 × 4 = 12
    # revealed), learning |V_R| = 3 + 2 + 4 = 9 distinct client values; the
    # third connection (the sharded size variant, deterministic peer id 3)
    # accounts for 4 of each; and the size-variant run left a populated
    # latency histogram. The last handler's telemetry tail can land after
    # its client exits, so scrape until the ledger shows all 9 learned
    # values (at most 50 × 0.1 s), then check the rest of the snapshot.
    i=0
    while :; do
        "$@" "$minshare" stats "127.0.0.1:$port" > "$smoke_dir/stats.out" 2> /dev/null || :
        grep -q '"leakage/size_disclosure/learned":9' "$smoke_dir/stats.out" && break
        i=$((i + 1))
        [ "$i" -ge 50 ] && { echo "verify: stats never showed 9 learned values" >&2; exit 1; }
        sleep 0.1
    done
    grep -q '"stats_version":1' "$smoke_dir/stats.out"
    grep -q '"server/session_open/events":3' "$smoke_dir/stats.out"
    grep -q '"leakage/size_disclosure/revealed":12' "$smoke_dir/stats.out"
    grep -q '"leakage/size_disclosure/learned":9' "$smoke_dir/stats.out"
    grep -q '"leakage/size_disclosure/revealed{peer=3}":4' "$smoke_dir/stats.out"
    grep -q '"leakage/size_disclosure/learned{peer=3}":4' "$smoke_dir/stats.out"
    grep -q '"protocol/intersection-size/duration_ns":{"count":1' "$smoke_dir/stats.out"
    # Fourth session outcome trips --shutdown-after 4: the daemon drains and
    # exits 0 on its own — a hung or crashed daemon fails here.
    "$@" "$minshare" client --connect "127.0.0.1:$port" --protocol intersection \
        --values "$smoke_dir/c1.txt" --seed 4 > "$smoke_dir/c4.out" 2>&1
    wait "$serve_pid"
    grep -q '^grape$' "$smoke_dir/c1.out"
    grep -q '^melon$' "$smoke_dir/c1.out"
    grep -q 'apple	ext:apple' "$smoke_dir/c2.out"
    # Per-session reconciliation lines on both sides of the wire.
    [ "$(grep -c 'status=ok' "$smoke_dir/serve.out")" -eq 4 ]
    grep -q 'protocol=intersection' "$smoke_dir/serve.out"
    grep -q 'protocol=equijoin' "$smoke_dir/serve.out"
    grep -q 'protocol=intersection-size' "$smoke_dir/serve.out"
    grep -q 'status=ok' "$smoke_dir/c1.out"
    grep -q 'status=ok' "$smoke_dir/c2.out"
    grep -q 'status=ok' "$smoke_dir/c4.out"
    # Typed Busy load-shedding: a zero-capacity daemon refuses the session
    # with the typed error (the client says "busy", not a protocol failure)
    # and the rejection itself counts as the outcome that shuts it down.
    rm -f "$smoke_dir/port.txt"
    "$@" "$minshare" serve --listen 127.0.0.1:0 --values "$smoke_dir/server.txt" \
        --max-sessions 0 --shutdown-after 1 \
        --port-file "$smoke_dir/port.txt" > /dev/null 2>&1 &
    busy_pid=$!
    i=0
    while [ ! -s "$smoke_dir/port.txt" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "verify: busy daemon never wrote its port" >&2; exit 1; }
        sleep 0.1
    done
    port=$(cat "$smoke_dir/port.txt")
    if "$@" "$minshare" client --connect "127.0.0.1:$port" --protocol intersection \
        --values "$smoke_dir/c1.txt" > "$smoke_dir/busy.out" 2>&1; then
        echo "verify: zero-capacity daemon admitted a session" >&2
        exit 1
    fi
    grep -q 'busy' "$smoke_dir/busy.out"
    wait "$busy_pid"
}
daemon_smoke
# One core. The mux loops are event-driven with a reader thread per
# connection: nothing may depend on a second core to make progress, and
# the round-trip test in crates/net/tests/mux_event_pump.rs prices a mux
# hop against a raw TCP hop, which must hold when every thread shares a
# CPU. (ROADMAP's single-core sweep, for the part of the stack where a
# core count can change behaviour and not just speed.)
if command -v taskset > /dev/null 2>&1; then
    taskset -c 0 cargo test -q -p minshare-net
    daemon_smoke taskset -c 0
fi
# Repo-benchmark correctness gate: every workload of `benchmark/` at
# |V| = 16, both trace modes, against the real `minshare serve`. The
# benchmark judges each session's answer, the daemon's printed lines, its
# STATS counters (an unsharded workload must show no `shard/spill_done`,
# the spilling one must show disk runs) and what the run left on disk —
# checks nothing else in this gate makes, and the ones the driver applies
# to every PR. `run.sh` exits non-zero if any workload fails its gate;
# the last line is the final workload's result object.
bash benchmark/run.sh --smoke > "$smoke_dir/benchmark.out"
bench_last=$(tail -n 1 "$smoke_dir/benchmark.out")
case $bench_last in
    *'"correct":true'*'"failed":0'*) ;;
    *)
        echo "verify: benchmark smoke failed its gate: $bench_last" >&2
        exit 1
        ;;
esac
# Bounded-memory smoke: a sharded intersection at 10^5 elements under a
# deliberately tiny 64 KiB sort budget. The binary exits non-zero unless
# the answer is exact, the per-bucket trace events reconcile with the
# §6.1 formulas (reconcile_sharded), the external sorter genuinely
# spilled to disk (--require-spill), and peak RSS stayed under the cap —
# i.e. memory is bounded by the bucket working set, not the input size.
cargo run -q --release -p minshare-bench --bin shard_smoke -- \
    --elements 100000 --shards 16 --mem-budget 65536 --group-bits 64 \
    --require-spill --rss-cap-kb 131072 > /dev/null
# Kernel floors: re-measure the IFMA `Ce` kernel against the portable
# lanes at 512 and 1024 bits (a same-run ratio, so host speed cancels
# out). End-to-end performance is the repo benchmark's job.
bash tools/bench.sh --check

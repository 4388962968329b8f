#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): the workspace must build, test,
# and stay formatted on a cold, offline checkout — no network, no
# registry cache, no external crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# Every workspace member: the root package's end-to-end suite plus each
# crate's own batteries (graph, core, service, distsim, obs, protocol,
# ...), at the fast case counts baked into the tests.
echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# Bench smoke test: compile every bench target and run one short sample
# of each into a scratch dir — no thresholds, just "the suite still runs
# and emits reports". Committed snapshots are untouched.
echo "==> bench smoke (TRUTHCAST_BENCH_QUICK=1, 1 sample)"
TRUTHCAST_BENCH_QUICK=1 TRUTHCAST_BENCH_SAMPLES=1 \
    TRUTHCAST_BENCH_DIR="$(pwd)/target/truthcast-bench-smoke" \
    cargo bench --offline -p truthcast-bench >/dev/null

# Model-checker smoke: the n=4 battery exhaustively, every schedule,
# all four invariants (DESIGN.md §11). Seconds even in debug builds —
# the deeper n=5/n=6/n=7 batteries run in the test suite above and in
# the heavy section below.
echo "==> modelcheck smoke (n=4 exhaustive)"
cargo run -q --offline -p truthcast-modelcheck -- --n 4 --exhaustive

# Profiler smoke: the figure3 quick path with both observability sinks
# set, plus a modelcheck chrome export — all three artifacts must pass
# the in-repo trace checker (crates/obs/src/bin/tracecheck.rs).
echo "==> profiler smoke (figure3 --quick + modelcheck --emit-chrome-trace)"
SMOKE_DIR="$(pwd)/target/truthcast-profile-smoke"
rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
TRUTHCAST_TRACE="$SMOKE_DIR/figures.jsonl" TRUTHCAST_PROFILE="$SMOKE_DIR/figures.json" \
    cargo run -q --offline --release -p truthcast-experiments --bin figures -- \
    figure3 --quick >/dev/null
cargo run -q --offline -p truthcast-modelcheck -- \
    --scenario diamond4-cost-liar --emit-chrome-trace "$SMOKE_DIR/modelcheck.json" >/dev/null
cargo run -q --offline --release -p truthcast-obs --bin tracecheck -- \
    --jsonl "$SMOKE_DIR/figures.jsonl" --chrome "$SMOKE_DIR/figures.json" \
    --chrome "$SMOKE_DIR/modelcheck.json"

# Service smoke: a tiny multi-AP serving run (2 APs, 2 epochs, 2k
# sessions) with the trace sink on; the emitted sketch/counter stream
# must pass the trace checker like every other producer.
echo "==> service smoke (service --quick)"
TRUTHCAST_TRACE="$SMOKE_DIR/service.jsonl" \
    cargo run -q --offline --release -p truthcast-experiments --bin service -- \
    --quick >/dev/null
cargo run -q --offline --release -p truthcast-obs --bin tracecheck -- \
    --jsonl "$SMOKE_DIR/service.jsonl"

# Churn smoke: the same quick run with join/leave churn driven through
# begin_epoch_mapped (threshold 1 pins the warm-resize repair path at
# this tiny n); the epoch line must surface WarmResize and the trace
# must still check out.
echo "==> service churn smoke (service --quick --churn 0.05 --threshold 1)"
TRUTHCAST_TRACE="$SMOKE_DIR/service_churn.jsonl" \
    cargo run -q --offline --release -p truthcast-experiments --bin service -- \
    --quick --churn 0.05 --threshold 1 >"$SMOKE_DIR/service_churn.out"
grep -q "WarmResize" "$SMOKE_DIR/service_churn.out"
cargo run -q --offline --release -p truthcast-obs --bin tracecheck -- \
    --jsonl "$SMOKE_DIR/service_churn.jsonl"

# Pipeline smoke: the epoch loop and the serve loop of one service run
# together on all four workloads (static, mobility, storm, churn) at
# n=256, k=2, each ending in the cold-oracle gate, which exits non-zero
# on any mismatch (pipebench/PIPELINE.md). pipebench is its own cargo
# workspace, so its unit tests run separately. A service API change
# that breaks the benchmark fails here.
echo "==> pipeline smoke (TRUTHCAST_BENCH_QUICK=1, all workloads, oracle gate)"
TRUTHCAST_BENCH_QUICK=1 cargo bench --offline --quiet \
    --manifest-path pipebench/Cargo.toml --bench pipeline >"$SMOKE_DIR/pipeline.out"
grep '^{' "$SMOKE_DIR/pipeline.out"
echo "==> pipebench unit tests"
cargo test -q --offline --manifest-path pipebench/Cargo.toml

# Warm-resize renumbering check: the renumber_leave example replays
# swap_remove leaves (each renumbers a survivor) through the service and
# compares every shard with the cold oracle. It exits 0 even when it
# finds a divergence and a bad seed may abort, so each seed runs in its
# own process and every line it prints must say "no divergence".
echo "==> renumber_leave seeds 0-11 (swap_remove leaves vs the cold oracle)"
cargo build -q --release --offline --manifest-path pipebench/Cargo.toml --example renumber_leave
for seed in $(seq 0 11); do
    out="$(pipebench/target/release/examples/renumber_leave "$seed" 2>&1)" \
        || out="seed $seed: process failed: $out"
    echo "$out"
    if [ -z "$out" ] || printf '%s\n' "$out" | grep -qv "no divergence"; then
        echo "renumber_leave: seed $seed diverged from the cold oracle" >&2
        exit 1
    fi
done

# TRUTHCAST_CI_HEAVY=1 re-runs the differential batteries at an elevated
# case count (the workspace run above already includes them at the fast
# count baked into the tests).
if [ "${TRUTHCAST_CI_HEAVY:-0}" != "0" ]; then
    echo "==> heavy differential battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-core --test batch_vs_sequential
    echo "==> heavy all-sources thread-matrix battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-core --test all_sources_vs_fast
    echo "==> heavy radix-vs-binary battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-graph --test radix_vs_binary
    echo "==> heavy incremental-vs-cold mobility battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-core --test incremental_vs_cold
    echo "==> heavy delta-soundness battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-core --test delta_props
    echo "==> heavy warm-resize-vs-cold churn battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-core --test resize_vs_cold
    echo "==> heavy table-sharing battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-core --test table_sharing
    echo "==> heavy modelcheck battery (n=6/n=7, release)"
    TRUTHCAST_CI_HEAVY=1 cargo test -q --offline --release -p truthcast-distsim \
        --test modelcheck_explore heavy_battery
    echo "==> heavy service-vs-library anycast battery (TRUTHCAST_CASES=256)"
    TRUTHCAST_CASES=256 cargo test -q --offline -p truthcast-service --test service_vs_library
fi

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# pipebench is its own cargo workspace, so the workspace lint steps skip
# it: a core change that makes the benchmark crate warn fails here.
echo "==> cargo clippy (pipebench) --all-targets -- -D warnings"
cargo clippy --offline --manifest-path pipebench/Cargo.toml --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve, so deleting an item
# cannot leave a dangling link in the docs of the items that remain.
echo "==> cargo doc --offline --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check
echo "==> cargo fmt --check (pipebench)"
cargo fmt --check --manifest-path pipebench/Cargo.toml

echo "ci.sh: all green"

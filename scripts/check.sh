#!/bin/sh
# Workspace-wide preflight: build, tests, formatting, lints.
#
# Run before committing or regenerating experiment tables; the full
# experiment sweep (run_all_experiments.sh) calls this first so stale
# or broken code never produces "results".
set -e
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release (bmbench)"
# The benchmark is its own workspace, so the build above does not
# compile it; a public-API change that breaks bmbench must fail here.
# Cargo rewrites benchmark/Cargo.lock when a crate's dependency list
# has changed; that lock changes only with the benchmark, so the build
# puts it back and leaves the tree clean.
cp benchmark/Cargo.lock target/bmbench-Cargo.lock
bmbench_status=0
cargo build --release --offline --manifest-path benchmark/Cargo.toml || bmbench_status=$?
cp target/bmbench-Cargo.lock benchmark/Cargo.lock
[ "$bmbench_status" -eq 0 ]

echo "==> bm-lint check (determinism & simulation-safety ratchet)"
# Static analysis before the slow suites: wall-clock reads, hash-order
# iteration, unseeded randomness, panic paths, stray output, wildcard
# arms, float determinism and time-unit mixups are all cheap to catch
# here and expensive to debug as a byte-diff in the figure pipeline.
# Fails only if a bucket grows over lint-baseline.toml.
# The machine-readable report lands in target/lint-report.json (stable
# schema, see DESIGN.md) for CI artifact upload; the analysis has a 10 s
# wall-clock budget — slower than that and the "cheap to catch here"
# premise is broken, so we warn loudly.
lint_start=$(date +%s)
cargo run --release -q -p bm-lint -- self-test
cargo run --release -q -p bm-lint -- check --format json > target/lint-report.json
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "    bm-lint: ${lint_elapsed}s, report at target/lint-report.json"
if [ "$lint_elapsed" -gt 10 ]; then
    echo "WARNING: bm-lint took ${lint_elapsed}s (budget: 10s) — profile the scanner before it outgrows the preflight" >&2
fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> fault-scenario suite (release)"
# The robustness contract under injected faults: hot-plug/hot-upgrade
# transparency (tests/resilience.rs), the fault-aware conservation law,
# and MCTP packet-loss recovery — re-run in release so the fault paths
# are exercised at the same optimisation level as the experiments.
cargo test --release -q --test resilience
cargo test --release -q -p bm-testbed --test conservation
cargo test --release -q -p bm-pcie --test packet_loss

echo "==> data-integrity suite (release)"
# Bytes round-trip through every scheme, including the BM-Store PRP-list
# path through the DMA router, with debug_assert!s compiled out as in
# the experiments.
cargo test --release -q --test data_integrity

echo "==> allocation budget (release)"
# The hot-path contract: steady-state scheduling allocates nothing, a
# BM-Store 4K-read window allocates about once per completed I/O across
# the whole World, and a PRP-list doorbell allocates no more than a
# one-page one, at the optimisation level the experiments use.
cargo test --release -q --test alloc_budget

echo "==> chaos smoke (release, fixed seeds)"
# The crash-recovery contract: a short fixed-seed chaos campaign per
# fail policy (engine crashes, power losses with torn writes, SSD
# death/re-insert, error bursts) must pass every invariant oracle —
# exactly-once completion, back-end conservation, acked-write
# read-back, nothing stuck at drain, bounded recovery time.
cargo run --release -q -p bm-bench --bin bmstore_cli -- chaos run --seeds 10 --base-seed 1
cargo run --release -q -p bm-bench --bin bmstore_cli -- chaos run --seeds 10 --base-seed 1 --policy quiesce-replay

echo "==> telemetry smoke (release)"
# The observability contract: spans exported as a Chrome trace parse,
# nest inside their command roots, and attribute an injected latency
# spike to the stage (and tenant) that absorbed it.
cargo run --release -q -p bm-bench --bin telemetry_smoke

echo "==> telemetry report, strict (release, --quick)"
# --strict turns any WARNING (dropped telemetry events, NVMe-MI decode
# failures, crash-recovery noise, past-due clamping) into a non-zero
# exit, so silent observability degradation fails the preflight.
cargo run --release -q -p bm-bench --bin telemetry_report -- --quick --strict > /dev/null

echo "==> SLO smoke (release)"
# The alerting contract: a tiny two-tenant run with an injected SSD
# stall must fire exactly one deterministic latency alert, render a
# parseable incident report that is byte-identical across two runs,
# and blame the stalled backend stage in tenant 0's critical path.
cargo run --release -q -p bm-bench --bin bmstore_cli -- slo --smoke

echo "==> prof smoke (release, --quick)"
# The self-profiling contract: bm-prof is read-only with respect to the
# simulation. The fig08 BM-Store case must produce byte-identical
# figures with the profiler on, both export formats (folded stacks,
# JSON report) must parse, and the attributed per-scope self-time must
# sum to the measured dispatch total (the stride-sampling
# normalization invariant).
cargo run --release -q -p bm-bench --bin bmstore_cli -- prof --smoke --quick

echo "==> bench report regression gate (release, --quick)"
# The performance contract: the fig08/09/10/12 BM-Store envelope
# (throughput, p50/p99, peak queue depth, saturated stage) must stay
# inside bench-baseline.json's tolerances. Also a wall-clock smoke
# gate: events_per_sec (simulator events retired per host second) is
# ratcheted one-sided — a run slower than baseline by more than 40%
# fails, a faster run never does. Writes BENCH_BMSTORE.json as a side
# effect; regenerate the baseline after an intentional perf change
# with --write-baseline bench-baseline.json.
cargo run --release -q -p bm-bench --bin bench_report -- --quick --baseline bench-baseline.json

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings -D clippy::dbg_macro -D clippy::todo"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::dbg_macro -D clippy::todo

echo "==> all checks passed"

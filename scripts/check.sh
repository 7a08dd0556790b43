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

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Static analysis before the slow suites: wall-clock reads, hash
# collections, panic paths, stray output and wildcard arms are cheap to
# catch here and expensive to debug as a byte-diff in the figure
# pipeline. The rules live in clippy.toml, the workspace lints table
# and each crate root; bm-lint's float-determinism and time-unit rules
# run in the test suite below (crates/lint/tests/rules.rs).
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> observer goldens and overhead bound (release)"
# The observers' contract: the telemetry report, the SLO incident
# report and the metrics exposition stay byte-identical to the
# committed goldens (crates/bench/tests/golden/), and telemetry, the
# 20 µs sampler and an SLO together cost at most the measured bound
# over an unobserved bm-4k-randread window.
cargo test --release -q -p bm-bench --test observer_goldens
cargo test --release -q --test observe_overhead

echo "==> observability, profiler and chaos suites (release)"
# The contracts the experiments lean on, at their optimisation level:
# exported spans nest inside their command roots and name the stage
# and tenant an injected spike hit (telemetry); SLO alerts, incident
# reports and blame are seed-stable and partition each command
# (slo_critical_path); the profiler leaves the fig. 9/12 VM layouts
# byte-identical and its folded and JSON exports hold (prof); and 100
# seeds per fail policy of crashes, power losses, SSD death and error
# bursts pass every chaos oracle (campaign). The telemetry report's
# WARNING lines are pinned by the observer goldens above.
cargo test --release -q --test telemetry
cargo test --release -q --test slo_critical_path
cargo test --release -q --test prof -- profiler_is_read_only_in_vm_layouts_and_its_exports_hold
cargo test --release -q -p bm-chaos --test campaign

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

echo "==> all checks passed"

#!/bin/sh
# Workspace-wide preflight: builds, lints, doc links, tests, golden
# outputs, one calibrated wall-clock gate and formatting.
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

echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings)"
# Every intra-doc link must resolve: a doc that names a deleted or
# private item fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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

echo "==> golden outputs and observer overhead bound (release)"
# The simulated results, exactly: every figure and table binary's
# --quick table, the telemetry report, the SLO incident report and four
# metrics expositions (the fig08 rand-r-128 and rand-w-16, fig09
# single-VM and fig10 4-SSD envelopes: IOPS, latency percentiles, peak
# queue depths, events fired, saturated stage) stay byte-identical to
# the committed goldens (crates/bench/tests/golden/). Also, telemetry,
# the 20 µs sampler and an SLO together cost at most the measured bound
# over an unobserved bm-4k-randread window.
cargo test --release -q -p bm-bench --test goldens
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
# WARNING lines are pinned by the goldens above.
cargo test --release -q --test telemetry
cargo test --release -q --test slo_critical_path
cargo test --release -q --test prof -- profiler_is_read_only_in_vm_layouts_and_its_exports_hold
cargo test --release -q -p bm-chaos --test campaign

echo "==> calibrated wall-clock gate (bmbench, release)"
# The simulator's own speed, apart from the simulated results the
# goldens pin: bmbench repeats a workload for 8 s in fresh processes,
# scales host time by its calibration kernel and prints the calibrated
# simulated I/Os per host second. A workload fails if its output checks
# fail or that value is below its floor. bm-4k-randread drives the
# engine's per-command path, bm-128k-seqread its PRP-list path and
# bm-4k-observed-faults the observers, command timeouts and recovery,
# which the other two never run. Each floor is 0.8 x the lowest
# calibrated value on record for an unchanged tree (0.8 is one minus
# BENCHMARK.json's 0.2 bound on sim_ios_per_s); CHANGES.md lists the
# runs. The binary is the one the bmbench build step above produced, so
# benchmark/Cargo.lock stays as committed.
floor_4k_randread=515934     # 0.8 x 644,918 (lowest on record)
floor_128k_seqread=363965    # 0.8 x 454,957 (lowest on record)
floor_4k_observed=363292     # 0.8 x 454,116 (lowest of 20 runs, seed 42)
bmbench_gate() { # WORKLOAD FLOOR
    "${CARGO_TARGET_DIR:-benchmark/target}/release/bmbench" \
        --workload "$1" --seed 42 --seconds 8 --trace 0 |
        awk -v w="$1" -v floor="$2" '
            $1 == "check" && $2 == w { ok = ($3 == "ok"); print }
            $1 == "sim_ios_per_s" && $2 == w { v = $3; print }
            END {
                if (!ok) { print w ": output checks failed"; exit 1 }
                if (v < floor) { printf "%s: sim_ios_per_s %.0f is below its floor %d\n", w, v, floor; exit 1 }
            }'
}
bmbench_gate bm-4k-randread "$floor_4k_randread"
bmbench_gate bm-128k-seqread "$floor_128k_seqread"
bmbench_gate bm-4k-observed-faults "$floor_4k_observed"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> all checks passed"

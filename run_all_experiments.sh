#!/bin/sh
# Regenerates every table and figure of the paper (see DESIGN.md).
# Pass --quick for a fast pass at reduced simulated windows.
# Pass --faults to also run the fault-injection smoke (faults_smoke),
# which drives every FaultPlan event kind through a live tenant run.
# Pass --telemetry to also run the telemetry report (telemetry_report),
# which prints the per-tenant/per-stage latency breakdown and the
# out-of-band NVMe-MI scrape tables.
# Pass --metrics to also run the bench report (bench_report), which
# profiles the fig08/09/10/12 BM-Store workloads with the metrics
# registry on and writes BENCH_BMSTORE.json (the regression compare
# against bench-baseline.json runs in the preflight).
# Pass --chaos to also run a seeded chaos campaign (bmstore_cli chaos
# run) under both fail policies: generated crash/power-loss/death
# fault plans checked against the invariant oracles, with automatic
# shrinking to a minimal repro artifact on any failure.
# Pass --slo to also run the SLO scenario (bmstore_cli slo): the canned
# SSD-stall run with the per-tenant burn-rate SLO engine armed, printing
# the alert log and the deterministic incident report with critical-path
# blame attribution.
# Set SKIP_CHECKS=1 to bypass the preflight (e.g. when iterating on a
# single figure with a tree that is known-good).
set -e
if [ "${SKIP_CHECKS:-0}" != "1" ]; then
    sh "$(dirname "$0")/scripts/check.sh"
fi
with_faults=0
with_telemetry=0
with_metrics=0
with_chaos=0
with_slo=0
figure_args=""
for arg in "$@"; do
    if [ "$arg" = "--faults" ]; then
        with_faults=1
    elif [ "$arg" = "--chaos" ]; then
        with_chaos=1
    elif [ "$arg" = "--slo" ]; then
        with_slo=1
    elif [ "$arg" = "--telemetry" ]; then
        with_telemetry=1
    elif [ "$arg" = "--metrics" ]; then
        with_metrics=1
    else
        figure_args="$figure_args $arg"
    fi
done
# shellcheck disable=SC2086 # word-splitting figure_args is intended
set -- $figure_args
if [ "$with_faults" = "1" ]; then
    cargo run --release -q -p bm-bench --bin faults_smoke -- "$@"
fi
if [ "$with_chaos" = "1" ]; then
    cargo run --release -q -p bm-bench --bin bmstore_cli -- chaos run --seeds 25
    cargo run --release -q -p bm-bench --bin bmstore_cli -- chaos run --seeds 25 --policy quiesce-replay
fi
if [ "$with_slo" = "1" ]; then
    cargo run --release -q -p bm-bench --bin bmstore_cli -- slo
fi
if [ "$with_telemetry" = "1" ]; then
    cargo run --release -q -p bm-bench --bin telemetry_report -- "$@"
fi
if [ "$with_metrics" = "1" ]; then
    # The gated compare against bench-baseline.json happens in the
    # preflight (quick mode); the sweep just produces the report at the
    # requested scale.
    cargo run --release -q -p bm-bench --bin bench_report -- "$@"
fi
for bin in fig01_spdk_cores table02_fpga_resources fig08_baremetal \
           table06_os_matrix fig09_vm_perf fig10_scalability fig11_multivm \
           fig12_fairness fig13_mysql fig14_mixed table09_hotupgrade \
           tco_analysis ablation_zerocopy ablation_arm_offload; do
    cargo run --release -q -p bm-bench --bin "$bin" -- "$@"
done

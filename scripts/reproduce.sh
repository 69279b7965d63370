#!/usr/bin/env bash
# Regenerate every paper artifact and the full test log.
#
# Usage: scripts/reproduce.sh [--full] [--jobs N]
#   --full    replay complete traces (paper scale; much slower)
#   --jobs N  worker threads per bench sweep (default: all hardware
#             threads). Sweep cells are independent simulations; the
#             printed artifacts are byte-identical for any N.
#
# Environment:
#   PRESS_CHECK=1       run everything with the VIA invariant checker on
#                       (abort on the first protocol violation); =record
#                       accumulates reports instead of aborting.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
    --full)
        BENCH_ARGS+=(--full)
        ;;
    --jobs)
        [ $# -ge 2 ] || { echo "reproduce: --jobs needs a value" >&2; exit 2; }
        BENCH_ARGS+=(--jobs "$2")
        shift
        ;;
    *)
        echo "reproduce: unknown option '$1' (want --full | --jobs N)" >&2
        exit 2
        ;;
    esac
    shift
done

case "${PRESS_CHECK:-}" in
"" | 0 | off) ;;
*)
    # core::checkDefault("PRESS_CHECK") reads this; exporting it turns
    # the checker on in every test and benchmark without rebuilding.
    export PRESS_CHECK
    echo "reproduce: VIA invariant checker enabled (PRESS_CHECK=$PRESS_CHECK)"
    ;;
esac

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build -j "$(nproc)" 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "##### $(basename "$b") #####" | tee -a bench_output.txt
    case "$(basename "$b")" in
    comm_micro)
        # google-benchmark binary: rejects the harness flags.
        "$b" 2>&1 | tee -a bench_output.txt
        ;;
    sim_micro)
        "$b" --json BENCH_sim.json 2>&1 | tee -a bench_output.txt
        ;;
    *)
        "$b" ${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"} 2>&1 |
            tee -a bench_output.txt
        ;;
    esac
    echo | tee -a bench_output.txt
done
echo "done: see test_output.txt, bench_output.txt, BENCH_sim.json"

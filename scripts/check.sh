#!/usr/bin/env bash
# The CI entry point: one command that proves the tree is healthy.
#
#   (a) tier-1 build + full ctest, with the VIA invariant checker
#       and the causality/lookahead checker on, plus an event-kernel
#       microbench smoke run (allocs/event == 0), a flow-control
#       window sweep that must strand no request, and the three
#       programs that drive src/via and src/tcpnet without a PRESS
#       cluster (via_pingpong, coop_cache, comm_micro)
#   (b) AddressSanitizer + UBSan build + full ctest, checkers still on
#   (c) ThreadSanitizer build + every multi-threaded harness: the
#       ParallelRunner sweep, the tracing structures its workers write
#       through, and the TickRaceHunter run pool
#   (d) trace determinism: PRESS_TRACE=1 Figure-1 runs must export
#       byte-identical traces for --jobs 1 vs --jobs 4 and across
#       reruns, pass the span-vs-counter cross-check, and produce
#       valid Chrome JSON; two VIA-V5 request_trace runs must print
#       and export the same bytes (see docs/observability.md)
#   (e) races: the determinism race hunt — press_races reruns the
#       golden scenarios under K seeded equal-tick permutations and
#       checks every cross-domain edge against its lookahead bound;
#       the emitted lookahead table must be byte-identical across
#       --jobs values (see docs/static-analysis.md)
#   (f) scale: the scalable dissemination paths — a 64-node gossip +
#       tree smoke with the VIA checker live plus the sharded-vs-
#       replicated directory oracle (examples/scale_smoke), and a
#       K=4 tick-race hunt focused on the gossip scenario
#   (g) fault: the fault-tolerance subsystem — a churn bench smoke
#       (kill 2 of 16 mid-trace; zero lost requests is the exit
#       code) and byte-identity diffs across --jobs values, on the
#       crash plan and on a crash + leave/join plan (see
#       docs/simulation.md, "Fault tolerance")
#   (h) traffic: the open-loop traffic engine — an SLO capacity-sweep
#       smoke (the bench exits nonzero when a rung below a scenario's
#       knee misses its offered rate or the flash crowd never crosses
#       the overload pivot) and a byte-identity diff across --jobs
#       values (see docs/workloads.md)
#   (i) bench: the repository benchmark's self-test — smoke runs of
#       every pressbench workload, checking wire conservation,
#       fingerprint identity across reruns and the metrics
#       BENCHMARK.json declares (see pressbench/README.md)
#   (j) lint pass (clang-tidy when available + project grep bans,
#       including the nondeterminism, raw-argv, raw-RNG and raw-throw
#       bans)
#
# Usage: scripts/check.sh [stage...]
#   stage  any of: tier1 asan tsan trace races scale fault traffic
#          bench lint (default: all ten, in order)
#
# Every requested stage runs even when an earlier one fails; the
# summary table at the end shows per-stage pass/fail and the script
# exits nonzero if anything failed.
#
# Separate build trees (build/, build-asan/, build-tsan/) keep the
# sanitizer instrumentation out of the regular binaries.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    STAGES=(tier1 asan tsan trace races scale fault traffic bench lint)
else
    STAGES=("$@")
fi

# Every simulation run in every stage executes fully checked: the
# first VIA protocol violation or cross-domain edge under its lookahead
# bound aborts the offending test or program.
export PRESS_CHECK="${PRESS_CHECK:-1}"
export PRESS_CAUSALITY="${PRESS_CAUSALITY:-1}"

stage_tier1() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)"
    ctest --test-dir build -j "$(nproc)" --output-on-failure
    # Kernel smoke: the microbench exits nonzero if the zero-
    # allocation contract breaks (JSON lands in the build tree).
    ./build/bench/sim_micro --json build/BENCH_sim.json
    # Windows below the default credit batch: every cell must answer
    # every request (the sweep runner aborts on a stranded one).
    ./build/examples/press_sweep --param window --values 1,2,3,8 \
        --configs via0,via5 --requests 8000 --jobs 4
    # The direct users of the VIA and TCP libraries. No ctest drives
    # these programs; a library assert or crash in one fails the stage.
    ./build/examples/via_pingpong 100
    ./build/examples/coop_cache
    ./build/bench/comm_micro --benchmark_min_time=0.01
}

stage_asan() {
    cmake -B build-asan -S . -G Ninja \
        -DPRESS_SANITIZE="address;undefined" -DPRESS_WERROR=ON
    cmake --build build-asan -j "$(nproc)"
    # abort_on_error makes ASan findings fail the test like a panic;
    # detect_leaks stays on (the default) to catch ownership slips.
    ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-asan -j "$(nproc)" --output-on-failure
}

stage_tsan() {
    cmake -B build-tsan -S . -G Ninja \
        -DPRESS_SANITIZE=thread -DPRESS_WERROR=ON
    # Only the code that starts threads: the sweep pool and the tests
    # that drive clusters from its workers, the tracing structures
    # those workers write through, and the race hunter's run pool
    # (scenarios at jobs 2-4). The simulation itself is
    # single-threaded; a full TSan ctest pass would double CI time.
    cmake --build build-tsan -j "$(nproc)" --target \
        test_bench_parallel test_obs test_check_races
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan -j "$(nproc)" \
        --output-on-failure \
        -R "ParallelRunner|TraceSet|TraceRing|Tracer|TracedCluster|TickRaceHunter"
}

stage_trace() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target \
        fig1_time_breakdown press_trace request_trace
    rm -rf build/trace-j1 build/trace-j4a build/trace-j4b
    # Three identical Figure-1 sweeps: sequential, parallel, and a
    # parallel rerun. The exported traces must be byte-identical —
    # determinism is part of the subsystem's contract. fig1 itself
    # exits nonzero if any cell's span-derived CPU attribution
    # disagrees with the resource counters.
    PRESS_TRACE=1 ./build/bench/fig1_time_breakdown \
        --requests 20000 --jobs 1 --trace-dir build/trace-j1
    PRESS_TRACE=1 ./build/bench/fig1_time_breakdown \
        --requests 20000 --jobs 4 --trace-dir build/trace-j4a
    PRESS_TRACE=1 ./build/bench/fig1_time_breakdown \
        --requests 20000 --jobs 4 --trace-dir build/trace-j4b
    diff -r build/trace-j1 build/trace-j4a
    diff -r build/trace-j4a build/trace-j4b
    echo "trace exports byte-identical across --jobs 1/4 and reruns"
    for f in build/trace-j1/*.trace.json; do
        ./build/tools/press_trace jsoncheck "$f"
    done
    for f in build/trace-j1/*.ptrace; do
        ./build/tools/press_trace check "$f"
    done
    # Figure 1's cells are all TCP/FE. A VIA-V5 run adds the
    # comm.stalls metric row, remote-write and credit events: two runs
    # in empty directories must print and export the same bytes.
    rm -rf build/trace-via-a build/trace-via-b
    for d in build/trace-via-a build/trace-via-b; do
        mkdir -p "$d"
        ( cd "$d" && ../examples/request_trace 20000 > stdout.txt )
    done
    diff -r build/trace-via-a build/trace-via-b
    echo "VIA-V5 request_trace byte-identical across reruns"
    ./build/tools/press_trace jsoncheck \
        build/trace-via-a/request_trace.trace.json
    ./build/tools/press_trace check build/trace-via-a/request_trace.ptrace
}

stage_races() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target press_races
    # Tick-race hunt + causality check over the golden scenarios:
    # K=8 seeded permutations of the equal-tick cross-domain firing
    # order per scenario, compared against the FIFO baseline, then a
    # Record-mode causality pass emitting the measured per-link
    # minimum-lookahead table. The table must not depend on the
    # worker count — run twice and diff.
    ./build/tools/press_races --seeds 8 --jobs "$(nproc)" \
        --requests 20000 --table build/lookahead-j4.txt
    ./build/tools/press_races --seeds 8 --jobs 1 \
        --requests 20000 --table build/lookahead-j1.txt
    diff build/lookahead-j1.txt build/lookahead-j4.txt
    echo "lookahead table byte-identical across --jobs values"
}

stage_scale() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target scale_smoke press_races
    # 64-node gossip + tree runs with the VIA invariant checker live,
    # plus the sharded-vs-replicated directory oracle: both modes must
    # answer the whole stream and the drained shard owners' maps must
    # mirror the real caches (see docs/simulation.md).
    ./build/examples/scale_smoke
    # Tick-race hunt focused on the gossip + sharded scenario: K=4
    # seeded equal-tick permutations against the FIFO baseline.
    ./build/tools/press_races --seeds 4 --requests 8000 --filter G4 \
        --table build/lookahead-scale.txt
}

stage_fault() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target fault_churn
    # Churn smoke: kill 2 of 16 nodes mid-trace, restart them later.
    # The bench exits nonzero when any cell strands a request, so
    # "zero lost requests" is enforced by the exit code. Determinism:
    # the sequential and sweep-parallel runs must print the same
    # table and JSON, byte for byte.
    ( cd build && ./bench/fault_churn --quick --jobs 1           > fault-j1.txt && mv BENCH_fault.json fault-j1.json )
    ( cd build && ./bench/fault_churn --quick --jobs 4           > fault-j4.txt && mv BENCH_fault.json fault-j4.json )
    diff build/fault-j1.txt build/fault-j4.txt
    diff build/fault-j1.json build/fault-j4.json
    echo "fault churn byte-identical across --jobs 1/4"
    # The same on a plan with a graceful leave and a join, so the diff
    # covers every membership verdict, not only crash and restart.
    local plan='crash:1@200ms;restart:1@600ms;leave:3@300ms;join:3@900ms'
    ( cd build && ./bench/fault_churn --quick --plan "$plan" --jobs 1 > fault-lj-j1.txt && mv BENCH_fault.json fault-lj-j1.json )
    ( cd build && ./bench/fault_churn --quick --plan "$plan" --jobs 4 > fault-lj-j4.txt && mv BENCH_fault.json fault-lj-j4.json )
    diff build/fault-lj-j1.txt build/fault-lj-j4.txt
    diff build/fault-lj-j1.json build/fault-lj-j4.json
    echo "leave/join fault churn byte-identical across --jobs 1/4"
}

stage_traffic() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target capacity_slo
    # SLO sweep smoke: the bench exits nonzero if a rung below a
    # scenario's knee misses its offered rate or the flash-crowd sweep
    # never crosses the T = 80 overload pivot. Determinism: sequential
    # and sweep-parallel runs must print the same table and JSON.
    ( cd build && ./bench/capacity_slo --quick --jobs 1 > slo-j1.txt && mv BENCH_slo.json slo-j1.json )
    ( cd build && ./bench/capacity_slo --quick --jobs 4 > slo-j4.txt && mv BENCH_slo.json slo-j4.json )
    diff build/slo-j1.txt build/slo-j4.txt
    diff build/slo-j1.json build/slo-j4.json
    echo "capacity_slo byte-identical across --jobs 1/4"
}

stage_bench() {
    # Builds pressbench/ into .bench_build/ (Release) and smoke-runs
    # every workload, untraced and traced; exits nonzero on the first
    # broken check.
    python3 pressbench/tests/selftest.py
}

stage_lint() {
    scripts/lint.sh build
}

declare -a RESULTS=()
OVERALL=0

for stage in "${STAGES[@]}"; do
    case "$stage" in
    tier1|asan|tsan|trace|races|scale|fault|traffic|bench|lint) ;;
    *)
        echo "check.sh: unknown stage '$stage'" \
             "(want tier1|asan|tsan|trace|races|scale|fault|traffic|bench|lint)" >&2
        exit 2
        ;;
    esac
    echo
    echo "===== check.sh: $stage (PRESS_CHECK=$PRESS_CHECK" \
        "PRESS_CAUSALITY=$PRESS_CAUSALITY) ====="
    # Subshell with -e: the stage stops at its first error, but the
    # driver carries on to the remaining stages regardless.
    ( set -e; "stage_$stage" )
    rc=$?
    if [ "$rc" -eq 0 ]; then
        RESULTS+=("$stage PASS")
    else
        RESULTS+=("$stage FAIL")
        OVERALL=1
    fi
done

echo
echo "===== check.sh: summary ====="
for line in "${RESULTS[@]}"; do
    printf '  %-8s %s\n' "${line% *}" "${line##* }"
done
if [ "$OVERALL" -ne 0 ]; then
    echo "check.sh: FAILED"
    exit 1
fi
echo "check.sh: all stages passed"

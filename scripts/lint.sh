#!/usr/bin/env bash
# Lint pass: clang-tidy over src/ (when the tool is available) plus
# grep-enforced project bans that clang-tidy has no check for.
#
# Usage: scripts/lint.sh [build-dir]
#   build-dir  tree holding compile_commands.json (default: build;
#              configured automatically when missing)
#
# Exit status is non-zero when any lint finding or banned pattern is
# present, so CI can gate on it. scripts/check.sh runs this as stage (c).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
FAILED=0

# ---------------------------------------------------------------- tidy
if [ ! -f "$BUILD/compile_commands.json" ]; then
    echo "lint: configuring $BUILD to produce compile_commands.json"
    cmake -B "$BUILD" -S . -G Ninja \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

TIDY="${CLANG_TIDY:-clang-tidy}"
if command -v "$TIDY" >/dev/null 2>&1; then
    echo "lint: running $TIDY over src/ (config: .clang-tidy)"
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -quiet -p "$BUILD" "${sources[@]}" || FAILED=1
    else
        "$TIDY" -p "$BUILD" --quiet "${sources[@]}" || FAILED=1
    fi
else
    # The container image bakes in gcc only; the config still gates CI
    # machines that do have clang-tidy.
    echo "lint: $TIDY not found, skipping the clang-tidy stage" \
         "(grep bans still run)"
fi

# ------------------------------------------------------- project bans
# ban <name> <pattern> <exclude-regex (<none> = nothing excluded)> <why>
ban() {
    local name="$1" pattern="$2" exclude="$3" why="$4"
    local hits
    hits=$(grep -rnE "$pattern" src/ | grep -vE "$exclude" || true)
    if [ -n "$hits" ]; then
        echo "lint: BANNED pattern '$name' ($why):"
        echo "$hits" | sed 's/^/  /'
        FAILED=1
    fi
}

# The simulator must be deterministic and seedable: util::Rng only.
ban "std::rand" '(std::rand|[^a-z_]s?rand)\(' 'src/util/random' \
    "use util::Rng; libc rand is global state and ruins determinism"

# Ownership is smart-pointer based. new is allowed only immediately
# wrapped (the private-constructor make_unique workaround).
ban "raw new" '\bnew [A-Z_]' '_ptr<[^>]*>\(new |:[0-9]+: *(\*|//)' \
    "wrap allocations in std::make_unique or an owning smart pointer"

# iostream in hot paths: everything funnels through util/logging.
ban "iostream include" '#include <iostream>' 'src/util/logging' \
    "include util/logging.hpp instead; iostream belongs to the logger"

# std::endl flushes; the logger is the only place allowed to flush.
ban "std::endl" 'std::endl' 'src/util/logging' \
    "use \\n; flushing in the simulation loop serializes on the TTY"

# Manual memory management.
ban "malloc/free" '\b(malloc|calloc|realloc|free)\(' '<none>' \
    "the codebase is RAII-only"

# Exceptions: recovery paths must never throw — connection loss
# surfaces as error completions and statuses, request loss as retries.
# The one sanctioned throw site is FaultPlan construction (PlanError,
# src/fault/), caught at the CLI boundary.
ban "raw throw" '\bthrow\b' 'src/fault/' \
    "signal errors with statuses or PRESS_ASSERT; only src/fault/ plan \
construction may throw (PlanError)"

# ------------------------------------------------- CLI parsing bans
# Hand-rolled option loops read operands with `argv[++i]` (a missing
# operand falls through to a misleading "unknown option" error) and
# convert with atoi/atof/strtol, which silently turn garbage into 0.
# util/cli.hpp is the one place allowed to touch argv operands; its
# helpers fail loudly on missing values, trailing junk, and ranges.
# This ban covers the binaries too, not just src/.
cli_hits=$(grep -rnE \
    'argv\[\+\+i\]|\bato[ifl]+\(argv|\bstrto[a-z]+\(argv' \
    src/ bench/ tools/ examples/ | grep -v 'src/util/cli.hpp' || true)
if [ -n "$cli_hits" ]; then
    echo "lint: BANNED pattern 'raw argv parsing'" \
         "(use util/cli.hpp: cliValue/cliInt/cliU64/cliDouble):"
    echo "$cli_hits" | sed 's/^/  /'
    FAILED=1
fi

# ------------------------------------------- arrival-rate literal ban
# An open loop takes its offered rate from traffic.curve alone, and
# every offered-load constant lives in src/traffic (the scenario
# factories' shapes) so capacity sweeps, examples, and tools agree on
# what a rate means. Calling a scenario factory or RateCurve::constant
# with a numeric literal anywhere else scatters magic req/s values;
# pass a computed rate instead. Tests are exempt — pinning a literal
# rate against a specific assertion is the point of a test.
rate_hits=$(grep -rnE '(RateCurve::constant|[A-Za-z]+Scenario) *\( *[0-9.]' \
    src/ bench/ tools/ examples/ | grep -v 'src/traffic/' || true)
if [ -n "$rate_hits" ]; then
    echo "lint: BANNED pattern 'rate literal'" \
         "(rate constants live in src/traffic; pass a computed rate" \
         "to the scenario factory or RateCurve::constant):"
    echo "$rate_hits" | sed 's/^/  /'
    FAILED=1
fi

# ------------------------------------------------ message-size ban
# Table-2 message sizes have one home: core::logicalBytes in
# src/core/messages.cpp. Re-deriving them from the MessageSizes fields
# anywhere else lets a backend's byte accounting drift from the one
# every table reports. sizes.fileMeta and sizes.flowRmw stay legal in
# ViaComm: they size records only VIA's remote writes carry. Tests are
# exempt, as they are from the arrival-rate ban.
size_hits=$(grep -rnE \
    'sizes\.(load|flowRegular|forward|caching|fileHeader|disseminationHeader)\b' \
    src/ bench/ tools/ examples/ | grep -v '^src/core/messages\.cpp:' || true)
if [ -n "$size_hits" ]; then
    echo "lint: BANNED pattern 'Table-2 size field'" \
         "(compute message sizes with core::logicalBytes):"
    echo "$size_hits" | sed 's/^/  /'
    FAILED=1
fi

# ------------------------------------------------ seeded-RNG bans
# Every randomized choice must flow through util::Rng (seeded,
# per-component) or a deterministic hash chain like the gossip peer
# sampler (core/dissemination.cpp). libc rand() is hidden global
# state; a raw std::mt19937 or std::random_device invites unseeded
# engines. Covers the binaries too, not just src/.
rng_hits=$(grep -rnE \
    '(std::rand|[^a-z_]s?rand)\(|std::mt19937|std::random_device' \
    src/ bench/ tools/ examples/ | grep -vE 'src/util/random' || true)
if [ -n "$rng_hits" ]; then
    echo "lint: BANNED pattern 'raw RNG'" \
         "(use util::Rng or a seeded hash chain):"
    echo "$rng_hits" | sed 's/^/  /'
    FAILED=1
fi

# ---------------------------------------- nondeterminism bans
# The simulator's contract is bit-identical reruns (the golden tests
# and the race/causality stage both depend on it); these patterns are
# the classic ways nondeterminism leaks in. docs/static-analysis.md
# explains each.

# Wall-clock time in simulation code: results must be a function of
# the virtual clock and the seed, never of the host.
ban "wall clock" \
    'clock::now|gettimeofday|clock_gettime|\btime\(NULL|\btime\(nullptr' \
    '<none>' \
    "simulation state must depend only on sim::Tick and the seed"

# Pointer-keyed ordered containers: iteration order tracks the
# allocator (ASLR), so anything derived from it differs across runs.
ban "pointer-keyed map/set" 'std::(map|set|multimap|multiset)< *[^,<>]*\*' \
    '<none>' \
    "key by a stable id (node index, FileId, slot) instead of an address"

# Addresses leaking into output or hashes: same ASLR problem.
ban "address in output" '%p|std::hash<[^>]*\*>' '<none>' \
    "print/hash stable ids, not pointers"

# Mutable statics: hidden global state survives across runs in the
# same process, so run N's result depends on runs 1..N-1 (the sweep
# runner executes many cells per process).
ban "mutable static data" \
    '\bstatic +[A-Za-z_][A-Za-z0-9_:<>,* ]* +[A-Za-z_][A-Za-z0-9_]* *(=|\{[^)]*$)' \
    'static +(constexpr|const\b|inline +constexpr)|static_assert|// ' \
    "pass state through constructors; statics break run isolation"

# Range-for over unordered containers: iteration order is
# implementation-defined, so any ordering or output derived from such
# a loop is not portable or stable. Matched per component (a header's
# unordered members against its own .cpp/.hpp) so a vector that
# happens to share a name elsewhere does not false-positive.
unordered_iteration() {
    local hpp cpp names n hits
    for hpp in $(find src -name '*.hpp' | sort); do
        names=$(grep -hoE \
            'std::unordered_(map|set)<[^;]*> +_?[a-zA-Z0-9_]+' "$hpp" |
            grep -oE '[a-zA-Z0-9_]+$' | sort -u || true)
        [ -z "$names" ] && continue
        cpp="${hpp%.hpp}.cpp"
        for n in $names; do
            hits=$(grep -nE "for *\(.*: *(this->)?$n\b" "$hpp" \
                $([ -f "$cpp" ] && echo "$cpp") || true)
            if [ -n "$hits" ]; then
                echo "lint: BANNED pattern 'unordered iteration'" \
                     "(order is implementation-defined; iterate a" \
                     "sorted copy or a parallel vector):"
                echo "$hits" | sed "s|^|  ${hpp%.hpp}: $n: |"
                FAILED=1
            fi
        done
    done
}
unordered_iteration

if [ "$FAILED" -ne 0 ]; then
    echo "lint: FAILED"
    exit 1
fi
echo "lint: OK"

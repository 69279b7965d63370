#!/usr/bin/env bash
# Per-layer host-time profile of one benchmark workload.
#
#   scripts/profile.sh WORKLOAD [SECONDS]
#
# Builds pressbench/ with gprof instrumentation into build-prof/, runs
# `pressbench --workload WORKLOAD --trace 0` there (with `--seconds
# SECONDS` when given), and prints the flat profile's self time rolled
# up by layer, then the top 15 symbols. WORKLOAD is any name
# `pressbench --workload` accepts (see pressbench/README.md).
#
# A symbol's layer is the first `press::<ns>` in its demangled name, so
# a std container counts toward its press:: template argument:
# `std::_Hashtable<unsigned int, std::pair<..., press::core::NodeMask>,
# ...>::find` is core. The benchmark's own code is "pressbench";
# anything else (libstdc++ helpers instantiated without a press:: type)
# is "other". Time spent in shared libraries is not sampled.
#
# -fno-ipa-icf matters: with GCC's identical-code folding on, one folded
# body answers for several functions and gprof credits all their calls
# to whichever symbol survived.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/profile.sh WORKLOAD [SECONDS]" >&2
    exit 2
fi
workload="$1"
run_args=(--workload "$workload" --trace 0)
if [ $# -eq 2 ]; then
    run_args+=(--seconds "$2")
fi

build=build-prof
generator=()
if command -v ninja > /dev/null; then
    generator=(-G Ninja)
fi
cmake -S pressbench -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg -fno-ipa-icf" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg" > /dev/null
cmake --build "$build" --target pressbench -j "$(nproc)" > /dev/null

# gmon.out lands in the working directory of the profiled process.
rm -f "$build/gmon.out"
(cd "$build" && ./pressbench "${run_args[@]}") > "$build/profile_run.txt"
gprof -b -p "$build/pressbench" "$build/gmon.out" > "$build/flat.txt"

python3 - "$workload" "$build/flat.txt" <<'EOF'
import re
import sys

workload, path = sys.argv[1], sys.argv[2]
row = re.compile(r"^\s*([\d.]+)\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
symbols = []
with open(path) as f:
    for line in f:
        m = row.match(line)
        if m:
            calls = int(m.group(3)) if m.group(3) else None
            symbols.append((float(m.group(2)), calls, m.group(4)))
total = sum(s for s, _, _ in symbols)
if total == 0:
    sys.exit("profile.sh: no samples in %s" % path)


def layer(name):
    m = re.search(r"\bpress::(\w+)::", name)
    if m:
        return m.group(1)
    return "pressbench" if "pressbench::" in name else "other"


layers = {}
for self_s, _, name in symbols:
    key = layer(name)
    layers[key] = layers.get(key, 0.0) + self_s

print("%s: %.2f s of samples" % (workload, total))
print()
print("%-12s %9s %7s" % ("layer", "self_s", "share"))
for key, s in sorted(layers.items(), key=lambda kv: -kv[1]):
    print("%-12s %9.2f %6.1f%%" % (key, s, 100.0 * s / total))
print()
print("%6s %9s %11s  %s" % ("share", "self_s", "calls", "symbol"))
for self_s, calls, name in sorted(symbols, key=lambda t: -t[0])[:15]:
    if len(name) > 160:
        name = name[:157] + "..."
    print("%5.1f%% %9.2f %11s  %s" % (100.0 * self_s / total, self_s,
                                     calls if calls is not None else "",
                                     name))
EOF

/**
 * @file
 * Figure 5: throughput increase of PRESS versions V1-V5 over V0
 * (remote memory writes and zero-copy to increasing extents), per
 * trace, under VIA/cLAN with piggy-backing.
 *
 * Paper shape: V1/V2 minimal; V3 ~none (RMW file transfer needs two
 * messages); V4 +4-8% (zero-copy receive, credited to RMW); V5 +8-11%
 * total (zero-copy transmit on top).
 */

#include <iostream>

#include "bench_common.hpp"

using namespace press;
using namespace press::bench;
using namespace press::core;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    banner("Figure 5", "throughput increase of V1-V5 over V0", opts);
    TraceSet traces(opts);

    ParallelRunner runner(opts);
    for (const auto &trace : traces.all()) {
        for (auto v : {Version::V0, Version::V1, Version::V2,
                       Version::V3, Version::V4, Version::V5}) {
            PressConfig config;
            config.protocol = Protocol::ViaClan;
            config.version = v;
            runner.add(trace, config);
        }
    }
    runner.run();

    util::TextTable t;
    t.header({"trace", "V0 req/s", "V1", "V2", "V3", "V4", "V5",
              "paper V5"});
    std::size_t k = 0;
    for (const auto &trace : traces.all()) {
        double v0 = 0;
        std::vector<std::string> row{trace.name};
        for (int v = 0; v < 6; ++v) {
            double tput = runner[k++].throughput;
            if (v == 0) {
                v0 = tput;
                row.push_back(util::fmtF(tput, 0));
            } else {
                row.push_back(util::fmtSignedPct(tput / v0 - 1.0));
            }
        }
        row.push_back("+8-11%");
        t.row(row);
    }
    std::cout << t.render();
    std::cout << "\nPaper (Fig. 5): V1, V2 minimal; V3 no significant "
                 "gain (two messages per file); V4 +4%\n(Forth) to +8% "
                 "(Nasa), avg +6.6%; V5 best at +8% (Forth) to +11% "
                 "(Rutgers).\n";
    return 0;
}

/**
 * @file
 * Ablation: window-based flow control sizing.
 *
 * PRESS's fifth message type exists because VIA receive descriptors and
 * RMW ring slots are finite. This bench sweeps PressConfig::flowWindow
 * (every channel's window; credits return in batches of half of it)
 * and reports throughput and sender stalls, for V0 (everything regular) and V5 (everything RMW): tiny
 * windows serialize file transfers behind credit round-trips; beyond a
 * handful of slots the returns diminish — which is why the paper's
 * buffers are small.
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
    // Tiny windows serialize transfers behind credit round-trips and
    // run at a fraction of normal throughput: keep the cap small.
    if (opts.maxRequests == 0 || opts.maxRequests > 80000)
        opts.maxRequests = 80000;
    banner("Ablation", "flow-control window size (Clarknet)", opts);

    workload::TraceSpec spec = workload::clarknetSpec();
    workload::Trace trace = workload::generateTrace(spec);

    ParallelRunner runner(opts);
    for (int window : {1, 2, 4, 8, 16, 32}) {
        for (auto v : {Version::V0, Version::V5}) {
            PressConfig config;
            config.protocol = Protocol::ViaClan;
            config.version = v;
            config.flowWindow = window; // credits return window/2 at a time
            runner.add(trace, config);
        }
    }
    runner.run();

    util::TextTable t;
    t.header({"window", "V0 req/s", "V0 flow msgs/req", "V5 req/s",
              "V5 flow msgs/req"});
    std::size_t k = 0;
    for (int window : {1, 2, 4, 8, 16, 32}) {
        std::vector<std::string> row{std::to_string(window)};
        for (auto v : {Version::V0, Version::V5}) {
            (void)v;
            const auto &r = runner[k++];
            double per_req =
                static_cast<double>(r.comm.of(MsgKind::Flow).msgs) /
                std::max<std::uint64_t>(r.requestsMeasured, 1);
            row.push_back(util::fmtF(r.throughput, 0));
            row.push_back(util::fmtF(per_req, 2));
        }
        t.row(row);
    }
    std::cout << t.render();
    std::cout << "\nDesign note: the paper uses small per-pair buffers; "
                 "this sweep shows why — a few slots\nsuffice once "
                 "credit returns are batched, and window-1 serializes "
                 "transfers behind credits.\n";
    return 0;
}

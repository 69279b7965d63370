/**
 * @file
 * Extension: response latency under open-loop (Poisson) load.
 *
 * The paper evaluates throughput only, arguing server latency is small
 * against WAN latencies. With the simulator we can also show *where*
 * user-level communication moves the latency curve: sweeping offered
 * load toward saturation, the TCP configurations hit the hockey stick
 * earlier than VIA/V5 — the capacity gap of Figure 3 seen from the
 * latency side.
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
    // Low offered rates take long simulated times; keep the default
    // window modest (still thousands of samples per point).
    if (opts.maxRequests > 60000)
        opts.maxRequests = 60000;
    banner("Latency", "mean latency vs. offered load (Clarknet, open "
                      "loop)",
           opts);

    workload::TraceSpec spec = workload::clarknetSpec();
    workload::Trace trace = workload::generateTrace(spec);

    ParallelRunner runner(opts);
    for (double rate : {1000.0, 2500.0, 4000.0, 5000.0, 5500.0,
                        6000.0}) {
        for (bool via : {false, true}) {
            PressConfig config;
            config.protocol = via ? Protocol::ViaClan
                                  : Protocol::TcpClan;
            config.version = via ? Version::V5 : Version::V0;
            config.clientMode = PressConfig::ClientMode::OpenLoop;
            config.traffic = traffic::steadyScenario(rate);
            // Caches above the 410 MB working set: at fixed offered
            // load the disks would otherwise dominate the latency and
            // mask the communication effect under study.
            config.cacheBytes = 512 * util::MB;
            runner.add(trace, config);
        }
    }
    runner.run();

    util::TextTable t;
    t.header({"offered req/s", "TCP/cLAN mean ms", "TCP p99",
              "VIA-V5 mean ms", "V5 p99"});
    std::size_t k = 0;
    for (double rate : {1000.0, 2500.0, 4000.0, 5000.0, 5500.0,
                        6000.0}) {
        std::vector<std::string> row{util::fmtF(rate, 0)};
        for (bool via : {false, true}) {
            (void)via;
            const auto &r = runner[k++];
            bool saturated =
                r.throughput < rate * 0.95 || r.avgLatencyMs > 2000;
            if (saturated) {
                row.push_back("saturated");
                row.push_back("-");
            } else {
                row.push_back(util::fmtF(r.avgLatencyMs, 1));
                row.push_back(util::fmtF(r.p99LatencyMs, 1));
            }
        }
        t.row(row);
    }
    std::cout << t.render();
    std::cout << "\nExpected shape: both flat at low load; TCP/cLAN "
                 "saturates near its Figure 3 capacity\n(~5 k req/s) "
                 "while VIA-V5 keeps serving with low latency beyond "
                 "it.\n";
    return 0;
}

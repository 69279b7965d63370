/**
 * @file
 * Ablation: client concurrency vs. the overload threshold T = 80.
 *
 * The distribution policy's replication behaviour pivots on whether
 * node loads sit above or below T: well below, candidates are never
 * overloaded and nearly every non-local request forwards; well above,
 * everything is "overloaded" and forwarding continues but replication
 * events (overloaded candidate + idle initial node) happen on load
 * dips. This sweep exposes that pivot and motivates the default of 88
 * clients per node used to reproduce the paper's operating point.
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
    if (opts.maxRequests > 300000)
        opts.maxRequests = 300000;
    banner("Ablation", "client concurrency around T = 80 (Clarknet)",
           opts);

    workload::TraceSpec spec = workload::clarknetSpec();
    workload::Trace trace = workload::generateTrace(spec);

    ParallelRunner runner(opts);
    for (int k : {32, 48, 64, 80, 88, 96, 128}) {
        PressConfig via;
        via.protocol = Protocol::ViaClan;
        via.version = Version::V0;
        via.clientsPerNode = k;
        runner.add(trace, via);

        PressConfig tcp = via;
        tcp.protocol = Protocol::TcpClan;
        runner.add(trace, tcp);
    }
    runner.run();

    util::TextTable t;
    t.header({"clients/node", "req/s", "latency ms", "fwd frac",
              "local hits", "VIA-V0 gain over TCP/cLAN"});
    std::size_t cell = 0;
    for (int k : {32, 48, 64, 80, 88, 96, 128}) {
        const auto &rv = runner[cell++];
        const auto &rt = runner[cell++];

        t.row({std::to_string(k), util::fmtF(rv.throughput, 0),
               util::fmtF(rv.avgLatencyMs, 0),
               util::fmtPct(rv.forwardFraction),
               util::fmtPct(rv.localHitFraction),
               util::fmtSignedPct(rv.throughput / rt.throughput - 1)});
    }
    std::cout << t.render();
    std::cout << "\nDesign note: below T the cluster forwards almost "
                 "everything (large user-level gains);\nabove T "
                 "replication raises local hit rates and shrinks the "
                 "gains — the paper's measured\n14-17% corresponds to "
                 "loads hovering just above T.\n";
    return 0;
}

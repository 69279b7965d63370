/**
 * @file
 * Section 3.2 microbenchmarks, as a google-benchmark binary: 4-byte
 * one-way latency and 32 KB streamed bandwidth for each
 * protocol/network combination.
 *
 * Wall-clock time here measures the *simulator's* speed; the numbers
 * that reproduce the paper are the reported counters:
 *   sim_latency_us  — simulated one-way latency (paper: 82 / 76 / 9 us)
 *   sim_bw_MBps     — simulated streamed bandwidth for 32 KB messages
 *                     (paper: 11.5 / 32 / 102 MB/s)
 */

#include <benchmark/benchmark.h>

#include "net/payload.hpp"
#include "sim/resource.hpp"
#include "tcpnet/tcp_stack.hpp"
#include "via/via_nic.hpp"

using namespace press;

namespace {

/** One-way TCP latency / bandwidth over a given fabric. */
void
tcpMicro(benchmark::State &state, net::FabricConfig fabric_cfg,
         tcpnet::TcpCosts costs, std::uint64_t bytes, bool bandwidth)
{
    double metric = 0;
    for (auto _ : state) {
        sim::Simulator sim;
        net::Fabric fabric(sim, fabric_cfg, 2);
        sim::FifoResource cpu_a(sim, "a"), cpu_b(sim, "b");
        tcpnet::TcpStack sa(sim, fabric, 0, cpu_a, 0, costs);
        tcpnet::TcpStack sb(sim, fabric, 1, cpu_b, 0, costs);
        auto [ab, ba] = tcpnet::TcpStack::connect(sa, sb, 256 * 1024);
        (void)ba;
        std::uint64_t received = 0;
        ab->onReceive([&](std::uint64_t b, const net::Payload &) {
            received += b;
        });
        int msgs = bandwidth ? 64 : 1;
        for (int i = 0; i < msgs; ++i)
            ab->send(bytes);
        sim.run();
        if (bandwidth)
            metric = static_cast<double>(received) /
                     sim::nsToSeconds(sim.now()) / 1e6;
        else
            metric = static_cast<double>(sim.now()) / 1000.0;
        benchmark::DoNotOptimize(received);
    }
    state.counters[bandwidth ? "sim_bw_MBps" : "sim_latency_us"] =
        metric;
}

/** One-way VIA latency / bandwidth (NIC + wire + host post costs). */
void
viaMicro(benchmark::State &state, std::uint64_t bytes, bool bandwidth,
         bool rmw)
{
    double metric = 0;
    for (auto _ : state) {
        sim::Simulator sim;
        net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
        via::ViaNic na(sim, fabric, 0), nb(sim, fabric, 1);
        auto *va = na.createVi();
        auto *vb = nb.createVi();
        via::ViaNic::connect(*va, *vb);
        auto src = na.registerMemory(1 << 20);
        auto dst = nb.registerMemory(1 << 20);

        int msgs = bandwidth ? 64 : 1;
        // Host-side post/reap costs (PostCosts) occur before/after the
        // NIC path; add them to the reported latency.
        sim::Tick host = na.costs().sendPost + na.costs().cqPoll;
        if (rmw) {
            for (int i = 0; i < msgs; ++i)
                va->postSend(via::makeRdmaWrite(src.base, bytes,
                                                dst.base));
        } else {
            for (int i = 0; i < msgs; ++i)
                vb->postRecv(via::makeRecv(dst.base, 1 << 20));
            for (int i = 0; i < msgs; ++i)
                va->postSend(via::makeSend(src.base, bytes));
        }
        sim.run();
        if (bandwidth)
            metric = static_cast<double>(msgs * bytes) /
                     sim::nsToSeconds(sim.now()) / 1e6;
        else
            metric = static_cast<double>(sim.now() + host) / 1000.0;
        benchmark::DoNotOptimize(metric);
    }
    state.counters[bandwidth ? "sim_bw_MBps" : "sim_latency_us"] =
        metric;
}

void
BM_TcpFE_Latency4B(benchmark::State &s)
{
    tcpMicro(s, net::FabricConfig::fastEthernet(),
             tcpnet::TcpCosts::defaults(), 4, false);
}
void
BM_TcpClan_Latency4B(benchmark::State &s)
{
    tcpMicro(s, net::FabricConfig::clan(), tcpnet::TcpCosts::clan(), 4,
             false);
}
void
BM_Via_Latency4B(benchmark::State &s)
{
    viaMicro(s, 4, false, false);
}
void
BM_ViaRmw_Latency4B(benchmark::State &s)
{
    viaMicro(s, 4, false, true);
}
void
BM_TcpFE_Bandwidth32K(benchmark::State &s)
{
    tcpMicro(s, net::FabricConfig::fastEthernet(),
             tcpnet::TcpCosts::defaults(), 32000, true);
}
void
BM_TcpClan_Bandwidth32K(benchmark::State &s)
{
    tcpMicro(s, net::FabricConfig::clan(), tcpnet::TcpCosts::clan(),
             32000, true);
}
void
BM_Via_Bandwidth32K(benchmark::State &s)
{
    viaMicro(s, 32000, true, false);
}

BENCHMARK(BM_TcpFE_Latency4B);
BENCHMARK(BM_TcpClan_Latency4B);
BENCHMARK(BM_Via_Latency4B);
BENCHMARK(BM_ViaRmw_Latency4B);
BENCHMARK(BM_TcpFE_Bandwidth32K);
BENCHMARK(BM_TcpClan_Bandwidth32K);
BENCHMARK(BM_Via_Bandwidth32K);

} // namespace

BENCHMARK_MAIN();

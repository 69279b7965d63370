/**
 * @file
 * Tests for the TCP stack model: cost arithmetic, ordered delivery,
 * socket-buffer flow control, and the Section 3.2 calibration anchors.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/payload.hpp"
#include "sim/resource.hpp"
#include "tcpnet/tcp_stack.hpp"
#include "util/units.hpp"

using namespace press;
using namespace press::util;
using tcpnet::TcpChannel;
using tcpnet::TcpCosts;
using tcpnet::TcpStack;

namespace {

struct Pair {
    sim::Simulator sim;
    net::Fabric fabric;
    sim::FifoResource cpuA, cpuB;
    TcpStack stackA, stackB;
    TcpChannel *ab = nullptr, *ba = nullptr;

    explicit Pair(net::FabricConfig cfg = net::FabricConfig::fastEthernet(),
                  TcpCosts costs = TcpCosts::defaults(),
                  std::uint64_t sockbuf = 64 * 1024)
        : fabric(sim, cfg, 2),
          cpuA(sim, "cpuA"),
          cpuB(sim, "cpuB"),
          stackA(sim, fabric, 0, cpuA, 0, costs),
          stackB(sim, fabric, 1, cpuB, 0, costs)
    {
        auto [f, r] = TcpStack::connect(stackA, stackB, sockbuf);
        ab = f;
        ba = r;
    }
};

} // namespace

TEST(TcpCosts, SegmentsAndWireBytes)
{
    TcpCosts c = TcpCosts::defaults();
    EXPECT_EQ(c.segments(0), 1u);
    EXPECT_EQ(c.segments(1460), 1u);
    EXPECT_EQ(c.segments(1461), 2u);
    EXPECT_EQ(c.segments(32000), 22u);
    EXPECT_EQ(c.wireBytes(1000), 1000 + 58u);
    EXPECT_EQ(c.wireBytes(3000), 3000 + 3 * 58u);
}

TEST(TcpCosts, ClanVariantHasFewerSegments)
{
    TcpCosts fe = TcpCosts::defaults();
    TcpCosts cl = TcpCosts::clan();
    EXPECT_GT(fe.segments(32000), cl.segments(32000));
    EXPECT_GT(fe.recvCpu(32000), cl.recvCpu(32000));
    // Fixed and per-byte identical: the same kernel.
    EXPECT_EQ(fe.sendFixed, cl.sendFixed);
    EXPECT_EQ(fe.sendPerByte, cl.sendPerByte);
}

TEST(TcpChannel, DeliversPayloadInOrder)
{
    Pair p;
    std::vector<int> got;
    p.ab->onReceive([&](std::uint64_t, const net::Payload &pl) {
        got.push_back(*net::payloadAs<int>(pl));
    });
    for (int i = 0; i < 20; ++i)
        p.ab->send(100 + i, net::makePayload<int>(i));
    p.sim.run();
    ASSERT_EQ(got.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(TcpChannel, ChargesBothCpus)
{
    Pair p;
    p.ab->onReceive([](std::uint64_t, const net::Payload &) {});
    p.ab->send(10000);
    p.sim.run();
    EXPECT_GT(p.cpuA.busyTime(), 0);
    EXPECT_GT(p.cpuB.busyTime(), 0);
    // Send side: fixed + per-byte + per-segment.
    TcpCosts c = TcpCosts::defaults();
    EXPECT_EQ(p.cpuA.busyTime(), c.sendCpu(10000));
    EXPECT_EQ(p.cpuB.busyTime(), c.recvCpu(10000));
}

TEST(TcpChannel, WindowBlocksExcessTraffic)
{
    // Tiny socket buffer: the second message must wait until the first
    // is consumed remotely.
    Pair p(net::FabricConfig::fastEthernet(), TcpCosts::defaults(), 1000);
    std::vector<sim::Tick> arrivals;
    p.ab->onReceive([&](std::uint64_t, const net::Payload &) {
        arrivals.push_back(p.sim.now());
    });
    p.ab->send(900);
    p.ab->send(900);
    EXPECT_EQ(p.ab->backlog(), 1u);
    EXPECT_EQ(p.stackA.stats().sendsBlocked, 1u);
    p.sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_GT(arrivals[1], arrivals[0]);
    EXPECT_EQ(p.ab->inFlight(), 0u);
}

TEST(TcpChannel, OversizedMessageStillAdmittedAlone)
{
    Pair p(net::FabricConfig::fastEthernet(), TcpCosts::defaults(), 1000);
    int got = 0;
    p.ab->onReceive([&](std::uint64_t, const net::Payload &) { ++got; });
    p.ab->send(50000); // bigger than the whole window
    p.sim.run();
    EXPECT_EQ(got, 1);
}

TEST(TcpChannel, BothDirectionsIndependent)
{
    Pair p;
    int a2b = 0, b2a = 0;
    p.ab->onReceive([&](std::uint64_t, const net::Payload &) { ++a2b; });
    p.ba->onReceive([&](std::uint64_t, const net::Payload &) { ++b2a; });
    p.ab->send(100);
    p.ba->send(100);
    p.ba->send(100);
    p.sim.run();
    EXPECT_EQ(a2b, 1);
    EXPECT_EQ(b2a, 2);
    EXPECT_EQ(p.stackA.stats().messagesSent, 1u);
    EXPECT_EQ(p.stackA.stats().messagesReceived, 2u);
}

/** Paper anchor (S3.2): 4-byte one-way latency ~82 us on FE, ~76 us on
 *  cLAN. Allow +-20%, and pin the exact arrival tick. */
TEST(TcpChannel, PaperAnchorSmallMessageLatency)
{
    for (bool clan : {false, true}) {
        Pair p(clan ? net::FabricConfig::clan()
                    : net::FabricConfig::fastEthernet(),
               clan ? TcpCosts::clan() : TcpCosts::defaults());
        sim::Tick arrived = -1;
        p.ab->onReceive([&](std::uint64_t, const net::Payload &) {
            arrived = p.sim.now();
        });
        p.ab->send(4);
        p.sim.run();
        double us = static_cast<double>(arrived) / 1000.0;
        double target = clan ? 76.0 : 82.0;
        EXPECT_GT(us, target * 0.8) << (clan ? "cLAN" : "FE");
        EXPECT_LT(us, target * 1.2) << (clan ? "cLAN" : "FE");
        EXPECT_EQ(arrived, clan ? 66404 : 86776) << (clan ? "cLAN" : "FE");
    }
}

/** Paper anchor (S3.2): streamed 32 KB messages reach ~11.5 MB/s on FE
 *  (wire-limited) and ~32 MB/s on cLAN (CPU-limited). The run's end
 *  tick is pinned exactly. */
TEST(TcpChannel, PaperAnchorStreamBandwidth)
{
    for (bool clan : {false, true}) {
        Pair p(clan ? net::FabricConfig::clan()
                    : net::FabricConfig::fastEthernet(),
               clan ? TcpCosts::clan() : TcpCosts::defaults(),
               256 * 1024);
        std::uint64_t received = 0;
        p.ab->onReceive([&](std::uint64_t bytes, const net::Payload &) {
            received += bytes;
        });
        const int msgs = 64;
        for (int i = 0; i < msgs; ++i)
            p.ab->send(32000);
        p.sim.run();
        ASSERT_EQ(received, msgs * 32000u);
        double secs = sim::nsToSeconds(p.sim.now());
        double bw = static_cast<double>(received) / secs / 1e6;
        if (clan) {
            EXPECT_GT(bw, 26.0);
            EXPECT_LT(bw, 40.0);
            EXPECT_EQ(p.sim.now(), 61457732);
        } else {
            EXPECT_GT(bw, 10.0);
            EXPECT_LT(bw, 13.0);
            EXPECT_EQ(p.sim.now(), 186630000);
        }
    }
}

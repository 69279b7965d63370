/**
 * @file
 * Tests for the switched-fabric model: latency arithmetic, per-port
 * serialization/contention, statistics, and the Section 3.2
 * microbenchmark anchors.
 */

#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "util/units.hpp"

using press::net::Fabric;
using press::net::FabricConfig;
using press::sim::Simulator;
using press::sim::Tick;
using namespace press::util;

TEST(Fabric, UnloadedLatencyMatchesConfig)
{
    Simulator sim;
    FabricConfig cfg;
    cfg.name = "test";
    cfg.bandwidth = 100 * MB;
    cfg.txOverhead = 2 * US;
    cfg.rxOverhead = 3 * US;
    cfg.wireLatency = 5 * US;
    Fabric f(sim, cfg, 2);

    // 1000 bytes at 100 MB/s = 10 us serialization each end.
    EXPECT_EQ(f.txTime(1000), 2 * US + 10 * US);
    EXPECT_EQ(f.rxTime(1000), 3 * US + 10 * US);
    EXPECT_EQ(f.unloadedLatency(1000), 30 * US);

    Tick arrived = -1;
    f.send(0, 1, 1000, [&] { arrived = sim.now(); });
    sim.run();
    EXPECT_EQ(arrived, 30 * US);
}

TEST(Fabric, SenderPortSerializes)
{
    Simulator sim;
    FabricConfig cfg;
    cfg.name = "t";
    cfg.bandwidth = 1 * MB; // 1 us per byte: easy math
    cfg.txOverhead = 0;
    cfg.rxOverhead = 0;
    cfg.wireLatency = 0;
    Fabric f(sim, cfg, 3);
    std::vector<Tick> arrivals;
    // Two back-to-back 1000-byte messages from port 0 to distinct
    // destinations must serialize at the sender.
    f.send(0, 1, 1000, [&] { arrivals.push_back(sim.now()); });
    f.send(0, 2, 1000, [&] { arrivals.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 2 * MS);     // tx 1ms + rx 1ms
    EXPECT_EQ(arrivals[1], 3 * MS);     // waited 1ms behind the first
}

TEST(Fabric, ReceiverPortSerializes)
{
    Simulator sim;
    FabricConfig cfg;
    cfg.name = "t";
    cfg.bandwidth = 1 * MB;
    cfg.txOverhead = 0;
    cfg.rxOverhead = 0;
    cfg.wireLatency = 0;
    Fabric f(sim, cfg, 3);
    std::vector<Tick> arrivals;
    // Two senders target port 2 simultaneously: their RX phases queue.
    f.send(0, 2, 1000, [&] { arrivals.push_back(sim.now()); });
    f.send(1, 2, 1000, [&] { arrivals.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 2 * MS);
    EXPECT_EQ(arrivals[1], 3 * MS);
}

TEST(Fabric, LoopbackSkipsWire)
{
    Simulator sim;
    Fabric f(sim, FabricConfig::clan(), 2);
    Tick arrived = -1;
    f.send(1, 1, 1000, [&] { arrived = sim.now(); });
    sim.run();
    EXPECT_EQ(arrived, f.txTime(1000));
    EXPECT_EQ(f.stats(1).messagesSent, 1u);
    EXPECT_EQ(f.stats(1).messagesReceived, 1u);
}

TEST(Fabric, StatsCountMessagesAndBytes)
{
    Simulator sim;
    Fabric f(sim, FabricConfig::fastEthernet(), 4);
    f.send(0, 1, 500, {});
    f.send(0, 2, 700, {});
    f.send(3, 0, 100, {});
    sim.run();
    EXPECT_EQ(f.stats(0).messagesSent, 2u);
    EXPECT_EQ(f.stats(0).bytesSent, 1200u);
    EXPECT_EQ(f.stats(0).messagesReceived, 1u);
    EXPECT_EQ(f.stats(1).bytesReceived, 500u);
    f.resetStats();
    EXPECT_EQ(f.stats(0).messagesSent, 0u);
}

TEST(Fabric, PaperAnchorClanBandwidth)
{
    // Section 3.2: VIA/cLAN peaks at ~102 MB/s for 32 KB messages. The
    // wire share of a 32 KB transfer must let that through.
    Simulator sim;
    Fabric f(sim, FabricConfig::clan(), 2);
    // Streamed bandwidth is limited by the per-port serialization time.
    double secs = press::sim::nsToSeconds(f.txTime(32000));
    double bw = 32000.0 / secs;
    EXPECT_GT(bw, 95e6);
    EXPECT_LT(bw, 112e6);
    // 3 us NIC overhead + 32000 B at 105 MB/s.
    EXPECT_EQ(f.txTime(32000), 307761);
}

TEST(Fabric, PaperAnchorFastEthernetBandwidth)
{
    // Section 3.2: TCP/FE observes 11.5 MB/s for 32 KB messages
    // (wire-limited).
    Simulator sim;
    Fabric f(sim, FabricConfig::fastEthernet(), 2);
    double secs = press::sim::nsToSeconds(f.txTime(32000));
    double bw = 32000.0 / secs;
    EXPECT_GT(bw, 10.5e6);
    EXPECT_LT(bw, 12.5e6);
    // 4 us NIC overhead + 32000 B at 11.75 MB/s.
    EXPECT_EQ(f.txTime(32000), 2727404);
}

TEST(Fabric, ZeroByteMessageStillCostsOverhead)
{
    Simulator sim;
    Fabric f(sim, FabricConfig::clan(), 2);
    EXPECT_EQ(f.txTime(0), FabricConfig::clan().txOverhead);
}

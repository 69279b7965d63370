/**
 * @file
 * Golden-stats regression for the server paths test_core_golden does
 * not reach: gossip rounds over a sharded directory, tree waves,
 * membership rumors under a crash/restart plan, a graceful leave and
 * join, a crash that overlaps another node's leave, the LARD
 * front-end's hand-off, and the open-loop client path with keep-alive
 * sessions and the dynamic request class.
 *
 * Same contract as test_core_golden: the constants were captured from
 * complete runs and are compared exactly. Each run pins throughput,
 * the event count, the final tick, the per-kind message counts and the
 * counters its path owns. Latency percentiles are deliberately left
 * out: they come from a log-bucket histogram whose rule is expected to
 * change on its own schedule, and these pins guard the message paths.
 *
 * If a deliberate simulation-model change moves these numbers, rebase
 * the constants from a trusted build and say so in the commit.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/cluster.hpp"
#include "traffic/traffic_model.hpp"
#include "workload/trace_gen.hpp"

using namespace press;

namespace {

constexpr auto NumKinds = static_cast<std::size_t>(core::MsgKind::NumKinds);
using KindCounts = std::array<std::uint64_t, NumKinds>;

workload::Trace
goldenTrace()
{
    auto spec = workload::clarknetSpec();
    spec.numRequests = 30000;
    return workload::generateTrace(spec);
}

struct GoldenRun {
    core::ClusterResults r;
    std::uint64_t events = 0;
    sim::Tick now = 0;
    KindCounts msgs{}; ///< messages sent, by MsgKind
};

GoldenRun
runGolden(const core::PressConfig &config, std::uint64_t requests)
{
    auto trace = goldenTrace();
    core::PressCluster cluster(config, trace);
    GoldenRun g;
    g.r = cluster.run(requests);
    g.events = cluster.simulator().eventsExecuted();
    g.now = cluster.simulator().now();
    for (std::size_t k = 0; k < g.msgs.size(); ++k)
        g.msgs[k] = g.r.comm.byKind[k].msgs;
    return g;
}

} // namespace

TEST(GoldenPaths, GossipShardedViaV0EightNodes)
{
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 8;
    config.dissemination = core::Dissemination::gossip(4);
    config.directoryMode = core::DirectoryMode::Sharded;
    auto g = runGolden(config, 20000);

    EXPECT_EQ(g.r.throughput, 852.58573604056255);
    EXPECT_EQ(g.r.requestsMeasured, 20700u);
    EXPECT_EQ(g.events, 1955479u);
    EXPECT_EQ(g.now, 59082454804);
    EXPECT_EQ(g.msgs, (KindCounts{34480, 17227, 21103, 7422, 5911, 0}));
    EXPECT_EQ(g.r.gossipRounds, 8620u);
    EXPECT_EQ(g.r.gossipRumorSends, 238980u);
    EXPECT_EQ(g.r.dirLookups, 10361u);
}

TEST(GoldenPaths, TreeTcpClanEightNodes)
{
    core::PressConfig config;
    config.protocol = core::Protocol::TcpClan;
    config.nodes = 8;
    config.dissemination = core::Dissemination::tree(4);
    auto g = runGolden(config, 20000);

    EXPECT_EQ(g.r.throughput, 802.51117742634733);
    EXPECT_EQ(g.r.requestsMeasured, 20701u);
    EXPECT_EQ(g.events, 2962656u);
    EXPECT_EQ(g.now, 60511438350);
    EXPECT_EQ(g.msgs, (KindCounts{66003, 0, 5895, 63518, 5895, 0}));
    EXPECT_EQ(g.r.loadWaves, 9429u);
    EXPECT_EQ(g.r.cachingWaves, 9074u);
}

TEST(GoldenPaths, GossipCrashRestartViaV0EightNodes)
{
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 8;
    config.dissemination = core::Dissemination::gossip(4);
    config.fault = fault::FaultPlan::parse("crash:3@30s;restart:3@40s");
    auto g = runGolden(config, 20000);

    EXPECT_EQ(g.r.throughput, 656.85733124565297);
    EXPECT_EQ(g.r.requestsMeasured, 20703u);
    EXPECT_EQ(g.events, 2173013u);
    EXPECT_EQ(g.now, 66930652434);
    EXPECT_EQ(g.msgs, (KindCounts{32431, 21689, 9807, 34711, 9807, 28}));
    EXPECT_EQ(g.r.gossipRumorSends, 478028u);
    EXPECT_EQ(g.r.membershipSends, 28u);
    EXPECT_EQ(g.r.requestsRetried, 0u);
    EXPECT_EQ(g.r.requestsLost, 0u);
}

TEST(GoldenPaths, OpenLoopKeepAliveDynamicViaV5FourNodes)
{
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.nodes = 4;
    config.cacheBytes = 64 * util::MB;
    config.clientMode = core::PressConfig::ClientMode::OpenLoop;
    config.traffic = traffic::keepAliveScenario(400);
    config.traffic.dynamicFraction = 0.25;
    config.warmupFraction = 0.3;
    auto g = runGolden(config, 8000);

    EXPECT_EQ(g.r.throughput, 376.04107992895757);
    EXPECT_EQ(g.r.requestsMeasured, 8351u);
    EXPECT_EQ(g.r.offeredRequests, 8000u);
    EXPECT_EQ(g.events, 237077u);
    EXPECT_EQ(g.now, 31847619472);
    EXPECT_EQ(g.msgs, (KindCounts{0, 4622, 1407, 11463, 2814, 0}));
    EXPECT_EQ(g.r.keepAliveRequests, 6944u);
    EXPECT_EQ(g.r.dynamicRequests, 2033u);
    EXPECT_EQ(g.r.sessionsClosed, 1023u);
}

TEST(GoldenPaths, LardFrontEndTcpClanFourNodes)
{
    core::PressConfig config;
    config.protocol = core::Protocol::TcpClan;
    config.nodes = 4;
    config.distribution = core::Distribution::FrontEndLard;
    auto g = runGolden(config, 20000);

    EXPECT_EQ(g.r.throughput, 923.05980052574205);
    EXPECT_EQ(g.r.requestsMeasured, 20351u);
    EXPECT_EQ(g.events, 507176u);
    EXPECT_EQ(g.now, 78115703407);
    EXPECT_EQ(g.msgs, (KindCounts{0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(g.r.requestsLost, 0u);
    EXPECT_EQ(g.r.clientRetries, 0u);
    EXPECT_EQ(g.r.membershipSends, 0u);
    EXPECT_EQ(g.r.reAnnouncedFiles, 0u);
}

namespace {

/** The fault suite's churn shape: 8 nodes of 4 clients each, no
 *  warm-up, so the plan's times are absolute simulated time. */
core::PressConfig
churnConfig(core::Version version, const char *plan)
{
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = version;
    config.nodes = 8;
    config.clientsPerNode = 4;
    config.warmupFraction = 0.0;
    config.fault = fault::FaultPlan::parse(plan);
    return config;
}

} // namespace

TEST(GoldenPaths, LeaveJoinPiggyBackReplicatedViaV5EightNodes)
{
    auto config = churnConfig(core::Version::V5,
                              "leave:3@200ms;join:3@600ms");
    auto g = runGolden(config, 8000);

    EXPECT_EQ(g.r.throughput, 476.66697053947706);
    EXPECT_EQ(g.r.requestsMeasured, 8000u);
    EXPECT_EQ(g.events, 341362u);
    EXPECT_EQ(g.now, 16783206084);
    EXPECT_EQ(g.msgs, (KindCounts{0, 12125, 2507, 36095, 5014, 56}));
    EXPECT_EQ(g.r.requestsLost, 0u);
    EXPECT_EQ(g.r.clientRetries, 6u);
    EXPECT_EQ(g.r.membershipSends, 56u);
    EXPECT_EQ(g.r.reAnnouncedFiles, 177u);
}

TEST(GoldenPaths, CrashOverlappingLeaveGossipShardedViaV0EightNodes)
{
    auto config = churnConfig(core::Version::V0,
                              "crash:1@200ms;leave:3@250ms;restart:1@600ms");
    config.dissemination = core::Dissemination::gossip();
    config.directoryMode = core::DirectoryMode::Sharded;
    auto g = runGolden(config, 8000);

    EXPECT_EQ(g.r.throughput, 239.5672554099057);
    EXPECT_EQ(g.r.requestsMeasured, 8000u);
    EXPECT_EQ(g.events, 613966u);
    EXPECT_EQ(g.now, 33466976481);
    EXPECT_EQ(g.msgs, (KindCounts{35189, 13242, 11620, 5462, 734, 72}));
    EXPECT_EQ(g.r.requestsLost, 0u);
    EXPECT_EQ(g.r.clientRetries, 11u);
    EXPECT_EQ(g.r.membershipSends, 72u);
    EXPECT_EQ(g.r.reAnnouncedFiles, 30u);
}

/**
 * @file
 * Randomized configuration sweep ("fuzz"): run many randomly drawn
 * cluster configurations end-to-end and check the invariants that must
 * hold for every one of them — conservation (every request answered
 * exactly once), no flow-control violations (reliable VIA runs panic on
 * overrun, so merely finishing is the assertion), no malformed HTTP,
 * and determinism.
 */

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "util/random.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

namespace {

PressConfig
randomConfig(util::Rng &rng)
{
    PressConfig c;
    c.nodes = 1 + static_cast<int>(rng.uniformInt(6));
    switch (rng.uniformInt(3)) {
      case 0:
        c.protocol = Protocol::TcpFastEthernet;
        break;
      case 1:
        c.protocol = Protocol::TcpClan;
        break;
      default:
        c.protocol = Protocol::ViaClan;
        break;
    }
    c.version = static_cast<Version>(rng.uniformInt(6));
    switch (rng.uniformInt(4)) {
      case 0:
        c.dissemination = Dissemination::piggyBack();
        break;
      case 1:
        c.dissemination = Dissemination::broadcast(
            1 + static_cast<int>(rng.uniformInt(16)),
            rng.uniform() < 0.5);
        break;
      case 2:
        c.dissemination = Dissemination::none();
        break;
      default:
        c.dissemination = Dissemination::piggyBack();
        break;
    }
    if (rng.uniform() < 0.2)
        c.distribution = Distribution::LocalOnly;
    else if (rng.uniform() < 0.2)
        c.distribution = Distribution::FrontEndLard;
    c.flowWindow = 1 + static_cast<int>(rng.uniformInt(12));
    c.cacheBytes = (1 + rng.uniformInt(24)) * util::MB;
    c.clientsPerNode = 8 + static_cast<int>(rng.uniformInt(80));
    c.overloadThreshold = 10 + static_cast<int>(rng.uniformInt(100));
    c.warmupFraction = rng.uniform() < 0.5 ? 0.0 : 0.4;
    if (rng.uniform() < 0.3) {
        c.cpuSpeeds.resize(c.nodes);
        for (auto &s : c.cpuSpeeds)
            s = 0.3 + rng.uniform() * 1.4;
    }
    c.seed = rng.next();
    return c;
}

} // namespace

class FuzzSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzSweep, InvariantsHoldForRandomConfigs)
{
    util::Rng rng(0xF022 + GetParam());

    workload::TraceSpec spec;
    spec.numFiles = 200 + rng.uniformInt(600);
    spec.numRequests = 4000;
    spec.avgFileSize = 4000 + rng.uniform() * 30000;
    spec.sizeSigma = 0.8 + rng.uniform();
    spec.seed = rng.next();
    workload::Trace trace = workload::generateTrace(spec);

    PressConfig config = randomConfig(rng);
    SCOPED_TRACE(config.label() + " nodes=" +
                 std::to_string(config.nodes) + " win=" +
                 std::to_string(config.flowWindow));

    PressCluster cluster(config, trace);
    auto r = cluster.run();

    // 1. Conservation: every request answered, none duplicated. (With
    // a warm-up window, requests in flight at the stats reset are
    // answered afterwards, so replies may exceed requests by at most
    // the number of client connections.)
    std::uint64_t requests = 0, replies = 0;
    for (int i = 0; i < config.nodes; ++i) {
        requests += cluster.server(i).stats().requests;
        replies += cluster.server(i).stats().replies;
    }
    if (config.warmupFraction == 0.0) {
        EXPECT_EQ(requests, replies);
    } else {
        EXPECT_GE(replies, requests);
        EXPECT_LE(replies - requests,
                  static_cast<std::uint64_t>(config.clientsPerNode) *
                      config.nodes);
    }
    EXPECT_TRUE(cluster.simulator().idle());
    // Nothing stranded, warm-up or not: no fault plan is drawn.
    EXPECT_EQ(r.requestsLost, 0u);

    // 2. The HTTP pipeline never rejected a generated request.
    EXPECT_EQ(cluster.badRequests(), 0u);

    // 3. Sane outputs.
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GE(r.forwardFraction, 0.0);
    EXPECT_LE(r.forwardFraction, 1.0);

    // 4. Determinism: an identical rerun produces identical results.
    PressCluster again(config, trace);
    auto r2 = again.run();
    EXPECT_DOUBLE_EQ(r.throughput, r2.throughput);
    EXPECT_EQ(r.comm.total().bytes, r2.comm.total().bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 24));

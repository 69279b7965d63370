/**
 * @file
 * Tests for the comm backends (TCP and VIA V0-V5) in isolation: message
 * kinds and sizes, delivery, piggy-backing, traffic accounting
 * (Tables 2/4 semantics), and flow control.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "check/via_checker.hpp"
#include "core/tcp_comm.hpp"
#include "core/via_comm.hpp"
#include "osnode/node.hpp"

using namespace press;
using namespace press::core;

namespace {

/** A tiny N-node comm-only rig (no server logic). */
struct Rig {
    PressConfig config;
    sim::Simulator sim;
    std::unique_ptr<net::Fabric> fabric;
    /** One checker for every node, as PressCluster builds it, so
     *  cross-node invariants are checked too. */
    std::unique_ptr<check::ViaChecker> checker;
    std::vector<std::unique_ptr<osnode::Node>> nodes;
    std::vector<std::unique_ptr<ClusterComm>> comms;
    std::vector<std::vector<Incoming>> received;

    Rig(int n, Protocol proto, Version version,
        Dissemination diss = Dissemination::piggyBack())
    {
        config.nodes = n;
        config.protocol = proto;
        config.version = version;
        config.dissemination = diss;
        fabric = std::make_unique<net::Fabric>(
            sim,
            proto == Protocol::TcpFastEthernet
                ? net::FabricConfig::fastEthernet()
                : net::FabricConfig::clan(),
            n);
        received.resize(n);
        for (int i = 0; i < n; ++i)
            nodes.push_back(std::make_unique<osnode::Node>(sim, i));

        if (proto == Protocol::ViaClan) {
            if (config.viaCheck != ViaCheck::Off)
                checker = std::make_unique<check::ViaChecker>(
                    sim, config.viaCheck == ViaCheck::Record
                             ? check::CheckMode::Record
                             : check::CheckMode::Abort);
            std::vector<std::unique_ptr<ViaComm>> vias;
            for (int i = 0; i < n; ++i)
                vias.push_back(std::make_unique<ViaComm>(
                    sim, i, config, nodes[i]->cpu(), *fabric,
                    checker.get()));
            ViaComm::linkMesh(vias);
            for (auto &v : vias)
                comms.push_back(std::move(v));
        } else {
            std::vector<std::unique_ptr<TcpComm>> tcps;
            for (int i = 0; i < n; ++i)
                tcps.push_back(std::make_unique<TcpComm>(
                    sim, i, n, nodes[i]->cpu(), *fabric,
                    config.calibration));
            TcpComm::connectMesh(tcps);
            for (auto &t : tcps)
                comms.push_back(std::move(t));
        }
        for (int i = 0; i < n; ++i) {
            comms[i]->setHandler([this, i](const Incoming &in) {
                received[i].push_back(in);
            });
        }
    }

    /** Count received messages of a kind at a node. */
    int
    countKind(int node, MsgKind kind) const
    {
        int c = 0;
        for (const auto &in : received[node])
            c += in.kind == kind;
        return c;
    }
};

} // namespace

// ---------------------------------------------------------------------
// Message kinds and Table-2 sizes
// ---------------------------------------------------------------------

TEST(WireSizes, KindAndLogicalBytesOfEveryBody)
{
    MessageSizes sizes; // the defaults are Table 2's sizes
    LoadMsg load_rumor{7, 2, 11, 1};
    CachingMsg caching_rumor{5, false, 2, 12, 1};
    struct Row {
        WireBody body;
        MsgKind kind;
        std::uint64_t bytes;
    };
    const Row rows[] = {
        {LoadMsg{9}, MsgKind::Load, 16},
        {load_rumor, MsgKind::Load, 16 + 9},
        {LoadDigestMsg{{load_rumor, load_rumor, load_rumor}}, MsgKind::Load,
         3 * (16 + 9)},
        {FlowMsg{4, FlowChannel::File}, MsgKind::Flow, 13},
        {ForwardMsg{77, 5}, MsgKind::Forward, 53},
        {CachingMsg{8, true}, MsgKind::Caching, 59},
        {caching_rumor, MsgKind::Caching, 59 + 9},
        {CachingDigestMsg{{caching_rumor, caching_rumor}}, MsgKind::Caching,
         2 * (59 + 9)},
        {FileMsg{7, 1, 30000}, MsgKind::File, 32 + 30000},
        {MembershipMsg{3, 1, 4, 2, 1}, MsgKind::Membership, 59 + 9},
    };
    std::set<std::size_t> alternatives;
    for (const Row &row : rows) {
        SCOPED_TRACE(msgKindName(row.kind));
        alternatives.insert(row.body.index());
        EXPECT_EQ(kindOf(row.body), row.kind);
        EXPECT_EQ(logicalBytes(WireMsg{0, -1, row.body}, sizes), row.bytes);
        // A piggy-backed load adds a 4-byte word to every kind.
        EXPECT_EQ(logicalBytes(WireMsg{0, 12, row.body}, sizes),
                  row.bytes + 4);
    }
    EXPECT_EQ(alternatives.size(), std::variant_size_v<WireBody>);
}

TEST(WireSizesDeathTest, EmptyDigestPanics)
{
    MessageSizes sizes;
    EXPECT_DEATH(logicalBytes(WireMsg{0, -1, LoadDigestMsg{}}, sizes),
                 "empty digest");
    EXPECT_DEATH(logicalBytes(WireMsg{0, -1, CachingDigestMsg{}}, sizes),
                 "empty digest");
}

// ---------------------------------------------------------------------
// One send path: every body the server sends, on every backend
// ---------------------------------------------------------------------

/** One comm configuration: TCP, or VIA at a version. */
struct Backend {
    const char *name;
    Protocol proto;
    Version version;
};

const Backend Backends[] = {
    {"TcpFe", Protocol::TcpFastEthernet, Version::V0},
    {"TcpClan", Protocol::TcpClan, Version::V0},
    {"ViaV0", Protocol::ViaClan, Version::V0},
    {"ViaV1", Protocol::ViaClan, Version::V1},
    {"ViaV2", Protocol::ViaClan, Version::V2},
    {"ViaV3", Protocol::ViaClan, Version::V3},
    {"ViaV4", Protocol::ViaClan, Version::V4},
    {"ViaV5", Protocol::ViaClan, Version::V5},
};

/** (backend, piggy-backing on) */
class CommParity
    : public ::testing::TestWithParam<std::tuple<Backend, bool>>
{
};

TEST_P(CommParity, EveryServerBodyArrivesIntactSizedByLogicalBytes)
{
    auto [backend, piggy] = GetParam();
    int piggy_load = piggy ? 6 : -1;
    LoadMsg load_rumor{7, 2, 11, 1};
    CachingMsg caching_rumor{5, false, 2, 12, 1};
    const WireBody bodies[] = {
        LoadMsg{9},
        load_rumor,
        LoadDigestMsg{{load_rumor, LoadMsg{3, 4, 2, 0}}},
        ForwardMsg{77, 5, 3, ForwardRoute::Lookup},
        CachingMsg{8, true},
        caching_rumor,
        CachingDigestMsg{{caching_rumor, CachingMsg{6, true, 3, 1, 0}}},
        FileMsg{7, 1, 30000},
        MembershipMsg{3, 1, 4, 2, 1},
    };
    for (const WireBody &body : bodies) {
        MsgKind kind = kindOf(body);
        SCOPED_TRACE(msgKindName(kind));
        // Gossip keeps the V3+ receive thread that rumors need.
        Rig rig(3, backend.proto, backend.version, Dissemination::gossip());
        if (piggy)
            rig.comms[0]->setLoadProvider([piggy_load] { return piggy_load; });
        rig.comms[0]->send(1, body);
        rig.sim.run();

        ASSERT_EQ(rig.received[1].size(), 1u);
        const Incoming &in = rig.received[1][0];
        EXPECT_EQ(in.kind, kind);
        EXPECT_EQ(in.from, 0);
        EXPECT_EQ(in.piggyLoad, piggy_load);
        const auto *w = net::payloadAs<WireMsg>(in.body);
        ASSERT_TRUE(w);
        EXPECT_TRUE(w->body == body);

        const MessageSizes &sizes = rig.config.calibration.sizes;
        const KindStats &tx = rig.comms[0]->txStats().of(kind);
        if (kind == MsgKind::File && backend.proto == Protocol::ViaClan &&
            static_cast<int>(backend.version) >= 3) {
            // Two records: the data, then the metadata that carries the
            // piggy-back.
            EXPECT_EQ(tx.msgs, 2u);
            EXPECT_EQ(tx.bytes, 30000u + sizes.fileMeta + (piggy ? 4u : 0u));
        } else {
            EXPECT_EQ(tx.msgs, 1u);
            EXPECT_EQ(tx.bytes, logicalBytes(WireMsg{0, piggy_load, body},
                                             sizes));
        }
        EXPECT_EQ(rig.comms[0]->txStats().total().msgs, tx.msgs);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CommParity,
    ::testing::Combine(::testing::ValuesIn(Backends), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Backend, bool>> &info) {
        return std::string(std::get<0>(info.param).name) +
               (std::get<1>(info.param) ? "Piggy" : "Bare");
    });

TEST(CommDeathTest, BadDestinationPanicsOnBothBackends)
{
    for (Protocol proto : {Protocol::TcpClan, Protocol::ViaClan}) {
        Rig rig(3, proto, Version::V0);
        EXPECT_DEATH(rig.comms[0]->send(0, ForwardMsg{1, 1}),
                     "bad destination");
        EXPECT_DEATH(rig.comms[0]->send(-1, ForwardMsg{1, 1}),
                     "bad destination");
        EXPECT_DEATH(rig.comms[0]->send(3, ForwardMsg{1, 1}),
                     "bad destination");
    }
}

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

TEST(TcpCommTest, ForwardDelivered)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->send(1, ForwardMsg{77, 5});
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
    const auto &in = rig.received[1][0];
    EXPECT_EQ(in.kind, MsgKind::Forward);
    EXPECT_EQ(in.from, 0);
    const auto *fwd = bodyAs<ForwardMsg>(in);
    ASSERT_TRUE(fwd);
    EXPECT_EQ(fwd->file, 77u);
    EXPECT_EQ(fwd->tag, 5u);
}

TEST(TcpCommTest, StatsMatchTableSemantics)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->setLoadProvider([] { return 3; });
    rig.comms[0]->send(1, ForwardMsg{1, 1});
    rig.comms[0]->send(1, CachingMsg{1, true});
    rig.comms[0]->send(1, FileMsg{1, 1, 10000});
    rig.sim.run();
    const auto &tx = rig.comms[0]->txStats();
    EXPECT_EQ(tx.of(MsgKind::Forward).msgs, 1u);
    // Piggy-backed load adds 4 bytes: 53 + 4.
    EXPECT_EQ(tx.of(MsgKind::Forward).bytes, 57u);
    EXPECT_EQ(tx.of(MsgKind::Caching).bytes, 63u);
    EXPECT_EQ(tx.of(MsgKind::File).msgs, 1u);
    EXPECT_EQ(tx.of(MsgKind::File).bytes,
              10000u + rig.config.calibration.sizes.fileHeader + 4u);
    // No flow-control messages over TCP.
    EXPECT_EQ(tx.of(MsgKind::Flow).msgs, 0u);
}

TEST(TcpCommTest, PiggyLoadReachesReceiver)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    int load = 17;
    rig.comms[0]->setLoadProvider([&] { return load; });
    rig.comms[0]->send(1, ForwardMsg{1, 1});
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
    EXPECT_EQ(rig.received[1][0].piggyLoad, 17);
}

TEST(TcpCommTest, ChargesIntraCommCpu)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->send(1, FileMsg{1, 1, 20000});
    rig.sim.run();
    EXPECT_GT(rig.nodes[0]->cpu().busyTime(osnode::CatIntraComm), 0);
    EXPECT_GT(rig.nodes[1]->cpu().busyTime(osnode::CatIntraComm), 0);
    EXPECT_EQ(rig.nodes[0]->cpu().busyTime(osnode::CatService), 0);
}

// ---------------------------------------------------------------------
// VIA backend, across versions
// ---------------------------------------------------------------------

class ViaCommVersions : public ::testing::TestWithParam<Version>
{
};

TEST_P(ViaCommVersions, AllKindsDelivered)
{
    Rig rig(3, Protocol::ViaClan, GetParam());
    rig.comms[0]->send(1, ForwardMsg{7, 1});
    rig.comms[0]->send(1, CachingMsg{8, true});
    rig.comms[0]->send(2, CachingMsg{8, true});
    rig.comms[1]->send(0, FileMsg{7, 1, 30000});
    rig.sim.run();
    EXPECT_EQ(rig.countKind(1, MsgKind::Forward), 1);
    EXPECT_EQ(rig.countKind(1, MsgKind::Caching), 1);
    EXPECT_EQ(rig.countKind(2, MsgKind::Caching), 1);
    ASSERT_EQ(rig.countKind(0, MsgKind::File), 1);
    for (const auto &in : rig.received[0]) {
        if (in.kind != MsgKind::File)
            continue;
        const auto *f = bodyAs<FileMsg>(in);
        ASSERT_TRUE(f);
        EXPECT_EQ(f->bytes, 30000u);
        EXPECT_EQ(f->tag, 1u);
        rig.comms[0]->fileBufferDone(in.from);
    }
}

TEST_P(ViaCommVersions, FileMessageCountMatchesTable4)
{
    Version v = GetParam();
    Rig rig(2, Protocol::ViaClan, v);
    rig.comms[0]->send(1, FileMsg{1, 1, 10000});
    rig.sim.run();
    const auto &tx = rig.comms[0]->txStats();
    bool rmw_file = static_cast<int>(v) >= 3;
    // RMW file transfers take two messages (data + metadata) — the
    // effect that doubles File counts in Table 4.
    EXPECT_EQ(tx.of(MsgKind::File).msgs, rmw_file ? 2u : 1u);
    EXPECT_GE(tx.of(MsgKind::File).bytes, 10000u);
    rig.comms[1]->fileBufferDone(0);
}

TEST_P(ViaCommVersions, ManyFilesRespectFlowControlWindow)
{
    Version v = GetParam();
    Rig rig(2, Protocol::ViaClan, v);
    const int files = 50;
    for (int i = 0; i < files; ++i)
        rig.comms[0]->send(1, FileMsg{static_cast<std::uint32_t>(i),
                                      static_cast<std::uint32_t>(i),
                                      5000});
    // Consume buffers as they arrive (V4/V5 hold slots until done).
    rig.comms[1]->setHandler([&](const Incoming &in) {
        rig.received[1].push_back(in);
        if (in.kind == MsgKind::File)
            rig.comms[1]->fileBufferDone(in.from);
    });
    rig.sim.run();
    EXPECT_EQ(rig.countKind(1, MsgKind::File), files);
    // Flow-control credits flowed back (none over TCP, none needed
    // before the window fills).
    const auto &tx1 = rig.comms[1]->txStats();
    EXPECT_GT(tx1.of(MsgKind::Flow).msgs, 0u);
}

TEST_P(ViaCommVersions, DeliveryOrderPreservedPerPair)
{
    Rig rig(2, Protocol::ViaClan, GetParam());
    for (std::uint32_t i = 0; i < 20; ++i)
        rig.comms[0]->send(1, ForwardMsg{i, i});
    rig.sim.run();
    std::uint32_t expect = 0;
    for (const auto &in : rig.received[1]) {
        if (in.kind != MsgKind::Forward)
            continue;
        const auto *f = bodyAs<ForwardMsg>(in);
        ASSERT_TRUE(f);
        EXPECT_EQ(f->file, expect++);
    }
    EXPECT_EQ(expect, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, ViaCommVersions,
    ::testing::Values(Version::V0, Version::V1, Version::V2,
                      Version::V3, Version::V4, Version::V5),
    [](const ::testing::TestParamInfo<Version> &info) {
        return versionName(info.param);
    });

TEST(ViaCommTest, V5ChargesRegistrationOnInsert)
{
    Rig r0(2, Protocol::ViaClan, Version::V0);
    Rig r5(2, Protocol::ViaClan, Version::V5);
    EXPECT_EQ(r0.comms[0]->cacheInsertCost(100000), 0);
    EXPECT_GT(r5.comms[0]->cacheInsertCost(100000), 0);
    EXPECT_GT(r5.comms[0]->cacheEvictCost(100000), 0);
    EXPECT_LT(r5.comms[0]->cacheEvictCost(100000),
              r5.comms[0]->cacheInsertCost(100000) + 1);
}

TEST(ViaCommTest, PollSweepGrowsWithClusterSize)
{
    Rig small(2, Protocol::ViaClan, Version::V3);
    Rig large(8, Protocol::ViaClan, Version::V3);
    EXPECT_GT(large.comms[0]->perRequestOverhead(),
              small.comms[0]->perRequestOverhead());
    Rig v0(8, Protocol::ViaClan, Version::V0);
    EXPECT_EQ(v0.comms[0]->perRequestOverhead(), 0);
}

TEST(ViaCommTest, LoadBroadcastRegularVsRmw)
{
    Rig reg(2, Protocol::ViaClan, Version::V0,
            Dissemination::broadcast(1, false));
    reg.comms[0]->send(1, LoadMsg{9});
    reg.sim.run();
    ASSERT_EQ(reg.countKind(1, MsgKind::Load), 1);
    const auto *lm = bodyAs<LoadMsg>(reg.received[1][0]);
    ASSERT_TRUE(lm);
    EXPECT_EQ(lm->load, 9);

    Rig rmw(2, Protocol::ViaClan, Version::V0,
            Dissemination::broadcast(1, true));
    rmw.comms[0]->send(1, LoadMsg{9});
    rmw.sim.run();
    EXPECT_EQ(rmw.countKind(1, MsgKind::Load), 1);
    // The RMW load write is cheaper on the receiving CPU.
    EXPECT_LT(rmw.nodes[1]->cpu().busyTime(),
              reg.nodes[1]->cpu().busyTime());
}

TEST(ViaCommTest, RmwLoadWordCarriesNoPiggyBack)
{
    Rig rig(2, Protocol::ViaClan, Version::V1,
            Dissemination::broadcast(1, true));
    rig.comms[0]->setLoadProvider([] { return 6; });
    rig.comms[0]->send(1, LoadMsg{9});
    rig.sim.run();
    ASSERT_EQ(rig.countKind(1, MsgKind::Load), 1);
    EXPECT_EQ(rig.received[1][0].piggyLoad, -1);
    // Accounted at a bare load's Table-2 size.
    EXPECT_EQ(rig.comms[0]->txStats().of(MsgKind::Load).bytes, 16u);
}

TEST(ViaCommTest, CachingDigestTakesTheRingOnlyWhenItFitsASlot)
{
    CachingMsg rumor{5, true, 2, 1, 0};
    CachingDigestMsg one{{rumor}};        // 68 B: fits a 128-byte slot
    CachingDigestMsg two{{rumor, rumor}}; // 136 B: does not
    auto receiver_cpu = [](Version v, const CachingDigestMsg &digest) {
        Rig rig(2, Protocol::ViaClan, v, Dissemination::gossip());
        rig.comms[0]->send(1, digest);
        rig.sim.run();
        EXPECT_EQ(rig.countKind(1, MsgKind::Caching), 1);
        return rig.nodes[1]->cpu().busyTime();
    };
    for (Version v : {Version::V2, Version::V3, Version::V4, Version::V5}) {
        SCOPED_TRACE(versionName(v));
        // The ring write is cheaper to receive than V0's regular send...
        EXPECT_LT(receiver_cpu(v, one), receiver_cpu(Version::V0, one));
        // ...and the outgrown digest is a regular send, like V0's.
        EXPECT_EQ(receiver_cpu(v, two), receiver_cpu(Version::V0, two));
    }
}

TEST(ViaCommTest, RmwControlCheaperThanRegularOnReceiver)
{
    Rig v0(2, Protocol::ViaClan, Version::V0);
    Rig v2(2, Protocol::ViaClan, Version::V2);
    v0.comms[0]->send(1, ForwardMsg{1, 1});
    v2.comms[0]->send(1, ForwardMsg{1, 1});
    v0.sim.run();
    v2.sim.run();
    EXPECT_LT(v2.nodes[1]->cpu().busyTime(),
              v0.nodes[1]->cpu().busyTime());
}

TEST(ViaCommTest, ZeroCopySendCheaperOnSender)
{
    Rig v4(2, Protocol::ViaClan, Version::V4);
    Rig v5(2, Protocol::ViaClan, Version::V5);
    v4.comms[0]->send(1, FileMsg{1, 1, 100000});
    v5.comms[0]->send(1, FileMsg{1, 1, 100000});
    v4.sim.run();
    v5.sim.run();
    EXPECT_LT(v5.nodes[0]->cpu().busyTime(),
              v4.nodes[0]->cpu().busyTime());
}

TEST(ViaCommTest, ZeroCopyRecvCheaperOnReceiver)
{
    Rig v3(2, Protocol::ViaClan, Version::V3);
    Rig v4(2, Protocol::ViaClan, Version::V4);
    v3.comms[0]->send(1, FileMsg{1, 1, 100000});
    v4.comms[0]->send(1, FileMsg{1, 1, 100000});
    v3.sim.run();
    v4.sim.run();
    EXPECT_LT(v4.nodes[1]->cpu().busyTime(),
              v3.nodes[1]->cpu().busyTime());
    v4.comms[1]->fileBufferDone(0);
}

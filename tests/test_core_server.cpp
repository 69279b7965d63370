/**
 * @file
 * Unit tests of the PRESS distribution policy (Section 2.2), using a
 * recording fake comm layer so each rule can be exercised in isolation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/press_server.hpp"
#include "core/wire.hpp"

using namespace press;
using namespace press::core;
using storage::FileId;

namespace {

/** Records outgoing traffic; can inject incoming messages. */
class FakeComm : public ClusterComm
{
  public:
    struct Sent {
        int dst;
        MsgKind kind;
        WireMsg msg;
    };
    std::vector<Sent> sent;
    std::vector<int> downs; ///< peerDown() calls, in order

    void
    send(int dst, WireBody body) override
    {
        MsgKind kind = kindOf(body);
        sent.push_back(Sent{dst, kind, WireMsg{-1, -1, std::move(body)}});
    }

    void
    peerDown(int peer) override
    {
        downs.push_back(peer);
        ClusterComm::peerDown(peer);
    }

    /** Inject a message as if it arrived from @p from. */
    void
    inject(int from, WireBody body, int piggy = -1)
    {
        WireMsg w{from, piggy, std::move(body)};
        auto payload = net::makePayload<WireMsg>(w);
        deliver(toIncoming(*net::payloadAs<WireMsg>(payload), payload));
    }

    int
    count(MsgKind kind) const
    {
        int c = 0;
        for (const auto &s : sent)
            c += s.kind == kind;
        return c;
    }
};

/** A single server instance on node 0 of a @p nodes cluster (4 by
 *  default). */
struct ServerRig {
    /** What the reply handler got, besides the reply size. */
    struct Returned {
        FileId file;
        RequestOptions req;
    };

    PressConfig config;
    sim::Simulator sim;
    std::unique_ptr<osnode::Node> node;
    storage::FileSet files;
    FakeComm comm;
    std::unique_ptr<PressServer> server;
    std::vector<std::uint64_t> replies; ///< reply sizes, in order
    std::vector<Returned> returned;     ///< same replies

    explicit ServerRig(Dissemination diss = Dissemination::piggyBack(),
                       std::vector<std::uint32_t> sizes = {}, int nodes = 4)
    {
        config.nodes = nodes;
        config.dissemination = diss;
        config.cacheBytes = 1000000; // 1 MB cache for small scenarios
        if (sizes.empty())
            sizes = {10000, 20000, 30000, 600000, 10000};
        files = storage::FileSet(std::move(sizes));
        node = std::make_unique<osnode::Node>(sim, 0);
        rebuild();
    }

    /** (Re)build the server from the current config. */
    void
    rebuild()
    {
        server = std::make_unique<PressServer>(
            sim, config, 0, *node, files, comm, 99,
            [this](FileId file, std::uint64_t b, const RequestOptions &req) {
                replies.push_back(b);
                returned.push_back({file, req});
            });
    }

    void
    request(FileId file, const RequestOptions &req = {})
    {
        server->handleClientRequest(file, req);
    }
};

} // namespace

TEST(ServerPolicy, FirstAccessServedLocallyAndCached)
{
    ServerRig rig;
    rig.request(0);
    rig.sim.run();
    // Served locally from disk, cached, reply sent.
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
    EXPECT_EQ(rig.server->stats().cacheInsertions, 1u);
    EXPECT_TRUE(rig.server->cache().contains(0));
    ASSERT_EQ(rig.replies.size(), 1u);
    // Reply = file + HTTP headers.
    EXPECT_EQ(rig.replies[0],
              10000u + rig.config.calibration.sizes.httpReplyHeader);
    // Caching information broadcast to the other 3 nodes.
    EXPECT_EQ(rig.comm.count(MsgKind::Caching), 3);
}

TEST(ServerPolicy, SecondAccessIsCacheHit)
{
    ServerRig rig;
    rig.request(0);
    rig.sim.run();
    rig.request(0);
    rig.sim.run();
    EXPECT_EQ(rig.server->stats().localCacheHits, 1u);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
    EXPECT_EQ(rig.replies.size(), 2u);
}

TEST(ServerPolicy, RemoteCachedFileIsForwarded)
{
    ServerRig rig;
    // Node 2 announces it caches file 1.
    rig.comm.inject(2, CachingMsg{1, true});
    rig.request(1);
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::Forward), 1);
    EXPECT_EQ(rig.comm.sent[0].dst, 2);
    EXPECT_EQ(rig.server->stats().forwardedOut, 1u);
    // No reply yet: waiting for the file.
    EXPECT_TRUE(rig.replies.empty());
}

TEST(ServerPolicy, FileArrivalCompletesForwardedRequest)
{
    ServerRig rig;
    rig.comm.inject(2, CachingMsg{1, true});
    rig.request(1);
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::Forward), 1);
    const auto *fwd = std::get_if<ForwardMsg>(&rig.comm.sent[0].msg.body);
    ASSERT_TRUE(fwd);
    rig.comm.inject(2, FileMsg{1, fwd->tag, 20000});
    rig.sim.run();
    ASSERT_EQ(rig.replies.size(), 1u);
    EXPECT_EQ(rig.replies[0],
              20000u + rig.config.calibration.sizes.httpReplyHeader);
    // The initial node does NOT cache a file received from a service
    // node (Section 2.2).
    EXPECT_FALSE(rig.server->cache().contains(1));
}

TEST(ServerPolicy, LargeFilesAlwaysLocal)
{
    ServerRig rig;
    // File 3 is 600 KB >= the 512 KB cutoff; even though node 1 caches
    // it, the initial node serves it itself.
    rig.comm.inject(1, CachingMsg{3, true});
    rig.request(3);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().largeFileServes, 1u);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
    // Large files bypass the cache (they would evict everything).
    EXPECT_FALSE(rig.server->cache().contains(3));
    EXPECT_EQ(rig.replies.size(), 1u);
}

TEST(ServerPolicy, OverloadedCandidateServedLocallyCreatesReplica)
{
    ServerRig rig;
    // Node 2 caches file 1 but reports load above T=80; this node and
    // the least-loaded node are idle, so PRESS replicates locally.
    rig.comm.inject(2, CachingMsg{1, true});
    rig.comm.inject(2, LoadMsg{100});
    rig.request(1);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().overloadLocalServes, 1u);
    EXPECT_TRUE(rig.server->cache().contains(1));
}

TEST(ServerPolicy, AllOverloadedStillForwards)
{
    ServerRig rig;
    rig.comm.inject(2, CachingMsg{1, true});
    for (int n = 1; n < 4; ++n)
        rig.comm.inject(n, LoadMsg{200});
    // Drive this node's own load above T with many open requests; the
    // request for file 1 parses last, while they are all still open.
    for (int i = 0; i < 100; ++i)
        rig.request(4);
    rig.request(1);
    rig.sim.run();
    EXPECT_GE(rig.comm.count(MsgKind::Forward), 1);
}

TEST(ServerPolicy, ForwardedRequestServedAndFileSentBack)
{
    ServerRig rig;
    // A forward arrives for file 0 (not yet cached here): disk read,
    // cache insert, file sent back to the requester.
    rig.comm.inject(3, ForwardMsg{0, 42});
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::File), 1);
    const auto &sent = rig.comm.sent.back();
    EXPECT_EQ(sent.dst, 3);
    const auto *fm = std::get_if<FileMsg>(&sent.msg.body);
    ASSERT_TRUE(fm);
    EXPECT_EQ(fm->file, 0u);
    EXPECT_EQ(fm->tag, 42u);
    EXPECT_EQ(fm->bytes, 10000u);
    EXPECT_EQ(rig.server->stats().forwardedIn, 1u);
    EXPECT_EQ(rig.server->stats().serviceDiskReads, 1u);
    EXPECT_TRUE(rig.server->cache().contains(0));
}

TEST(ServerPolicy, PiggyLoadUpdatesDirectory)
{
    ServerRig rig;
    rig.comm.inject(1, CachingMsg{0, true}, 33);
    EXPECT_EQ(rig.server->loadDirectory().load(1), 33);
}

TEST(ServerPolicy, BroadcastDisseminationSendsLoad)
{
    ServerRig rig(Dissemination::broadcast(1));
    rig.request(0);
    rig.sim.run();
    // Load changed by >= 1 at least twice (open, close): broadcasts to
    // the 3 other nodes happened.
    EXPECT_GE(rig.comm.count(MsgKind::Load), 3);
}

TEST(ServerPolicy, ThresholdSuppressesBroadcasts)
{
    ServerRig rig16(Dissemination::broadcast(16));
    rig16.request(0);
    rig16.sim.run();
    EXPECT_EQ(rig16.comm.count(MsgKind::Load), 0);
}

TEST(ServerPolicy, NlbForwardsWithoutLoadInfo)
{
    ServerRig rig(Dissemination::none());
    rig.comm.inject(2, CachingMsg{1, true});
    // Candidate "overloaded" — NLB ignores load entirely and forwards.
    rig.comm.inject(2, LoadMsg{1000});
    rig.request(1);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 1);
}

TEST(ServerPolicy, EvictionBroadcastsUncaching)
{
    // Cache sized to hold exactly one of the 10 KB files.
    ServerRig rig(Dissemination::piggyBack(),
                  {10000, 10000, 10000, 10000});
    rig.config.cacheBytes = 15000;
    rig.rebuild(); // with the small cache
    rig.request(0);
    rig.sim.run();
    rig.comm.sent.clear();
    rig.request(1); // evicts 0
    rig.sim.run();
    EXPECT_EQ(rig.server->stats().cacheEvictions, 1u);
    // Both the insertion of 1 and the eviction of 0 broadcast: 3 nodes
    // each.
    EXPECT_EQ(rig.comm.count(MsgKind::Caching), 6);
    EXPECT_FALSE(rig.server->cache().contains(0));
}

TEST(ServerPolicy, LatencyAccountedPerReply)
{
    ServerRig rig;
    rig.request(0);
    rig.sim.run();
    EXPECT_EQ(rig.server->stats().latency.count(), 1u);
    EXPECT_GT(rig.server->stats().latency.mean(), 0.0);
}

// ---------------------------------------------------------------------
// Gossip/tree rumors. The rigs run 16 nodes: with fanout 2, node 0
// sits at heap position 3 of the tree rooted at node 13, so its parent
// is node 14 and its children are nodes 4 and 5.
// ---------------------------------------------------------------------

namespace {

constexpr int RumorNodes = 16;
constexpr int RumorOrigin = 13;
constexpr int RumorParent = 14;

} // namespace

TEST(ServerPolicy, TreeRumorRelayedToSubtreeWithOneMoreHop)
{
    ServerRig rig(Dissemination::tree(2), {}, RumorNodes);
    std::vector<int> children;
    DisseminationEngine::treeChildren(0, RumorOrigin, 2, RumorNodes,
                                      children);
    ASSERT_EQ(children, (std::vector<int>{4, 5}));

    rig.comm.inject(RumorParent, LoadMsg{7, RumorOrigin, 1, 2});
    rig.comm.inject(RumorParent, CachingMsg{2, true, RumorOrigin, 1, 2});
    ASSERT_EQ(rig.comm.sent.size(), 4u);
    for (std::size_t i = 0; i < children.size(); ++i) {
        EXPECT_EQ(rig.comm.sent[i].dst, children[i]);
        EXPECT_EQ(std::get<LoadMsg>(rig.comm.sent[i].msg.body),
                  (LoadMsg{7, RumorOrigin, 1, 3}));
        EXPECT_EQ(rig.comm.sent[2 + i].dst, children[i]);
        EXPECT_EQ(std::get<CachingMsg>(rig.comm.sent[2 + i].msg.body),
                  (CachingMsg{2, true, RumorOrigin, 1, 3}));
    }

    // Both rumors were applied: the origin's load is known, and a
    // request for the file it caches is forwarded to it.
    EXPECT_EQ(rig.server->loadDirectory().load(RumorOrigin), 7);
    rig.comm.sent.clear();
    rig.request(2);
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::Forward), 1);
    for (const auto &s : rig.comm.sent) {
        if (s.kind == MsgKind::Forward) {
            EXPECT_EQ(s.dst, RumorOrigin);
        }
    }
}

TEST(ServerPolicy, TreeDuplicateRumorIsNeitherAppliedNorRelayed)
{
    ServerRig rig(Dissemination::tree(2), {}, RumorNodes);
    rig.comm.inject(RumorParent, LoadMsg{7, RumorOrigin, 1, 2});
    rig.comm.inject(RumorParent, CachingMsg{2, true, RumorOrigin, 1, 2});
    ASSERT_EQ(rig.comm.sent.size(), 4u);

    // Same (origin, seq) again, and an older load report: all dropped.
    rig.comm.inject(RumorParent, LoadMsg{9, RumorOrigin, 1, 2});
    rig.comm.inject(RumorParent, LoadMsg{5, RumorOrigin, 0, 2});
    rig.comm.inject(RumorParent, CachingMsg{2, true, RumorOrigin, 1, 2});
    EXPECT_EQ(rig.comm.sent.size(), 4u);
    EXPECT_EQ(rig.server->loadDirectory().load(RumorOrigin), 7);
}

TEST(ServerPolicy, GossipDuplicateOnlyWidensTheQueuedHopBudget)
{
    ServerRig rig(Dissemination::gossip(4), {}, RumorNodes);
    rig.comm.inject(RumorParent, LoadMsg{7, RumorOrigin, 1, 2});
    // A copy that took a shorter path: same rumor, larger budget.
    rig.comm.inject(9, LoadMsg{9, RumorOrigin, 1, 5});
    EXPECT_EQ(rig.server->loadDirectory().load(RumorOrigin), 7);
    EXPECT_TRUE(rig.comm.sent.empty()) << "gossip relays only in rounds";

    rig.sim.run();
    std::vector<LoadMsg> relayed;
    for (const auto &s : rig.comm.sent)
        if (const auto *digest = std::get_if<LoadDigestMsg>(&s.msg.body))
            for (const LoadMsg &m : digest->rumors)
                if (m.origin == RumorOrigin)
                    relayed.push_back(m);
    // One queued copy: each round pushes it once to each sampled peer,
    // for GossipRepeats rounds, with the wider budget less one hop.
    EXPECT_EQ(relayed.size(),
              static_cast<std::size_t>(DisseminationEngine::GossipRepeats *
                                       rig.config.dissemination.fanout));
    for (const LoadMsg &m : relayed)
        EXPECT_EQ(m, (LoadMsg{7, RumorOrigin, 1, 4}));
}

TEST(ServerPolicy, FaultModeRumorAboutDeadNodeIsRelayedNotApplied)
{
    ServerRig rig(Dissemination::tree(2), {}, RumorNodes);
    // A plan in the config is what switches the fault machinery on.
    rig.config.fault.crash(RumorOrigin, util::SEC)
        .restart(RumorOrigin, 2 * util::SEC);
    rig.rebuild();
    rig.server->verdict(RumorOrigin, fault::NodeState::Dead, 1);
    int dead_load = rig.server->loadDirectory().load(RumorOrigin);
    rig.comm.sent.clear();

    rig.comm.inject(RumorParent, LoadMsg{7, RumorOrigin, 1, 2});
    rig.comm.inject(RumorParent, CachingMsg{2, true, RumorOrigin, 1, 2});
    // Relayed down the subtree so the wave still completes...
    ASSERT_EQ(rig.comm.sent.size(), 4u);
    EXPECT_EQ(rig.comm.sent[0].dst, 4);
    EXPECT_EQ(rig.comm.sent[1].dst, 5);
    // ...but the load sentinel stands,
    EXPECT_EQ(rig.server->loadDirectory().load(RumorOrigin), dead_load);

    // ...and the caching news was not recorded: once the node is back,
    // the file is still a first touch here rather than a forward.
    rig.server->verdict(RumorOrigin, fault::NodeState::Alive, 2);
    rig.comm.sent.clear();
    rig.request(2);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
}

TEST(ServerPolicy, DepartureTearsDownOnceWhicheverPathComesSecond)
{
    // A graceful leave reaches a survivor twice: the Left rumor
    // schedules a teardown drainDelay later, and the failure
    // detector's Left verdict tears down too. Either order, the
    // connection goes down and recovery runs once. Sharded, so
    // recovery is visible: every cached file whose shard the leaver
    // owned is re-announced to its new owner.
    constexpr int Leaver = 3;
    for (bool verdict_first : {false, true}) {
        SCOPED_TRACE(verdict_first ? "verdict first" : "rumor first");
        ServerRig rig(Dissemination::piggyBack(),
                      std::vector<std::uint32_t>(32, 1000));
        rig.config.directoryMode = DirectoryMode::Sharded;
        rig.config.fault.leave(Leaver, util::SEC);
        rig.rebuild();

        // Serve and cache, for node 1, every file the leaver owns.
        std::uint64_t owned = 0;
        for (FileId f = 0; f < 32; ++f) {
            if (rig.server->shardDirectory()->ownerOf(f) != Leaver)
                continue;
            ++owned;
            rig.comm.inject(1, ForwardMsg{f, f + 1});
        }
        rig.sim.run();
        ASSERT_GT(owned, 0u);
        ASSERT_EQ(rig.server->cache().files(), owned);

        rig.comm.inject(
            Leaver, MembershipMsg{Leaver,
                                  static_cast<std::uint8_t>(
                                      fault::NodeState::Left),
                                  1, Leaver, 0});
        if (verdict_first)
            rig.server->verdict(Leaver, fault::NodeState::Left, 1);
        rig.sim.run();
        if (!verdict_first)
            rig.server->verdict(Leaver, fault::NodeState::Left, 1);
        rig.sim.run();

        EXPECT_EQ(rig.comm.downs, std::vector<int>{Leaver});
        EXPECT_EQ(rig.server->stats().reAnnouncedFiles, owned);
        EXPECT_FALSE(rig.server->membership()->aliveNode(Leaver));
    }
}

TEST(ServerPolicy, ReplyHandlerGetsTheRequestRecordBackUnchanged)
{
    ServerRig rig;
    rig.request(0); // cache file 0 for the local hit below
    rig.sim.run();
    rig.returned.clear();

    RequestOptions base;
    base.replyKeepAlive = true;
    base.slot = 5;
    base.generation = 3;

    // A local cache hit.
    RequestOptions hit = base;
    rig.request(0, hit);
    rig.sim.run();

    // A forward: node 2 caches file 1 and sends it back.
    RequestOptions fwd = base;
    fwd.slot = 6;
    fwd.generation = 9;
    rig.comm.inject(2, CachingMsg{1, true});
    rig.request(1, fwd);
    rig.sim.run();
    const ForwardMsg *f = nullptr;
    for (const auto &sent : rig.comm.sent)
        if (const auto *m = std::get_if<ForwardMsg>(&sent.msg.body))
            f = m;
    ASSERT_TRUE(f);
    rig.comm.inject(2, FileMsg{1, f->tag, 20000});
    rig.sim.run();

    // A dynamic open-loop request.
    RequestOptions dyn;
    dyn.dynamic = true;
    dyn.keepAlive = true;
    dyn.sessionTag = 0x800007;
    rig.request(2, dyn);
    rig.sim.run();

    ASSERT_EQ(rig.returned.size(), 3u);
    EXPECT_EQ(rig.returned[0].file, 0u);
    EXPECT_EQ(rig.returned[0].req, hit);
    EXPECT_EQ(rig.returned[1].file, 1u);
    EXPECT_EQ(rig.returned[1].req, fwd);
    EXPECT_EQ(rig.returned[2].file, 2u);
    EXPECT_EQ(rig.returned[2].req, dyn);
    EXPECT_EQ(rig.server->stats().forwardedOut, 1u);
    EXPECT_EQ(rig.server->stats().dynamicRequests, 1u);

    // A three-request session: only its last reply closes it.
    const std::uint8_t phases[] = {RequestOptions::SessionBegin, 0,
                                   RequestOptions::SessionEnd};
    const std::uint64_t closed_after[] = {0, 0, 1};
    for (int i = 0; i < 3; ++i) {
        RequestOptions r;
        r.sessionPhase = phases[i];
        r.sessionTag = 0x800009;
        r.keepAlive = i > 0;
        rig.request(0, r);
        rig.sim.run();
        EXPECT_EQ(rig.returned.back().req, r);
        EXPECT_EQ(rig.server->stats().sessionsClosed, closed_after[i]);
    }
    EXPECT_EQ(rig.server->stats().sessionsOpened, 1u);
}

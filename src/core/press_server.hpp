/**
 * @file
 * The PRESS server logic running on one cluster node.
 *
 * This is the paper's Section 2.2 verbatim: a request arriving at its
 * *initial node* is parsed and either serviced locally or forwarded to a
 * *service node* chosen for cache locality and load. Large files
 * (>= 512 KB) and first-touch files are always local; otherwise the
 * least-loaded node caching the file serves it unless it is overloaded
 * while the initial node is not — in which case the initial node serves
 * from disk, creating a replica (the mechanism that spreads popular
 * files). The initial node never caches a file received from a service
 * node, to avoid excessive replication.
 *
 * All protocol/version differences live behind ClusterComm; the server
 * code is identical for TCP/FE, TCP/cLAN and VIA V0-V5.
 */

#ifndef PRESS_CORE_PRESS_SERVER_HPP
#define PRESS_CORE_PRESS_SERVER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>

#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/directories.hpp"
#include "core/dissemination.hpp"
#include "fault/membership.hpp"
#include "osnode/node.hpp"
#include "stats/accumulator.hpp"
#include "stats/histogram.hpp"
#include "storage/file_cache.hpp"
#include "storage/file_set.hpp"
#include "util/random.hpp"

namespace press::core {

/**
 * A client request's whole client-side record. The shape fields come
 * from the open-loop traffic engine; their defaults reproduce the
 * classic request exactly — fresh connection, static content, no
 * session. The client fills in the rest. The server keeps the record
 * with the pending request and hands it back, unchanged, to its reply
 * handler. It stays trivially copyable and small, so the reply
 * completion that carries it still fits sim::EventFn's inline storage.
 */
struct RequestOptions {
    static constexpr std::uint8_t SessionBegin = 1; ///< sessionPhase bit
    static constexpr std::uint8_t SessionEnd = 2;   ///< sessionPhase bit

    bool keepAlive = false;  ///< reused connection: parse skips connSetup
    bool dynamic = false;    ///< dynamic-content class: CPU-generated page
    std::uint8_t sessionPhase = 0; ///< SessionBegin | SessionEnd bits
    bool replyKeepAlive = false;   ///< the parsed request's keep-alive
                                   ///< flag, echoed by the response
    std::uint32_t sessionTag = 0;  ///< obs session-span tag; 0 = no session
    std::int32_t slot = -1;        ///< closed-loop client slot; -1 = an
                                   ///< open-loop arrival
    std::uint32_t generation = 0;  ///< the slot's generation at issue

    bool operator==(const RequestOptions &) const = default;
};

static_assert(std::is_trivially_copyable_v<RequestOptions> &&
                  sizeof(RequestOptions) <= 24,
              "RequestOptions rides in the reply completion's EventFn");

/** Receives each reply when it is ready to transmit: the file, the
 *  full reply size @p bytes (headers + file) and the request's record
 *  as handleClientRequest() got it. */
using ReplyHandler = std::function<void(
    storage::FileId file, std::uint64_t bytes, const RequestOptions &req)>;

/** Counters one server instance accumulates. */
struct ServerStats {
    std::uint64_t requests = 0;     ///< client requests accepted
    std::uint64_t replies = 0;      ///< replies handed to the client net
    std::uint64_t localCacheHits = 0;
    std::uint64_t localDiskReads = 0; ///< disk reads as initial node
    std::uint64_t forwardedOut = 0;   ///< requests sent to a service node
    std::uint64_t forwardedIn = 0;    ///< requests serviced for others
    std::uint64_t serviceDiskReads = 0;
    std::uint64_t overloadLocalServes = 0; ///< replica-creating serves
    std::uint64_t cacheInsertions = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t largeFileServes = 0;

    // Scalable dissemination (Dissemination::Kind::Gossip/Tree).
    std::uint64_t gossipRounds = 0;     ///< gossip rounds executed
    std::uint64_t gossipRumorSends = 0; ///< (rumor, peer) pushes
    std::uint64_t loadWaves = 0;        ///< tree load waves originated
    std::uint64_t cachingWaves = 0;     ///< tree caching waves originated

    // Sharded cache directory (DirectoryMode::Sharded).
    std::uint64_t dirLookupsIn = 0;    ///< lookups processed as owner
    std::uint64_t dirHomeReturns = 0;  ///< lookups bounced home to serve

    // Fault tolerance (PressConfig::fault non-empty).
    std::uint64_t requestsRetried = 0;  ///< retries after a peer death
    std::uint64_t staleReplies = 0;     ///< post-crash/stale deliveries dropped
    std::uint64_t membershipSends = 0;  ///< MembershipMsg rumors sent
    std::uint64_t reAnnouncedFiles = 0; ///< caching re-announcements sent

    // Open-loop traffic engine (PressConfig::traffic).
    std::uint64_t keepAliveRequests = 0; ///< requests on reused connections
    std::uint64_t dynamicRequests = 0;   ///< dynamic-content class served
    std::uint64_t sessionsOpened = 0;    ///< keep-alive sessions accepted
    std::uint64_t sessionsClosed = 0;    ///< sessions whose last reply left
    stats::Accumulator latency;      ///< request latency, ns
    stats::LogHistogram latencyHist; ///< same samples, for percentiles

    void reset() { *this = ServerStats{}; }
};

/** One PRESS node. */
class PressServer
{
  public:
    /**
     * @param sim     simulator
     * @param config  cluster configuration
     * @param id      this node's id
     * @param node    CPU/disk resources
     * @param files   the served file population
     * @param comm    intra-cluster communication endpoint
     * @param seed    per-node randomness (NLB service-node choice)
     * @param on_reply where every reply goes (may be empty)
     *
     * A non-empty config.fault switches on the fault machinery (the
     * membership view and the fault-gated branches); with an empty
     * plan the server behaves bit-identically to a build without it.
     */
    PressServer(sim::Simulator &sim, const PressConfig &config, int id,
                osnode::Node &node, const storage::FileSet &files,
                ClusterComm &comm, std::uint64_t seed,
                ReplyHandler on_reply = {});

    PressServer(const PressServer &) = delete;
    PressServer &operator=(const PressServer &) = delete;

    /**
     * A client request for @p file arrived at this node (it is the
     * initial node). @p req shapes it (keep-alive, class, session
     * span); the reply handler gets it back when the reply is ready
     * for the external network.
     */
    void handleClientRequest(storage::FileId file,
                             const RequestOptions &req = {});

    /** This node's load metric: client connections it is handling plus
     *  forwarded requests it is servicing. */
    int load() const { return _openConnections + _servicingRemote; }

    const ServerStats &stats() const { return _stats; }

    /** Reset counters; latency samples of requests already in flight
     *  are excluded from the new window. */
    void
    resetStats()
    {
        _stats.reset();
        _statsEpoch = _sim.now();
    }

    const storage::FileCache &cache() const { return _cache; }
    const LoadDirectory &loadDirectory() const { return _loadDir; }
    int id() const { return _id; }

    /** Sharded directory view (null in DirectoryMode::Replicated). */
    const ShardedCacheDirectory *shardDirectory() const
    {
        return _shardDir.get();
    }

    /** Directory entries this node stores: replicated nodes track every
     *  known (file, mask) pair, sharded nodes only their shard plus the
     *  bounded hot set. The scalability benches compare these. */
    std::size_t directoryEntries() const
    {
        return _shardDir ? _shardDir->entries() : _cacheDir.knownFiles();
    }

    /** Attach the observability hub (null detaches). */
    void setTracer(obs::Tracer *tracer) { _tracer = tracer; }

    // --- fault tolerance (driven by Cluster::setupFaults) -------------

    /**
     * One first-hand membership verdict: @p node is in @p state as of
     * @p epoch, the fault epoch from FaultPlan::timeline().
     *
     * About this node, it is the plan's own event. Dead crashes it:
     * pending requests, cache and directories are lost and the comm
     * endpoint goes down. Alive brings it back cold after a crash or a
     * leave. Left announces a graceful leave; the node keeps serving
     * until faultLeaveDown().
     *
     * About a peer, it is the failure detector's verdict. Suspected
     * (silent for suspectDelay) tears down this end of the connection.
     * Dead (suspicion hardened after confirmDelay) and Alive (back
     * again) are applied and relayed like a first-hand rumor, running
     * recovery. Left (the leaver's drain window closed) tears the
     * connection down and runs recovery, once per departure.
     */
    void verdict(int node, fault::NodeState state, std::uint32_t epoch);

    /** Teardown half of this node's graceful leave (after the drain
     *  window). */
    void faultLeaveDown();

    /** True while this node is down (crashed or left-and-drained). */
    bool crashed() const { return _crashed; }

    /** Membership view (null without a fault plan). */
    const fault::MembershipView *membership() const { return _view.get(); }

  private:
    struct Pending {
        storage::FileId file;
        RequestOptions req;
        sim::Tick start;
        /** Fault mode: peer this request waits on (-1 = none); death of
         *  that peer triggers a retry at this, the initial node. */
        int awaitingNode = -1;
        int retries = 0;
    };

    /** How this node spreads load, caching and membership news; decided
     *  once, at construction. Off: no load information (non-locality-
     *  conscious, Kind::None, or gossip/tree on one node). Only Gossip
     *  and Tree send rumors; the others broadcast caching news. */
    enum class Path { Off, PiggyBack, Broadcast, Gossip, Tree };

    /** Distribution decision for a parsed request (rules 1-4, against
     *  the replicated or the sharded cache directory). */
    void dispatch(storage::FileId file, std::uint32_t tag);

    /** Rule 4's service node among @p mask's members other than
     *  @p exclude: the least-loaded one, or any one without load
     *  information. Fault mode skips nodes not believed Alive.
     *  @return -1 when no member qualifies (rule 3: first touch). */
    int serviceNodeIn(NodeMask mask, int exclude = -1);

    /** Rule 4's overload test: forward to @p candidate unless it is
     *  overloaded while the initial node (at @p initial_load) or the
     *  cluster's least-loaded node is not. */
    bool forwardTo(int candidate, int initial_load) const;

    /** Shard owner processes a ForwardRoute::Lookup. */
    void handleDirLookup(int from, const ForwardMsg &msg);

    /** Service a request on this node (as initial node). */
    void serveLocal(storage::FileId file, std::uint32_t tag);

    /** Dynamic-content class: generate the page on the CPU, bypassing
     *  dispatch, cache, and disk entirely. */
    void serveDynamic(storage::FileId file, std::uint32_t tag);

    /** Send the reply for a pending request to the client. */
    void reply(std::uint32_t tag, std::uint64_t file_bytes,
               int buffer_owner);

    /** Intra-cluster message upcall. */
    void onMessage(const Incoming &incoming);
    void handleForward(int from, const ForwardMsg &msg);
    void handleFileArrival(int from, const FileMsg &msg);

    /** Service a request forwarded by @p home (the initial node). */
    void serviceRemote(int home, storage::FileId file, std::uint32_t tag);

    // --- gossip/tree dissemination -----------------------------------
    /** A LoadMsg or CachingMsg rumor arrived: filter duplicates, apply
     *  it unless it is about a node believed down, and relay it. */
    template <typename Msg>
    void handleRumor(const Msg &msg);
    /** Send @p msg, one hop further, down this node's subtree of the
     *  k-ary tree rooted at its origin. */
    template <typename Msg>
    void relayTree(Msg msg);
    /** Arm a gossip round DisseminationEngine::Interval (plus a
     *  per-node jitter) from now (idempotent). */
    void scheduleGossipRound();
    void runGossipRound();
    /** Tree: start a load wave now if dirty and the per-origin rate
     *  limit allows, else arm one for when it does. */
    void maybeEmitLoadWave();
    void emitLoadWave(int current);
    void emitCachingWave(storage::FileId file, bool cached);

    // --- fault recovery ----------------------------------------------

    /** "Node @p subject is in @p state as of @p epoch", first heard
     *  here (origin = this node). */
    MembershipMsg news(int subject, fault::NodeState state,
                       std::uint32_t epoch, int hops = 0) const;

    /**
     * Merge a membership change into the view; on acceptance trace it,
     * run the matching comm/directory transition and recovery, and
     * (when @p relay) disseminate it onward per the configured kind.
     */
    void applyMembership(const MembershipMsg &msg, bool relay);

    /** Hard teardown of a departed @p peer, at most once per leave
     *  epoch (the Left rumor and the detector's Left verdict both lead
     *  here). */
    void leftHardTeardown(int peer, std::uint32_t epoch);

    /** Push an accepted membership change to peers: unicast flood for
     *  the paper's strategies, fanout samples for Gossip, source-rooted
     *  subtrees for Tree. */
    void disseminateMembership(const MembershipMsg &msg);

    /** @p peer is confirmed Dead/Left: repair directories, mark its
     *  load unusable, re-announce shard-handoff files, retry pending
     *  requests that waited on it. */
    void recoverFromDeath(int peer);

    /** @p peer came back Alive: reset its load, re-announce cached
     *  files it should know about (shard handback / directory warm). */
    void recoverFromRejoin(int peer);

    /** Re-dispatch a retried request (scheduled after backoff). */
    void retryNow(std::uint32_t tag);

    /** Record which peer a pending request waits on (no-op unless the
     *  fault machinery is active; -1 clears). */
    void noteAwaiting(std::uint32_t tag, int peer);

    /** Nodes currently believed Alive (fault mode only). */
    NodeMask aliveMask() const;

    /** Shared crash/leave teardown: drop all volatile state (pending
     *  requests, cache, directories, load counters) and take the comm
     *  endpoint down. */
    void teardownVolatile();

    /** Shard handoff: re-announce resident files whose shard owner
     *  differs between the @p before and @p after alive sets (capped
     *  at FaultPlan::announceCap). */
    void reannounceMovedShards(const NodeMask &before,
                               const NodeMask &after);

    /** Fault mode: true when @p node may be given new work. */
    bool nodeUsable(int node) const
    {
        return !_faultActive || _view->aliveNode(node);
    }

    /** Insert @p file into the cache: bookkeeping, V5 registration,
     *  caching-information broadcasts. */
    void insertIntoCache(storage::FileId file);

    /** Recompute the load metric, broadcasting per the dissemination
     *  strategy when it moved enough. */
    void loadChanged();

    /** CPU cost of replying to a client with @p bytes of data. */
    sim::Tick replyCost(std::uint64_t bytes) const;

    sim::Simulator &_sim;
    const PressConfig &_config;
    const Calibration &_cal;
    int _id;
    osnode::Node &_node;
    const storage::FileSet &_files;
    ClusterComm &_comm;
    util::Rng _rng;
    ReplyHandler _onReply;

    storage::FileCache _cache;
    CacheDirectory _cacheDir;
    LoadDirectory _loadDir;
    std::unique_ptr<ShardedCacheDirectory> _shardDir;
    std::unique_ptr<DisseminationEngine> _dissem; ///< Gossip/Tree only
    Path _path = Path::Off;
    bool _roundScheduled = false;   ///< gossip round armed
    bool _waveScheduled = false;    ///< tree load wave armed
    sim::Tick _nextWaveAt = 0;      ///< earliest next own load wave
    std::vector<int> _treeScratch;  ///< child-id scratch (no per-send alloc)

    /** One gossip round's outgoing digests, one slot per sampled peer
     *  (reused across rounds; slots past _digestsUsed are idle). */
    struct PeerDigest {
        int peer = -1;
        LoadDigestMsg load;
        CachingDigestMsg caching;
        void add(const LoadMsg &m) { load.rumors.push_back(m); }
        void add(const CachingMsg &m) { caching.rumors.push_back(m); }
    };
    std::vector<PeerDigest> _digestScratch;
    std::size_t _digestsUsed = 0;
    PeerDigest &digestFor(int peer);

    obs::Tracer *_tracer = nullptr;

    const bool _faultActive; ///< config.fault is non-empty
    bool _crashed = false;     ///< this node is currently down
    std::unique_ptr<fault::MembershipView> _view;
    /** Highest leave epoch already hard-torn-down, per peer: the Left
     *  rumor and the detector's Left verdict both lead here, and the
     *  teardown must run exactly once per departure. */
    std::vector<std::uint32_t> _leftTeardown;

    sim::Tick _statsEpoch = 0;
    int _openConnections = 0;
    int _servicingRemote = 0;
    int _lastBroadcastLoad = 0;
    std::uint32_t _nextTag = 1;
    std::unordered_map<std::uint32_t, Pending> _pending;
    ServerStats _stats;
};

} // namespace press::core

#endif // PRESS_CORE_PRESS_SERVER_HPP

/**
 * @file
 * Scalable dissemination of load/caching updates: gossip rounds and
 * static k-ary multicast trees (ROADMAP item 2).
 *
 * The paper's strategies (piggyback, threshold broadcast) are
 * all-to-all: every update costs N-1 messages and every node sends
 * them, O(N^2) cluster-wide. DisseminationEngine implements the two
 * scalable alternatives behind Dissemination::Kind::Gossip and
 * Kind::Tree. A *rumor* is a Table-2 load or caching message that
 * names the node it describes: a LoadMsg or CachingMsg with
 * origin >= 0, stamped with the origin's sequence number and a hop
 * count (messages.hpp). The engine queues, filters and emits those
 * wire structs directly.
 *
 *  - **Gossip**: broadcast-worthy updates become rumors. Each round
 *    (every Interval, scheduled lazily only while work
 *    is pending) a node pushes every due rumor — own load first, then
 *    queued relays — to a fanout-k sample of peers, packed into at
 *    most one Load plus one Caching *digest* message per peer
 *    (LoadDigestMsg/CachingDigestMsg). A rumor is relayed by each
 *    fresh receiver for GossipRepeats rounds while its hop budget
 *    (ceil(log_k N) + slack) lasts, so one update reaches the cluster
 *    in O(log_k N) rounds with O(N * k * GossipRepeats) rumor copies — but
 *    the wire carries at most 2k messages per node per interval no
 *    matter how fast loads move. That per-message O(1) is the
 *    coalescing that beats L1's per-change broadcasts: load rumors
 *    also collapse per origin (latest value wins), so a hot node's
 *    load flapping costs one digest entry per round, not a broadcast
 *    per change.
 *
 *  - **Tree**: a static k-ary multicast tree per source, derived only
 *    from node ids (node j sits at position (j - root) mod N of a
 *    heap-ordered k-ary tree rooted at the origin). A wave costs
 *    exactly N-1 messages over ceil depth O(log_k N) hops, and the
 *    origin rate-limits waves to one per interval.
 *
 * Determinism contract: peer samples derive from (seed, round, self)
 * through a splitmix64 hash chain — no global RNG, no state shared
 * across nodes — so runs are bit-identical and the tick-race hunter's
 * cross-domain permutations cannot move results. All engine state is
 * touched only from its owner node's scheduling domain.
 */

#ifndef PRESS_CORE_DISSEMINATION_HPP
#define PRESS_CORE_DISSEMINATION_HPP

#include <cstdint>
#include <vector>

#include "core/messages.hpp"
#include "sim/time.hpp"
#include "storage/file_set.hpp"
#include "util/units.hpp"

namespace press::core {

/** Per-node gossip/tree bookkeeping (see file comment). */
class DisseminationEngine
{
  public:
    /** Gossip rounds each holder re-pushes a fresh rumor. Every due
     *  rumor goes out every round — packed into at most one Load plus
     *  one Caching digest per sampled peer, so the wire carries at
     *  most 2 * fanout messages per node per interval however many
     *  rumors are pending. */
    static constexpr int GossipRepeats = 2;

    /** Gossip round period and minimum gap between tree load waves.
     *  The coalescing this buys is where the O(N^2) -> O(N log N) win
     *  comes from: L1 broadcasts on every load change, these kinds
     *  announce at most once per interval. */
    static constexpr sim::Tick Interval = 20 * util::MS;

    struct Params {
        int nodes = 1;
        int self = 0;
        int fanout = 4;     ///< k: peers per gossip round / tree arity
        std::uint64_t seed = 0;
    };

    explicit DisseminationEngine(const Params &p);

    // ---------------------------------------------------- static helpers

    /**
     * The fanout-k peer sample of @p self for @p round: k distinct
     * nodes != self, a pure function of (seed, round, self). Appends
     * to @p out (cleared first). Fewer than k peers when the cluster
     * is smaller than k+1.
     */
    static void samplePeers(std::uint64_t seed, std::uint64_t round,
                            int self, int nodes, int fanout,
                            std::vector<int> &out);

    /**
     * Children of @p self in the k-ary multicast tree rooted at
     * @p root: position p = (self - root + nodes) % nodes has children
     * at heap positions k*p+1 .. k*p+k. Appends to @p out (cleared
     * first).
     */
    static void treeChildren(int self, int root, int fanout, int nodes,
                             std::vector<int> &out);

    /** Maximum hop count of a tree wave (depth of position nodes-1). */
    static int treeDepth(int nodes, int fanout);

    /** Gossip hop budget: ceil(log_fanout nodes) + slack. */
    static int gossipTtl(int nodes, int fanout);

    // ------------------------------------------------------- origin side

    /** True when @p current differs from the last value this node
     *  announced (or it has announced nothing yet). */
    bool loadDirty(int current) const;

    /** Stamp a fresh own-load rumor (bumps the load seq, records
     *  @p current as announced). Gossip: hops = ttl; the caller
     *  enqueues/sends it. Tree: reuse with hops = 0. */
    LoadMsg makeOwnLoad(int current, int hops);

    /** Stamp a fresh own caching-information rumor. */
    CachingMsg makeOwnCaching(storage::FileId file, bool cached, int hops);

    // ------------------------------------------------------ receive side

    /**
     * Dedup/ordering filter for an arriving rumor. Load rumors accept
     * only strictly newer sequence numbers per origin (latest-value
     * semantics: an out-of-order older report is stale, not missing).
     * Caching rumors accept any sequence not yet seen inside a 64-wide
     * window per origin (event semantics: all inserts/evicts should
     * apply; ancient duplicates are dropped).
     *
     * @return true when the caller should apply the rumor to its
     *         directories. Gossip relaying is handled separately via
     *         enqueueRelay().
     */
    bool accept(const LoadMsg &r);
    bool accept(const CachingMsg &r);

    /** Queue a relay copy of an accepted gossip rumor with one hop
     *  less budget (a spent budget queues nothing). */
    void enqueueRelay(const LoadMsg &r);
    void enqueueRelay(const CachingMsg &r);

    /**
     * Order-insensitivity hook: a rumor that accept() rejected as a
     * duplicate may still carry a *larger* hop budget than the copy
     * that arrived first (shorter relay path). Merge it into the
     * queued slot, so the relayed budget is max over all arrivals —
     * a pure function of the rumor set, whatever order the fabric
     * delivered same-tick copies in (the tick-race hunter checks).
     */
    void noteDuplicate(const LoadMsg &r);
    void noteDuplicate(const CachingMsg &r);

    /** Stamp an own caching-information rumor with the full gossip hop
     *  budget and queue it for the coming rounds. */
    void queueOwnCaching(storage::FileId file, bool cached);

    // ------------------------------------------------------ gossip rounds

    /** True when a gossip round is worth scheduling: the own load is
     *  dirty or relays/caching rumors are queued. */
    bool hasWork(int current_load) const;

    /**
     * Run one gossip round: sample this round's peers and invoke
     * @p send(dst, rumor) for every (due rumor, peer) pair, with a
     * const LoadMsg& or a const CachingMsg& — own load first when
     * dirty, then caching rumors oldest first, then relayed loads by
     * ascending origin. Every due rumor goes out every round
     * (the caller packs them into per-peer digests, so the wire cost
     * is O(fanout) messages regardless); each push drops the rumor's
     * sendsLeft by one and drained rumors leave the queue, so a rumor
     * occupies at most GossipRepeats rounds.
     */
    template <typename SendFn>
    void
    runRound(int current_load, SendFn &&send)
    {
        ++_round;
        if (loadDirty(current_load))
            _loadSlots[_p.self] = {
                makeOwnLoad(current_load, gossipTtl(_p.nodes, _p.fanout)),
                GossipRepeats};
        samplePeers(_p.seed, _round, _p.self, _p.nodes, _p.fanout,
                    _peerScratch);
        if (_peerScratch.empty())
            return;

        auto push = [&](auto &slot) {
            for (int peer : _peerScratch)
                send(peer, slot.rumor);
            --slot.sendsLeft;
        };
        // Own load gets the first slot of every round.
        if (_loadSlots[_p.self].sendsLeft > 0)
            push(_loadSlots[_p.self]);
        // Caching rumors oldest first. The explicit (seq, origin) sort
        // makes the round a pure function of the queued *set*: two
        // same-tick arrivals enqueue in fabric-delivery order, which
        // the tick-race hunter's cross-domain permutations may swap.
        sortCachingQueue();
        for (auto &slot : _cachingQueue)
            push(slot);
        std::size_t w = 0;
        for (std::size_t r = 0; r < _cachingQueue.size(); ++r) {
            if (_cachingQueue[r].sendsLeft == 0)
                continue; // drained this round
            if (w != r)
                _cachingQueue[w] = _cachingQueue[r];
            ++w;
        }
        _cachingQueue.resize(w);
        // Relayed load rumors by ascending origin id.
        for (int o = 0; o < _p.nodes; ++o) {
            if (o == _p.self || _loadSlots[o].sendsLeft <= 0)
                continue;
            push(_loadSlots[o]);
        }
    }

    std::uint64_t round() const { return _round; }

    const Params &params() const { return _p; }

  private:
    /** A queued rumor and the rounds it still goes out in. */
    template <typename Msg>
    struct Slot {
        Msg rumor;
        int sendsLeft = 0;
    };

    /** Shared accept() check: @p origin is a valid peer, not self. */
    bool fromPeer(int origin) const;

    /** Canonical queue order: ascending (seq, origin) — approximate
     *  arrival age, independent of same-tick delivery order. */
    void sortCachingQueue();

    /** Sequence dedup window: max seen seq plus a bitmap of the 64
     *  sequences below it. */
    struct SeqWindow {
        std::uint32_t maxSeq = 0;
        std::uint64_t recent = 0; ///< bit i = (maxSeq - 1 - i) seen
        bool accept(std::uint32_t seq);
    };

    Params _p;
    std::uint32_t _loadSeq = 0;
    std::uint32_t _cachingSeq = 0;
    int _lastAnnouncedLoad = 0;
    bool _announcedOnce = false;

    std::vector<std::uint32_t> _loadMaxSeen;  ///< per-origin, 0 = none
    std::vector<SeqWindow> _cachingSeen;      ///< per-origin

    /** One pending load rumor per origin. */
    std::vector<Slot<LoadMsg>> _loadSlots;
    std::vector<Slot<CachingMsg>> _cachingQueue;

    std::vector<int> _peerScratch;
    std::uint64_t _round = 0;
};

} // namespace press::core

#endif // PRESS_CORE_DISSEMINATION_HPP

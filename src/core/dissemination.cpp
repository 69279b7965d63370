#include "dissemination.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/random.hpp"

namespace press::core {

DisseminationEngine::DisseminationEngine(const Params &p) : _p(p)
{
    PRESS_ASSERT(p.nodes > 0, "empty cluster");
    PRESS_ASSERT(p.self >= 0 && p.self < p.nodes, "bad self id");
    PRESS_ASSERT(p.fanout >= 1, "fanout must be >= 1");
    _loadMaxSeen.assign(static_cast<std::size_t>(p.nodes), 0);
    _cachingSeen.assign(static_cast<std::size_t>(p.nodes), SeqWindow{});
    _loadSlots.assign(static_cast<std::size_t>(p.nodes), {});
}

void
DisseminationEngine::samplePeers(std::uint64_t seed, std::uint64_t round,
                                 int self, int nodes, int fanout,
                                 std::vector<int> &out)
{
    out.clear();
    if (nodes <= 1)
        return;
    int want = fanout < nodes - 1 ? fanout : nodes - 1;
    // Hash chain on (seed, round, self): deterministic, stateless, and
    // different per node and per round. Rejection keeps peers distinct;
    // the chain cannot stall because want <= nodes - 1.
    using util::mix64;
    std::uint64_t x =
        mix64(seed ^ mix64(round ^ mix64(static_cast<std::uint64_t>(
                               self + 0x51ed2701))));
    while (static_cast<int>(out.size()) < want) {
        x = mix64(x);
        int cand = static_cast<int>(x % static_cast<std::uint64_t>(nodes));
        if (cand == self)
            continue;
        if (std::find(out.begin(), out.end(), cand) == out.end())
            out.push_back(cand);
    }
}

void
DisseminationEngine::treeChildren(int self, int root, int fanout,
                                  int nodes, std::vector<int> &out)
{
    out.clear();
    PRESS_ASSERT(self >= 0 && self < nodes && root >= 0 && root < nodes,
                 "bad tree node/root id");
    long pos = (self - root + nodes) % nodes;
    for (int c = 1; c <= fanout; ++c) {
        long child = static_cast<long>(fanout) * pos + c;
        if (child >= nodes)
            break;
        out.push_back(static_cast<int>((root + child) % nodes));
    }
}

int
DisseminationEngine::treeDepth(int nodes, int fanout)
{
    // Depth of the deepest heap position (nodes - 1).
    int depth = 0;
    long pos = nodes - 1;
    while (pos > 0) {
        pos = (pos - 1) / fanout;
        ++depth;
    }
    return depth;
}

int
DisseminationEngine::gossipTtl(int nodes, int fanout)
{
    // ceil(log_fanout nodes) + slack. Fanout 1 degenerates to a ring
    // walk; give it a linear budget.
    if (fanout <= 1)
        return nodes + 2;
    int levels = 0;
    long cover = 1;
    while (cover < nodes) {
        cover *= fanout;
        ++levels;
    }
    return levels + 4;
}

bool
DisseminationEngine::loadDirty(int current) const
{
    return !_announcedOnce || current != _lastAnnouncedLoad;
}

LoadMsg
DisseminationEngine::makeOwnLoad(int current, int hops)
{
    _lastAnnouncedLoad = current;
    _announcedOnce = true;
    return LoadMsg{current, _p.self, ++_loadSeq, hops};
}

CachingMsg
DisseminationEngine::makeOwnCaching(storage::FileId file, bool cached,
                                    int hops)
{
    return CachingMsg{file, cached, _p.self, ++_cachingSeq, hops};
}

bool
DisseminationEngine::SeqWindow::accept(std::uint32_t seq)
{
    if (seq > maxSeq) {
        std::uint32_t shift = seq - maxSeq;
        recent = shift >= 64 ? 0 : (recent << shift) | (1ULL << (shift - 1));
        maxSeq = seq;
        return true;
    }
    std::uint32_t behind = maxSeq - seq;
    if (behind == 0)
        return false; // maxSeq itself: already seen
    if (behind > 64)
        return false; // older than the window: drop as a duplicate
    std::uint64_t bit = 1ULL << (behind - 1);
    if (recent & bit)
        return false;
    recent |= bit;
    return true;
}

bool
DisseminationEngine::fromPeer(int origin) const
{
    PRESS_ASSERT(origin >= 0 && origin < _p.nodes, "rumor with bad origin ",
                 origin);
    return origin != _p.self; // own rumor echoed back: nothing to learn
}

bool
DisseminationEngine::accept(const LoadMsg &r)
{
    if (!fromPeer(r.origin))
        return false;
    // Latest-value semantics: only strictly newer reports apply.
    std::uint32_t &seen = _loadMaxSeen[static_cast<std::size_t>(r.origin)];
    if (r.seq <= seen)
        return false;
    seen = r.seq;
    return true;
}

bool
DisseminationEngine::accept(const CachingMsg &r)
{
    return fromPeer(r.origin) &&
           _cachingSeen[static_cast<std::size_t>(r.origin)].accept(r.seq);
}

void
DisseminationEngine::enqueueRelay(const LoadMsg &r)
{
    if (r.hops <= 0)
        return;
    auto &slot = _loadSlots[static_cast<std::size_t>(r.origin)];
    // A newer report for the same origin supersedes a queued one.
    if (slot.sendsLeft > 0 && slot.rumor.seq >= r.seq)
        return;
    slot = {r, GossipRepeats};
    --slot.rumor.hops;
}

void
DisseminationEngine::enqueueRelay(const CachingMsg &r)
{
    if (r.hops <= 0)
        return;
    _cachingQueue.push_back({r, GossipRepeats});
    --_cachingQueue.back().rumor.hops;
}

void
DisseminationEngine::noteDuplicate(const LoadMsg &r)
{
    if (r.hops <= 0 || r.origin == _p.self)
        return;
    auto &slot = _loadSlots[static_cast<std::size_t>(r.origin)];
    if (slot.sendsLeft > 0 && slot.rumor.seq == r.seq)
        slot.rumor.hops = std::max(slot.rumor.hops, r.hops - 1);
}

void
DisseminationEngine::noteDuplicate(const CachingMsg &r)
{
    if (r.hops <= 0 || r.origin == _p.self)
        return;
    for (auto &slot : _cachingQueue) // (origin, seq) is unique
        if (slot.rumor.origin == r.origin && slot.rumor.seq == r.seq)
            slot.rumor.hops = std::max(slot.rumor.hops, r.hops - 1);
}

void
DisseminationEngine::sortCachingQueue()
{
    // (origin, seq) is unique per rumor, so the order is total and the
    // sort need not be stable.
    std::sort(_cachingQueue.begin(), _cachingQueue.end(),
              [](const Slot<CachingMsg> &a, const Slot<CachingMsg> &b) {
                  if (a.rumor.seq != b.rumor.seq)
                      return a.rumor.seq < b.rumor.seq;
                  return a.rumor.origin < b.rumor.origin;
              });
}

void
DisseminationEngine::queueOwnCaching(storage::FileId file, bool cached)
{
    _cachingQueue.push_back(
        {makeOwnCaching(file, cached, gossipTtl(_p.nodes, _p.fanout)),
         GossipRepeats});
}

bool
DisseminationEngine::hasWork(int current_load) const
{
    return loadDirty(current_load) || !_cachingQueue.empty() ||
           std::any_of(_loadSlots.begin(), _loadSlots.end(),
                       [](const auto &s) { return s.sendsLeft > 0; });
}

} // namespace press::core

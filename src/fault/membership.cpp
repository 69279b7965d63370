#include "membership.hpp"

#include "util/logging.hpp"

namespace press::fault {

MembershipView::MembershipView(int nodes, int self)
    : _info(static_cast<std::size_t>(nodes)),
      _deadSince(static_cast<std::size_t>(nodes), 0),
      _self(self)
{
    PRESS_ASSERT(nodes >= 1 && self >= 0 && self < nodes,
                 "membership view outside cluster: self ", self, " of ",
                 nodes);
}

bool
MembershipView::apply(int subject, NodeState state, std::uint32_t epoch,
                      sim::Tick now)
{
    PRESS_ASSERT(subject >= 0 && subject < nodes(),
                 "membership subject ", subject, " outside cluster");
    NodeInfo &cur = _info[idx(subject)];
    auto rank = [](NodeState s) { return static_cast<int>(s); };
    if (epoch < cur.epoch)
        return false;
    if (epoch == cur.epoch && rank(state) <= rank(cur.state))
        return false;
    cur.state = state;
    cur.epoch = epoch;
    if (state == NodeState::Dead || state == NodeState::Left)
        _deadSince[idx(subject)] = now;
    return true;
}

int
MembershipView::aliveCount() const
{
    int n = 0;
    for (const NodeInfo &info : _info)
        if (info.state == NodeState::Alive)
            ++n;
    return n;
}

} // namespace press::fault

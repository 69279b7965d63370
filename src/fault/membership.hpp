/**
 * @file
 * Per-node cluster membership views (DiStore-style NodeInfo tables).
 *
 * Every server keeps a MembershipView: one NodeInfo {state, epoch} per
 * cluster slot. State changes originate from the deterministic failure
 * detector (fault_plan.hpp pre-schedules suspicion/confirmation events
 * per survivor) and from MembershipMsg rumors disseminated over the
 * cluster comm — unicast floods under the paper's strategies, fanout
 * samples under Gossip, source-rooted k-ary relays under Tree (reusing
 * core::DisseminationEngine's deterministic peer sampling).
 *
 * Convergence is order-free: apply() merges by (epoch, state rank)
 * lexicographically — a higher epoch always wins, and within an epoch
 * the more advanced state (Alive < Suspected < Dead < Left) wins. Since
 * every fault event owns a unique global epoch from FaultPlan::
 * timeline(), all views reach the same fixed point whatever order the
 * rumors arrive in, which is what keeps churn runs byte-identical
 * under the tick-race hunter's permutations.
 */

#ifndef PRESS_FAULT_MEMBERSHIP_HPP
#define PRESS_FAULT_MEMBERSHIP_HPP

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace press::fault {

/** Lifecycle of a cluster slot, ranked by progression. */
enum class NodeState : std::uint8_t {
    Alive = 0,
    Suspected = 1,
    Dead = 2,
    Left = 3,
};

/** What one node believes about one cluster slot. */
struct NodeInfo {
    NodeState state = NodeState::Alive;
    std::uint32_t epoch = 0;   ///< fault epoch the belief stems from
};

/** One node's view of the whole cluster. */
class MembershipView
{
  public:
    MembershipView(int nodes, int self);

    /**
     * Merge "node @p subject is @p state as of fault epoch @p epoch".
     * Accepts when (epoch, rank(state)) exceeds the current belief.
     *
     * @return true when the view changed (the caller disseminates and
     *         runs recovery on true).
     */
    bool apply(int subject, NodeState state, std::uint32_t epoch,
               sim::Tick now);

    NodeState state(int node) const { return _info[idx(node)].state; }
    std::uint32_t epoch(int node) const { return _info[idx(node)].epoch; }

    /** Dispatchable: only Alive nodes receive new work. */
    bool aliveNode(int node) const
    {
        return _info[idx(node)].state == NodeState::Alive;
    }

    int aliveCount() const;

    int nodes() const { return static_cast<int>(_info.size()); }
    int self() const { return _self; }

    /**
     * Tick this view marked @p node Dead or Left under the highest
     * epoch seen so far; 0 when it never did. The cluster aggregates
     * max-over-survivors of these into the view-convergence metric.
     */
    sim::Tick deadSince(int node) const { return _deadSince[idx(node)]; }

  private:
    static std::size_t idx(int node)
    {
        return static_cast<std::size_t>(node);
    }

    std::vector<NodeInfo> _info;
    std::vector<sim::Tick> _deadSince;
    int _self;
};

} // namespace press::fault

#endif // PRESS_FAULT_MEMBERSHIP_HPP

/**
 * @file
 * Deterministic fault-injection schedules (ROADMAP item 3).
 *
 * A FaultPlan is a list of (verb, node, tick) events — crash, restart,
 * leave, join — that the cluster turns into pre-scheduled simulation
 * events before run() starts. Everything downstream (VI teardown,
 * failure detection, membership dissemination, directory recovery,
 * request retry) is driven from these pre-scheduled per-domain events,
 * so a faulty run is exactly as deterministic as a healthy one: byte-
 * identical across reruns, --jobs values, worker-thread counts, and
 * the tick-race hunter's equal-tick permutations. An empty plan is the
 * contract's null case — no fault machinery activates and behavior is
 * bit-identical to a build without the subsystem.
 *
 * Verbs:
 *  - crash    abrupt node loss: pending requests dropped, VI endpoints
 *             broken, cache and directories lost.
 *  - restart  a crashed node returns cold (empty cache, fresh epoch).
 *  - leave    graceful departure: the node announces Left, drains for
 *             drainDelay, then goes down like a crash.
 *  - join     a departed (left) node returns; same mechanics as
 *             restart, distinguished for reporting.
 *
 * Grammar (FaultPlan::parse, fed from --fault options through the
 * util/cli.hpp helpers):
 *
 *     plan  := event (';' event)*
 *     event := verb ':' node '@' time
 *     verb  := "crash" | "restart" | "leave" | "join"
 *     time  := integer ("us" | "ms" | "s")      -- absolute sim time
 *
 * e.g. "crash:3@2s;crash:5@2s;restart:3@4s;restart:5@4s".
 *
 * Epochs: timeline() orders events by (tick, insertion order) and
 * assigns each a global 1-based epoch. Membership updates carry these
 * epochs, so views merge to the same fixed point whatever order the
 * rumors arrive in (see membership.hpp).
 *
 * Errors: plan construction is the one place in the tree allowed to
 * throw — PlanError below. Recovery paths must never throw (connection
 * loss surfaces as error completions and statuses, not exceptions);
 * scripts/lint.sh bans `throw` outside this directory.
 */

#ifndef PRESS_FAULT_FAULT_PLAN_HPP
#define PRESS_FAULT_FAULT_PLAN_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace press::fault {

/** The one exception type of the fault subsystem: a malformed or
 *  inconsistent FaultPlan. Thrown by parse()/validate(); benches and
 *  tools catch it at the CLI boundary and exit via util::fatal. */
class PlanError : public std::runtime_error
{
  public:
    explicit PlanError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** What happens to a node. */
enum class FaultKind : std::uint8_t {
    Crash,   ///< abrupt loss
    Restart, ///< cold return of a crashed node
    Leave,   ///< graceful departure (announce, drain, down)
    Join,    ///< return of a departed node
};

const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent {
    FaultKind kind = FaultKind::Crash;
    int node = -1;
    sim::Tick at = 0;
    /** Global membership epoch, assigned by timeline() in (at,
     *  insertion) order, 1-based. 0 until then. */
    std::uint32_t epoch = 0;
};

/**
 * Capped exponential backoff for request retry after a peer death:
 * attempt k (0-based) waits min(cap, base << k). Pure integer math —
 * the schedule is a deterministic function of the attempt alone.
 */
struct RetryPolicy {
    static constexpr sim::Tick base = 500 * util::US;
    static constexpr sim::Tick cap = 8 * util::MS;
    static constexpr int maxAttempts = 5;

    static constexpr sim::Tick
    delayFor(int attempt)
    {
        if (attempt < 0)
            attempt = 0;
        sim::Tick d = base;
        for (int i = 0; i < attempt && d < cap; ++i)
            d *= 2;
        return d < cap ? d : cap;
    }
};

/** The full fault schedule, plus the failure-detector timing model as
 *  constants. */
class FaultPlan
{
  public:
    // ------------------------------------------------------ construction

    FaultPlan &crash(int node, sim::Tick at);
    FaultPlan &restart(int node, sim::Tick at);
    FaultPlan &leave(int node, sim::Tick at);
    FaultPlan &join(int node, sim::Tick at);

    /** Parse the grammar above; throws PlanError on malformed input. */
    static FaultPlan parse(const std::string &spec);

    // ----------------------------------------------------------- queries

    bool empty() const { return _events.empty(); }
    std::size_t size() const { return _events.size(); }

    /** Events as added (epochs unassigned). */
    const std::vector<FaultEvent> &events() const { return _events; }

    /** Events sorted by (at, insertion order) with 1-based epochs
     *  assigned — the order membership incarnations advance in. */
    std::vector<FaultEvent> timeline() const;

    /**
     * Check the plan against a cluster of @p nodes: node ids in range,
     * per-node up/down state machine respected (crash/leave only while
     * up, restart/join only while down), at least minReviveGap between
     * going down and coming back (in-flight traffic must drain), and
     * never every node down at once. Throws PlanError.
     */
    void validate(int nodes) const;

    /** Render back to the parse() grammar (labels, reports). */
    std::string spec() const;

    // ---------------------------------------------- detector/recovery

    /** Peer silence before a survivor marks a node Suspected and tears
     *  down its endpoint toward it. Must exceed the fabric wire
     *  latency; this is the deterministic failure-detector timeout. */
    static constexpr sim::Tick suspectDelay = 200 * util::US;

    /** Further silence before Suspected hardens to Dead and recovery
     *  (directory repair, pending-request retry) runs. A membership
     *  rumor carrying Dead news can confirm earlier. */
    static constexpr sim::Tick confirmDelay = 800 * util::US;

    /** Grace period a leaving node keeps serving between its Left
     *  announcement and actually going down. */
    static constexpr sim::Tick drainDelay = 200 * util::US;

    static_assert(suspectDelay > 0 && confirmDelay > 0 && drainDelay > 0,
                  "fault detector delays must be positive");

    /** Cap on caching re-announcements one node sends per membership
     *  change (directory re-replication / shard handoff). */
    static constexpr int announceCap = 512;

    /** Minimum down time before a restart/join may revive the node. */
    static constexpr sim::Tick minReviveGap = 1 * util::MS;

    /** Backoff for retrying requests stranded by a peer death. */
    static constexpr RetryPolicy retry{};

  private:
    FaultPlan &add(FaultKind kind, int node, sim::Tick at);

    std::vector<FaultEvent> _events;
};

} // namespace press::fault

#endif // PRESS_FAULT_FAULT_PLAN_HPP

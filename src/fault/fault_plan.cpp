#include "fault_plan.hpp"

#include <algorithm>
#include <cstdlib>

namespace press::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::Restart:
        return "restart";
      case FaultKind::Leave:
        return "leave";
      case FaultKind::Join:
        return "join";
    }
    return "?";
}

FaultPlan &
FaultPlan::add(FaultKind kind, int node, sim::Tick at)
{
    FaultEvent e;
    e.kind = kind;
    e.node = node;
    e.at = at;
    _events.push_back(e);
    return *this;
}

FaultPlan &
FaultPlan::crash(int node, sim::Tick at)
{
    return add(FaultKind::Crash, node, at);
}

FaultPlan &
FaultPlan::restart(int node, sim::Tick at)
{
    return add(FaultKind::Restart, node, at);
}

FaultPlan &
FaultPlan::leave(int node, sim::Tick at)
{
    return add(FaultKind::Leave, node, at);
}

FaultPlan &
FaultPlan::join(int node, sim::Tick at)
{
    return add(FaultKind::Join, node, at);
}

namespace {

/** Parse "<int>(us|ms|s)" into ticks; throws PlanError. */
sim::Tick
parseTime(const std::string &text, const std::string &event)
{
    std::size_t i = 0;
    while (i < text.size() &&
           text[i] >= '0' && text[i] <= '9')
        ++i;
    if (i == 0)
        throw PlanError("fault plan: bad time '" + text + "' in '" +
                        event + "' (want <int>us|ms|s)");
    std::string digits = text.substr(0, i);
    std::string unit = text.substr(i);
    sim::Tick scale = 0;
    if (unit == "us")
        scale = util::US;
    else if (unit == "ms")
        scale = util::MS;
    else if (unit == "s")
        scale = util::SEC;
    else
        throw PlanError("fault plan: bad time unit '" + unit +
                        "' in '" + event + "' (want us|ms|s)");
    return static_cast<sim::Tick>(std::strtoll(digits.c_str(),
                                               nullptr, 10)) *
           scale;
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t semi = spec.find(';', pos);
        std::string event =
            spec.substr(pos, semi == std::string::npos ? std::string::npos
                                                       : semi - pos);
        pos = semi == std::string::npos ? spec.size() : semi + 1;
        if (event.empty())
            throw PlanError("fault plan: empty event in '" + spec + "'");

        std::size_t colon = event.find(':');
        std::size_t at = event.find('@');
        if (colon == std::string::npos || at == std::string::npos ||
            at < colon)
            throw PlanError("fault plan: '" + event +
                            "' is not verb:node@time");
        std::string verb = event.substr(0, colon);
        std::string node_text = event.substr(colon + 1, at - colon - 1);
        std::string time_text = event.substr(at + 1);

        FaultKind kind;
        if (verb == "crash")
            kind = FaultKind::Crash;
        else if (verb == "restart")
            kind = FaultKind::Restart;
        else if (verb == "leave")
            kind = FaultKind::Leave;
        else if (verb == "join")
            kind = FaultKind::Join;
        else
            throw PlanError("fault plan: unknown verb '" + verb +
                            "' (want crash|restart|leave|join)");

        if (node_text.empty() ||
            node_text.find_first_not_of("0123456789") !=
                std::string::npos)
            throw PlanError("fault plan: bad node '" + node_text +
                            "' in '" + event + "'");
        int node = std::atoi(node_text.c_str());

        plan.add(kind, node, parseTime(time_text, event));
    }
    return plan;
}

std::vector<FaultEvent>
FaultPlan::timeline() const
{
    std::vector<FaultEvent> out = _events;
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].epoch = static_cast<std::uint32_t>(i + 1);
    return out;
}

void
FaultPlan::validate(int nodes) const
{
    auto line = timeline();
    // Per-node state: 0 = up, otherwise the tick it went down at.
    std::vector<sim::Tick> down_at(static_cast<std::size_t>(nodes), 0);
    std::vector<bool> down(static_cast<std::size_t>(nodes), false);
    int down_count = 0;

    for (const FaultEvent &e : line) {
        if (e.node < 0 || e.node >= nodes)
            throw PlanError(std::string("fault plan: node ") +
                            std::to_string(e.node) +
                            " outside cluster of " +
                            std::to_string(nodes));
        if (e.at <= 0)
            throw PlanError(std::string("fault plan: ") +
                            faultKindName(e.kind) + " of node " +
                            std::to_string(e.node) +
                            " at tick <= 0");
        auto idx = static_cast<std::size_t>(e.node);
        switch (e.kind) {
          case FaultKind::Crash:
          case FaultKind::Leave:
            if (down[idx])
                throw PlanError(std::string("fault plan: ") +
                                faultKindName(e.kind) + " of node " +
                                std::to_string(e.node) +
                                " while already down");
            down[idx] = true;
            down_at[idx] = e.at;
            ++down_count;
            if (down_count >= nodes)
                throw PlanError("fault plan: every node down at tick " +
                                std::to_string(e.at));
            break;
          case FaultKind::Restart:
          case FaultKind::Join:
            if (!down[idx])
                throw PlanError(std::string("fault plan: ") +
                                faultKindName(e.kind) + " of node " +
                                std::to_string(e.node) +
                                " while already up");
            if (e.at - down_at[idx] < minReviveGap)
                throw PlanError("fault plan: node " +
                                std::to_string(e.node) +
                                " revived less than " +
                                std::to_string(minReviveGap / util::US) +
                                "us after going down (in-flight "
                                "traffic must drain)");
            down[idx] = false;
            --down_count;
            break;
        }
    }
}

std::string
FaultPlan::spec() const
{
    std::string out;
    for (const FaultEvent &e : _events) {
        if (!out.empty())
            out += ';';
        out += faultKindName(e.kind);
        out += ':';
        out += std::to_string(e.node);
        out += '@';
        out += std::to_string(e.at / util::US);
        out += "us";
    }
    return out;
}

} // namespace press::fault

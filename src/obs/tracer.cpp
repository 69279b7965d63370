#include "tracer.hpp"

#include "util/logging.hpp"

namespace press::obs {

const char *
evName(Ev code)
{
    switch (code) {
      case Ev::None:
        return "none";
      case Ev::ReqLife:
        return "request";
      case Ev::ReqForward:
        return "forward";
      case Ev::ReqService:
        return "service";
      case Ev::ReqDispatch:
        return "dispatch";
      case Ev::ReqReply:
        return "reply";
      case Ev::CommSend:
        return "comm.send";
      case Ev::CommRecv:
        return "comm.recv";
      case Ev::CommRmwWrite:
        return "comm.rmw";
      case Ev::CommCredit:
        return "comm.credit";
      case Ev::CommStall:
        return "comm.stall";
      case Ev::CpuJob:
        return "cpu.job";
      case Ev::DiskRead:
        return "disk.read";
      case Ev::CpuDepth:
        return "cpu.depth";
      case Ev::DiskDepth:
        return "disk.depth";
      case Ev::NodeCrashed:
        return "node.crashed";
      case Ev::NodeSuspected:
        return "node.suspected";
      case Ev::ViewChanged:
        return "view.changed";
      case Ev::RequestRetried:
        return "request.retried";
      case Ev::SessionLife:
        return "session";
      case Ev::NumEv:
        break;
    }
    return "?";
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Begin:
        return "B";
      case Phase::End:
        return "E";
      case Phase::AsyncBegin:
        return "b";
      case Phase::AsyncEnd:
        return "e";
      case Phase::Instant:
        return "i";
      case Phase::Counter:
        return "C";
    }
    return "?";
}

const char *
dispatchDecisionName(DispatchDecision d)
{
    switch (d) {
      case DispatchDecision::CachedLocal:
        return "cached-local";
      case DispatchDecision::LargeFile:
        return "large-file";
      case DispatchDecision::FirstTouch:
        return "first-touch";
      case DispatchDecision::SelfBest:
        return "self-best";
      case DispatchDecision::Forward:
        return "forward";
      case DispatchDecision::OverloadLocal:
        return "overload-local";
      case DispatchDecision::Oblivious:
        return "oblivious";
      case DispatchDecision::DirLookup:
        return "dir-lookup";
      case DispatchDecision::Dynamic:
        return "dynamic";
    }
    return "?";
}

Tracer::Tracer(sim::Simulator &sim, int nodes, std::size_t ring_capacity,
               std::vector<std::string> categories)
    : _sim(sim), _categories(std::move(categories))
{
    PRESS_ASSERT(nodes >= 1 && nodes <= 255,
                 "tracer supports 1..255 nodes, got ", nodes);
    _rings.reserve(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i)
        _rings.emplace_back(ring_capacity);
    _spanBusy.assign(static_cast<std::size_t>(nodes),
                     std::vector<std::int64_t>(_categories.size(), 0));
}

void
Tracer::resetAggregates()
{
    for (auto &by_cat : _spanBusy)
        for (auto &ns : by_cat)
            ns = 0;
}

TraceData
Tracer::snapshot() const
{
    TraceData d;
    d.nodes = static_cast<std::uint32_t>(_rings.size());
    d.categories = _categories;
    for (const auto &ring : _rings) {
        d.emitted.push_back(ring.emitted());
        d.events.push_back(ring.snapshot());
    }
    d.spanBusy = _spanBusy;
    d.counterBusy.assign(_rings.size(),
                         std::vector<std::int64_t>(_categories.size(), 0));
    return d;
}

ResourceProbe::ResourceProbe(Tracer &tracer, int node, Kind kind)
    : _tracer(tracer), _node(node), _kind(kind)
{
}

void
ResourceProbe::jobStarted(const sim::FifoResource &res, int category)
{
    (void)res;
    if (_kind == Kind::Cpu)
        _tracer.spanBegin(_node, Ev::CpuJob, 0,
                          static_cast<std::uint64_t>(category));
    else
        _tracer.spanBegin(_node, Ev::DiskRead, 0, 0);
}

void
ResourceProbe::jobFinished(const sim::FifoResource &res, int category,
                           sim::Tick busy)
{
    (void)res;
    if (_kind == Kind::Cpu) {
        _tracer.spanEnd(_node, Ev::CpuJob, 0,
                        static_cast<std::uint64_t>(category));
        // The listener is handed the exact busy time the resource
        // charged to its category counter, so span-derived and
        // counter-derived Figure-1 breakdowns agree to the tick.
        _tracer.addCpuSpan(_node, category, busy);
    } else {
        _tracer.spanEnd(_node, Ev::DiskRead, 0,
                        static_cast<std::uint64_t>(busy));
    }
}

void
ResourceProbe::depthChanged(const sim::FifoResource &res, std::size_t depth)
{
    (void)res;
    _tracer.counter(_node,
                    _kind == Kind::Cpu ? Ev::CpuDepth : Ev::DiskDepth,
                    depth);
}

} // namespace press::obs

#include "causality_checker.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/logging.hpp"

namespace press::check {

const char *
causalityKindName(CausalityViolation::Kind kind)
{
    switch (kind) {
      case CausalityViolation::Kind::BelowBound:
        return "below-lookahead";
      case CausalityViolation::Kind::FabricBelowFloor:
        return "fabric-below-floor";
    }
    return "unknown";
}

std::string
CausalityViolation::format() const
{
    std::ostringstream os;
    os << "[tick " << tick << "] " << causalityKindName(kind) << " "
       << from << " -> " << to << " delay " << delay << " ns < bound "
       << bound << " ns";
    if (!detail.empty())
        os << ": " << detail;
    return os.str();
}

CausalityChecker::CausalityChecker(sim::Simulator &sim, CheckMode mode)
    : _sim(sim), _mode(mode)
{
}

CausalityChecker::~CausalityChecker()
{
    detach();
}

void
CausalityChecker::attach()
{
    _sim.setScheduleObserver(this);
    _attached = true;
}

void
CausalityChecker::detach()
{
    if (_attached)
        _sim.setScheduleObserver(nullptr);
    _attached = false;
    for (FabricStats &f : _fabrics)
        f.fabric->setObserver(nullptr);
    _fabrics.clear();
}

void
CausalityChecker::declareDomains(int count)
{
    PRESS_ASSERT(count >= 0, "negative domain count");
    if (count <= _domains)
        return;
    std::vector<EdgeStats> grown(static_cast<std::size_t>(count) *
                                 static_cast<std::size_t>(count));
    for (int f = 0; f < _domains; ++f)
        for (int t = 0; t < _domains; ++t)
            grown[static_cast<std::size_t>(f) *
                      static_cast<std::size_t>(count) +
                  static_cast<std::size_t>(t)] =
                _matrix[static_cast<std::size_t>(f) *
                            static_cast<std::size_t>(_domains) +
                        static_cast<std::size_t>(t)];
    _matrix = std::move(grown);
    _labels.resize(static_cast<std::size_t>(count));
    for (int d = _domains; d < count; ++d)
        _labels[static_cast<std::size_t>(d)] = "d" + std::to_string(d);
    _domains = count;
}

void
CausalityChecker::setDomainLabel(sim::Domain domain, std::string label)
{
    PRESS_ASSERT(domain >= 0, "cannot label NoDomain");
    declareDomains(domain + 1);
    _labels[static_cast<std::size_t>(domain)] = std::move(label);
}

void
CausalityChecker::setBound(sim::Domain from, sim::Domain to,
                           sim::Tick bound)
{
    PRESS_ASSERT(from >= 0 && to >= 0 && from != to,
                 "bounds apply to ordered pairs of distinct domains");
    PRESS_ASSERT(bound >= 0, "negative lookahead bound");
    declareDomains(std::max(from, to) + 1);
    cell(from, to).bound = bound;
}

void
CausalityChecker::watchFabric(net::Fabric &fabric)
{
    fabric.setObserver(this);
    FabricStats f;
    f.fabric = &fabric;
    _fabrics.push_back(std::move(f));
}

bool
CausalityChecker::cover(sim::Domain domain)
{
    if (domain < 0)
        return false;
    if (domain >= _domains)
        declareDomains(domain + 1);
    return true;
}

CausalityChecker::EdgeStats &
CausalityChecker::cell(sim::Domain from, sim::Domain to)
{
    return _matrix[static_cast<std::size_t>(from) *
                       static_cast<std::size_t>(_domains) +
                   static_cast<std::size_t>(to)];
}

const CausalityChecker::EdgeStats *
CausalityChecker::cellIfAny(sim::Domain from, sim::Domain to) const
{
    if (from < 0 || to < 0 || from >= _domains || to >= _domains)
        return nullptr;
    return &_matrix[static_cast<std::size_t>(from) *
                        static_cast<std::size_t>(_domains) +
                    static_cast<std::size_t>(to)];
}

std::string
CausalityChecker::domainLabel(sim::Domain domain) const
{
    if (domain >= 0 && domain < _domains)
        return _labels[static_cast<std::size_t>(domain)];
    if (domain == sim::NoDomain)
        return "untagged";
    return "d" + std::to_string(domain);
}

void
CausalityChecker::onSchedule(sim::Tick now, sim::Tick when,
                             sim::Domain from, sim::Domain to)
{
    ++_edges;
    if (!cover(from) || !cover(to)) {
        // Setup-time scheduling (before any event has run) carries no
        // source domain: nothing is in flight yet for it to outrun, so
        // these edges are exempt.
        ++_untaggedEdges;
        return;
    }
    if (from == to)
        return;
    ++_crossEdges;
    ++_checks;
    const sim::Tick delay = when - now;
    EdgeStats &stats = cell(from, to);
    ++stats.count;
    if (stats.minDelay < 0 || delay < stats.minDelay)
        stats.minDelay = delay;
    if (stats.bound >= 0 && delay < stats.bound) {
        CausalityViolation v;
        v.kind = CausalityViolation::Kind::BelowBound;
        v.from = from;
        v.to = to;
        v.tick = now;
        v.delay = delay;
        v.bound = stats.bound;
        v.detail = domainLabel(from) + " -> " + domainLabel(to) +
                   ": state crossed nodes faster than the link's wire "
                   "latency";
        record(std::move(v));
    }
}

void
CausalityChecker::onDeliver(const net::Fabric &fabric, net::NodeId src,
                            net::NodeId dst, std::uint64_t bytes,
                            sim::Tick send_tick, sim::Tick deliver_tick)
{
    ++_checks;
    const sim::Tick latency = deliver_tick - send_tick;
    for (FabricStats &f : _fabrics) {
        if (f.fabric != &fabric)
            continue;
        ++f.deliveries;
        if (f.minLatency < 0 || latency < f.minLatency)
            f.minLatency = latency;
        break;
    }
    const sim::Tick floor = fabric.unloadedLatency(bytes);
    if (latency < floor) {
        CausalityViolation v;
        v.kind = CausalityViolation::Kind::FabricBelowFloor;
        v.from = fabric.portDomain(src);
        v.to = fabric.portDomain(dst);
        v.tick = deliver_tick;
        v.delay = latency;
        v.bound = floor;
        v.detail = fabric.config().name + " port " + std::to_string(src) +
                   " -> " + std::to_string(dst) + ", " +
                   std::to_string(bytes) +
                   " bytes delivered under the unloaded latency";
        record(std::move(v));
    }
}

sim::Tick
CausalityChecker::minDelay(sim::Domain from, sim::Domain to) const
{
    const EdgeStats *stats = cellIfAny(from, to);
    return stats ? stats->minDelay : -1;
}

sim::Tick
CausalityChecker::bound(sim::Domain from, sim::Domain to) const
{
    const EdgeStats *stats = cellIfAny(from, to);
    return stats ? stats->bound : -1;
}

void
CausalityChecker::writeLookaheadTable(std::ostream &os) const
{
    os << "# measured lookahead per cross-domain link (ns)\n";
    os << "# from -> to : edges, min observed delay, declared bound, "
          "verdict\n";
    for (int f = 0; f < _domains; ++f) {
        for (int t = 0; t < _domains; ++t) {
            if (f == t)
                continue;
            const EdgeStats *stats = cellIfAny(f, t);
            if (!stats || stats->count == 0)
                continue;
            os << domainLabel(f) << " -> " << domainLabel(t) << " : "
               << stats->count << " edges, min " << stats->minDelay
               << " ns, bound ";
            if (stats->bound >= 0)
                os << stats->bound << " ns, "
                   << (stats->minDelay >= stats->bound ? "ok"
                                                       : "VIOLATED");
            else
                os << "none, measured";
            os << "\n";
        }
    }
    for (const FabricStats &f : _fabrics) {
        if (f.deliveries == 0)
            continue;
        os << "fabric " << f.fabric->config().name << " : "
           << f.deliveries << " deliveries, min latency " << f.minLatency
           << " ns, wire " << f.fabric->config().wireLatency << " ns\n";
    }
}

std::string
CausalityChecker::report() const
{
    std::ostringstream os;
    os << "CausalityChecker: " << _total << " violation"
       << (_total == 1 ? "" : "s") << " in " << _checks << " checks ("
       << _edges << " edges, " << _crossEdges << " cross-domain, "
       << _untaggedEdges << " untagged)\n";
    for (const CausalityViolation &v : _violations)
        os << "  " << v.format() << "\n";
    if (_total > _violations.size())
        os << "  ... and " << _total - _violations.size() << " more\n";
    return os.str();
}

void
CausalityChecker::clear()
{
    for (EdgeStats &stats : _matrix) {
        stats.count = 0;
        stats.minDelay = -1;
    }
    for (FabricStats &f : _fabrics) {
        f.deliveries = 0;
        f.minLatency = -1;
    }
    _violations.clear();
    _total = 0;
    _checks = 0;
    _edges = 0;
    _crossEdges = 0;
    _untaggedEdges = 0;
}

void
CausalityChecker::record(CausalityViolation violation)
{
    ++_total;
    if (_mode == CheckMode::Abort)
        util::panic("CausalityChecker: ", violation.format());
    if (_violations.size() < MaxRetained)
        _violations.push_back(std::move(violation));
}

} // namespace press::check

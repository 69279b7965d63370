#include "traffic/rate_curve.hpp"

#include <cmath>
#include <sstream>

#include "util/logging.hpp"
#include "util/units.hpp"

namespace press::traffic {

namespace {

constexpr double TwoPi = 6.283185307179586476925286766559;

double
seconds(sim::Tick t)
{
    return sim::nsToSeconds(t);
}

/** Area under a linear rate move r0 -> r1 over the first x of dur. */
double
rampArea(double r0, double r1, sim::Tick x, sim::Tick dur)
{
    double xs = seconds(x);
    return r0 * xs + 0.5 * (r1 - r0) * xs * xs / seconds(dur);
}

std::string
renderDuration(sim::Tick t)
{
    std::ostringstream os;
    if (t % util::SEC == 0) // 0 canonically renders as "0s"
        os << t / util::SEC << "s";
    else if (t != 0 && t % util::MS == 0)
        os << t / util::MS << "ms";
    else if (t != 0 && t % util::US == 0)
        os << t / util::US << "us";
    else
        os << t << "ns";
    return os.str();
}

std::string
renderRate(double r)
{
    std::ostringstream os;
    os << r; // six significant digits: a label, not an exact value
    return os.str();
}

} // namespace

// ---- RateCurve ------------------------------------------------------

RateCurve
RateCurve::constant(double rate)
{
    RateCurve c;
    c.addConst(0, rate);
    return c;
}

RateCurve &
RateCurve::add(RateSegment seg)
{
    if (_segments.empty()) {
        PRESS_ASSERT(seg.start == 0,
                     "rate curve must start at t = 0");
        _massAtStart.push_back(0.0);
    } else {
        const RateSegment &prev = _segments.back();
        PRESS_ASSERT(seg.start > prev.start,
                     "rate curve segments must have increasing starts");
        _massAtStart.push_back(_massAtStart.back() +
                               segmentIntegral(prev, seg.start - prev.start));
    }
    _segments.push_back(seg);
    return *this;
}

RateCurve &
RateCurve::addConst(sim::Tick at, double rate)
{
    PRESS_ASSERT(rate > 0, "offered rate must be positive");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Const;
    seg.start = at;
    seg.base = rate;
    return add(seg);
}

RateCurve &
RateCurve::addDiurnal(sim::Tick at, double base, double amplitude,
                      sim::Tick period)
{
    PRESS_ASSERT(base > 0 && amplitude >= 0 && amplitude < base &&
                     period > 0,
                 "diurnal amplitude must stay below the base rate");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Diurnal;
    seg.start = at;
    seg.base = base;
    seg.peak = amplitude;
    seg.d1 = period;
    return add(seg);
}

RateCurve &
RateCurve::addFlash(sim::Tick at, double base, double peak,
                    sim::Tick attack, sim::Tick sustain, sim::Tick decay)
{
    PRESS_ASSERT(base > 0 && peak >= base && attack > 0 && sustain >= 0 &&
                     decay > 0,
                 "flash spike must rise from a positive base");
    RateSegment seg;
    seg.shape = RateSegment::Shape::Flash;
    seg.start = at;
    seg.base = base;
    seg.peak = peak;
    seg.d1 = attack;
    seg.d2 = sustain;
    seg.d3 = decay;
    return add(seg);
}

double
RateCurve::segmentIntegral(const RateSegment &seg, sim::Tick x) const
{
    if (x <= 0)
        return 0.0;
    switch (seg.shape) {
    case RateSegment::Shape::Const:
        return seg.base * seconds(x);
    case RateSegment::Shape::Diurnal: {
        double period = seconds(seg.d1);
        return seg.base * seconds(x) +
               seg.peak * period / TwoPi *
                   (1.0 - std::cos(TwoPi * seconds(x) / period));
    }
    case RateSegment::Shape::Flash: {
        double area = 0.0;
        if (x <= seg.d1)
            return rampArea(seg.base, seg.peak, x, seg.d1);
        area = rampArea(seg.base, seg.peak, seg.d1, seg.d1);
        if (x <= seg.d1 + seg.d2)
            return area + seg.peak * seconds(x - seg.d1);
        area += seg.peak * seconds(seg.d2);
        if (x <= seg.d1 + seg.d2 + seg.d3)
            return area + rampArea(seg.peak, seg.base,
                                   x - seg.d1 - seg.d2, seg.d3);
        area += rampArea(seg.peak, seg.base, seg.d3, seg.d3);
        return area + seg.base * seconds(x - seg.d1 - seg.d2 - seg.d3);
    }
    }
    return 0.0;
}

double
RateCurve::integral(sim::Tick t) const
{
    PRESS_ASSERT(!_segments.empty(), "integral on an empty curve");
    if (t <= 0)
        return 0.0;
    std::size_t i = _segments.size();
    while (i > 1 && _segments[i - 1].start > t)
        --i;
    const RateSegment &seg = _segments[i - 1];
    return _massAtStart[i - 1] + segmentIntegral(seg, t - seg.start);
}

sim::Tick
RateCurve::invert(double mass) const
{
    PRESS_ASSERT(!_segments.empty(), "invert on an empty curve");
    if (mass <= 0)
        return 0;
    // Locate the active segment, then bisect on whole ticks. Integer
    // bisection keeps the result bit-stable: two runs computing the
    // same doubles take the same branch at every probe.
    std::size_t i = _segments.size();
    while (i > 1 && _massAtStart[i - 1] >= mass)
        --i;
    const RateSegment &seg = _segments[i - 1];
    double local = mass - _massAtStart[i - 1];
    sim::Tick lo = 0; // integral(lo) < local
    sim::Tick hi;
    if (i < _segments.size()) {
        hi = _segments[i].start - seg.start;
    } else {
        hi = util::MS;
        while (segmentIntegral(seg, hi) < local)
            hi *= 2;
    }
    while (lo + 1 < hi) {
        sim::Tick mid = lo + (hi - lo) / 2;
        if (segmentIntegral(seg, mid) < local)
            lo = mid;
        else
            hi = mid;
    }
    return seg.start + hi;
}

std::string
RateCurve::spec() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < _segments.size(); ++i) {
        const RateSegment &seg = _segments[i];
        if (i)
            os << ";";
        switch (seg.shape) {
        case RateSegment::Shape::Const:
            os << "const:" << renderRate(seg.base);
            break;
        case RateSegment::Shape::Diurnal:
            os << "diurnal:" << renderRate(seg.base) << "~"
               << renderRate(seg.peak) << "/" << renderDuration(seg.d1);
            break;
        case RateSegment::Shape::Flash:
            os << "flash:" << renderRate(seg.base) << "^"
               << renderRate(seg.peak) << "/" << renderDuration(seg.d1)
               << "+" << renderDuration(seg.d2) << "+"
               << renderDuration(seg.d3);
            break;
        }
        os << "@" << renderDuration(seg.start);
    }
    return os.str();
}

// ---- ArrivalEngine --------------------------------------------------

ArrivalEngine::ArrivalEngine(RateCurve curve, std::uint64_t seed,
                             double rateScale)
    : _curve(std::move(curve)), _seed(seed), _scale(rateScale)
{
    PRESS_ASSERT(!_curve.empty(), "arrival engine needs a rate curve");
    PRESS_ASSERT(_scale > 0, "rate scale must be positive");
}

sim::Tick
ArrivalEngine::next()
{
    ++_count;
    double u = unitFromHash(mix64(_seed ^ (_count * 0x2545F4914F6CDD1Dull)));
    _mass += -std::log(1.0 - u);
    return _curve.invert(_mass / _scale);
}

} // namespace press::traffic

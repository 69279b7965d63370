#include "traffic/traffic_model.hpp"

#include "util/units.hpp"

namespace press::traffic {

// Shape constants for the named scenarios. Durations are sized for
// bench-length runs (a few seconds of simulated time); amplitudes are
// relative to the sweep rate so the same scenario works at every rung
// of the capacity ladder.
namespace {

constexpr double DiurnalSwing = 0.4;      // amplitude = 40% of base
constexpr sim::Tick DiurnalPeriod = 2 * util::SEC;

constexpr double FlashBoost = 3.0;        // spike peak = 3x base
constexpr sim::Tick FlashAt = 1500 * util::MS;
constexpr sim::Tick FlashAttack = 150 * util::MS;
constexpr sim::Tick FlashSustain = 600 * util::MS;
constexpr sim::Tick FlashDecay = 300 * util::MS;
constexpr int FlashHotFiles = 8;          // the crowd lands on 8 files
constexpr double FlashHotFraction = 0.85; // ...for 85% of spike draws
constexpr double FlashHotOffset = 0.75;   // ...deep in the cold tail
constexpr sim::Tick FlashHotRotate = 150 * util::MS; // chasing fresh pages

constexpr double DynamicShare = 0.25;     // 1 in 4 requests is generated

} // namespace

TrafficModel
steadyScenario(double rate)
{
    TrafficModel m;
    m.curve = RateCurve::constant(rate);
    return m;
}

TrafficModel
diurnalScenario(double rate)
{
    TrafficModel m;
    m.curve.addDiurnal(0, rate, DiurnalSwing * rate, DiurnalPeriod);
    return m;
}

TrafficModel
flashScenario(double rate)
{
    TrafficModel m;
    m.curve.addConst(0, rate);
    m.curve.addFlash(FlashAt, rate, FlashBoost * rate, FlashAttack,
                     FlashSustain, FlashDecay);
    // The crowd is not just bigger, it is narrower — and it chases
    // content the caches have not absorbed: the rotating hot window
    // sits deep in the cold tail of the ranking, so every rotation is
    // a burst of first-touch misses that piles requests up behind the
    // disks and pushes node load over the T = 80 overload-replication
    // pivot. A window over the already-replicated top ranks would be
    // absorbed without ever crossing it.
    m.population.mode = PopulationSpec::Mode::Zipf;
    m.population.hotCount = FlashHotFiles;
    m.population.hotFraction = FlashHotFraction;
    m.population.hotStart = FlashAt;
    m.population.hotEnd = FlashAt + FlashAttack + FlashSustain + FlashDecay;
    m.population.hotRotate = FlashHotRotate;
    m.population.hotOffset = FlashHotOffset;
    return m;
}

TrafficModel
keepAliveScenario(double rate)
{
    TrafficModel m;
    m.curve = RateCurve::constant(rate);
    m.session.enabled = true;
    return m;
}

TrafficModel
dynamicMixScenario(double rate)
{
    TrafficModel m;
    m.curve = RateCurve::constant(rate);
    m.dynamicFraction = DynamicShare;
    return m;
}

} // namespace press::traffic

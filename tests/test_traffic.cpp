/**
 * @file
 * Unit tests for the open-loop traffic subsystem: integral/inversion
 * consistency, interarrival statistics per shape, the scenario presets,
 * and the population/session models' counter-based determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "traffic/population.hpp"
#include "traffic/rate_curve.hpp"
#include "traffic/session.hpp"
#include "traffic/traffic_model.hpp"
#include "util/units.hpp"

using namespace press;
using namespace press::traffic;

namespace {

/** Mean and coefficient of variation of the first @p n interarrival
 *  gaps of @p engine, in seconds. */
struct GapStats {
    double mean;
    double cv;
};

GapStats
gapStats(ArrivalEngine &engine, int n)
{
    double sum = 0, sum2 = 0;
    sim::Tick prev = 0;
    for (int i = 0; i < n; ++i) {
        sim::Tick at = engine.next();
        double gap = sim::nsToSeconds(at - prev);
        prev = at;
        sum += gap;
        sum2 += gap * gap;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    return {mean, std::sqrt(std::max(0.0, var)) / mean};
}

} // namespace

// ---- integral / inversion -------------------------------------------

TEST(RateCurve, InvertIsTheInverseOfIntegral)
{
    RateCurve curve;
    curve.addConst(0, 2000)
        .addDiurnal(2 * util::SEC, 5000, 2000, util::SEC)
        .addFlash(4 * util::SEC, 4000, 12000, 100 * util::MS,
                  300 * util::MS, 200 * util::MS);
    for (sim::Tick t = 50 * util::MS; t < 6 * util::SEC;
         t += 37 * util::MS) {
        double mass = curve.integral(t);
        sim::Tick back = curve.invert(mass);
        // invert returns the smallest tick reaching the mass; a tick of
        // slack absorbs the bisection's half-open rounding.
        EXPECT_NEAR(static_cast<double>(back), static_cast<double>(t),
                    2.0)
            << "at t=" << t;
    }
}

TEST(RateCurve, IntegralMatchesShapeAreas)
{
    // const 1000 for 1 s -> 1000 arrivals.
    RateCurve c1 = RateCurve::constant(1000);
    EXPECT_NEAR(c1.integral(util::SEC), 1000.0, 1e-6);

    // Diurnal's sinusoid integrates to 0 over a full period; over the
    // rising first half it adds amplitude * period / pi.
    RateCurve c2;
    c2.addDiurnal(0, 2000, 800, util::SEC);
    EXPECT_NEAR(c2.integral(util::SEC), 2000.0, 1e-6);
    EXPECT_NEAR(c2.integral(util::SEC / 2), 1000.0 + 800.0 / std::numbers::pi,
                1e-6);

    RateCurve c3;
    c3.addFlash(0, 1000, 3000, util::SEC, util::SEC, util::SEC);
    // attack trapezoid 2000 + sustain 3000 + decay trapezoid 2000,
    // then the base rate again.
    EXPECT_NEAR(c3.integral(3 * util::SEC), 7000.0, 1e-6);
    EXPECT_NEAR(c3.integral(4 * util::SEC), 8000.0, 1e-6);
}

// ---- arrival statistics ---------------------------------------------

TEST(ArrivalEngine, ConstantRateGapsHavePoissonMeanAndCv)
{
    ArrivalEngine engine(RateCurve::constant(2000), 42);
    GapStats g = gapStats(engine, 20000);
    // Exponential gaps: mean 1/rate, CV 1.
    EXPECT_NEAR(g.mean, 1.0 / 2000.0, 0.02 / 2000.0);
    EXPECT_NEAR(g.cv, 1.0, 0.05);
}

TEST(ArrivalEngine, WindowedCountsTrackTheCurveIntegral)
{
    RateCurve curve;
    curve.addConst(0, 1000)
        .addFlash(util::SEC, 1000, 5000, 200 * util::MS, 400 * util::MS,
                  200 * util::MS)
        .addDiurnal(3 * util::SEC, 2000, 900, util::SEC);
    ArrivalEngine engine(curve, 7);
    // Count arrivals per 200 ms window over 5 s.
    constexpr sim::Tick Window = 200 * util::MS;
    std::vector<int> counts(25, 0);
    for (;;) {
        sim::Tick at = engine.next();
        auto idx = static_cast<std::size_t>(at / Window);
        if (idx >= counts.size())
            break;
        ++counts[idx];
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        sim::Tick a = static_cast<sim::Tick>(i) * Window;
        double expect = curve.integral(a + Window) - curve.integral(a);
        // 5-sigma Poisson band.
        EXPECT_NEAR(counts[i], expect, 5.0 * std::sqrt(expect) + 1)
            << "window " << i;
    }
}

TEST(ArrivalEngine, SameSeedSameStreamDifferentSeedDiffers)
{
    ArrivalEngine a(RateCurve::constant(3000), 11);
    ArrivalEngine b(RateCurve::constant(3000), 11);
    ArrivalEngine c(RateCurve::constant(3000), 12);
    bool differs = false;
    for (int i = 0; i < 1000; ++i) {
        sim::Tick ta = a.next();
        ASSERT_EQ(ta, b.next());
        if (ta != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(ArrivalEngine, RateScaleThinsArrivals)
{
    // Scale 1/8 (the session model's thinning at SessionMeanRequests = 8):
    // one-eighth the arrivals over the same horizon.
    ArrivalEngine full(RateCurve::constant(4000), 5, 1.0);
    ArrivalEngine thin(RateCurve::constant(4000), 5, 1.0 / 8.0);
    int nf = 0, nt = 0;
    while (full.next() < util::SEC)
        ++nf;
    while (thin.next() < util::SEC)
        ++nt;
    EXPECT_NEAR(nf, 4000, 5 * 64);
    EXPECT_NEAR(nt, 500, 5 * 23);
}

// ---- population -----------------------------------------------------

TEST(PopulationModel, HotWindowConcentratesDraws)
{
    PopulationSpec spec;
    spec.mode = PopulationSpec::Mode::Zipf;
    spec.hotCount = 8;
    spec.hotFraction = 0.85;
    spec.hotStart = util::SEC;
    spec.hotEnd = 2 * util::SEC;
    PopulationModel model(spec, 1000, 99);

    auto hot_share = [&](sim::Tick t) {
        int hot = 0;
        for (std::uint64_t k = 0; k < 4000; ++k)
            if (model.sampleRank(t, k) < 8)
                ++hot;
        return hot / 4000.0;
    };
    // Outside the window: plain Zipf(0.8) puts well under half the
    // mass on the top 8 of 1000 ranks. Inside: at least hotFraction.
    EXPECT_LT(hot_share(0), 0.5);
    EXPECT_GT(hot_share(util::SEC + util::MS), 0.84);
    EXPECT_LT(hot_share(2 * util::SEC), 0.5);
}

// ---- sessions -------------------------------------------------------

TEST(SessionModel, LengthsAreGeometricWithTheRequestedMean)
{
    SessionModel model(21);
    double sum = 0;
    std::uint32_t lo = 1000, hi = 0;
    for (std::uint64_t s = 0; s < 20000; ++s) {
        std::uint32_t len = model.length(s);
        ASSERT_GE(len, 1u);
        ASSERT_LE(len, SessionMaxRequests);
        sum += len;
        lo = std::min(lo, len);
        hi = std::max(hi, len);
    }
    EXPECT_NEAR(sum / 20000.0, SessionMeanRequests, 0.3);
    EXPECT_EQ(lo, 1u); // geometric mass at 1
    EXPECT_GT(hi, 20u);

    // Counter-based: the same session always draws the same length.
    EXPECT_EQ(model.length(123), model.length(123));
}

TEST(SessionModel, ThinkGapsAreExponential)
{
    SessionModel model(3);
    double sum = 0;
    for (std::uint64_t s = 0; s < 10000; ++s)
        sum += static_cast<double>(model.thinkGap(s, 1));
    EXPECT_NEAR(sum / 10000.0, static_cast<double>(SessionThinkMean),
                0.05 * static_cast<double>(SessionThinkMean));
}

// ---- scenarios ------------------------------------------------------

TEST(Scenarios, PresetsShapeAsAdvertised)
{
    auto averageRate = [](const RateCurve &c, sim::Tick a, sim::Tick b) {
        return (c.integral(b) - c.integral(a)) / sim::nsToSeconds(b - a);
    };
    EXPECT_FALSE(steadyScenario(4000).shaped() &&
                 steadyScenario(4000).curve.empty());
    EXPECT_NEAR(averageRate(steadyScenario(4000).curve, 0, util::SEC), 4000,
                1e-6);
    // Diurnal averages to the base over a full period.
    EXPECT_NEAR(averageRate(diurnalScenario(4000).curve, 0, 2 * util::SEC),
                4000, 1e-6);
    TrafficModel flash = flashScenario(3000);
    EXPECT_TRUE(flash.population.active());
    // Mid-sustain the spike runs at 3x the opening rate.
    EXPECT_GT(averageRate(flash.curve, 2 * util::SEC, 2100 * util::MS),
              2.5 * averageRate(flash.curve, 0, 100 * util::MS));
    // spec() is the label capacity_slo writes into BENCH_slo.json.
    EXPECT_EQ(steadyScenario(3000).curve.spec(), "const:3000@0s");
    EXPECT_EQ(diurnalScenario(3000).curve.spec(), "diurnal:3000~1200/2s@0s");
    EXPECT_EQ(flash.curve.spec(),
              "const:3000@0s;flash:3000^9000/150ms+600ms+300ms@1500ms");
    TrafficModel ka = keepAliveScenario(4000);
    EXPECT_TRUE(ka.session.enabled);
    TrafficModel dyn = dynamicMixScenario(4000);
    EXPECT_GT(dyn.dynamicFraction, 0.0);
}

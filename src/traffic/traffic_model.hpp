/**
 * @file
 * The open-loop traffic model embedded in PressConfig.
 *
 * Bundles the offered-load curve, the popularity model, the session
 * model, and the request-class mix into one value the cluster reads
 * when clientMode == OpenLoop. The curve is the open loop's only rate
 * knob: an open-loop run with an empty curve is rejected.
 * steadyScenario(R) is the classic constant-rate Poisson stream.
 *
 * Scenario presets for bench/capacity_slo live here too: they are the
 * one sanctioned home for arrival-rate literals (scripts/lint.sh bans
 * a scenario or RateCurve::constant called with a numeric literal
 * outside src/traffic/, so rates flow through named scenarios or
 * computed values instead of being scattered across benches).
 */

#ifndef PRESS_TRAFFIC_TRAFFIC_MODEL_HPP
#define PRESS_TRAFFIC_TRAFFIC_MODEL_HPP

#include <cstdint>

#include "traffic/population.hpp"
#include "traffic/rate_curve.hpp"
#include "traffic/session.hpp"

namespace press::traffic {

/** Everything the open-loop client population needs to shape load. */
struct TrafficModel {
    /** Offered request rate over time; an open loop needs one. */
    RateCurve curve;

    /** File popularity over time; Trace mode = paper behavior. */
    PopulationSpec population;

    /** Keep-alive sessions; disabled = one connection per request. */
    SessionSpec session;

    /** Fraction of requests in the dynamic-content class (CPU-bound
     *  page generation instead of cache/disk service). */
    double dynamicFraction = 0.0;

    /** Client-side in-flight cap; arrivals beyond it are dropped and
     *  counted. 0 = unbounded (every arrival is eventually answered). */
    std::uint32_t maxInFlight = 0;

    /** True when any knob is set; every open loop sets the curve. */
    bool shaped() const
    {
        return !curve.empty() || population.active() || session.enabled ||
               dynamicFraction > 0 || maxInFlight > 0;
    }
};

/**
 * Scenario presets for bench/capacity_slo and the examples. @p rate is
 * the average offered request rate in req/s; shapes scale around it.
 * @{
 */
TrafficModel steadyScenario(double rate);
TrafficModel diurnalScenario(double rate);
TrafficModel flashScenario(double rate);
TrafficModel keepAliveScenario(double rate);
TrafficModel dynamicMixScenario(double rate);
/** @} */

} // namespace press::traffic

#endif // PRESS_TRAFFIC_TRAFFIC_MODEL_HPP

/**
 * @file
 * Simulated-time definitions.
 *
 * All simulated time is integer nanoseconds. The paper's cost parameters
 * are microsecond-scale (Table 5), so nanosecond resolution leaves three
 * decimal digits of headroom while keeping event ordering exact and
 * platform-independent (no floating-point time).
 */

#ifndef PRESS_SIM_TIME_HPP
#define PRESS_SIM_TIME_HPP

#include <cstdint>

#include "util/units.hpp"

namespace press::sim {

/** Simulated time in nanoseconds. */
using Tick = std::int64_t;

/** Largest representable tick, used as "never". */
inline constexpr Tick MaxTick = INT64_MAX;

using util::nsToSeconds;
using util::transferTimeNs;

} // namespace press::sim

#endif // PRESS_SIM_TIME_HPP

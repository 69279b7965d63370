#include "traffic/session.hpp"

#include <cmath>

#include "traffic/rate_curve.hpp" // mix64 / unitFromHash

namespace press::traffic {

namespace {

constexpr std::uint64_t LengthStream = 0xD6E8FEB86659FD93ull;
constexpr std::uint64_t ThinkStream = 0xC2B2AE3D27D4EB4Full;

} // namespace

SessionModel::SessionModel(std::uint64_t seed) : _seed(seed) {}

std::uint32_t
SessionModel::length(std::uint64_t session) const
{
    // Geometric on {1, 2, ...} with mean SessionMeanRequests, by
    // inversion of one counter-based uniform.
    double u = unitFromHash(mix64(_seed ^ LengthStream ^ (session + 1)));
    double len = 1.0 + std::floor(std::log(1.0 - u) /
                                  std::log(1.0 - 1.0 / SessionMeanRequests));
    if (len < 1.0)
        len = 1.0;
    if (len > static_cast<double>(SessionMaxRequests))
        return SessionMaxRequests;
    return static_cast<std::uint32_t>(len);
}

sim::Tick
SessionModel::thinkGap(std::uint64_t session, std::uint32_t index) const
{
    double u = unitFromHash(mix64(_seed ^ ThinkStream ^
                                  ((session + 1) * 0x100000001B3ull + index)));
    double gap = -static_cast<double>(SessionThinkMean) * std::log(1.0 - u);
    return static_cast<sim::Tick>(gap);
}

} // namespace press::traffic

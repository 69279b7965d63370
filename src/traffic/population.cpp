#include "traffic/population.hpp"

#include <algorithm>

#include "traffic/rate_curve.hpp" // mix64 / unitFromHash
#include "util/logging.hpp"

namespace press::traffic {

namespace {

// Stream separators so the file draw, the hot-set coin, and the
// arrival clock never share a counter.
constexpr std::uint64_t FileStream = 0xA24BAED4963EE407ull;
constexpr std::uint64_t HotStream = 0x9FB21C651E98DF25ull;

} // namespace

PopulationModel::PopulationModel(const PopulationSpec &spec,
                                 std::size_t files, std::uint64_t seed)
    : _spec(spec), _files(files), _seed(seed), _zipf(files, PopulationAlpha)
{
    PRESS_ASSERT(spec.active(), "population model built without Zipf mode");
    PRESS_ASSERT(files >= 1, "population model needs at least one file");
    PRESS_ASSERT(spec.hotCount >= 0 && spec.hotFraction >= 0 &&
                     spec.hotFraction <= 1.0 && spec.hotOffset >= 0 &&
                     spec.hotOffset < 1.0,
                 "hot-set knobs out of range");
}

std::size_t
PopulationModel::sampleRank(sim::Tick t, std::uint64_t k) const
{
    std::uint64_t draw = mix64(_seed ^ FileStream ^ (k + 1));
    if (_spec.hotCount > 0 && t >= _spec.hotStart && t < _spec.hotEnd) {
        double coin = unitFromHash(mix64(_seed ^ HotStream ^ (k + 1)));
        if (coin < _spec.hotFraction) {
            std::size_t window = std::min<std::size_t>(
                static_cast<std::size_t>(_spec.hotCount), _files);
            std::size_t offset = static_cast<std::size_t>(
                _spec.hotOffset * static_cast<double>(_files));
            if (_spec.hotRotate > 0)
                offset += static_cast<std::size_t>(
                              (t - _spec.hotStart) / _spec.hotRotate) *
                          window % _files;
            return (offset + draw % window) % _files;
        }
    }
    return _zipf.sampleAt(unitFromHash(draw));
}

} // namespace press::traffic

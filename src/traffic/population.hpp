/**
 * @file
 * Time-varying file popularity for the open-loop traffic engine.
 *
 * The paper's traces fix a static popularity ranking for the whole
 * run. Under a flash crowd most of the offered load concentrates on a
 * handful of files. PopulationModel redraws files on top of the
 * cluster's trace-derived popularity ranking:
 *
 *  - Zipf: a draw picks a rank from Zipf(PopulationAlpha), one binary
 *    search over a precomputed CDF;
 *  - hot set: inside [hotStart, hotEnd) a draw lands uniformly in a
 *    window of hotCount ranks with probability hotFraction; the window
 *    starts hotOffset of the way down the ranking (a crowd chasing
 *    breaking content lands on files the caches have not absorbed,
 *    which is what drives overload replication) and slides by hotCount
 *    ranks every hotRotate ticks, modelling attention moving across a
 *    site during an event.
 *
 * All draws are counter-based (mix64 of seed and the arrival counter),
 * never stateful, so popularity sampling cannot perturb — or be
 * perturbed by — any other random stream in the run.
 */

#ifndef PRESS_TRAFFIC_POPULATION_HPP
#define PRESS_TRAFFIC_POPULATION_HPP

#include <cstdint>

#include "sim/time.hpp"
#include "util/random.hpp"

namespace press::traffic {

/** Zipf exponent of the redrawn popularity (the paper's alpha < 1). */
inline constexpr double PopulationAlpha = 0.8;

/** Knobs for the time-varying popularity model. */
struct PopulationSpec {
    enum class Mode : std::uint8_t {
        Trace, ///< replay the trace's own file sequence (paper default)
        Zipf,  ///< redraw files from Zipf(PopulationAlpha) over ranks
    };

    Mode mode = Mode::Trace;
    int hotCount = 0;         ///< hot-set size in ranks; 0 = no hot set
    double hotFraction = 0;   ///< probability a draw lands in the hot set
    sim::Tick hotStart = 0;   ///< hot window open (relative tick)
    sim::Tick hotEnd = 0;     ///< hot window close
    sim::Tick hotRotate = 0;  ///< slide period; 0 = pinned window
    double hotOffset = 0;     ///< window base as a fraction of the
                              ///< catalog: 0 = hottest ranks, 0.75 =
                              ///< cold-tail content

    bool active() const { return mode == Mode::Zipf; }
};

/** Counter-based sampler over popularity ranks (0 = most popular). */
class PopulationModel
{
  public:
    /**
     * @param spec  model knobs (spec.active() must hold)
     * @param files number of distinct ranks to draw over
     * @param seed  stream seed, independent of arrival timing
     */
    PopulationModel(const PopulationSpec &spec, std::size_t files,
                    std::uint64_t seed);

    /**
     * Rank requested by arrival @p k at relative tick @p t.
     * Pure function of (spec, files, seed, t, k).
     */
    std::size_t sampleRank(sim::Tick t, std::uint64_t k) const;

  private:
    PopulationSpec _spec;
    std::size_t _files;
    std::uint64_t _seed;
    util::ZipfSampler _zipf;
};

} // namespace press::traffic

#endif // PRESS_TRAFFIC_POPULATION_HPP

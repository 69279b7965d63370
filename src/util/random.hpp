/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * We avoid std::mt19937 plus std:: distributions because their output is not
 * guaranteed identical across standard-library implementations; experiment
 * reproducibility requires bit-exact streams. Rng is a xoshiro256++ engine
 * with hand-rolled samplers for every distribution the workload generator
 * and server need (uniform, exponential, lognormal, Zipf).
 */

#ifndef PRESS_UTIL_RANDOM_HPP
#define PRESS_UTIL_RANDOM_HPP

#include <cstdint>
#include <vector>

namespace press::util {

/**
 * SplitMix64 finalizer: a full-avalanche 64-bit mix. The one
 * deterministic hash behind every counter-based draw (traffic
 * arrivals, gossip peer samples, shard placement, the event kernel's
 * seeded tie-break) and Rng's seeding.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * xoshiro256++ pseudo-random generator with distribution samplers.
 *
 * All samplers consume a deterministic number of engine outputs per call
 * (except sampling by rejection, which we do not use), so two Rng instances
 * seeded equally produce identical simulation runs on any platform.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @p n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (consumes two outputs). */
    double normal();

    /** Normal with mean/stddev. */
    double normal(double mean, double stddev);

    /**
     * Lognormal parameterized by its *linear-space* mean and the shape
     * sigma (stddev of the underlying normal). Useful for file sizes where
     * the paper reports the arithmetic mean.
     */
    double lognormalByMean(double linear_mean, double sigma);

  private:
    std::uint64_t _state[4];
};

/**
 * Zipf-like sampler over ranks 1..n: P(rank = i) proportional to 1/i^alpha.
 *
 * Implemented with a precomputed CDF and binary search; exact, and cheap for
 * the file-population sizes in Table 1 (up to ~29k files).
 */
class ZipfSampler
{
  public:
    /**
     * @param n      number of ranks (>= 1)
     * @param alpha  skew parameter; the paper uses alpha < 1 (default 0.8)
     */
    ZipfSampler(std::size_t n, double alpha);

    /** Sample a rank in [0, n) (0 = most popular). */
    std::size_t sample(Rng &rng) const;

    /**
     * Rank whose CDF bucket contains @p u in [0, 1). sample() is
     * sampleAt(rng.uniform()); counter-based callers (the traffic
     * engine) supply their own uniform so draws stay stateless.
     */
    std::size_t sampleAt(double u) const;

    /** Probability of rank @p i (0-based). */
    double probability(std::size_t i) const;

    /** Accumulated probability of the @p n most popular ranks: z(n, F). */
    double accumulated(std::size_t n) const;

    std::size_t size() const { return _cdf.size(); }

  private:
    std::vector<double> _cdf; ///< inclusive prefix sums, _cdf.back() == 1
};

} // namespace press::util

#endif // PRESS_UTIL_RANDOM_HPP

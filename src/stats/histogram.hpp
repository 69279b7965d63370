/**
 * @file
 * Fixed-bucket and log-scale histograms for latency and size distributions.
 */

#ifndef PRESS_STATS_HISTOGRAM_HPP
#define PRESS_STATS_HISTOGRAM_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace press::stats {

/**
 * Power-of-two bucketed histogram of non-negative values. Bucket i counts
 * values in [2^i, 2^(i+1)) (bucket 0 also includes 0). Suitable for message
 * sizes and latencies that span several orders of magnitude.
 */
class LogHistogram
{
  public:
    /** Add one sample (negative values are clamped to 0). */
    void add(double x);

    /** Number of samples. */
    std::uint64_t count() const { return _count; }

    /** Count in bucket @p i; 0 when the bucket was never hit. */
    std::uint64_t bucket(std::size_t i) const;

    /**
     * Approximate quantile (0 <= q <= 1) assuming uniform distribution
     * inside each bucket; 0 when empty.
     */
    double quantile(double q) const;

    /** Multi-line textual rendering (for debugging/examples). */
    std::string render(std::size_t max_rows = 32) const;

    /** Merge another histogram's buckets into this one. */
    void merge(const LogHistogram &other);

    /** Remove all samples. */
    void reset();

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
};

} // namespace press::stats

#endif // PRESS_STATS_HISTOGRAM_HPP

/**
 * @file
 * Size and time unit helpers shared by all subsystems.
 *
 * Simulated time is kept in integer nanoseconds (press::sim::Tick, defined
 * in sim/time.hpp); this header provides the raw conversion constants and
 * byte-size literals used when describing hardware parameters.
 */

#ifndef PRESS_UTIL_UNITS_HPP
#define PRESS_UTIL_UNITS_HPP

#include <cstdint>

namespace press::util {

// Byte sizes. The paper uses decimal KBytes/MBytes throughout (e.g. the
// 125000 KB/s = 125 MB/s copy rate in Table 5), so these are powers of ten.
inline constexpr std::uint64_t KB = 1000;
inline constexpr std::uint64_t MB = 1000 * KB;
inline constexpr std::uint64_t GB = 1000 * MB;

// Binary sizes, for memory capacities (cache sizes, 512 KB L2, ...).
inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * KiB;
inline constexpr std::uint64_t GiB = 1024 * MiB;

// Time, in nanoseconds.
inline constexpr std::int64_t NS = 1;
inline constexpr std::int64_t US = 1000 * NS;
inline constexpr std::int64_t MS = 1000 * US;
inline constexpr std::int64_t SEC = 1000 * MS;

/** Convert integer nanoseconds to seconds. */
constexpr double
nsToSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * Time to move @p bytes at @p bytes_per_second, in nanoseconds
 * (rounded up so that a non-empty transfer never takes zero time).
 */
constexpr std::int64_t
transferTimeNs(std::uint64_t bytes, double bytes_per_second)
{
    if (bytes == 0)
        return 0;
    double s = static_cast<double>(bytes) / bytes_per_second;
    auto ns = static_cast<std::int64_t>(s * 1e9);
    return ns > 0 ? ns : 1;
}

} // namespace press::util

#endif // PRESS_UTIL_UNITS_HPP

/**
 * @file
 * A minimal work-sharing loop for independent jobs (bench sweep cells,
 * race-hunter runs, trace generation).
 */

#ifndef PRESS_UTIL_FOR_EACH_INDEX_HPP
#define PRESS_UTIL_FOR_EACH_INDEX_HPP

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace press::util {

/**
 * Run fn(0..n-1) across up to @p jobs threads, each index exactly once.
 * Indices are claimed from a shared counter, so threads stay busy even
 * when per-index cost varies wildly (a disk-bound cell can take 10x a
 * cached one). The first exception is captured and rethrown after all
 * workers finish, keeping partial results intact. jobs <= 1 runs the
 * loop on the calling thread.
 */
template <typename Fn>
void
forEachIndex(std::size_t n, int jobs, Fn &&fn)
{
    if (n == 0)
        return;
    if (jobs > static_cast<int>(n))
        jobs = static_cast<int>(n);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace press::util

#endif // PRESS_UTIL_FOR_EACH_INDEX_HPP

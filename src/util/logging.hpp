/**
 * @file
 * Status-message and error-reporting helpers in the gem5 style.
 *
 * panic() is for internal invariant violations (simulator bugs): it prints
 * and aborts. fatal() is for user errors (bad configuration, impossible
 * parameter combinations): it prints and exits with status 1. warn()
 * reports a condition on stderr without stopping the run.
 */

#ifndef PRESS_UTIL_LOGGING_HPP
#define PRESS_UTIL_LOGGING_HPP

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace press::util {

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(std::string_view where, std::string_view what);
[[noreturn]] void fatalImpl(std::string_view what);
void warnImpl(std::string_view what);

} // namespace detail

/**
 * Report an internal simulator bug and abort. Use only for conditions that
 * can never happen regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl("", detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user error (bad configuration, invalid arguments)
 * and exit(1).
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report suspicious-but-survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace press::util

/**
 * Assert a simulator invariant with a message; active in all build types
 * (simulation correctness must not depend on NDEBUG).
 */
#define PRESS_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::press::util::detail::panicImpl(                               \
                std::string(__FILE__) + ":" + std::to_string(__LINE__),    \
                ::press::util::detail::concat("assertion failed: " #cond   \
                                              " " __VA_OPT__(, )           \
                                                  __VA_ARGS__));            \
        }                                                                   \
    } while (0)

#endif // PRESS_UTIL_LOGGING_HPP

#include "logging.hpp"

namespace press::util {

namespace detail {

void
panicImpl(std::string_view where, std::string_view what)
{
    std::cerr << "panic: " << what;
    if (!where.empty())
        std::cerr << " @ " << where;
    std::cerr << std::endl;
    std::abort();
}

void
fatalImpl(std::string_view what)
{
    std::cerr << "fatal: " << what << std::endl;
    std::exit(1);
}

void
warnImpl(std::string_view what)
{
    std::cerr << "warn: " << what << std::endl;
}

} // namespace detail

} // namespace press::util

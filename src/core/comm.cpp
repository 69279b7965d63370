#include "comm.hpp"

namespace press::core {

KindStats
CommStats::total() const
{
    KindStats t;
    for (const auto &k : byKind) {
        t.msgs += k.msgs;
        t.bytes += k.bytes;
    }
    return t;
}

} // namespace press::core

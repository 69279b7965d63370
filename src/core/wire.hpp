/**
 * @file
 * In-flight representation of PRESS messages (internal to the comm
 * backends).
 */

#ifndef PRESS_CORE_WIRE_HPP
#define PRESS_CORE_WIRE_HPP

#include <cstdint>

#include "core/calibration.hpp"
#include "core/messages.hpp"
#include "net/payload.hpp"

namespace press::core {

/** What actually travels between nodes in the simulation. */
struct WireMsg {
    int from = -1;
    int piggyLoad = -1;
    WireBody body;
};

/** Bytes a piggy-backed load adds to the message that carries it. */
constexpr std::uint64_t PiggyBackBytes = 4;

/**
 * The Table-2 size of @p w, the only code that computes one: the
 * body's base size, +disseminationHeader on a gossip/tree rumor
 * (origin >= 0), a digest as the sum of its rumors, a file as its
 * header plus data, and +PiggyBackBytes when a load rides along. VIA
 * sizes the two records whose wire size differs itself: the credit
 * word and the two-record file.
 */
std::uint64_t logicalBytes(const WireMsg &w, const MessageSizes &sizes);

/** Build the Incoming view the server sees. @p wire_payload must hold
 *  the WireMsg @p w describes. */
inline Incoming
toIncoming(const WireMsg &w, net::Payload wire_payload)
{
    Incoming in;
    in.kind = kindOf(w.body);
    in.from = w.from;
    in.piggyLoad = w.piggyLoad;
    in.body = std::move(wire_payload);
    return in;
}

/** Typed view of an Incoming's body; nullptr on kind mismatch. */
template <typename T>
const T *
bodyAs(const Incoming &in)
{
    const auto *w = net::payloadAs<WireMsg>(in.body);
    return w ? std::get_if<T>(&w->body) : nullptr;
}

} // namespace press::core

#endif // PRESS_CORE_WIRE_HPP

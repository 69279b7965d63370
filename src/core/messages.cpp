#include "messages.hpp"

#include "core/wire.hpp"
#include "util/logging.hpp"

namespace press::core {

namespace {

/** One visitor out of a set of lambdas. */
template <typename... F>
struct Overload : F... {
    using F::operator()...;
};

} // namespace

const char *
msgKindName(MsgKind kind)
{
    switch (kind) {
      case MsgKind::Load:
        return "Load";
      case MsgKind::Flow:
        return "Flow";
      case MsgKind::Forward:
        return "Forward";
      case MsgKind::Caching:
        return "Caching";
      case MsgKind::File:
        return "File";
      case MsgKind::Membership:
        return "Membership";
      case MsgKind::NumKinds:
        break;
    }
    return "?";
}

MsgKind
kindOf(const WireBody &body)
{
    return std::visit(
        Overload{
            [](const LoadMsg &) { return MsgKind::Load; },
            [](const LoadDigestMsg &) { return MsgKind::Load; },
            [](const FlowMsg &) { return MsgKind::Flow; },
            [](const ForwardMsg &) { return MsgKind::Forward; },
            [](const CachingMsg &) { return MsgKind::Caching; },
            [](const CachingDigestMsg &) { return MsgKind::Caching; },
            [](const FileMsg &) { return MsgKind::File; },
            [](const MembershipMsg &) { return MsgKind::Membership; },
        },
        body);
}

std::uint64_t
logicalBytes(const WireMsg &w, const MessageSizes &sizes)
{
    auto rumor = [&](std::uint64_t base, int origin) {
        return origin >= 0 ? base + sizes.disseminationHeader : base;
    };
    // Charged as the sum of the packed rumors, so a digest drops the
    // message count but not the bytes.
    auto digest = [&](const auto &rumors, std::uint64_t base) {
        PRESS_ASSERT(!rumors.empty(), "empty digest");
        std::uint64_t sum = 0;
        for (const auto &r : rumors) {
            PRESS_ASSERT(r.origin >= 0, "digest of a non-rumor message");
            sum += rumor(base, r.origin);
        }
        return sum;
    };
    std::uint64_t bytes = std::visit(
        Overload{
            [&](const LoadMsg &m) { return rumor(sizes.load, m.origin); },
            [&](const LoadDigestMsg &m) {
                return digest(m.rumors, sizes.load);
            },
            [&](const FlowMsg &) { return sizes.flowRegular; },
            [&](const ForwardMsg &) { return sizes.forward; },
            [&](const CachingMsg &m) {
                return rumor(sizes.caching, m.origin);
            },
            [&](const CachingDigestMsg &m) {
                return digest(m.rumors, sizes.caching);
            },
            [&](const FileMsg &m) {
                return sizes.fileHeader + std::uint64_t{m.bytes};
            },
            // A short control record plus the dissemination header,
            // the footprint of a caching rumor.
            [&](const MembershipMsg &) {
                return sizes.caching + sizes.disseminationHeader;
            },
        },
        w.body);
    return w.piggyLoad >= 0 ? bytes + PiggyBackBytes : bytes;
}

} // namespace press::core

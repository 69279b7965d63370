/**
 * @file
 * VIA work-queue descriptors.
 */

#ifndef PRESS_VIA_DESCRIPTOR_HPP
#define PRESS_VIA_DESCRIPTOR_HPP

#include <cstdint>
#include <memory>

#include "via/types.hpp"

namespace press::via {

/**
 * A work-queue element. Real VIA descriptors are segment lists in
 * registered memory; here a descriptor is a single segment plus the
 * remote address of a remote memory write.
 */
struct Descriptor {
    Opcode op = Opcode::Send;
    Status status = Status::Pending;

    /** Local buffer (must lie in a registered region for DMA ops). */
    Address localAddr = 0;
    /** Transfer length in bytes. */
    std::uint64_t length = 0;
    /** Destination address for RdmaWrite, in the *remote* address space. */
    Address remoteAddr = 0;

    /** Simulated message contents (what lands at the receiver). */
    Payload payload;

    /** Bytes actually transferred (== length on success). */
    std::uint64_t bytesDone = 0;
};

using DescriptorPtr = std::shared_ptr<Descriptor>;

/** Convenience factory for a regular send descriptor. */
DescriptorPtr makeSend(Address local, std::uint64_t length,
                       Payload payload = {});

/** Convenience factory for a receive descriptor (buffer to fill). */
DescriptorPtr makeRecv(Address local, std::uint64_t capacity);

/** Convenience factory for a remote-memory-write descriptor. */
DescriptorPtr makeRdmaWrite(Address local, std::uint64_t length,
                            Address remote, Payload payload = {});

} // namespace press::via

#endif // PRESS_VIA_DESCRIPTOR_HPP

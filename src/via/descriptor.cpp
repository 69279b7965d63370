#include "descriptor.hpp"

#include "util/pool.hpp"

namespace press::via {

DescriptorPtr
makeSend(Address local, std::uint64_t length, Payload payload)
{
    auto d = util::makePooled<Descriptor>();
    d->op = Opcode::Send;
    d->localAddr = local;
    d->length = length;
    d->payload = std::move(payload);
    return d;
}

DescriptorPtr
makeRecv(Address local, std::uint64_t capacity)
{
    auto d = util::makePooled<Descriptor>();
    d->op = Opcode::Send; // opcode is ignored on the receive queue
    d->localAddr = local;
    d->length = capacity;
    return d;
}

DescriptorPtr
makeRdmaWrite(Address local, std::uint64_t length, Address remote,
              Payload payload)
{
    auto d = util::makePooled<Descriptor>();
    d->op = Opcode::RdmaWrite;
    d->localAddr = local;
    d->length = length;
    d->remoteAddr = remote;
    d->payload = std::move(payload);
    return d;
}

} // namespace press::via

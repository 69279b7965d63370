#include "memory.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/logging.hpp"
#include "via/observer.hpp"

namespace press::via {

namespace {

constexpr std::uint64_t PageSize = 4096;

std::uint64_t
roundUpToPage(std::uint64_t v)
{
    return (v + PageSize - 1) / PageSize * PageSize;
}

} // namespace

MemoryRegion
MemoryRegistry::registerMemory(std::uint64_t size, WriteHook hook)
{
    return registerImpl(size, std::move(hook), /*backed=*/false);
}

MemoryRegion
MemoryRegistry::registerBacked(std::uint64_t size, WriteHook hook)
{
    return registerImpl(size, std::move(hook), /*backed=*/true);
}

MemoryRegion
MemoryRegistry::registerImpl(std::uint64_t size, WriteHook hook,
                             bool backed)
{
    PRESS_ASSERT(size > 0, "cannot register an empty region");
    PRESS_ASSERT(!_inHook, "registration from inside a write hook");
    MemoryRegion region;
    region.handle = _nextHandle++;
    region.base = _nextBase;
    region.size = size;
    _nextBase += roundUpToPage(size) + PageSize; // guard page between
    _pinned += roundUpToPage(size);
    Entry entry{region, std::move(hook), {}};
    if (backed) {
        entry.backing.assign(size, 0);
        ++_backed;
    }
    // Bases only grow, so the new region sorts last.
    _bases.push_back(region.base);
    _entries.push_back(std::move(entry));
    if (_observer)
        _observer->onRegister(*this, region, backed);
    return region;
}

bool
MemoryRegistry::deregister(MemoryHandle handle)
{
    PRESS_ASSERT(!_inHook, "deregistration from inside a write hook");
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        const Entry &e = _entries[i];
        if (e.region.handle == handle) {
            _pinned -= roundUpToPage(e.region.size);
            if (!e.backing.empty())
                --_backed;
            _bases.erase(_bases.begin() + static_cast<std::ptrdiff_t>(i));
            _entries.erase(_entries.begin() +
                           static_cast<std::ptrdiff_t>(i));
            if (_observer)
                _observer->onDeregister(*this, handle, true);
            return true;
        }
    }
    if (_observer)
        _observer->onDeregister(*this, handle, false);
    return false;
}

const MemoryRegistry::Entry *
MemoryRegistry::entryFor(Address addr, std::uint64_t length) const
{
    auto it = std::upper_bound(_bases.begin(), _bases.end(), addr);
    if (it == _bases.begin())
        return nullptr;
    const Entry &e = _entries[static_cast<std::size_t>(
        it - _bases.begin() - 1)];
    const MemoryRegion &r = e.region;
    if (addr >= r.base && addr + length <= r.base + r.size)
        return &e;
    return nullptr;
}

MemoryRegistry::Entry *
MemoryRegistry::entryFor(Address addr, std::uint64_t length)
{
    return const_cast<Entry *>(
        static_cast<const MemoryRegistry *>(this)->entryFor(addr,
                                                            length));
}

std::optional<MemoryRegion>
MemoryRegistry::find(Address addr, std::uint64_t length) const
{
    const Entry *e = entryFor(addr, length);
    if (!e)
        return std::nullopt;
    return e->region;
}

bool
MemoryRegistry::isBacked(Address addr) const
{
    const Entry *e = entryFor(addr, 1);
    return e && !e->backing.empty();
}

void
MemoryRegistry::store(Address addr, std::span<const std::uint8_t> data)
{
    Entry *e = entryFor(addr, data.size());
    PRESS_ASSERT(e, "store outside any registered region");
    PRESS_ASSERT(!e->backing.empty(), "store into an unbacked region");
    std::memcpy(e->backing.data() + (addr - e->region.base), data.data(),
                data.size());
}

std::vector<std::uint8_t>
MemoryRegistry::fetch(Address addr, std::uint64_t length) const
{
    const Entry *e = entryFor(addr, length);
    PRESS_ASSERT(e, "fetch outside any registered region");
    PRESS_ASSERT(!e->backing.empty(), "fetch from an unbacked region");
    auto *begin = e->backing.data() + (addr - e->region.base);
    return std::vector<std::uint8_t>(begin, begin + length);
}

void
MemoryRegistry::dmaCopy(const MemoryRegistry &src, Address src_addr,
                        MemoryRegistry &dst, Address dst_addr,
                        std::uint64_t length)
{
    if (length == 0 || src._backed == 0 || dst._backed == 0)
        return;
    const Entry *se = src.entryFor(src_addr, length);
    Entry *de = dst.entryFor(dst_addr, length);
    if (!se || !de || se->backing.empty() || de->backing.empty())
        return; // at least one plain region: metadata-only transfer
    std::memcpy(de->backing.data() + (dst_addr - de->region.base),
                se->backing.data() + (src_addr - se->region.base),
                length);
}

bool
MemoryRegistry::deliverWrite(Address addr, std::uint64_t length,
                             const Payload &payload,
                             std::uint32_t immediate)
{
    Entry *e = entryFor(addr, length);
    if (_observer)
        _observer->onRdmaDeliver(*this, addr, length, e != nullptr);
    if (!e)
        return false;
    if (e->hook) {
        bool outer = std::exchange(_inHook, true);
        e->hook(addr - e->region.base, length, payload, immediate);
        _inHook = outer;
    }
    return true;
}

} // namespace press::via

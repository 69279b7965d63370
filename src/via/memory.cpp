#include "memory.hpp"

#include <algorithm>
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
    PRESS_ASSERT(size > 0, "cannot register an empty region");
    PRESS_ASSERT(!_inHook, "registration from inside a write hook");
    MemoryRegion region;
    region.handle = _nextHandle++;
    region.base = _nextBase;
    region.size = size;
    _nextBase += roundUpToPage(size) + PageSize; // guard page between
    _pinned += roundUpToPage(size);
    // Bases only grow, so the new region sorts last.
    _bases.push_back(region.base);
    _entries.push_back(Entry{region, std::move(hook)});
    if (_observer)
        _observer->onRegister(*this, region);
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

std::optional<MemoryRegion>
MemoryRegistry::find(Address addr, std::uint64_t length) const
{
    const Entry *e = entryFor(addr, length);
    if (!e)
        return std::nullopt;
    return e->region;
}

bool
MemoryRegistry::deliverWrite(Address addr, std::uint64_t length,
                             const Payload &payload)
{
    const Entry *e = entryFor(addr, length);
    if (_observer)
        _observer->onRdmaDeliver(*this, addr, length, e != nullptr);
    if (!e)
        return false;
    if (e->hook) {
        bool outer = std::exchange(_inHook, true);
        e->hook(addr - e->region.base, length, payload);
        _inHook = outer;
    }
    return true;
}

} // namespace press::via

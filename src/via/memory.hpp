/**
 * @file
 * VIA memory registration.
 *
 * Every buffer used for VIA data transfer must be registered: the pages
 * are pinned so the NIC can DMA without page faults. The registry models a
 * per-node abstract address space; regions are allocated at unique,
 * non-overlapping base addresses. A region may carry a write hook so the
 * owning application observes incoming remote memory writes (this is the
 * simulation analogue of the receiver polling memory the NIC wrote).
 */

#ifndef PRESS_VIA_MEMORY_HPP
#define PRESS_VIA_MEMORY_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "via/types.hpp"

namespace press::via {

class ViaObserver;

/**
 * Callback invoked when a remote memory write lands inside a region.
 *
 * @param offset   byte offset of the write within the region
 * @param length   bytes written
 * @param payload  simulated contents
 */
using WriteHook = std::function<void(std::uint64_t offset,
                                     std::uint64_t length,
                                     const Payload &payload)>;

/** A registered (pinned) memory region. */
struct MemoryRegion {
    MemoryHandle handle = 0;
    Address base = 0;
    std::uint64_t size = 0;
};

/**
 * Per-node registration table. Tracks total pinned bytes so callers can
 * enforce pinning budgets (the paper's version 5 registers the entire
 * file cache, which is only possible when the cache fits in pinnable
 * memory). A region tracks only metadata: transfers move opaque payload
 * handles, so the host does no per-byte work.
 *
 * Every VIA transfer resolves its addresses here, so the table is flat:
 * base addresses are handed out in increasing order, registering
 * appends, and a lookup binary-searches a dense vector of bases. A
 * write hook must not register or deregister regions of its own
 * registry (the table moves entries; this is asserted).
 */
class MemoryRegistry
{
  public:
    /**
     * Register @p size bytes; returns the region. The base address is
     * chosen by the registry (aligned to 4 KiB pages, non-overlapping).
     */
    MemoryRegion registerMemory(std::uint64_t size, WriteHook hook = {});

    /**
     * Deregister a region.
     * @return false when the handle is unknown.
     */
    bool deregister(MemoryHandle handle);

    /** Find the region containing [addr, addr+length). */
    std::optional<MemoryRegion> find(Address addr,
                                     std::uint64_t length) const;

    /** Deliver a remote write to @p addr (called by the NIC model). */
    bool deliverWrite(Address addr, std::uint64_t length,
                      const Payload &payload);

    /** Total currently-pinned bytes. */
    std::uint64_t pinnedBytes() const { return _pinned; }

    /** Number of live regions. */
    std::size_t regions() const { return _entries.size(); }

    /** Attach an instrumentation observer (nullptr detaches). */
    void setObserver(ViaObserver *observer) { _observer = observer; }
    ViaObserver *observer() const { return _observer; }

  private:
    struct Entry {
        MemoryRegion region;
        WriteHook hook;
    };

    const Entry *entryFor(Address addr, std::uint64_t length) const;

    // Live regions in base order: _bases[i] == _entries[i].region.base,
    // kept apart so the binary search touches only the bases.
    std::vector<Address> _bases;
    std::vector<Entry> _entries;
    bool _inHook = false; ///< a write hook is running
    Address _nextBase = 0x1000;
    MemoryHandle _nextHandle = 1;
    std::uint64_t _pinned = 0;
    ViaObserver *_observer = nullptr;
};

} // namespace press::via

#endif // PRESS_VIA_MEMORY_HPP

/**
 * @file
 * Per-node main-memory file cache.
 *
 * PRESS aggregates the cluster's memories into one large cache; each node
 * contributes an LRU-managed byte budget. The cache tracks only metadata
 * (which files, their sizes) — contents are implicit in the simulation.
 * insert() reports evictions so the server can broadcast caching
 * information and (in version 5) deregister the evicted pages from VIA.
 */

#ifndef PRESS_STORAGE_FILE_CACHE_HPP
#define PRESS_STORAGE_FILE_CACHE_HPP

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "storage/file_set.hpp"

namespace press::storage {

/** One file pushed out by an insertion. */
struct Eviction {
    FileId file = InvalidFile;
    std::uint32_t size = 0;
};

/** LRU file cache with a byte capacity. */
class FileCache
{
  public:
    /** @param capacity  byte budget; files larger than it never cache. */
    explicit FileCache(std::uint64_t capacity);

    /** True when @p file is resident. */
    bool contains(FileId file) const;

    /** Mark @p file most-recently-used. No-op when absent. */
    void touch(FileId file);

    /**
     * Insert @p file of @p size bytes, evicting LRU files as needed.
     * Inserting a resident file just touches it.
     *
     * @return the evicted files (empty when nothing was displaced).
     */
    std::vector<Eviction> insert(FileId file, std::uint32_t size);

    /** Drop @p file. @return true when it was resident. */
    bool erase(FileId file);

    std::uint64_t usedBytes() const { return _used; }
    std::uint64_t capacity() const { return _capacity; }
    std::size_t files() const { return _index.size(); }

    /** Least-recently-used resident file; InvalidFile when empty. */
    FileId lruFile() const;

    /** One resident file, as reported by snapshot(). */
    struct Resident {
        FileId file;
        std::uint32_t size;
    };

    /**
     * Every resident file, most-recently-used first (deterministic:
     * LRU order, not hash order). Fault recovery re-announces these to
     * rebuilt directories.
     */
    std::vector<Resident> snapshot() const;

  private:
    struct Entry {
        FileId file;
        std::uint32_t size;
    };
    using LruList = std::list<Entry>;

    std::uint64_t _capacity;
    std::uint64_t _used = 0;
    LruList _lru; ///< front = most recent
    std::unordered_map<FileId, LruList::iterator> _index;
};

} // namespace press::storage

#endif // PRESS_STORAGE_FILE_CACHE_HPP

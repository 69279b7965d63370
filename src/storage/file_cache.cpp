#include "file_cache.hpp"

#include "util/logging.hpp"

namespace press::storage {

FileCache::FileCache(std::uint64_t capacity) : _capacity(capacity)
{
    PRESS_ASSERT(capacity > 0, "cache capacity must be positive");
}

bool
FileCache::contains(FileId file) const
{
    return _index.find(file) != _index.end();
}

void
FileCache::touch(FileId file)
{
    auto it = _index.find(file);
    if (it == _index.end())
        return;
    _lru.splice(_lru.begin(), _lru, it->second);
}

std::vector<Eviction>
FileCache::insert(FileId file, std::uint32_t size)
{
    std::vector<Eviction> evicted;
    auto it = _index.find(file);
    if (it != _index.end()) {
        _lru.splice(_lru.begin(), _lru, it->second);
        return evicted;
    }
    if (size > _capacity)
        return evicted; // cannot ever fit; caller streams from disk

    while (_used + size > _capacity) {
        PRESS_ASSERT(!_lru.empty(), "cache accounting corrupt");
        Entry victim = _lru.back();
        _lru.pop_back();
        _index.erase(victim.file);
        _used -= victim.size;
        evicted.push_back(Eviction{victim.file, victim.size});
    }

    _lru.push_front(Entry{file, size});
    _index.emplace(file, _lru.begin());
    _used += size;
    return evicted;
}

bool
FileCache::erase(FileId file)
{
    auto it = _index.find(file);
    if (it == _index.end())
        return false;
    _used -= it->second->size;
    _lru.erase(it->second);
    _index.erase(it);
    return true;
}

FileId
FileCache::lruFile() const
{
    return _lru.empty() ? InvalidFile : _lru.back().file;
}

std::vector<FileCache::Resident>
FileCache::snapshot() const
{
    std::vector<Resident> out;
    out.reserve(_lru.size());
    for (const Entry &e : _lru)
        out.push_back({e.file, e.size});
    return out;
}

} // namespace press::storage

/**
 * @file
 * Tests for the locality and load directories (replicated and sharded).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/directories.hpp"

using press::core::CacheDirectory;
using press::core::LoadDirectory;
using press::core::NodeMask;
using press::core::ShardedCacheDirectory;
using press::storage::FileId;
using press::util::Rng;

TEST(NodeMask, SetTestClearAcrossWords)
{
    NodeMask m;
    EXPECT_TRUE(m.none());
    m.set(0);
    m.set(63);
    m.set(64);
    m.set(255);
    EXPECT_TRUE(m.test(0));
    EXPECT_TRUE(m.test(63));
    EXPECT_TRUE(m.test(64));
    EXPECT_TRUE(m.test(255));
    EXPECT_FALSE(m.test(1));
    EXPECT_EQ(m.count(), 4);
    m.clear(64);
    EXPECT_FALSE(m.test(64));
    EXPECT_EQ(m.count(), 3);
    EXPECT_TRUE(m.any());
}

TEST(LoadDirectory, UpdatesAndReads)
{
    LoadDirectory d(4, 0);
    EXPECT_EQ(d.load(3), 0);
    d.update(3, 55);
    EXPECT_EQ(d.load(3), 55);
    d.setSelf(10);
    EXPECT_EQ(d.load(0), 10);
}

TEST(LoadDirectory, LeastLoadedBreaksTiesLow)
{
    LoadDirectory d(4, 0);
    d.update(0, 5);
    d.update(1, 3);
    d.update(2, 3);
    d.update(3, 9);
    EXPECT_EQ(d.leastLoaded(), 1);
}

TEST(CacheDirectory, UpdateAndQuery)
{
    CacheDirectory d(8);
    EXPECT_FALSE(d.anyoneCaches(42));
    d.update(3, 42, true);
    EXPECT_TRUE(d.anyoneCaches(42));
    EXPECT_TRUE(d.caches(3, 42));
    EXPECT_FALSE(d.caches(2, 42));
    d.update(5, 42, true);
    EXPECT_EQ(d.mask(42).words(0), (1u << 3) | (1u << 5));
    d.update(3, 42, false);
    EXPECT_FALSE(d.caches(3, 42));
    EXPECT_TRUE(d.anyoneCaches(42));
    d.update(5, 42, false);
    EXPECT_FALSE(d.anyoneCaches(42));
    EXPECT_EQ(d.knownFiles(), 0u);
}

TEST(CacheDirectory, EvictUnknownFileIsNoop)
{
    CacheDirectory d(4);
    d.update(1, 7, false);
    EXPECT_FALSE(d.anyoneCaches(7));
}

TEST(CacheDirectory, LeastLoadedCaching)
{
    CacheDirectory d(4);
    LoadDirectory loads(4, 0);
    d.update(1, 9, true);
    d.update(2, 9, true);
    loads.update(1, 50);
    loads.update(2, 20);
    EXPECT_EQ(d.leastLoadedCaching(9, loads), 2);
    loads.update(2, 90);
    EXPECT_EQ(d.leastLoadedCaching(9, loads), 1);
    EXPECT_EQ(d.leastLoadedCaching(1234, loads), -1);
}

TEST(CacheDirectory, RandomCachingCoversAllHolders)
{
    CacheDirectory d(8);
    d.update(2, 5, true);
    d.update(4, 5, true);
    d.update(7, 5, true);
    Rng rng(3);
    std::set<int> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(d.randomCaching(5, rng));
    EXPECT_EQ(seen, (std::set<int>{2, 4, 7}));
    EXPECT_EQ(d.randomCaching(999, rng), -1);
}

namespace {

/** The replicated directory's contract, kept the obvious way. */
struct RefDirectory {
    std::map<FileId, std::set<int>> files;

    void
    update(int node, FileId file, bool cached)
    {
        if (cached) {
            files[file].insert(node);
            return;
        }
        auto it = files.find(file);
        if (it == files.end())
            return;
        it->second.erase(node);
        if (it->second.empty())
            files.erase(it);
    }

    void
    dropNode(int node)
    {
        for (auto it = files.begin(); it != files.end();) {
            it->second.erase(node);
            it = it->second.empty() ? files.erase(it) : std::next(it);
        }
    }

    const std::set<int> *
    holders(FileId file) const
    {
        auto it = files.find(file);
        return it == files.end() ? nullptr : &it->second;
    }

    int
    leastLoaded(FileId file, const LoadDirectory &loads) const
    {
        const std::set<int> *h = holders(file);
        int best = -1;
        for (int n : h ? *h : std::set<int>{})
            if (best < 0 || loads.load(n) < loads.load(best))
                best = n;
        return best;
    }

    int
    random(FileId file, Rng &rng) const
    {
        const std::set<int> *h = holders(file);
        if (!h)
            return -1;
        auto it = h->begin();
        std::advance(it, static_cast<long>(rng.uniformInt(h->size())));
        return *it;
    }
};

void
expectSameView(const CacheDirectory &dir, const RefDirectory &ref,
               FileId file, int nodes, const LoadDirectory &loads,
               Rng &dirRng, Rng &refRng)
{
    SCOPED_TRACE("file " + std::to_string(file));
    const std::set<int> *h = ref.holders(file);
    EXPECT_EQ(dir.anyoneCaches(file), h != nullptr);
    NodeMask want;
    for (int n : h ? *h : std::set<int>{})
        want.set(n);
    EXPECT_EQ(dir.mask(file), want);
    for (int n = 0; n < nodes; ++n)
        ASSERT_EQ(dir.caches(n, file), want.test(n)) << "node " << n;
    EXPECT_EQ(dir.knownFiles(), ref.files.size());
    EXPECT_EQ(dir.leastLoadedCaching(file, loads),
              ref.leastLoaded(file, loads));
    EXPECT_EQ(dir.randomCaching(file, dirRng), ref.random(file, refRng));
}

} // namespace

TEST(CacheDirectory, MatchesMapOracle)
{
    // A seeded stream of updates and node drops, checked after every
    // operation against a map-of-sets reference: the touched file, a
    // random known id, and ids never seen or past the grown end.
    constexpr FileId Files = 200;
    for (int nodes : {1, 8, 64, 65, 256}) {
        SCOPED_TRACE("nodes " + std::to_string(nodes));
        CacheDirectory dir(nodes);
        RefDirectory ref;
        LoadDirectory loads(nodes, 0);
        Rng ops(static_cast<std::uint64_t>(nodes) + 11);
        Rng dirRng(5), refRng(5);
        auto pick = [&ops](std::uint64_t n) {
            return static_cast<FileId>(ops.uniformInt(n));
        };
        for (int step = 0; step < 3000; ++step) {
            int node = static_cast<int>(ops.uniformInt(nodes));
            // Few distinct loads, so the lowest-id tie-break matters.
            loads.update(static_cast<int>(ops.uniformInt(nodes)),
                         static_cast<int>(ops.uniformInt(3)));
            std::uint64_t dice = ops.uniformInt(100);
            FileId file;
            if (dice < 2) {
                file = pick(Files);
                dir.dropNode(node);
                ref.dropNode(node);
            } else if (dice < 55) {
                // Mostly a dense range; sometimes a jump that grows the
                // table well past its current end.
                file = dice < 5 ? Files + pick(4 * Files) : pick(Files);
                dir.update(node, file, true);
                ref.update(node, file, true);
            } else {
                // Evictions, including ids never seen and past the end.
                file = pick(6 * Files);
                dir.update(node, file, false);
                ref.update(node, file, false);
            }
            expectSameView(dir, ref, file, nodes, loads, dirRng, refRng);
            expectSameView(dir, ref, pick(Files), nodes, loads, dirRng,
                           refRng);
            expectSameView(dir, ref, FileId{1} << 30, nodes, loads,
                           dirRng, refRng);
            if (::testing::Test::HasFailure())
                return;
        }
        EXPECT_GT(ref.files.size(), 0u) << "stream never cached a file";
    }
}

TEST(CacheDirectory, DropNodeForgetsOnlyThatNode)
{
    CacheDirectory d(70);
    d.update(3, 1, true);
    d.update(66, 1, true);
    d.update(66, 2, true);
    d.update(3, 4, true);
    EXPECT_EQ(d.knownFiles(), 3u);
    d.dropNode(66);
    EXPECT_TRUE(d.caches(3, 1));
    EXPECT_FALSE(d.caches(66, 1));
    EXPECT_FALSE(d.anyoneCaches(2));
    EXPECT_TRUE(d.anyoneCaches(4));
    EXPECT_EQ(d.knownFiles(), 2u);
    d.dropNode(3);
    EXPECT_EQ(d.knownFiles(), 0u);
    EXPECT_EQ(d.mask(1), NodeMask{});
}

TEST(CacheDirectory, RejectsOversizedClusters)
{
    EXPECT_DEATH(CacheDirectory d(257), "1..256");
}

TEST(ShardedCacheDirectory, OwnershipPartitionsFiles)
{
    const int nodes = 8, shards = 16;
    ShardedCacheDirectory d(nodes, 0, shards, 4);
    for (press::storage::FileId f = 0; f < 1000; ++f) {
        int s = ShardedCacheDirectory::shardOf(f, shards);
        EXPECT_GE(s, 0);
        EXPECT_LT(s, shards);
        int owner = d.ownerOf(f);
        EXPECT_GE(owner, 0);
        EXPECT_LT(owner, nodes);
        // Same shard -> same owner, deterministically.
        EXPECT_EQ(owner, ShardedCacheDirectory(nodes, 3, shards, 4)
                             .ownerOf(f));
    }
}

TEST(ShardedCacheDirectory, OwnerAnswersAuthoritatively)
{
    ShardedCacheDirectory d(4, 0, 4, 4);
    // Find a file node 0 owns.
    press::storage::FileId owned = 0;
    while (!d.owns(owned))
        ++owned;
    NodeMask m;
    EXPECT_EQ(d.lookup(owned, m), ShardedCacheDirectory::Answer::Owner);
    EXPECT_TRUE(m.none());
    d.update(2, owned, true);
    EXPECT_EQ(d.lookup(owned, m), ShardedCacheDirectory::Answer::Owner);
    EXPECT_TRUE(m.test(2));
    d.update(2, owned, false);
    EXPECT_EQ(d.lookup(owned, m), ShardedCacheDirectory::Answer::Owner);
    EXPECT_TRUE(m.none());
    EXPECT_EQ(d.ownedFiles(), 0u);
}

TEST(ShardedCacheDirectory, HotSetLearnsAndEvictsLru)
{
    ShardedCacheDirectory d(4, 0, 4, 2);
    // Collect files node 0 does NOT own.
    std::vector<press::storage::FileId> foreign;
    for (press::storage::FileId f = 0; foreign.size() < 3; ++f)
        if (!d.owns(f))
            foreign.push_back(f);

    NodeMask m;
    EXPECT_EQ(d.lookup(foreign[0], m),
              ShardedCacheDirectory::Answer::Unknown);
    d.hotLearn(foreign[0], 1, true);
    d.hotLearn(foreign[1], 2, true);
    EXPECT_EQ(d.hotFiles(), 2u);
    EXPECT_EQ(d.lookup(foreign[0], m), ShardedCacheDirectory::Answer::Hot);
    EXPECT_TRUE(m.test(1));
    // Touch foreign[0] so foreign[1] is the LRU victim.
    d.hotLearn(foreign[0], 3, true);
    d.hotLearn(foreign[2], 1, true);
    EXPECT_EQ(d.hotFiles(), 2u);
    EXPECT_EQ(d.lookup(foreign[1], m),
              ShardedCacheDirectory::Answer::Unknown);
    EXPECT_EQ(d.lookup(foreign[0], m), ShardedCacheDirectory::Answer::Hot);
    EXPECT_TRUE(m.test(1));
    EXPECT_TRUE(m.test(3));
}

TEST(ShardedCacheDirectory, EntriesBoundedByShardPlusHotSet)
{
    // The memory story: each of N nodes holds only ~F/S of the F files
    // plus a bounded hot set, vs F entries replicated everywhere.
    const int nodes = 16, shards = 16;
    const press::storage::FileId files = 4096;
    ShardedCacheDirectory d(nodes, 0, shards, 8);
    CacheDirectory repl(nodes);
    for (press::storage::FileId f = 0; f < files; ++f) {
        repl.update(1, f, true);
        if (d.owns(f))
            d.update(1, f, true);
        else
            d.hotLearn(f, 1, true);
    }
    EXPECT_EQ(repl.knownFiles(), files);
    // splitmix64 spreads files near-uniformly over shards.
    EXPECT_LT(d.entries(), files / shards + 8 + files / (shards * 4));
    EXPECT_GE(d.ownedFiles(), files / (shards * 2));
}

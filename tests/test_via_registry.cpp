/**
 * @file
 * Tests for the flat registration table behind via::MemoryRegistry:
 * lookups after deregistering from the middle of the table, and the
 * write-hook re-entrancy guard.
 */

#include <gtest/gtest.h>

#include <vector>

#include "via/memory.hpp"

using press::via::MemoryRegion;
using press::via::MemoryRegistry;
using press::via::Payload;

namespace {

std::uint64_t
pages(std::uint64_t bytes)
{
    return (bytes + 4095) / 4096 * 4096;
}

} // namespace

TEST(MemoryRegistryTable, DeregisterMiddleKeepsNeighbours)
{
    MemoryRegistry reg;
    std::vector<MemoryRegion> regions;
    std::uint64_t pinned = 0;
    for (int i = 0; i < 100; ++i) {
        regions.push_back(reg.registerMemory(1000 + 97 * i));
        pinned += pages(1000 + 97 * i);
    }
    ASSERT_EQ(reg.pinnedBytes(), pinned);

    const MemoryRegion gone = regions[50];
    ASSERT_TRUE(reg.deregister(gone.handle));
    EXPECT_EQ(reg.regions(), 99u);
    EXPECT_EQ(reg.pinnedBytes(), pinned - pages(gone.size));

    // Every survivor, the two neighbours included, still resolves to
    // its own handle at its first byte, interior and last byte.
    for (int i = 0; i < 100; ++i) {
        if (i == 50)
            continue;
        const MemoryRegion &r = regions[static_cast<std::size_t>(i)];
        for (std::uint64_t off : {std::uint64_t{0}, r.size / 2,
                                  r.size - 1}) {
            auto found = reg.find(r.base + off, 1);
            ASSERT_TRUE(found.has_value()) << "region " << i;
            EXPECT_EQ(found->handle, r.handle) << "region " << i;
        }
        EXPECT_TRUE(reg.find(r.base, r.size).has_value());
    }

    // The freed range resolves to nothing, from any byte of it.
    EXPECT_FALSE(reg.find(gone.base, 1).has_value());
    EXPECT_FALSE(reg.find(gone.base + gone.size / 2, 1).has_value());
    EXPECT_FALSE(reg.find(gone.base + gone.size - 1, 1).has_value());
    EXPECT_FALSE(reg.deliverWrite(gone.base, 8, nullptr));
    EXPECT_FALSE(reg.deregister(gone.handle));
    EXPECT_EQ(reg.pinnedBytes(), pinned - pages(gone.size));

    // New regions append past everything ever handed out.
    MemoryRegion fresh = reg.registerMemory(64);
    EXPECT_GT(fresh.base, regions.back().base);
    EXPECT_EQ(reg.find(fresh.base, 64)->handle, fresh.handle);
    EXPECT_EQ(reg.pinnedBytes(), pinned - pages(gone.size) + pages(64));
}

TEST(MemoryRegistryTable, WriteHookCannotReshapeItsRegistry)
{
    MemoryRegistry reg;
    MemoryRegion r = reg.registerMemory(
        4096, [&reg](std::uint64_t, std::uint64_t, const Payload &) {
            reg.registerMemory(4096);
        });
    EXPECT_DEATH(reg.deliverWrite(r.base, 8, nullptr),
                 "inside a write hook");
}

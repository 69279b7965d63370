/**
 * @file
 * Tests for VIA memory registration.
 */

#include <gtest/gtest.h>

#include "via/memory.hpp"

using press::via::MemoryRegistry;
using press::via::Payload;

TEST(MemoryRegistry, RegionsDoNotOverlap)
{
    MemoryRegistry reg;
    auto a = reg.registerMemory(10000);
    auto b = reg.registerMemory(5000);
    EXPECT_NE(a.handle, b.handle);
    bool disjoint = a.base + a.size <= b.base || b.base + b.size <= a.base;
    EXPECT_TRUE(disjoint);
}

TEST(MemoryRegistry, FindExactAndInterior)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_TRUE(reg.find(r.base, 4096).has_value());
    EXPECT_TRUE(reg.find(r.base + 100, 1000).has_value());
    EXPECT_FALSE(reg.find(r.base + 100, 4096).has_value()); // runs past
    EXPECT_FALSE(reg.find(r.base - 1, 1).has_value());
    EXPECT_FALSE(reg.find(r.base + 4096, 1).has_value());
}

TEST(MemoryRegistry, DeregisterRemovesRegion)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_TRUE(reg.deregister(r.handle));
    EXPECT_FALSE(reg.find(r.base, 1).has_value());
    EXPECT_FALSE(reg.deregister(r.handle)); // second time fails
    EXPECT_EQ(reg.regions(), 0u);
}

TEST(MemoryRegistry, PinnedBytesArePageRounded)
{
    MemoryRegistry reg;
    reg.registerMemory(1);
    EXPECT_EQ(reg.pinnedBytes(), 4096u);
    auto r = reg.registerMemory(4097);
    EXPECT_EQ(reg.pinnedBytes(), 4096u + 8192u);
    reg.deregister(r.handle);
    EXPECT_EQ(reg.pinnedBytes(), 4096u);
}

TEST(MemoryRegistry, WriteHookFiresWithOffset)
{
    MemoryRegistry reg;
    std::uint64_t seen_offset = 0, seen_len = 0;
    auto r = reg.registerMemory(
        8192, [&](std::uint64_t off, std::uint64_t len, const Payload &) {
            seen_offset = off;
            seen_len = len;
        });
    EXPECT_TRUE(reg.deliverWrite(r.base + 256, 64, nullptr));
    EXPECT_EQ(seen_offset, 256u);
    EXPECT_EQ(seen_len, 64u);
}

TEST(MemoryRegistry, WriteOutsideRegionsRejected)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096);
    EXPECT_FALSE(reg.deliverWrite(r.base + 4090, 100, nullptr));
    EXPECT_FALSE(reg.deliverWrite(0, 4, nullptr));
}

TEST(MemoryRegistry, HookIsOptional)
{
    MemoryRegistry reg;
    auto r = reg.registerMemory(4096); // no hook
    EXPECT_TRUE(reg.deliverWrite(r.base, 4, nullptr));
}

TEST(MemoryRegistry, ManyRegionsLookup)
{
    MemoryRegistry reg;
    std::vector<press::via::MemoryRegion> regions;
    for (int i = 0; i < 100; ++i)
        regions.push_back(reg.registerMemory(1000 + i));
    for (const auto &r : regions) {
        auto found = reg.find(r.base + 10, 100);
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->handle, r.handle);
    }
    EXPECT_EQ(reg.regions(), 100u);
}

/**
 * @file
 * Tests for completion queues and VI work-queue bookkeeping.
 */

#include <gtest/gtest.h>

#include "via/completion_queue.hpp"
#include "via/via_nic.hpp"

using namespace press;
using via::CompletionQueue;
using via::Descriptor;
using via::DescriptorPtr;

TEST(CompletionQueue, PollEmptyReturnsNothing)
{
    sim::Simulator s;
    CompletionQueue cq(s);
    EXPECT_FALSE(cq.poll().has_value());
    EXPECT_EQ(cq.pending(), 0u);
}

TEST(CompletionQueue, PushThenPollFifo)
{
    sim::Simulator s;
    CompletionQueue cq(s);
    auto d1 = std::make_shared<Descriptor>();
    auto d2 = std::make_shared<Descriptor>();
    cq.push({d1, nullptr, true});
    cq.push({d2, nullptr, false});
    auto c1 = cq.poll();
    auto c2 = cq.poll();
    ASSERT_TRUE(c1 && c2);
    EXPECT_EQ(c1->desc, d1);
    EXPECT_TRUE(c1->isRecv);
    EXPECT_EQ(c2->desc, d2);
    EXPECT_FALSE(cq.poll().has_value());
    EXPECT_EQ(cq.totalCompletions(), 2u);
}

TEST(CompletionQueue, NotifyFiresOnPush)
{
    sim::Simulator s;
    CompletionQueue cq(s);
    int woken = 0;
    cq.notify([&] { ++woken; });
    EXPECT_TRUE(cq.hasWaiter());
    s.run();
    EXPECT_EQ(woken, 0); // nothing pushed yet
    cq.push({std::make_shared<Descriptor>(), nullptr, true});
    EXPECT_FALSE(cq.hasWaiter());
    s.run();
    EXPECT_EQ(woken, 1);
    // One-shot: further pushes do not re-fire.
    cq.push({std::make_shared<Descriptor>(), nullptr, true});
    s.run();
    EXPECT_EQ(woken, 1);
}

TEST(CompletionQueue, NotifyWithPendingFiresImmediately)
{
    sim::Simulator s;
    CompletionQueue cq(s);
    cq.push({std::make_shared<Descriptor>(), nullptr, true});
    int woken = 0;
    cq.notify([&] { ++woken; });
    s.run();
    EXPECT_EQ(woken, 1);
}

class ViPairTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fabric = std::make_unique<net::Fabric>(
            sim, net::FabricConfig::clan(), 2);
        nicA = std::make_unique<via::ViaNic>(sim, *fabric, 0);
        nicB = std::make_unique<via::ViaNic>(sim, *fabric, 1);
        va = nicA->createVi();
        vb = nicB->createVi();
        via::ViaNic::connect(*va, *vb);
    }

    sim::Simulator sim;
    std::unique_ptr<net::Fabric> fabric;
    std::unique_ptr<via::ViaNic> nicA, nicB;
    via::VirtualInterface *va = nullptr, *vb = nullptr;
};

TEST_F(ViPairTest, ConnectSetsPeers)
{
    EXPECT_TRUE(va->connected());
    EXPECT_EQ(va->peer(), vb);
    EXPECT_EQ(vb->peer(), va);
    EXPECT_EQ(va->node(), 0);
    EXPECT_EQ(vb->node(), 1);
}

TEST_F(ViPairTest, RecvQueueCounts)
{
    auto buf = nicB->registerMemory(4096);
    vb->postRecv(via::makeRecv(buf.base, 4096));
    vb->postRecv(via::makeRecv(buf.base, 4096));
    EXPECT_EQ(vb->recvPosted(), 2u);
}

TEST_F(ViPairTest, SendOnUnconnectedViErrors)
{
    auto *lone = nicA->createVi();
    auto buf = nicA->registerMemory(4096);
    lone->postSend(via::makeSend(buf.base, 100));
    auto done = lone->pollSend();
    ASSERT_TRUE(done);
    EXPECT_EQ(done->status, via::Status::ErrorDisconnected);
}

TEST_F(ViPairTest, SendFromUnregisteredMemoryErrors)
{
    // No region registered on A: the DMA source check must fail.
    va->postSend(via::makeSend(0xdead0000, 128));
    sim.run();
    auto done = va->pollSend();
    ASSERT_TRUE(done);
    EXPECT_EQ(done->status, via::Status::ErrorNotRegistered);
}

TEST_F(ViPairTest, PostOnBrokenViLeavesInFlightCountAlone)
{
    auto src = nicA->registerMemory(1 << 20);
    auto dst = nicB->registerMemory(1 << 20);
    vb->postRecv(via::makeRecv(dst.base, 1 << 20));
    vb->postRecv(via::makeRecv(dst.base, 1 << 20));
    ASSERT_TRUE(va->postSend(via::makeSend(src.base, 500000)));
    ASSERT_TRUE(va->postSend(via::makeSend(src.base, 500000)));
    EXPECT_EQ(va->sendOutstanding(), 2u);

    // A post on the broken end completes at once; the two sends already
    // on the wire are still in flight.
    va->breakLocal();
    ASSERT_TRUE(va->postSend(via::makeSend(src.base, 100)));
    auto failed = va->pollSend();
    ASSERT_TRUE(failed);
    EXPECT_EQ(failed->status, via::Status::ErrorDisconnected);
    EXPECT_EQ(va->sendOutstanding(), 2u);

    sim.run();
    EXPECT_EQ(va->sendOutstanding(), 0u);
    EXPECT_TRUE(va->pollSend());
    EXPECT_TRUE(va->pollSend());
    EXPECT_FALSE(va->pollSend());
}

TEST_F(ViPairTest, SendQueueDepthBounded)
{
    auto buf = nicA->registerMemory(4096);
    auto dst = nicB->registerMemory(4096);
    // Fill the send queue to its advertised depth without running the
    // simulator (the NIC cannot drain).
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < via::VirtualInterface::MaxQueueDepth + 8;
         ++i) {
        if (va->postSend(via::makeRdmaWrite(buf.base, 4, dst.base)))
            ++accepted;
        else
            break;
    }
    EXPECT_EQ(accepted, via::VirtualInterface::MaxQueueDepth);
    // Draining the NIC frees slots again.
    sim.run();
    EXPECT_TRUE(va->postSend(via::makeRdmaWrite(buf.base, 4, dst.base)));
}

TEST_F(ViPairTest, RecvQueueDepthBounded)
{
    auto buf = nicB->registerMemory(4096);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < via::VirtualInterface::MaxQueueDepth + 8;
         ++i) {
        if (vb->postRecv(via::makeRecv(buf.base, 64)))
            ++accepted;
        else
            break;
    }
    EXPECT_EQ(accepted, via::VirtualInterface::MaxQueueDepth);
}

/**
 * @file
 * L2 directory: requests that queue on a busy line are served in
 * arrival order.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/l2_directory.hh"

using namespace ocor;

namespace
{

/**
 * One L2 bank (node 0) with every other agent played by a responder
 * that answers each message the bank sends: DRAM returns MemResp,
 * L1s ack invalidations, answer fetches with data and confirm every
 * grant with an Unblock.
 */
struct Bank
{
    MeshShape mesh{4, 4};
    AddressMap amap{mesh, 128};
    MemParams params;
    std::vector<PacketPtr> outbox;
    L2Directory l2{0, amap, params,
                   [this](const PacketPtr &p, Cycle) {
                       outbox.push_back(p);
                   }};
    Cycle now = 0;
    std::vector<std::pair<NodeId, MsgType>> grants;

    void
    send(MsgType type, NodeId src, Addr addr, std::uint32_t aux = 0)
    {
        auto p = makePacket(type, src, 0, addr);
        p->aux = aux;
        l2.handle(p, now);
    }

    void
    respond()
    {
        std::vector<PacketPtr> sent;
        sent.swap(outbox);
        for (const PacketPtr &p : sent) {
            switch (p->type) {
              case MsgType::MemRead:
                send(MsgType::MemResp, p->dst, p->addr);
                break;
              case MsgType::Inv:
                send(MsgType::InvAck, p->dst, p->addr, p->aux);
                break;
              case MsgType::Fetch:
                send(MsgType::FetchResp, p->dst, p->addr, p->aux);
                break;
              case MsgType::Data:
              case MsgType::DataExcl:
                grants.emplace_back(p->dst, p->type);
                send(MsgType::Unblock, p->dst, p->addr);
                break;
              default:
                break;
            }
        }
    }

    void
    runUntilIdle()
    {
        for (int i = 0; i < 1000 && !(l2.idle() && outbox.empty());
             ++i) {
            ++now;
            l2.tick(now);
            respond();
        }
    }
};

} // namespace

TEST(L2Directory, QueuedRequestsServedInArrivalOrder)
{
    Bank b;
    const Addr line = 0x4000;
    // The first GetM misses to DRAM and holds the line busy; the
    // other four arrive behind it and queue.
    b.send(MsgType::GetM, 1, line);
    b.send(MsgType::GetS, 2, line);
    b.send(MsgType::GetM, 3, line);
    b.send(MsgType::GetS, 4, line);
    b.send(MsgType::GetS, 5, line);
    b.runUntilIdle();

    ASSERT_TRUE(b.l2.idle());
    EXPECT_EQ(b.l2.stats().queuedRequests, 4u);
    const std::vector<std::pair<NodeId, MsgType>> want = {
        {1, MsgType::DataExcl}, // GetM from DRAM
        {2, MsgType::Data},     // GetS: fetch downgrades owner 1
        {3, MsgType::DataExcl}, // GetM: invalidates 2, fetches 1
        {4, MsgType::Data},     // GetS: fetch downgrades owner 3
        {5, MsgType::Data},
    };
    EXPECT_EQ(b.grants, want);
    EXPECT_EQ(b.l2.ownerOf(line), 3u);
    EXPECT_EQ(b.l2.sharersOf(line), (1u << 4) | (1u << 5));
    EXPECT_EQ(b.l2.dirEntriesPeak(), 1u);
    EXPECT_EQ(b.l2.rowsAllocated(), 1u);
}

TEST(L2Directory, QueueRefillsAfterDraining)
{
    Bank b;
    const Addr line = 0x8000;
    b.send(MsgType::GetS, 6, line);
    b.send(MsgType::GetM, 7, line);
    b.runUntilIdle();
    // A second burst on the same, now idle, line queues again.
    b.send(MsgType::GetM, 8, line);
    b.send(MsgType::GetS, 9, line);
    b.send(MsgType::GetM, 6, line);
    b.runUntilIdle();

    ASSERT_TRUE(b.l2.idle());
    EXPECT_EQ(b.l2.stats().queuedRequests, 3u);
    std::vector<NodeId> order;
    for (const auto &[node, type] : b.grants)
        order.push_back(node);
    EXPECT_EQ(order, (std::vector<NodeId>{6, 7, 8, 9, 6}));
    EXPECT_EQ(b.l2.ownerOf(line), 6u);
}

/**
 * @file
 * Unit tests for the network interface: packetization, VC
 * assignment, credit flow, priority-ordered injection, reassembly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/network_interface.hh"

using namespace ocor;

namespace
{

struct NiRig
{
    NocParams params;
    OcorConfig ocor;
    OcorConfig stamping;
    std::unique_ptr<NetworkInterface> ni;
    Link toRouter;
    Link fromRouter;
    std::vector<PacketPtr> delivered;

    explicit NiRig(bool ocor_on = false)
    {
        ocor.enabled = ocor_on;
        stamping.enabled = true;
        ni = std::make_unique<NetworkInterface>(3, params, ocor);
        ni->attach(&toRouter, &fromRouter);
        ni->setDeliver([this](const PacketPtr &pkt, Cycle) {
            delivered.push_back(pkt);
        });
    }

    /** Collect flits the NI put on the wire up to cycle @p upto. */
    std::vector<Flit>
    drainFlits(Cycle from, Cycle upto)
    {
        std::vector<Flit> out;
        for (Cycle c = from; c <= upto; ++c) {
            ni->tick(c);
            if (auto f = toRouter.takeFlit(c)) {
                toRouter.sendCredit(f->vc, c); // instant consumer
                out.push_back(*f);
            }
        }
        return out;
    }
};

} // namespace

TEST(NetworkInterface, SerializesDataPacketIntoFlits)
{
    NiRig rig;
    auto pkt = makePacket(MsgType::Data, 3, 7, 0x1000);
    rig.ni->inject(pkt, 0);
    auto flits = rig.drainFlits(0, 30);
    ASSERT_EQ(flits.size(), 8u);
    EXPECT_TRUE(flits.front().isHead());
    EXPECT_TRUE(flits.back().isTail());
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(flits[i].index, i);
    EXPECT_EQ(rig.ni->stats().packetsInjected, 1u);
    EXPECT_EQ(rig.ni->stats().flitsInjected, 8u);
}

TEST(NetworkInterface, OneFlitPerCycleEvenWithManyPackets)
{
    NiRig rig;
    for (unsigned i = 0; i < 4; ++i)
        rig.ni->inject(makePacket(MsgType::GetS, 3, 7, 0x80 * i), 0);
    // The Link panics if the NI ever sends two flits in one cycle;
    // draining everything exercises that invariant.
    auto flits = rig.drainFlits(0, 40);
    EXPECT_EQ(flits.size(), 4u);
}

TEST(NetworkInterface, LoopbackDeliversLocally)
{
    NiRig rig;
    auto pkt = makePacket(MsgType::GetS, 3, 3, 0x80);
    rig.ni->inject(pkt, 5);
    for (Cycle c = 5; c < 10; ++c)
        rig.ni->tick(c);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.ni->stats().flitsInjected, 0u);
}

TEST(NetworkInterface, ReassemblesIncomingPacket)
{
    NiRig rig;
    auto pkt = makePacket(MsgType::Data, 7, 3, 0x2000);
    for (unsigned i = 0; i < 8; ++i) {
        Flit f;
        f.pkt = pkt;
        f.index = i;
        f.type = flitTypeFor(i, 8);
        f.vc = 2;
        rig.fromRouter.sendFlit(f, i);
    }
    for (Cycle c = 0; c <= 12; ++c)
        rig.ni->tick(c);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.delivered[0]->id, pkt->id);
    // One credit returned per consumed flit.
    unsigned credits = 0;
    for (Cycle c = 0; c <= 13; ++c)
        rig.fromRouter.drainCredits(c, [&](unsigned) { ++credits; });
    EXPECT_EQ(credits, 8u);
}

TEST(NetworkInterface, PriorityPacketJumpsInjectionQueue)
{
    NiRig rig(/*ocor_on=*/true);
    // Fill the queue with enough data packets to occupy every VC,
    // then inject a prioritized lock packet: it must leave before
    // the queued-but-unassigned data packets.
    for (unsigned i = 0; i < rig.params.numVcs + 3; ++i)
        rig.ni->inject(makePacket(MsgType::Data, 3, 7, 0x100 * i),
                       0);
    auto lock = makePacket(MsgType::LockTry, 3, 7, 0x9000);
    lock->priority = makePriority(rig.stamping,
                                  PriorityClass::LockTry, 1, 0);
    rig.ni->inject(lock, 0);

    auto flits = rig.drainFlits(0, 120);
    // Find the injection position of the lock packet's flit vs the
    // last data packet's head.
    int lock_pos = -1;
    int last_data_head = -1;
    for (std::size_t i = 0; i < flits.size(); ++i) {
        if (flits[i].pkt->id == lock->id)
            lock_pos = static_cast<int>(i);
        else if (flits[i].isHead())
            last_data_head = static_cast<int>(i);
    }
    ASSERT_GE(lock_pos, 0);
    EXPECT_LT(lock_pos, last_data_head)
        << "the lock packet must not drain behind the whole queue";
}

TEST(NetworkInterface, BaselineKeepsFifoOrder)
{
    NiRig rig(/*ocor_on=*/false);
    std::vector<std::uint64_t> ids;
    for (unsigned i = 0; i < 3; ++i) {
        auto pkt = makePacket(MsgType::GetS, 3, 7, 0x100 * i);
        ids.push_back(pkt->id);
        rig.ni->inject(pkt, 0);
    }
    auto flits = rig.drainFlits(0, 40);
    ASSERT_EQ(flits.size(), 3u);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(flits[i].pkt->id, ids[i]);
}

TEST(NetworkInterface, IdleReflectsState)
{
    NiRig rig;
    EXPECT_TRUE(rig.ni->idle());
    rig.ni->inject(makePacket(MsgType::GetS, 3, 7, 0x80), 0);
    EXPECT_FALSE(rig.ni->idle());
    rig.drainFlits(0, 20);
    EXPECT_TRUE(rig.ni->idle());
}

TEST(NetworkInterface, QueueDepthTracked)
{
    NiRig rig;
    for (unsigned i = 0; i < 10; ++i)
        rig.ni->inject(makePacket(MsgType::Data, 3, 7, 0x80 * i), 0);
    EXPECT_EQ(rig.ni->queueDepth(), 10u);
    EXPECT_GE(rig.ni->stats().injectQueuePeak, 10u);
}

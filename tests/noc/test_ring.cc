/**
 * @file
 * Unit tests for the fixed-capacity ring behind VC buffers and link
 * wires.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "noc/flit.hh"
#include "noc/ring.hh"

using namespace ocor;

TEST(Ring, WrapAroundKeepsFifoOrder)
{
    // Capacity 3 is not a power of two: the wrap must not assume one.
    std::array<unsigned, 3> slots{};
    Ring<unsigned> ring(slots);
    unsigned next_in = 0, next_out = 0;
    for (unsigned round = 0; round < 20; ++round) {
        // Alternate fill levels so head and tail cross the seam at
        // every offset.
        const unsigned fill = 1 + round % 3;
        while (ring.size() < fill)
            ring.push(next_in++);
        EXPECT_EQ(ring.front(), next_out);
        for (unsigned i = 0; i < ring.size(); ++i)
            EXPECT_EQ(ring[i], next_out + i);
        EXPECT_EQ(ring.back(), next_in - 1);
        const unsigned drain = 1 + round % ring.size();
        for (unsigned i = 0; i < drain; ++i)
            EXPECT_EQ(ring.pop(), next_out++);
    }
    EXPECT_GT(next_in, 3 * slots.size());
}

TEST(Ring, FullAtCapacityAndReusableAfterPop)
{
    std::array<int, 4> slots{};
    Ring<int> ring(slots);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(ring.full());
        ring.push(int{i});
    }
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pop(), 0);
    EXPECT_FALSE(ring.full());
    ring.push(4);
    EXPECT_TRUE(ring.full());
    for (int want = 1; want <= 4; ++want)
        EXPECT_EQ(ring.pop(), want);
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, PopMovesTheElementOut)
{
    // A popped flit must not leave a packet reference behind in its
    // slot: the ring hands the only copy to the caller.
    std::array<Flit, 2> slots{};
    Ring<Flit> ring(slots);
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    Flit f;
    f.pkt = pkt;
    ring.push(std::move(f));
    EXPECT_EQ(pkt.use_count(), 2);
    Flit out = ring.pop();
    EXPECT_EQ(out.pkt, pkt);
    EXPECT_EQ(pkt.use_count(), 2);
    out.pkt.reset();
    EXPECT_EQ(pkt.use_count(), 1);
}

TEST(RingDeath, OverflowPanics)
{
    std::array<int, 2> slots{};
    Ring<int> ring(slots);
    ring.push(1);
    ring.push(2);
    EXPECT_DEATH(ring.push(3), "Ring: overflow");
}

TEST(RingDeath, PopFromEmptyPanics)
{
    std::array<int, 2> slots{};
    Ring<int> ring(slots);
    EXPECT_DEATH((void)ring.pop(), "empty");
}

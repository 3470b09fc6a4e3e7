/**
 * @file
 * Unit tests for the pipelined link.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/link.hh"

using namespace ocor;

namespace
{
Flit
makeFlit(unsigned vc = 0)
{
    Flit f;
    f.pkt = makePacket(MsgType::GetS, 0, 1, 0x100);
    f.type = FlitType::HeadTail;
    f.vc = vc;
    return f;
}

/** Every credit the link delivers at @p now, in send order. */
std::vector<unsigned>
takeCredits(Link &link, Cycle now)
{
    std::vector<unsigned> out;
    link.drainCredits(now, [&](unsigned vc) { out.push_back(vc); });
    return out;
}
} // namespace

TEST(Link, FlitArrivesAfterLatency)
{
    Link link(1);
    link.sendFlit(makeFlit(), 10);
    EXPECT_FALSE(link.takeFlit(10).has_value());
    auto f = link.takeFlit(11);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->pkt->type, MsgType::GetS);
    EXPECT_FALSE(link.takeFlit(12).has_value());
}

TEST(Link, MultiCycleLatency)
{
    Link link(3);
    link.sendFlit(makeFlit(), 0);
    EXPECT_FALSE(link.takeFlit(2).has_value());
    EXPECT_TRUE(link.takeFlit(3).has_value());
}

TEST(Link, BackToBackFlits)
{
    Link link(1);
    link.sendFlit(makeFlit(0), 0);
    link.sendFlit(makeFlit(1), 1);
    auto a = link.takeFlit(1);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->vc, 0u);
    auto b = link.takeFlit(2);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->vc, 1u);
}

TEST(Link, CreditsDeliveredAfterLatency)
{
    Link link(1);
    link.sendCredit(3, 5);
    link.sendCredit(4, 5); // multiple credits per cycle are fine
    EXPECT_TRUE(takeCredits(link, 5).empty());
    auto credits = takeCredits(link, 6);
    ASSERT_EQ(credits.size(), 2u);
    EXPECT_EQ(credits[0], 3u);
    EXPECT_EQ(credits[1], 4u);
    EXPECT_TRUE(takeCredits(link, 7).empty());
}

TEST(Link, IdleTracksOccupancy)
{
    Link link(1);
    EXPECT_TRUE(link.idle());
    link.sendFlit(makeFlit(), 0);
    EXPECT_FALSE(link.idle());
    (void)link.takeFlit(1);
    EXPECT_TRUE(link.idle());
    link.sendCredit(0, 2);
    EXPECT_FALSE(link.idle());
    (void)takeCredits(link, 3);
    EXPECT_TRUE(link.idle());
}

TEST(LinkDeath, TwoFlitsSameCyclePanics)
{
    Link link(1);
    link.sendFlit(makeFlit(), 0);
    EXPECT_DEATH(link.sendFlit(makeFlit(), 0), "two flits");
}

TEST(LinkDeath, FlitsBeyondCapacityPanic)
{
    // The wire holds at most as many flits as the downstream port
    // has buffer slots; a sender ignoring credits overflows it.
    Link link(1, 2);
    link.sendFlit(makeFlit(), 0);
    link.sendFlit(makeFlit(), 1);
    EXPECT_DEATH(link.sendFlit(makeFlit(), 2), "Ring: overflow");
}

TEST(LinkDeath, MissedDeliveryPanics)
{
    Link link(1);
    link.sendFlit(makeFlit(), 0);
    EXPECT_DEATH((void)link.takeFlit(5), "missed");
}

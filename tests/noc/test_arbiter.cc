/**
 * @file
 * Unit tests for the rank arbiter and the one-hot LPA (Figure 9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "noc/arbiter.hh"

using namespace ocor;

TEST(Arbiter, NoRequestersReturnsMinusOne)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{-1, -1, -1, -1};
    EXPECT_EQ(arb.pick(ranks), -1);
}

TEST(Arbiter, SingleRequesterWins)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{-1, 0, -1, -1};
    EXPECT_EQ(arb.pick(ranks), 1);
}

TEST(Arbiter, HighestRankWins)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{3, 9, 2, 9};
    int w = arb.pick(ranks);
    EXPECT_TRUE(w == 1 || w == 3);
}

TEST(Arbiter, RoundRobinRotatesTies)
{
    Arbiter arb(3);
    std::vector<std::int64_t> ranks{0, 0, 0};
    std::vector<int> wins;
    for (int i = 0; i < 6; ++i)
        wins.push_back(arb.pick(ranks));
    // Every input must win exactly twice over 6 rounds.
    for (int input = 0; input < 3; ++input)
        EXPECT_EQ(std::count(wins.begin(), wins.end(), input), 2)
            << "input " << input;
}

TEST(Arbiter, PointerAdvancesPastWinner)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{0, 0, 0, 0};
    int first = arb.pick(ranks);
    int second = arb.pick(ranks);
    EXPECT_NE(first, second);
}

TEST(Arbiter, RankBeatsRoundRobinPosition)
{
    Arbiter arb(4);
    std::vector<std::int64_t> equal{0, 0, 0, 0};
    arb.pick(equal); // pointer now at 1
    std::vector<std::int64_t> ranks{5, 0, 0, 0};
    EXPECT_EQ(arb.pick(ranks), 0); // rank 5 wins despite pointer
}

TEST(ArbiterDeath, SizeMismatchPanics)
{
    Arbiter arb(4);
    std::vector<std::int64_t> ranks{0, 0};
    EXPECT_DEATH(arb.pick(ranks), "ranks");
}

// ---- grantSingle fast path (must be invisible vs pick) ----------------

TEST(Arbiter, GrantSingleMatchesPickResult)
{
    for (unsigned idx = 0; idx < 4; ++idx) {
        Arbiter slow(4);
        Arbiter fast(4);
        std::vector<std::int64_t> ranks{-1, -1, -1, -1};
        ranks[idx] = 0;
        EXPECT_EQ(fast.grantSingle(idx), slow.pick(ranks));
        EXPECT_EQ(fast.pointer(), slow.pointer()) << "idx " << idx;
    }
}

TEST(Arbiter, GrantSingleLeavesSameStateAsPick)
{
    // Interleave sole-requester grants with full contended picks and
    // require the fast-path arbiter to stay in lockstep with one
    // that always takes the slow path.
    Arbiter slow(4);
    Arbiter fast(4);
    const unsigned soles[] = {2, 0, 3, 3, 1};
    for (unsigned idx : soles) {
        std::vector<std::int64_t> ranks{-1, -1, -1, -1};
        ranks[idx] = 5;
        EXPECT_EQ(fast.grantSingle(idx), slow.pick(ranks));

        std::vector<std::int64_t> tie{0, 0, 0, 0};
        EXPECT_EQ(fast.pick(tie), slow.pick(tie)) << "after " << idx;
        EXPECT_EQ(fast.pointer(), slow.pointer());
    }
}

TEST(Arbiter, GrantSingleWrapsPointer)
{
    Arbiter arb(4);
    EXPECT_EQ(arb.grantSingle(3), 3);
    EXPECT_EQ(arb.pointer(), 0u); // (3 + 1) % 4
}

TEST(Arbiter, PickSparseMatchesDensePick)
{
    // The router arbitrates over sparse candidate lists; they must
    // pick exactly what the dense pick() picks and leave the pointer
    // in the same place, round after round.
    Rng rng(11);
    for (unsigned n : {1u, 5u, 6u, 30u}) {
        Arbiter dense(n);
        Arbiter sparse(n);
        for (int round = 0; round < 2000; ++round) {
            std::vector<std::int64_t> ranks(n, -1);
            std::vector<unsigned> idx;
            std::vector<std::int64_t> req;
            for (unsigned i = 0; i < n; ++i) {
                if (!rng.chance(0.4))
                    continue;
                // Few distinct ranks, so ties are common.
                ranks[i] = static_cast<std::int64_t>(rng.range(3));
                idx.push_back(i);
                req.push_back(ranks[i]);
            }
            ASSERT_EQ(sparse.pickSparse(idx, req), dense.pick(ranks))
                << "n " << n << " round " << round;
            ASSERT_EQ(sparse.pointer(), dense.pointer());
        }
    }
}

TEST(ArbiterDeath, GrantSingleOutOfRangePanics)
{
    Arbiter arb(4);
    EXPECT_DEATH(arb.grantSingle(4), "");
}

// ---- LPA (Figure 9) ---------------------------------------------------

namespace
{
OcorConfig
enabledCfg()
{
    OcorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

LpaInput
lockInput(const OcorConfig &cfg, unsigned rtr, std::uint64_t prog)
{
    LpaInput in;
    in.valid = true;
    in.fields = makePriority(cfg, PriorityClass::LockTry, rtr, prog);
    return in;
}

LpaInput
normalInput()
{
    LpaInput in;
    in.valid = true;
    return in;
}
} // namespace

TEST(Lpa, EmptyInputsYieldNothing)
{
    auto cfg = enabledCfg();
    LpaResult r = lpaSelect(cfg, {});
    EXPECT_EQ(r.indexMask, 0u);
    EXPECT_EQ(r.highestLevel, 0u);
}

TEST(Lpa, OnlyNormalPacketsTieAtLevelZero)
{
    auto cfg = enabledCfg();
    LpaResult r = lpaSelect(cfg, {normalInput(), normalInput()});
    EXPECT_EQ(r.highestLevel, 0u);
    EXPECT_EQ(r.indexMask, 0b11u);
}

TEST(Lpa, FigureNineExample)
{
    // Three packets with priorities high, high, middle: the LPA
    // reports the highest level and the index mask "110"-style
    // (inputs 0 and 1).
    auto cfg = enabledCfg();
    auto high1 = lockInput(cfg, 1, 0);
    auto high2 = lockInput(cfg, 1, 0);
    auto mid = lockInput(cfg, 64, 0);
    LpaResult r = lpaSelect(cfg, {high1, high2, mid});
    EXPECT_EQ(r.indexMask, 0b011u);
    EXPECT_NE(r.highestLevel, 0u);
}

TEST(Lpa, CheckBitGatesPriority)
{
    // A lock packet always beats normal packets.
    auto cfg = enabledCfg();
    LpaResult r = lpaSelect(cfg, {normalInput(),
                                  lockInput(cfg, 128, 100)});
    EXPECT_EQ(r.indexMask, 0b10u);
}

TEST(Lpa, SlowProgressFiltersFirst)
{
    auto cfg = enabledCfg();
    auto fast_urgent = lockInput(cfg, 1, 100); // fast thread, low RTR
    auto slow_relaxed = lockInput(cfg, 128, 0); // slow thread
    LpaResult r = lpaSelect(cfg, {fast_urgent, slow_relaxed});
    EXPECT_EQ(r.indexMask, 0b10u) << "slow progress must win";
}

TEST(Lpa, DisabledTreatsAllAsNormal)
{
    OcorConfig off; // disabled
    OcorConfig on = enabledCfg();
    LpaInput a;
    a.valid = true;
    a.fields = makePriority(on, PriorityClass::LockTry, 1, 0);
    LpaResult r = lpaSelect(off, {a, normalInput()});
    EXPECT_EQ(r.highestLevel, 0u);
    EXPECT_EQ(r.indexMask, 0b11u);
}

TEST(Lpa, InvalidInputsExcluded)
{
    auto cfg = enabledCfg();
    LpaInput invalid;
    invalid.valid = false;
    invalid.fields = makePriority(cfg, PriorityClass::LockTry, 1, 0);
    LpaResult r = lpaSelect(cfg, {invalid, lockInput(cfg, 128, 0)});
    EXPECT_EQ(r.indexMask, 0b10u);
}

TEST(Lpa, AgreesWithPriorityRankOrdering)
{
    // Property: for any pair of candidate packets, the LPA winner is
    // the one priorityRank() ranks higher (or both on a tie).
    auto cfg = enabledCfg();
    std::vector<PriorityFields> fields;
    for (unsigned rtr : {1u, 17u, 64u, 128u})
        for (std::uint64_t prog : {0u, 5u, 40u})
            fields.push_back(
                makePriority(cfg, PriorityClass::LockTry, rtr, prog));
    fields.push_back(makePriority(cfg, PriorityClass::Wakeup, 1, 0));
    fields.push_back(PriorityFields{}); // normal

    for (const auto &fa : fields) {
        for (const auto &fb : fields) {
            LpaInput a{true, fa}, b{true, fb};
            LpaResult r = lpaSelect(cfg, {a, b});
            auto ra = priorityRank(cfg, fa);
            auto rb = priorityRank(cfg, fb);
            if (ra > rb)
                EXPECT_EQ(r.indexMask, 0b01u);
            else if (rb > ra)
                EXPECT_EQ(r.indexMask, 0b10u);
            else
                EXPECT_EQ(r.indexMask, 0b11u);
        }
    }
}

/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache_array.hh"

using namespace ocor;

TEST(CacheArray, MissThenHit)
{
    CacheArray c(4, 2, 128);
    EXPECT_EQ(c.find(0x100), nullptr);
    CacheLine *slot = c.victimFor(0x100);
    ASSERT_NE(slot, nullptr);
    c.fill(slot, 0x100, CoherState::S, 1);
    CacheLine *hit = c.find(0x100);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->state, CoherState::S);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, VictimPrefersInvalid)
{
    CacheArray c(1, 2, 128);
    c.fill(c.victimFor(0x000), 0x000, CoherState::M, 1);
    CacheLine *v = c.victimFor(0x080);
    EXPECT_FALSE(v->valid) << "must pick the empty way first";
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(1, 2, 128); // one set, two ways
    c.fill(c.victimFor(0x000), 0x000, CoherState::S, 1);
    c.fill(c.victimFor(0x080), 0x080, CoherState::S, 2);
    // Touch the older line so the newer becomes LRU.
    c.touch(c.find(0x000), 3);
    CacheLine *v = c.victimFor(0x100);
    ASSERT_TRUE(v->valid);
    EXPECT_EQ(v->addr, 0x080u);
}

TEST(CacheArray, SetIndexingSeparatesSets)
{
    CacheArray c(4, 1, 128);
    // Lines 0x000, 0x080, 0x100, 0x180 map to sets 0..3.
    for (Addr a : {0x000u, 0x080u, 0x100u, 0x180u})
        c.fill(c.victimFor(a), a, CoherState::S, 1);
    EXPECT_EQ(c.validCount(), 4u);
    for (Addr a : {0x000u, 0x080u, 0x100u, 0x180u})
        EXPECT_NE(c.find(a), nullptr);
}

TEST(CacheArray, ConflictWithinSet)
{
    CacheArray c(4, 1, 128);
    // 0x000 and 0x200 share set 0 in a 4-set cache.
    c.fill(c.victimFor(0x000), 0x000, CoherState::S, 1);
    CacheLine *v = c.victimFor(0x200);
    ASSERT_TRUE(v->valid);
    EXPECT_EQ(v->addr, 0x000u);
}

TEST(CacheArray, StateNames)
{
    EXPECT_STREQ(coherStateName(CoherState::I), "I");
    EXPECT_STREQ(coherStateName(CoherState::S), "S");
    EXPECT_STREQ(coherStateName(CoherState::E), "E");
    EXPECT_STREQ(coherStateName(CoherState::O), "O");
    EXPECT_STREQ(coherStateName(CoherState::M), "M");
}

TEST(CacheArrayDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(CacheArray(3, 2, 128), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(CacheArray(4, 0, 128), ::testing::ExitedWithCode(1),
                "ways");
}

TEST(CacheArray, CapacityBounded)
{
    CacheArray c(4, 2, 128);
    for (Addr line = 0; line < 64; ++line) {
        Addr a = line * 128;
        if (!c.find(a))
            c.fill(c.victimFor(a), a, CoherState::S, line);
    }
    EXPECT_EQ(c.validCount(), 8u) << "sets x ways bound";
}

TEST(CacheArray, UntouchedSetsAllocateNothing)
{
    CacheArray c(512, 16, 128);
    EXPECT_EQ(c.rowsAllocated(), 0u);
    for (Addr line = 0; line < 2048; ++line)
        EXPECT_EQ(c.find(line * 128), nullptr);
    EXPECT_EQ(c.rowsAllocated(), 0u) << "find must not allocate";
    EXPECT_EQ(c.validCount(), 0u);

    c.fill(c.victimFor(0x000), 0x000, CoherState::S, 1);
    EXPECT_EQ(c.rowsAllocated(), 1u);
    // Same set (set 0 repeats every 512 lines): no new row.
    c.fill(c.victimFor(512 * 128), 512 * 128, CoherState::S, 2);
    EXPECT_EQ(c.rowsAllocated(), 1u);
    // A miss in an untouched set still allocates nothing.
    EXPECT_EQ(c.find(0x080), nullptr);
    EXPECT_EQ(c.rowsAllocated(), 1u);
    c.victimFor(0x080);
    EXPECT_EQ(c.rowsAllocated(), 2u);
}

namespace
{

/** The dense array the sparse one replaced: every set's row exists
 * from construction; same victim rule (first invalid, else LRU). */
struct DenseArray
{
    unsigned sets, ways;
    std::vector<CacheLine> lines;

    DenseArray(unsigned s, unsigned w)
        : sets(s), ways(w), lines(static_cast<std::size_t>(s) * w)
    {}

    unsigned setOf(Addr a) const { return (a / 128) & (sets - 1); }

    /** Way index of @p a in its set, or -1 on a miss. */
    int
    find(Addr a) const
    {
        const unsigned s = setOf(a);
        for (unsigned w = 0; w < ways; ++w) {
            const CacheLine &l = lines[s * ways + w];
            if (l.valid && l.addr == a)
                return static_cast<int>(w);
        }
        return -1;
    }

    unsigned
    victimFor(Addr a) const
    {
        const unsigned s = setOf(a);
        int lru = -1;
        for (unsigned w = 0; w < ways; ++w) {
            const CacheLine &l = lines[s * ways + w];
            if (!l.valid)
                return w;
            if (lru < 0 || l.lastUse < lines[s * ways + lru].lastUse)
                lru = static_cast<int>(w);
        }
        return static_cast<unsigned>(lru);
    }

    CacheLine &at(Addr a, unsigned w) { return lines[setOf(a) * ways + w]; }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const CacheLine &l : lines)
            n += l.valid ? 1 : 0;
        return n;
    }
};

void
expectSameLine(const CacheLine &got, const CacheLine &want, int step)
{
    EXPECT_EQ(got.addr, want.addr) << "step " << step;
    EXPECT_EQ(got.state, want.state) << "step " << step;
    EXPECT_EQ(got.valid, want.valid) << "step " << step;
    EXPECT_EQ(got.lastUse, want.lastUse) << "step " << step;
}

/**
 * Drive the sparse array and the dense reference with the same
 * random find / victimFor / fill / touch / invalidate sequence and
 * compare every answer. A slot is compared by its way within the
 * set: a freshly allocated row's first victim is its way 0, and rows
 * never move, so way = slot - (that first slot).
 */
void
lockstep(unsigned sets, unsigned ways, std::uint64_t seed)
{
    SCOPED_TRACE(std::to_string(sets) + "x" + std::to_string(ways));
    CacheArray sparse(sets, ways, 128);
    DenseArray dense(sets, ways);
    std::vector<CacheLine *> rowBase(sets, nullptr);
    Rng rng(seed);

    // Lines from a few sets only, with more tags than ways, so
    // conflicts and LRU evictions happen and most sets stay cold.
    const unsigned hot = std::min(sets, 6u);
    std::vector<unsigned> hotSets;
    for (unsigned i = 0; i < hot; ++i)
        hotSets.push_back(static_cast<unsigned>(rng.next() % sets));
    const auto randomLine = [&] {
        const Addr set = hotSets[rng.next() % hot];
        const Addr tag = rng.next() % (2 * ways + 1);
        return (tag * sets + set) * 128;
    };
    const auto wayOf = [&](Addr a, const CacheLine *slot) {
        const CacheLine *base = rowBase[dense.setOf(a)];
        EXPECT_NE(base, nullptr);
        return static_cast<int>(slot - base);
    };

    std::uint64_t tick = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr a = randomLine();
        ++tick;
        switch (rng.next() % 5) {
          case 0: { // lookup
            const CacheLine *hit = sparse.find(a);
            const int want = dense.find(a);
            ASSERT_EQ(hit != nullptr, want >= 0) << "step " << step;
            if (hit) {
                EXPECT_EQ(wayOf(a, hit), want) << "step " << step;
            }
            break;
          }
          case 1: // victim choice alone (the caller may not fill)
          case 2: { // victim choice, then install
            const unsigned rowsBefore = sparse.rowsAllocated();
            CacheLine *slot = sparse.victimFor(a);
            if (sparse.rowsAllocated() != rowsBefore)
                rowBase[dense.setOf(a)] = slot;
            const unsigned want = dense.victimFor(a);
            ASSERT_EQ(wayOf(a, slot), static_cast<int>(want))
                << "step " << step;
            expectSameLine(*slot, dense.at(a, want), step);
            if (dense.find(a) >= 0)
                break; // callers only fill on a miss
            const auto st = static_cast<CoherState>(rng.next() % 5);
            sparse.fill(slot, a, st, tick);
            CacheLine &ref = dense.at(a, want);
            ref.addr = a;
            ref.state = st;
            ref.lastUse = tick;
            ref.valid = true;
            break;
          }
          case 3: { // hit: LRU touch
            CacheLine *hit = sparse.find(a);
            const int want = dense.find(a);
            if (hit && want >= 0) {
                sparse.touch(hit, tick);
                dense.at(a, want).lastUse = tick;
            }
            break;
          }
          default: { // invalidation, as the L1 does on Inv/upgrade
            CacheLine *hit = sparse.find(a);
            const int want = dense.find(a);
            if (hit && want >= 0) {
                hit->valid = false;
                hit->state = CoherState::I;
                dense.at(a, want).valid = false;
                dense.at(a, want).state = CoherState::I;
            }
            break;
          }
        }
        ASSERT_EQ(sparse.validCount(), dense.validCount())
            << "step " << step;
    }
    EXPECT_LE(sparse.rowsAllocated(), hot);
}

} // namespace

TEST(CacheArray, SparseMatchesDenseReferenceOneSet)
{
    lockstep(1, 4, 11);
}

TEST(CacheArray, SparseMatchesDenseReferenceFourSets)
{
    lockstep(4, 2, 12);
}

TEST(CacheArray, SparseMatchesDenseReferenceL2Geometry)
{
    lockstep(512, 16, 13);
}

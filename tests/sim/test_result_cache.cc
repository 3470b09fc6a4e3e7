/**
 * @file
 * Unit tests for the experiment result cache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/result_cache.hh"
#include "temp_path.hh"

using namespace ocor;

namespace
{

class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testTempPath(".tsv");
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    RunMetrics
    sampleMetrics()
    {
        RunMetrics m;
        m.roiFinish = 12345;
        m.threads = 16;
        ThreadCounters c;
        c.computeCycles = 1000;
        c.csCycles = 200;
        c.blockedHeldCycles = 300;
        c.blockedIdleCycles = 400;
        c.acquisitions = 48;
        c.spinWins = 40;
        c.sleepWins = 8;
        c.retries = 99;
        c.sleeps = 8;
        m.perThread.push_back(c);
        m.packetsInjected = 777;
        m.flitsInjected = 3000;
        m.lockPacketsInjected = 111;
        m.avgPacketLatency = 31.5;
        m.avgLockPacketLatency = 20.25;
        m.avgDataPacketLatency = 40.75;
        m.p50PacketLatency = 28.0;
        m.p95PacketLatency = 55.5;
        m.p99PacketLatency = 80.125;
        m.p50LockHandover = 140.0;
        m.p95LockHandover = 300.0;
        m.p99LockHandover = 444.5;
        return m;
    }

    CacheKey
    sampleKey(bool ocor = false)
    {
        CacheKey k;
        k.benchmark = "testprog";
        k.threads = 16;
        k.ocorEnabled = ocor;
        k.iterations = 4;
        k.seed = 9;
        return k;
    }

    std::string path_;
};

} // namespace

TEST_F(ResultCacheTest, MissOnEmptyCache)
{
    ResultCache cache(path_);
    EXPECT_FALSE(cache.lookup(sampleKey()).has_value());
}

TEST_F(ResultCacheTest, StoreThenLookupRoundTrips)
{
    ResultCache cache(path_);
    RunMetrics m = sampleMetrics();
    cache.store(sampleKey(), m);
    auto hit = cache.lookup(sampleKey());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->roiFinish, m.roiFinish);
    EXPECT_EQ(hit->threads, m.threads);
    EXPECT_EQ(hit->totalCoh(), m.totalCoh());
    EXPECT_EQ(hit->totalAcquisitions(), m.totalAcquisitions());
    EXPECT_EQ(hit->totalSpinWins(), m.totalSpinWins());
    EXPECT_EQ(hit->packetsInjected, m.packetsInjected);
    EXPECT_DOUBLE_EQ(hit->avgLockPacketLatency,
                     m.avgLockPacketLatency);
    EXPECT_DOUBLE_EQ(hit->p50PacketLatency, m.p50PacketLatency);
    EXPECT_DOUBLE_EQ(hit->p95PacketLatency, m.p95PacketLatency);
    EXPECT_DOUBLE_EQ(hit->p99PacketLatency, m.p99PacketLatency);
    EXPECT_DOUBLE_EQ(hit->p50LockHandover, m.p50LockHandover);
    EXPECT_DOUBLE_EQ(hit->p95LockHandover, m.p95LockHandover);
    EXPECT_DOUBLE_EQ(hit->p99LockHandover, m.p99LockHandover);
    // Derived percentages survive the round trip.
    EXPECT_NEAR(hit->cohPct(), m.cohPct(), 1e-9);
    EXPECT_NEAR(hit->spinWinPct(), m.spinWinPct(), 1e-9);
}

TEST_F(ResultCacheTest, PrePercentileSchemaLinesAreMisses)
{
    // Grow the on-disk schema, don't break on old files: a cache line
    // written before the percentile columns existed fails to parse
    // and is treated as a miss (the run is redone, not corrupted).
    {
        ResultCache cache(path_);
        cache.store(sampleKey(), sampleMetrics());
        cache.flush();
    }
    // Fake a legacy (headerless, CRC-less) file whose row predates
    // the percentile columns: strip the v2 header, the CRC stamp and
    // the last 6 columns.
    std::ifstream in(path_);
    std::string header, line;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_EQ(header, std::string(ResultCache::headerLine()));
    ASSERT_TRUE(std::getline(in, line));
    in.close();
    line.erase(0, line.find('\t') + 1); // CRC stamp
    for (int i = 0; i < 6; ++i)
        line.erase(line.find_last_of('\t'));
    std::ofstream out(path_, std::ios::trunc);
    out << line << '\n';
    out.close();

    ResultCache reopened(path_);
    EXPECT_FALSE(reopened.lookup(sampleKey()).has_value());
}

TEST_F(ResultCacheTest, KeysAreDiscriminating)
{
    ResultCache cache(path_);
    cache.store(sampleKey(false), sampleMetrics());
    EXPECT_FALSE(cache.lookup(sampleKey(true)).has_value());

    CacheKey other = sampleKey(false);
    other.threads = 32;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = sampleKey(false);
    other.seed = 10;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = sampleKey(false);
    other.rtrLevels = 4;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = sampleKey(false);
    other.ruleMask = 0x7;
    EXPECT_FALSE(cache.lookup(other).has_value());
}

TEST_F(ResultCacheTest, BenchmarkPrefixesDoNotCollide)
{
    // "can" must not match a line stored for "canneal"-like names.
    ResultCache cache(path_);
    CacheKey a = sampleKey();
    a.benchmark = "can";
    CacheKey b = sampleKey();
    b.benchmark = "canx";
    RunMetrics m = sampleMetrics();
    m.roiFinish = 1;
    cache.store(b, m);
    EXPECT_FALSE(cache.lookup(a).has_value());
}

TEST_F(ResultCacheTest, MultipleEntriesCoexist)
{
    ResultCache cache(path_);
    for (unsigned t : {4u, 16u, 32u, 64u}) {
        CacheKey k = sampleKey();
        k.threads = t;
        RunMetrics m = sampleMetrics();
        m.roiFinish = t * 100;
        cache.store(k, m);
    }
    for (unsigned t : {4u, 16u, 32u, 64u}) {
        CacheKey k = sampleKey();
        k.threads = t;
        auto hit = cache.lookup(k);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->roiFinish, t * 100);
    }
}

TEST_F(ResultCacheTest, ConcurrentGetSimulatesEachKeyOnce)
{
    // 8 threads all hammer the same 4 configurations (2 profiles x
    // {base, OCOR}); in-flight dedup must collapse the 32 calls to
    // exactly 4 simulations, and every caller must see the result.
    ResultCache cache(path_);
    const std::vector<BenchmarkProfile> profiles = {
        profileByName("imag"), profileByName("ferret")};
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = 3;

    const unsigned kHammerThreads = 8;
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kHammerThreads; ++i) {
        threads.emplace_back([&] {
            for (const auto &p : profiles) {
                for (bool ocor : {false, true}) {
                    RunMetrics m = cache.get(p, exp, ocor);
                    EXPECT_GT(m.roiFinish, 0u);
                    EXPECT_EQ(m.threads, 4u);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(cache.simulationsRun(), 4u);

    cache.flush();
    // The journal must hold exactly one uncorrupted row per key
    // (plus the format header).
    std::ifstream in(path_);
    ASSERT_TRUE(in.is_open());
    std::string line;
    unsigned header = 0, rows = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#')
            ++header;
        else
            ++rows;
    }
    EXPECT_EQ(header, 1u);
    EXPECT_EQ(rows, 4u);
    ResultCache fresh(path_);
    for (const auto &p : profiles) {
        for (bool ocor : {false, true}) {
            auto hit = fresh.lookup(makeCacheKey(p, exp, ocor));
            ASSERT_TRUE(hit.has_value())
                << p.name << (ocor ? " ocor" : " base");
            EXPECT_GT(hit->roiFinish, 0u);
        }
    }
}

TEST_F(ResultCacheTest, GetMemoizesAcrossInstances)
{
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = 7;
    BenchmarkProfile p = profileByName("can");
    RunMetrics first;
    {
        ResultCache cache(path_);
        first = cache.get(p, exp, true);
        EXPECT_EQ(cache.simulationsRun(), 1u);
    } // destructor flushes the batched row
    ResultCache cache2(path_);
    RunMetrics again = cache2.get(p, exp, true);
    EXPECT_EQ(cache2.simulationsRun(), 0u); // pure disk hit
    EXPECT_EQ(again.roiFinish, first.roiFinish);
    EXPECT_EQ(again.totalCoh(), first.totalCoh());
}

TEST_F(ResultCacheTest, MakeCacheKeyCapturesOcorOverride)
{
    BenchmarkProfile profile;
    profile.name = "p";
    ExperimentConfig exp;
    exp.ocorOverrideSet = true;
    exp.ocorOverride.numRtrLevels = 16;
    exp.ocorOverride.ruleWakeupLast = false;
    CacheKey k = makeCacheKey(profile, exp, true);
    EXPECT_EQ(k.rtrLevels, 16u);
    EXPECT_EQ(k.ruleMask & 8u, 0u);
    EXPECT_TRUE(k.ocorEnabled);
}

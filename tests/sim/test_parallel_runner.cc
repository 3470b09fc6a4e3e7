/**
 * @file
 * Tests for the parallel experiment engine: the headline property is
 * that fanning a suite across worker threads is bit-identical to
 * running it serially (the simulator shares no mutable state between
 * runs), so parallelism can never change a figure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"
#include "temp_path.hh"

using namespace ocor;

namespace
{

ExperimentConfig
tinyExp(std::uint64_t seed)
{
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = seed;
    return exp;
}

std::vector<BenchmarkProfile>
tinyProfiles()
{
    return {profileByName("imag"), profileByName("ferret"),
            profileByName("botss")};
}

/** Field-by-field equality, exact doubles included: "bit-identical"
 * is the contract, not "statistically close". */
void
expectIdentical(const RunMetrics &a, const RunMetrics &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.roiFinish, b.roiFinish);
    EXPECT_EQ(a.threads, b.threads);
    ASSERT_EQ(a.perThread.size(), b.perThread.size());
    for (std::size_t t = 0; t < a.perThread.size(); ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        const ThreadCounters &x = a.perThread[t];
        const ThreadCounters &y = b.perThread[t];
        EXPECT_EQ(x.computeCycles, y.computeCycles);
        EXPECT_EQ(x.csCycles, y.csCycles);
        EXPECT_EQ(x.blockedHeldCycles, y.blockedHeldCycles);
        EXPECT_EQ(x.blockedIdleCycles, y.blockedIdleCycles);
        EXPECT_EQ(x.acquisitions, y.acquisitions);
        EXPECT_EQ(x.spinWins, y.spinWins);
        EXPECT_EQ(x.sleepWins, y.sleepWins);
        EXPECT_EQ(x.retries, y.retries);
        EXPECT_EQ(x.sleeps, y.sleeps);
    }
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.lockPacketsInjected, b.lockPacketsInjected);
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
    EXPECT_EQ(a.avgLockPacketLatency, b.avgLockPacketLatency);
    EXPECT_EQ(a.avgDataPacketLatency, b.avgDataPacketLatency);
    EXPECT_EQ(a.p50PacketLatency, b.p50PacketLatency);
    EXPECT_EQ(a.p95PacketLatency, b.p95PacketLatency);
    EXPECT_EQ(a.p99PacketLatency, b.p99PacketLatency);
    EXPECT_EQ(a.p50LockHandover, b.p50LockHandover);
    EXPECT_EQ(a.p95LockHandover, b.p95LockHandover);
    EXPECT_EQ(a.p99LockHandover, b.p99LockHandover);
    EXPECT_EQ(a.hangDetected, b.hangDetected);
}

} // namespace

TEST(ParallelRunner, SuiteBitIdenticalToSerial)
{
    std::vector<BenchmarkProfile> profiles = tinyProfiles();
    for (std::uint64_t seed : {3ull, 11ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ExperimentConfig exp = tinyExp(seed);
        std::vector<BenchmarkResult> serial =
            runSuite(profiles, exp);
        std::vector<BenchmarkResult> par =
            runSuiteParallel(profiles, exp, 4);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(par[i].name, serial[i].name);
            expectIdentical(par[i].base, serial[i].base,
                            serial[i].name + " base");
            expectIdentical(par[i].ocor, serial[i].ocor,
                            serial[i].name + " ocor");
        }
    }
}

TEST(ParallelRunner, ResultsComeBackInRequestOrder)
{
    // Heterogeneous batch: big runs first, tiny runs last. The tiny
    // runs finish first; results must still land at their request
    // index.
    std::vector<RunRequest> reqs;
    for (std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
        RunRequest r;
        r.profile = profileByName("can");
        r.exp = tinyExp(seed);
        r.exp.iterationsOverride = seed == 5 ? 6 : 1;
        reqs.push_back(r);
    }
    ParallelRunner runner(4);
    std::vector<RunMetrics> out = runner.run(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        RunMetrics ref = runOnce(reqs[i].profile, reqs[i].exp,
                                 reqs[i].ocorEnabled);
        expectIdentical(out[i], ref,
                        "request " + std::to_string(i));
    }
}

TEST(ParallelRunner, RunTimingAndPoolStatsAccumulate)
{
    ParallelRunner runner(2);
    std::vector<BenchmarkProfile> profiles = tinyProfiles();
    runner.runSuite(profiles, tinyExp(3));

    // 3 profiles x {base, ocor} = 6 timed runs.
    EXPECT_EQ(runner.runsExecuted(), 6u);
    SampleStat rs = runner.runSeconds();
    EXPECT_EQ(rs.count(), 6u);
    EXPECT_GT(rs.max(), 0.0);
    EXPECT_GE(runner.pool().tasksExecuted(), 6u);
    EXPECT_GT(runner.pool().totalBusyNs(), 0u);
    // Utilization is a fraction of jobs x wall; with a generous wall
    // estimate it must land in (0, 1].
    double util = runner.utilization(rs.sum());
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);

    StatsRegistry reg;
    runner.registerStats(reg);
    EXPECT_TRUE(reg.has("runner.pool.size"));
    EXPECT_TRUE(reg.has("runner.pool.worker0.busy_ns"));
    EXPECT_TRUE(reg.has("runner.pool.worker1.busy_ns"));
    EXPECT_EQ(reg.scalar("runner.pool.size"), 2.0);
    EXPECT_EQ(reg.scalar("runner.runs"), 6.0);
    // Per-worker busy time sums to the pool total.
    EXPECT_DOUBLE_EQ(reg.scalar("runner.pool.worker0.busy_ns")
                         + reg.scalar("runner.pool.worker1.busy_ns"),
                     reg.scalar("runner.pool.busy_ns_total"));
}

TEST(ParallelRunner, SharedCacheDeduplicatesAcrossRequests)
{
    std::string path = testTempPath(".tsv");
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        ParallelRunner runner(4, &cache);
        std::vector<BenchmarkProfile> profiles = tinyProfiles();
        ExperimentConfig exp = tinyExp(3);
        runner.runSuite(profiles, exp);
        // 3 profiles x {base, ocor} = 6 distinct configurations.
        EXPECT_EQ(cache.simulationsRun(), 6u);
        // A second identical sweep is served from memory.
        std::vector<BenchmarkResult> again =
            runner.runSuite(profiles, exp);
        EXPECT_EQ(cache.simulationsRun(), 6u);
        EXPECT_EQ(again.size(), 3u);
    }
    std::remove(path.c_str());
}

/**
 * @file
 * The benchmark's own tests, at a tiny size (16 threads, 1 iteration):
 * its direct build-programs-then-Simulator path and its traced-run
 * options must reproduce runOnce() field for field.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "workloads.hh"

using namespace ocor;
using namespace perfbench;

namespace
{

ExperimentConfig
tinyExp()
{
    ExperimentConfig exp;
    exp.threads = 16;
    exp.seed = 3;
    exp.iterationsOverride = 1;
    return exp;
}

RunMetrics
runDirect(const BenchmarkProfile &p, const ExperimentConfig &exp,
          bool ocor_enabled, bool traced)
{
    SimInput in = makeSimInput(p, exp, ocor_enabled);
    if (traced)
        in.opts = tracedOptions();
    Simulator sim(in.cfg, std::move(in.programs), in.bg, in.opts);
    return sim.run();
}

} // namespace

TEST(Perfbench, DirectPathMatchesRunOnce)
{
    for (const char *name : {"can", "md"})
        for (bool oc : {false, true}) {
            const BenchmarkProfile p = profileByName(name);
            EXPECT_EQ(fingerprint(runDirect(p, tinyExp(), oc, false)),
                      fingerprint(runOnce(p, tinyExp(), oc)))
                << name << (oc ? " ocor" : " base");
        }
}

TEST(Perfbench, LockstormDirectPathMatchesRunOnce)
{
    const BenchmarkProfile p = lockstormProfile();
    EXPECT_EQ(p.traffic.rate, 0.0);
    EXPECT_EQ(fingerprint(runDirect(p, tinyExp(), false, false)),
              fingerprint(runOnce(p, tinyExp(), false)));
}

TEST(Perfbench, TracedOptionsLeaveMetricsFieldIdentical)
{
    const BenchmarkProfile p = profileByName("can");
    for (bool oc : {false, true}) {
        const RunMetrics plain = runOnce(p, tinyExp(), oc);
        const RunMetrics traced = runDirect(p, tinyExp(), oc, true);
        EXPECT_EQ(fingerprint(plain), fingerprint(traced));
        // The ledger's cause split is the only addition, and it
        // partitions the COH cycles exactly.
        std::uint64_t causes = 0;
        for (const ThreadCounters &c : traced.perThread)
            causes += c.cohTransferCycles + c.cohArbitrationCycles +
                      c.cohBackoffCycles + c.cohSleepCycles +
                      c.cohGrantGapCycles;
        EXPECT_EQ(causes, traced.totalCoh());
    }
}

TEST(Perfbench, FingerprintSeesEveryCounter)
{
    const RunMetrics m = runOnce(profileByName("can"), tinyExp(), false);
    RunMetrics changed = m;
    changed.perThread.back().retries += 1;
    EXPECT_NE(fingerprint(m), fingerprint(changed));
    changed = m;
    changed.avgPacketLatency = std::nextafter(m.avgPacketLatency, 1e9);
    EXPECT_NE(fingerprint(m), fingerprint(changed));
}

TEST(Perfbench, JournalImageIsWhatTheJournalReturns)
{
    const BenchmarkProfile p = profileByName("can");
    const RunMetrics m = runOnce(p, tinyExp(), true);
    const std::string path =
        ::testing::TempDir() + "perfbench_journal_image.tsv";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        cache.store(makeCacheKey(p, tinyExp(), true), m);
    }
    ResultCache reopened(path);
    const auto got = reopened.lookup(makeCacheKey(p, tinyExp(), true));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(fingerprint(*got), fingerprint(journalImage(m)));
    std::remove(path.c_str());
}

/**
 * @file
 * Task-supervision tests (DESIGN.md §12): deadlines cancel runs
 * cooperatively, degraded sweeps complete with per-request outcomes,
 * and supervision off (or satisfied) is bit-identical to the
 * unsupervised engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/parallel_runner.hh"
#include "temp_path.hh"
#include "workload/benchmarks.hh"

using namespace ocor;

namespace
{

ExperimentConfig
smallExp(unsigned threads = 4, unsigned iters = 2)
{
    ExperimentConfig exp;
    exp.threads = threads;
    exp.iterationsOverride = iters;
    exp.seed = 3;
    return exp;
}

/** A policy whose deadline no real simulation can meet. */
SupervisePolicy
impossibleDeadline()
{
    SupervisePolicy p;
    p.deadlineSeconds = 1e-5;
    return p;
}

} // namespace

TEST(ParallelRunnerSupervisionTest, RunStatusNamesAreStable)
{
    EXPECT_STREQ(runStatusName(RunStatus::Ok), "ok");
    EXPECT_STREQ(runStatusName(RunStatus::TimedOut), "timed-out");
    EXPECT_STREQ(runStatusName(RunStatus::Failed), "failed");
}

TEST(ParallelRunnerSupervisionTest, DeadlineScalesWithRequestSize)
{
    ParallelRunner runner(1);
    SupervisePolicy p;
    p.deadlineSeconds = 2.0;
    runner.setSupervision(p);

    RunRequest req;
    req.profile = profileByName("ferret");
    req.exp = smallExp(16, 4); // the base configuration
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 2.0);

    req.exp = smallExp(32, 4); // 2x the threads -> 2x the budget
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 4.0);

    req.exp = smallExp(16, 8); // 2x the iterations -> 2x the budget
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 4.0);

    req.exp = smallExp(4, 1); // smaller than base: floored
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 2.0);

    SupervisePolicy off;
    runner.setSupervision(off);
    req.exp = smallExp(64, 20);
    EXPECT_DOUBLE_EQ(runner.deadlineFor(req), 0.0);
}

TEST(ParallelRunnerSupervisionTest, CancelledRunReportsCancelled)
{
    // A pre-fired token cancels at the first poll: the run winds
    // down with cancelled set instead of simulating to completion.
    CancelToken token;
    token.cancel();
    Simulator::Options opts;
    opts.cancel = &token;
    RunMetrics m =
        runOnce(profileByName("ferret"), smallExp(), false, opts);
    EXPECT_TRUE(m.cancelled);
    EXPECT_FALSE(m.hangDetected);

    RunMetrics full =
        runOnce(profileByName("ferret"), smallExp(), false);
    EXPECT_FALSE(full.cancelled);
    EXPECT_GT(full.roiFinish, m.roiFinish);
}

TEST(ParallelRunnerSupervisionTest, DeadlineMissDegradesGracefully)
{
    ParallelRunner runner(2);
    runner.setSupervision(impossibleDeadline());

    RunRequest req;
    req.profile = profileByName("ferret");
    req.exp = smallExp(16, 6);
    std::vector<RunMetrics> out = runner.run({req});

    // The sweep completed (no abort) with an empty placeholder.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].roiFinish, 0u);

    const auto outcomes = runner.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::TimedOut);
    EXPECT_FALSE(outcomes[0].detail.empty());
    EXPECT_EQ(runner.timeouts(), 1u);
    EXPECT_EQ(runner.failures(), 0u);
    EXPECT_EQ(runner.degradedRuns(), 1u);
    EXPECT_EQ(runner.runsExecuted(), 1u);
}

TEST(ParallelRunnerSupervisionTest, GenerousDeadlineIsBitIdentical)
{
    // Supervision that never fires must not perturb results: the
    // acceptance bar for turning it on in CI sweeps.
    const BenchmarkProfile profile = profileByName("ferret");
    const ExperimentConfig exp = smallExp();
    const RunMetrics reference = runOnce(profile, exp, true);

    ParallelRunner runner(2);
    SupervisePolicy p;
    p.deadlineSeconds = 300.0;
    runner.setSupervision(p);
    RunRequest req;
    req.profile = profile;
    req.exp = exp;
    req.ocorEnabled = true;
    std::vector<RunMetrics> out = runner.run({req});

    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].roiFinish, reference.roiFinish);
    EXPECT_EQ(out[0].totalCoh(), reference.totalCoh());
    EXPECT_EQ(out[0].packetsInjected, reference.packetsInjected);
    EXPECT_EQ(out[0].totalAcquisitions(),
              reference.totalAcquisitions());
    const auto outcomes = runner.outcomes();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(runner.degradedRuns(), 0u);
}

TEST(ParallelRunnerSupervisionTest, SupervisionOffMatchesSerial)
{
    // With no policy installed the runner is the plain parallel
    // engine: results equal the serial reference exactly.
    const BenchmarkProfile profile = profileByName("imag");
    const ExperimentConfig exp = smallExp();
    const RunMetrics reference = runOnce(profile, exp, false);

    ParallelRunner runner(2);
    RunRequest req;
    req.profile = profile;
    req.exp = exp;
    std::vector<RunMetrics> out = runner.run({req});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].roiFinish, reference.roiFinish);
    EXPECT_EQ(out[0].totalCoh(), reference.totalCoh());
    EXPECT_TRUE(runner.outcomes().empty());
}

TEST(ParallelRunnerSupervisionTest, CancelledResultsAreNeverCached)
{
    // A deadline abort must not poison the cache: the next attempt
    // re-simulates instead of recalling partial metrics.
    const std::string path = testTempPath(".tsv");
    std::remove(path.c_str());
    ResultCache cache(path);

    CancelToken token;
    token.cancel();
    Simulator::Options opts;
    opts.cancel = &token;
    RunMetrics cancelled =
        cache.get(profileByName("ferret"), smallExp(), false, opts);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(cache.size(), 0u);

    RunMetrics clean =
        cache.get(profileByName("ferret"), smallExp(), false);
    EXPECT_FALSE(clean.cancelled);
    EXPECT_GT(clean.roiFinish, cancelled.roiFinish);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.simulationsRun(), 2u);
    std::remove(path.c_str());
}

TEST(ParallelRunnerSupervisionTest, SupervisedStatsAreRegistered)
{
    ParallelRunner runner(1);
    StatsRegistry reg;
    runner.registerStats(reg);
    EXPECT_TRUE(reg.has("runner.timeouts"));
    EXPECT_TRUE(reg.has("runner.failures"));
    EXPECT_FALSE(reg.has("runner.retries"));
    EXPECT_FALSE(reg.has("runner.quarantined"));
    EXPECT_TRUE(reg.has("runner.degraded"));
    EXPECT_TRUE(reg.has("runner.pool.queue_depth"));
    EXPECT_EQ(reg.scalar("runner.timeouts"), 0.0);
    EXPECT_EQ(reg.scalar("runner.pool.queue_depth"), 0.0);
}

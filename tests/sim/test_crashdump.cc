/**
 * @file
 * Crash-capture and replay tests (DESIGN.md §12): repro lines round
 * trip through dump files, dumps written from signal context are
 * parsable, and a child process dying to SIGTERM leaves a dump whose
 * repro line pins the exact in-flight simulation.
 *
 * SIGTERM (not SIGSEGV) drives the child-death test: sanitizer
 * builds intercept SIGSEGV for their own reporting, while SIGTERM
 * reaches our handler everywhere.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/crashdump.hh"
#include "temp_path.hh"
#include "workload/benchmarks.hh"

using namespace ocor;

namespace
{

class CrashDumpTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testTempPath(".dump");
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    ExperimentConfig
    exp()
    {
        ExperimentConfig e;
        e.threads = 16;
        e.iterationsOverride = 3;
        e.seed = 42;
        return e;
    }

    std::string path_;
};

} // namespace

TEST_F(CrashDumpTest, ReproLineRoundTripsThroughDumpFile)
{
    const BenchmarkProfile profile = profileByName("ferret");
    const std::string line = crashdump::reproLine(profile, exp(),
                                                  true);
    {
        std::ofstream out(path_);
        out << crashdump::dumpHeader() << "\nsignal=SIGTERM\n"
            << line << "\n";
    }
    auto spec = crashdump::parseDump(path_);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->benchmark, "ferret");
    EXPECT_EQ(spec->threads, 16u);
    EXPECT_EQ(spec->iterations, 3u);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_TRUE(spec->ocorEnabled);
}

TEST_F(CrashDumpTest, ReproLineUsesProfileDefaultIterations)
{
    const BenchmarkProfile profile = profileByName("ferret");
    ExperimentConfig e = exp();
    e.iterationsOverride = 0; // profile default
    const std::string line =
        crashdump::reproLine(profile, e, false);
    EXPECT_NE(line.find("iters=" + std::to_string(
                            profile.workload.iterations)),
              std::string::npos);
}

TEST_F(CrashDumpTest, ParseRejectsNonDumps)
{
    EXPECT_FALSE(crashdump::parseDump("/nonexistent/x.dump")
                     .has_value());

    std::ofstream(path_) << "not a dump at all\n";
    EXPECT_FALSE(crashdump::parseDump(path_).has_value());

    // A dump whose crash hit outside any simulation has no repro
    // line: parse reports "nothing to replay", not garbage.
    std::ofstream(path_, std::ios::trunc)
        << crashdump::dumpHeader() << "\nsignal=SIGABRT\nruns=0\n";
    EXPECT_FALSE(crashdump::parseDump(path_).has_value());
}

TEST_F(CrashDumpTest, DumpNowCapturesInFlightSimulations)
{
    crashdump::install(path_);
    EXPECT_TRUE(crashdump::installed());
    EXPECT_EQ(std::string(crashdump::dumpPath()), path_);

    const BenchmarkProfile profile = profileByName("imag");
    {
        crashdump::RunScope scope(profile, exp(), true);
        ASSERT_TRUE(crashdump::dumpNow("TEST"));
    }
    auto spec = crashdump::parseDump(path_);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->benchmark, "imag");
    EXPECT_TRUE(spec->ocorEnabled);

    // After the scope closes the slot is released: a fresh dump
    // carries no repro line.
    ASSERT_TRUE(crashdump::dumpNow("TEST"));
    EXPECT_FALSE(crashdump::parseDump(path_).has_value());
}

TEST_F(CrashDumpTest, SigTermInChildLeavesReplayableDump)
{
    const BenchmarkProfile profile = profileByName("ferret");
    const ExperimentConfig e = exp();

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm the handler, mark a simulation in flight, die.
        crashdump::install(path_);
        crashdump::RunScope scope(profile, e, false);
        ::raise(SIGTERM);
        _exit(99); // not reached: the handler re-raises and dies
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    auto spec = crashdump::parseDump(path_);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->benchmark, "ferret");
    EXPECT_EQ(spec->threads, 16u);
    EXPECT_EQ(spec->iterations, 3u);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_FALSE(spec->ocorEnabled);

    // The dump replays deterministically: same config, same seed.
    RunMetrics a = runOnce(profileByName(spec->benchmark),
                           [&] {
                               ExperimentConfig r;
                               r.threads = spec->threads;
                               r.iterationsOverride =
                                   spec->iterations;
                               r.seed = spec->seed;
                               return r;
                           }(),
                           spec->ocorEnabled);
    RunMetrics b = runOnce(profile, e, false);
    EXPECT_EQ(a.roiFinish, b.roiFinish);
    EXPECT_EQ(a.totalCoh(), b.totalCoh());
}

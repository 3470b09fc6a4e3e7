/**
 * @file
 * Unit tests for the worker pool behind the parallel experiment
 * engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

using namespace ocor;

TEST(ThreadPool, RunReturnsValuesInSubmissionOrder)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.run([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, DestructorRunsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] {
                count.fetch_add(1, std::memory_order_relaxed);
            });
    } // join-on-destruction: every queued task still runs
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WorkersRunConcurrently)
{
    // Two tasks that can only both finish if they run on distinct
    // worker threads at the same time.
    ThreadPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    auto rendezvous = [&] {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [&] { return arrived == 2; });
        return arrived;
    };
    auto a = pool.run(rendezvous);
    auto b = pool.run(rendezvous);
    EXPECT_EQ(a.get(), 2);
    EXPECT_EQ(b.get(), 2);
}

TEST(ThreadPool, ExceptionsTravelThroughFuture)
{
    ThreadPool pool(1);
    auto fut = pool.run(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The worker survives the throwing task.
    EXPECT_EQ(pool.run([] { return 7; }).get(), 7);
}

TEST(ThreadPool, BusyTimeAndTaskCountsAccumulate)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.tasksExecuted(), 0u);
    EXPECT_EQ(pool.totalBusyNs(), 0u);

    std::vector<std::future<int>> futs;
    for (int i = 0; i < 16; ++i)
        futs.push_back(pool.run([] {
            // Enough work for steady_clock to register nonzero time.
            volatile std::uint64_t x = 0;
            for (std::uint64_t k = 0; k < 200000; ++k)
                x = x + k;
            return static_cast<int>(x);
        }));
    for (auto &f : futs)
        f.get();

    EXPECT_EQ(pool.tasksExecuted(), 16u);
    EXPECT_GT(pool.totalBusyNs(), 0u);
    // The total is exactly the sum of the per-worker counters.
    std::uint64_t sum = 0;
    for (unsigned w = 0; w < pool.size(); ++w)
        sum += pool.busyNs(w);
    EXPECT_EQ(sum, pool.totalBusyNs());
}

TEST(ThreadPool, DefaultConcurrencyHonorsEnv)
{
    ::setenv("OCOR_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultConcurrency(), 3u);
    ::setenv("OCOR_JOBS", "0", 1); // non-positive -> fall through
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
    ::unsetenv("OCOR_JOBS");
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
    ThreadPool pool(0); // 0 = defaultConcurrency()
    EXPECT_GE(pool.size(), 1u);
}

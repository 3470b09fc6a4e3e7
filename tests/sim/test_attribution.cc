/**
 * @file
 * Causal-attribution layer tests (DESIGN.md §14): the COH cause
 * ledger and the event-core wake profiler. The two hard promises enforced here are (1) the
 * instrumentation is invisible when off — field-exact metrics — and
 * stays result-neutral when on, and (2) the cause split is exact:
 * per thread and per lock, the five cause counters sum to the COH
 * cycles they refine, with nothing dropped or double-charged.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "os/lock_ledger.hh"
#include "sim/simulator.hh"
#include "sim/wake_profiler.hh"

using namespace ocor;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.seed = 11;
    return cfg;
}

std::vector<Program>
contendedPrograms(unsigned n, unsigned iters = 3)
{
    std::vector<Program> out;
    for (unsigned t = 0; t < n; ++t) {
        ProgramBuilder b;
        for (unsigned i = 0; i < iters; ++i)
            b.compute(100 + 37 * t).lock(0).compute(50).unlock(0);
        out.push_back(b.build());
    }
    return out;
}

RunMetrics
runWith(const SystemConfig &cfg, SimOptions opts,
        const BgTrafficConfig &bg = {}, unsigned iters = 3)
{
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, iters), bg,
                  opts);
    return sim.run();
}

/** Every field equal, including the COH cause counters. */
void
expectFieldExact(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.roiFinish, b.roiFinish);
    EXPECT_EQ(a.threads, b.threads);
    ASSERT_EQ(a.perThread.size(), b.perThread.size());
    for (std::size_t t = 0; t < a.perThread.size(); ++t) {
        const ThreadCounters &x = a.perThread[t];
        const ThreadCounters &y = b.perThread[t];
        EXPECT_EQ(x.computeCycles, y.computeCycles) << "thread " << t;
        EXPECT_EQ(x.csCycles, y.csCycles) << "thread " << t;
        EXPECT_EQ(x.blockedHeldCycles, y.blockedHeldCycles)
            << "thread " << t;
        EXPECT_EQ(x.blockedIdleCycles, y.blockedIdleCycles)
            << "thread " << t;
        EXPECT_EQ(x.acquisitions, y.acquisitions) << "thread " << t;
        EXPECT_EQ(x.spinWins, y.spinWins) << "thread " << t;
        EXPECT_EQ(x.sleepWins, y.sleepWins) << "thread " << t;
        EXPECT_EQ(x.retries, y.retries) << "thread " << t;
        EXPECT_EQ(x.sleeps, y.sleeps) << "thread " << t;
        EXPECT_EQ(x.cohTransferCycles, y.cohTransferCycles)
            << "thread " << t;
        EXPECT_EQ(x.cohArbitrationCycles, y.cohArbitrationCycles)
            << "thread " << t;
        EXPECT_EQ(x.cohBackoffCycles, y.cohBackoffCycles)
            << "thread " << t;
        EXPECT_EQ(x.cohSleepCycles, y.cohSleepCycles)
            << "thread " << t;
        EXPECT_EQ(x.cohGrantGapCycles, y.cohGrantGapCycles)
            << "thread " << t;
    }
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.lockPacketsInjected, b.lockPacketsInjected);
    EXPECT_EQ(a.fastpathPackets, b.fastpathPackets);
    EXPECT_EQ(a.windowsOpened, b.windowsOpened);
    EXPECT_EQ(a.windowsClosed, b.windowsClosed);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
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
    EXPECT_EQ(a.cancelled, b.cancelled);
}

/** Aggregate (non-cause) results equal: the ledger refines but never
 * changes what the simulation computes. */
void
expectAggregateExact(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.roiFinish, b.roiFinish);
    EXPECT_EQ(a.totalCompute(), b.totalCompute());
    EXPECT_EQ(a.totalCs(), b.totalCs());
    EXPECT_EQ(a.totalBlockedHeld(), b.totalBlockedHeld());
    EXPECT_EQ(a.totalCoh(), b.totalCoh());
    EXPECT_EQ(a.totalAcquisitions(), b.totalAcquisitions());
    EXPECT_EQ(a.totalSpinWins(), b.totalSpinWins());
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.lockPacketsInjected, b.lockPacketsInjected);
}

std::uint64_t
causeSum(const ThreadCounters &c)
{
    return c.cohTransferCycles + c.cohArbitrationCycles +
        c.cohBackoffCycles + c.cohSleepCycles + c.cohGrantGapCycles;
}

} // namespace

TEST(Attribution, LedgerOffIsFieldExactAndCauseFree)
{
    SystemConfig cfg = smallConfig();
    RunMetrics plain = runWith(cfg, {});
    RunMetrics again = runWith(cfg, {});
    expectFieldExact(plain, again);

    // Without the ledger the cause counters never move.
    for (const ThreadCounters &c : plain.perThread)
        EXPECT_EQ(causeSum(c), 0u);
}

TEST(Attribution, LedgerDoesNotChangeAggregateResults)
{
    SystemConfig cfg = smallConfig();
    RunMetrics plain = runWith(cfg, {});

    SimOptions opts;
    opts.cohLedger = true;
    RunMetrics ledgered = runWith(cfg, opts);
    expectAggregateExact(plain, ledgered);
}

TEST(Attribution, CausesSumExactlyToCohPerThreadAndPerLock)
{
    SystemConfig cfg = smallConfig();
    SimOptions opts;
    opts.cohLedger = true;
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, 3), {},
                  opts);
    RunMetrics m = sim.run();

    // Per thread: the five causes partition blockedIdleCycles.
    std::uint64_t total_coh = 0;
    for (std::size_t t = 0; t < m.perThread.size(); ++t) {
        const ThreadCounters &c = m.perThread[t];
        EXPECT_EQ(causeSum(c), c.blockedIdleCycles)
            << "thread " << t;
        total_coh += c.blockedIdleCycles;
    }
    EXPECT_GT(total_coh, 0u) << "workload was not contended";

    // Per lock: the ledger's cause cycles cover every COH cycle.
    const LockLedger *ledger = sim.ledger();
    ASSERT_NE(ledger, nullptr);
    EXPECT_EQ(ledger->totalCycles(), total_coh);
    std::uint64_t lock_total = 0;
    for (const auto &kv : ledger->locks()) {
        std::uint64_t per_lock = 0;
        for (std::size_t c = 0; c < kNumCohCauses; ++c)
            per_lock += kv.second.causeCycles[c];
        lock_total += per_lock;
        EXPECT_GT(kv.second.attempts, 0u);
        EXPECT_GE(kv.second.attempts, kv.second.grants);
    }
    EXPECT_EQ(lock_total, total_coh);

    // The contended phase exercises more than one cause (a sleepy
    // 4-thread convoy sees at least transfer + one waiting cause).
    unsigned active = 0;
    for (std::size_t c = 0; c < kNumCohCauses; ++c)
        active += ledger->totalCause(static_cast<CohCause>(c)) > 0;
    EXPECT_GE(active, 2u);
}

TEST(Attribution, LedgerMatchesUnderLegacyAndEventCores)
{
    // The accounting call sites differ (per-cycle vs frozen-span
    // batching), but the charge is the same; the split must agree
    // bit-for-bit across cores.
    SystemConfig cfg = smallConfig();
    SimOptions opts;
    opts.cohLedger = true;
    opts.core = SimCoreMode::Legacy;
    RunMetrics legacy = runWith(cfg, opts);
    opts.core = SimCoreMode::Event;
    RunMetrics event = runWith(cfg, opts);
    expectFieldExact(legacy, event);
}

TEST(Attribution, WakeProfilingIsFieldExactAndCountsWakes)
{
    SystemConfig cfg = smallConfig();
    RunMetrics plain = runWith(cfg, {});

    SimOptions opts;
    opts.wakeProfile = true;
    opts.core = SimCoreMode::Event;
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, 3), {},
                  opts);
    RunMetrics profiled = sim.run();
    expectFieldExact(plain, profiled);

    const WakeProfiler *wp = sim.wakeProfiler();
    ASSERT_NE(wp, nullptr);
    const WakeStats &ws = wp->stats();
    EXPECT_GT(ws.cyclesProfiled, 0u);
    std::uint64_t wakes = 0;
    for (unsigned g = 0; g < NumSystemGroups; ++g) {
        EXPECT_LE(ws.wasted[g], ws.wakes[g]) << simGroupName(g);
        // A group can't wake more often than cycles were processed.
        EXPECT_LE(ws.wakes[g], ws.cyclesProfiled) << simGroupName(g);
        wakes += ws.wakes[g];
    }
    EXPECT_GT(wakes, 0u);
    // Contended locking exercises the whole stack: cores, network
    // and lock clients all wake at least once.
    EXPECT_GT(ws.wakes[GCore], 0u);
    EXPECT_GT(ws.wakes[GNetwork], 0u);
    EXPECT_GT(ws.wakes[GQspin], 0u);
}

TEST(Attribution, WakeStatsMergeAddsFieldwise)
{
    WakeStats a, b;
    a.wakes[GCore] = 3;
    a.wasted[GNetwork] = 2;
    a.edges[GCore][GNetwork] = 5;
    a.netReasons[0] = 1;
    a.cyclesProfiled = 10;
    b.wakes[GCore] = 4;
    b.wasted[GNetwork] = 1;
    b.edges[GCore][GNetwork] = 7;
    b.netReasons[0] = 2;
    b.cyclesProfiled = 20;
    a.merge(b);
    EXPECT_EQ(a.wakes[GCore], 7u);
    EXPECT_EQ(a.wasted[GNetwork], 3u);
    EXPECT_EQ(a.edges[GCore][GNetwork], 12u);
    EXPECT_EQ(a.netReasons[0], 3u);
    EXPECT_EQ(a.cyclesProfiled, 30u);
}

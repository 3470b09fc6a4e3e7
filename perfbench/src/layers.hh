/**
 * @file
 * Per-layer counters gathered from outside the simulator, through
 * public accessors only: router/NI/link stats, L1/L2 stats, lock
 * manager stats, core stats, the Simulator's wall profile, wake
 * profiler and COH ledger, and the RunMetrics every run returns.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "os/lock_ledger.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/wake_profiler.hh"

#include "metric_set.hh"

namespace perfbench
{

/** Raw per-layer totals over every simulation of one run. */
struct LayerTotals
{
    // noc
    std::uint64_t flitsRouted = 0;
    std::uint64_t vaGrants = 0;
    std::uint64_t saGrants = 0;
    std::uint64_t saConflictLosses = 0;
    std::uint64_t linkFlits = 0;
    std::uint64_t packetsInjected = 0;
    std::uint64_t lockPacketsInjected = 0;
    std::uint64_t injectQueuePeak = 0;
    double packetLatencySum = 0.0; ///< mean x packets, per run
    std::uint64_t packetLatencyCount = 0;
    std::uint64_t packetLatencyOverflow = 0;
    std::uint64_t packetLatencySamples = 0; ///< histogram samples

    // mem
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1MshrRejects = 0;
    std::uint64_t l2GetS = 0;
    std::uint64_t l2GetM = 0;
    std::uint64_t l2InvsSent = 0;
    std::uint64_t l2MemReads = 0;
    std::uint64_t l2MemWrites = 0;

    // cpu
    std::uint64_t opsExecuted = 0;
    std::uint64_t bgAccesses = 0;
    std::uint64_t bgRejected = 0;
    std::uint64_t fgRetries = 0;

    // os (index 0 = base run, 1 = OCOR run)
    std::uint64_t lockTries = 0;
    std::uint64_t lockGrants = 0;
    std::uint64_t futexWaits = 0;
    std::uint64_t wakes = 0;
    std::array<std::uint64_t, 2> spinWins{};
    std::array<std::uint64_t, 2> sleeps{};
    std::uint64_t retries = 0;
    ocor::SampleStat handover;
    std::uint64_t handoverOverflow = 0;
    std::array<std::uint64_t, ocor::kNumCohCauses> coh{};

    // sim
    double constructSeconds = 0.0;
    double runSeconds = 0.0;
    double tickSeconds = 0.0;
    double accountSeconds = 0.0;
    double schedSeconds = 0.0;
    std::array<std::uint64_t, 2> cycles{};
    std::uint64_t cyclesProcessed = 0;
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t eventsScheduled = 0;
    ocor::WakeStats wake;

    /** What every run's RunMetrics carries (direct and harness). */
    void addMetrics(const ocor::RunMetrics &m, bool ocor_enabled);

    /** Component stats of a finished direct-path simulation. */
    void addSimulator(ocor::Simulator &sim);

    /** A host wall profile (direct run or harness aggregate). */
    void addWall(const ocor::WallProfile &w);

    /** Publish every per-layer noc/mem/cpu/os/sim metric. */
    void publish(MetricSet &out) const;
};

/** Pair-mean quality figures (Fig 11a/14b/11b) of @p pairs. */
void publishQuality(const std::vector<ocor::BenchmarkResult> &pairs,
                    MetricSet &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH

/**
 * @file
 * Run-level metrics: the measurements behind every figure and table
 * of the paper's evaluation, plus the execution-timeline recorder of
 * Figure 10.
 *
 * COH accounting follows Equation 1's decomposition: for every cycle
 * a thread spends blocked on a lock, the cycle is charged to
 * "predecessor critical sections" when the lock is held by someone,
 * and to competition overhead (COH) when the lock sits idle — idle
 * lock time under waiters is exactly the handover cost (retry gaps,
 * sleep-preparation, wakeup, packet latency) the paper attacks.
 */

#ifndef OCOR_SIM_METRICS_HH
#define OCOR_SIM_METRICS_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "os/pcb.hh"

namespace ocor
{

/** Aggregated result of one simulation run. */
struct RunMetrics
{
    Cycle roiFinish = 0;       ///< cycle the last thread finished
    unsigned threads = 0;

    std::vector<ThreadCounters> perThread;

    // Network aggregates.
    std::uint64_t packetsInjected = 0;
    std::uint64_t flitsInjected = 0;
    std::uint64_t lockPacketsInjected = 0;

    /** Always 0; the frozen perfbench fingerprint reads it. */
    std::uint64_t fastpathPackets = 0;
    /** Always 0; perfbench and the journal row layout read it. */
    std::uint64_t windowsOpened = 0;
    /** Always 0; perfbench and the journal row layout read it. */
    std::uint64_t windowsClosed = 0;
    /** Always 0; perfbench and the journal row layout read it. */
    std::uint64_t windowCycles = 0;
    double avgPacketLatency = 0.0;
    double avgLockPacketLatency = 0.0;
    double avgDataPacketLatency = 0.0;

    // Latency distribution tails (0 when no samples were taken).
    double p50PacketLatency = 0.0;
    double p95PacketLatency = 0.0;
    double p99PacketLatency = 0.0;

    // Release -> next-grant gap at the lock homes (handover latency).
    double p50LockHandover = 0.0;
    double p95LockHandover = 0.0;
    double p99LockHandover = 0.0;

    // Fault injection and recovery (all zero with faults disabled).
    std::uint64_t faultsInjected = 0;   ///< drops + corruptions + stalls
    std::uint64_t flitsDropped = 0;
    std::uint64_t flitsCorrupted = 0;
    std::uint64_t crcRejects = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicatesDropped = 0;
    std::uint64_t watchdogRecoveries = 0;
    std::uint64_t unrecoverable = 0;
    bool hangDetected = false;          ///< progress watchdog fired

    /** Cooperative cancellation (a supervision deadline) stopped the
     * run early. Cancelled metrics are partial: they are never
     * cached and never enter figure data. */
    bool cancelled = false;

    // --- sums over threads ------------------------------------------
    std::uint64_t totalCompute() const;
    std::uint64_t totalCs() const;
    std::uint64_t totalBlockedHeld() const;
    std::uint64_t totalCoh() const; ///< blocked-while-lock-idle cycles
    std::uint64_t totalBlocked() const;
    std::uint64_t totalAcquisitions() const;
    std::uint64_t totalSpinWins() const;
    std::uint64_t totalSleeps() const;

    // --- derived percentages (of thread-time = threads * roiFinish) -
    double cohPct() const;      ///< Fig 2 / Fig 14a COH share
    double csPct() const;       ///< Fig 2 / Fig 13 CS share
    double blockedPct() const;  ///< Fig 10 blocking share
    double spinWinPct() const;  ///< Fig 11b metric

    /** Lock-packet injection rate (packets/cycle): Fig 12a metric. */
    double csAccessRate() const;

    /** Packet injection rate per node (packets/cycle): Fig 12b. */
    double netUtilization(unsigned nodes) const;
};

/** Coarse activity classes for the Figure-10 execution profile. */
enum class SegClass : std::uint8_t
{
    Parallel, ///< concurrent computation (incl. memory stalls)
    Blocked,  ///< waiting to enter a critical section
    Cs,       ///< executing the critical section
    Done      ///< thread finished
};

/** Per-cycle thread-activity samples over a bounded horizon. */
class Timeline
{
  public:
    Timeline() = default;
    Timeline(unsigned threads, Cycle horizon);

    void record(ThreadId t, Cycle c, SegClass s);
    SegClass at(ThreadId t, Cycle c) const;

    bool enabled() const { return horizon_ > 0; }
    unsigned threads() const { return threads_; }
    Cycle horizon() const { return horizon_; }

    /** Fraction of (thread, cycle) samples in class @p s. */
    double fraction(SegClass s, Cycle upto = 0) const;

  private:
    unsigned threads_ = 0;
    Cycle horizon_ = 0;
    std::vector<std::uint8_t> samples_; ///< threads_ x horizon_
};

/** Classify a thread state into a timeline segment class. */
SegClass segClassOf(ThreadState s);

} // namespace ocor

#endif // OCOR_SIM_METRICS_HH

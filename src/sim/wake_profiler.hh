/**
 * @file
 * Wake-attribution profiler for the event-driven core.
 *
 * The event loop wakes component groups on their nextWake() cycles;
 * the ROADMAP's wake-coalescing item needs to know *which* groups
 * burn those wakes and whether the wakes do anything. The profiler
 * counts, per group: wakes (the group had a due component on a
 * processed cycle), *wasted* wakes (the group ticked but its
 * observable-progress signature did not change — e.g. the network
 * group woken by a link carrying only credits), and wake-reason
 * edges (when a group's scheduled wake moves, every group that
 * ticked that cycle gets edge credit — split credit when several
 * ticked, including self-rescheduling). For the network group the
 * first matching nextWake() clause is also recorded
 * (Network::wakeReason), since "any busy router wakes the whole
 * group" is exactly the behavior being attributed (DESIGN.md §14).
 *
 * Profiling is opt-in (SimOptions::wakeProfile or the process-wide
 * default) and purely observational: it never changes scheduling
 * decisions, so profiled runs stay bit-identical to unprofiled ones.
 */

#ifndef OCOR_SIM_WAKE_PROFILER_HH
#define OCOR_SIM_WAKE_PROFILER_HH

#include <array>
#include <cstdint>

#include "noc/network.hh"
#include "sim/system.hh"

namespace ocor
{

class StatsRegistry;
struct WallProfile;

/** Stable name of a System scheduling group (stats keys). */
const char *simGroupName(unsigned g);

/** Wake-attribution counters (one per profiled run; mergeable). */
struct WakeStats
{
    std::array<std::uint64_t, NumSystemGroups> wakes{};
    std::array<std::uint64_t, NumSystemGroups> wasted{};
    /** edges[from][to]: group @p to's wake moved on a cycle group
     * @p from ticked. */
    std::array<std::array<std::uint64_t, NumSystemGroups>,
               NumSystemGroups>
        edges{};
    std::array<std::uint64_t, kNumNetWakeReasons> netReasons{};
    std::uint64_t cyclesProfiled = 0;

    void merge(const WakeStats &o);
};

/** Per-run collector driven by System::tickEventProfiled and the
 * event loop's re-registration pass. */
class WakeProfiler
{
  public:
    /** Start a processed cycle: clears the ticked-group mask. */
    void
    beginCycle()
    {
        ticked_ = 0;
        ++stats_.cyclesProfiled;
    }

    /** Group @p g ticked; @p changed = its signature moved. */
    void
    noteWake(unsigned g, bool changed)
    {
        ticked_ |= 1u << g;
        ++stats_.wakes[g];
        if (!changed)
            ++stats_.wasted[g];
    }

    /** The network group was due for reason @p r. */
    void
    noteNetReason(NetWakeReason r)
    {
        ++stats_.netReasons[static_cast<std::size_t>(r)];
    }

    /** Group @p g's scheduled wake moved after this cycle: credit
     * every group that ticked this cycle with an edge into @p g. */
    void
    noteReschedule(unsigned g)
    {
        for (unsigned d = 0; d < NumSystemGroups; ++d)
            if (ticked_ & (1u << d))
                ++stats_.edges[d][g];
    }

    const WakeStats &stats() const { return stats_; }

  private:
    WakeStats stats_;
    unsigned ticked_ = 0;
};

/**
 * Process-global run aggregates. Benches execute simulations deep
 * inside the result cache / parallel runner where no Simulator
 * instance survives to stats-registration time, so every run()
 * folds its wall profile (and wake stats, when profiling) into
 * these; registerAggregateStats exposes them as "sim.wall.*" /
 * "sim.wake.*" read live at dump time. Thread-safe.
 */
void mergeRunAggregates(const WallProfile &wall,
                        const WakeStats *wake);

/** Aggregate readers (thread-safe copies). */
WallProfile aggregateWall();
WakeStats aggregateWake();
std::uint64_t aggregateRuns();
std::uint64_t aggregateWakeRuns();

/** Test hook: zero the process-global aggregates. */
void resetRunAggregates();

/**
 * Register the aggregates under "sim.wall.*", "sim.work.*" and
 * "sim.wake.*" (the tick/account/sched seconds only if a merged run
 * timed them, wake keys only if any profiled run has merged). Values
 * are read from the global aggregate at dump time.
 */
void registerAggregateStats(StatsRegistry &reg);

/** Register the work counters of @p wall under "sim.work.*":
 * routers_ticked, nis_ticked and <group>_ticked. @p wall must
 * outlive the registry use. */
void registerWorkStats(StatsRegistry &reg, const WallProfile *wall);

/** Register @p ws under "<prefix>.*" (per-run registries). @p ws
 * must outlive the registry use. */
void registerWakeStats(StatsRegistry &reg, const std::string &prefix,
                       const WakeStats *ws);

} // namespace ocor

#endif // OCOR_SIM_WAKE_PROFILER_HH

#include "sim/wake_profiler.hh"

#include <mutex>

#include "common/stats_registry.hh"
#include "sim/simulator.hh"

namespace ocor
{

const char *
simGroupName(unsigned g)
{
    switch (g) {
      case GNetwork: return "network";
      case GL1:      return "l1";
      case GL2:      return "l2";
      case GLockMgr: return "lockmgr";
      case GMc:      return "mc";
      case GQspin:   return "qspin";
      case GCore:    return "core";
      default:       return "?";
    }
}

void
WakeStats::merge(const WakeStats &o)
{
    for (unsigned g = 0; g < NumSystemGroups; ++g) {
        wakes[g] += o.wakes[g];
        wasted[g] += o.wasted[g];
        for (unsigned h = 0; h < NumSystemGroups; ++h)
            edges[g][h] += o.edges[g][h];
    }
    for (std::size_t r = 0; r < kNumNetWakeReasons; ++r)
        netReasons[r] += o.netReasons[r];
    cyclesProfiled += o.cyclesProfiled;
}

namespace
{

std::mutex g_agg_mu;
WallProfile g_agg_wall;
WakeStats g_agg_wake;
std::uint64_t g_agg_runs = 0;
std::uint64_t g_agg_wake_runs = 0;

} // namespace

void
mergeRunAggregates(const WallProfile &wall, const WakeStats *wake)
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    g_agg_wall.totalSeconds += wall.totalSeconds;
    g_agg_wall.tickSeconds += wall.tickSeconds;
    g_agg_wall.accountSeconds += wall.accountSeconds;
    g_agg_wall.schedSeconds += wall.schedSeconds;
    g_agg_wall.cycles += wall.cycles;
    g_agg_wall.cyclesProcessed += wall.cyclesProcessed;
    g_agg_wall.cyclesSkipped += wall.cyclesSkipped;
    g_agg_wall.eventsScheduled += wall.eventsScheduled;
    g_agg_wall.phasesTimed |= wall.phasesTimed;
    g_agg_wall.routersTicked += wall.routersTicked;
    g_agg_wall.nisTicked += wall.nisTicked;
    for (unsigned g = 0; g < NumSystemGroups; ++g)
        g_agg_wall.groupTicks[g] += wall.groupTicks[g];
    ++g_agg_runs;
    if (wake) {
        g_agg_wake.merge(*wake);
        ++g_agg_wake_runs;
    }
}

WallProfile
aggregateWall()
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    return g_agg_wall;
}

WakeStats
aggregateWake()
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    return g_agg_wake;
}

std::uint64_t
aggregateRuns()
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    return g_agg_runs;
}

std::uint64_t
aggregateWakeRuns()
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    return g_agg_wake_runs;
}

void
resetRunAggregates()
{
    std::lock_guard<std::mutex> lk(g_agg_mu);
    g_agg_wall = WallProfile{};
    g_agg_wake = WakeStats{};
    g_agg_runs = 0;
    g_agg_wake_runs = 0;
}

void
registerWakeStats(StatsRegistry &reg, const std::string &prefix,
                  const WakeStats *ws)
{
    reg.addScalar(prefix + ".cycles_profiled", &ws->cyclesProfiled);
    for (unsigned g = 0; g < NumSystemGroups; ++g) {
        const std::string base =
            prefix + "." + simGroupName(g);
        reg.addScalar(base + ".wakes", &ws->wakes[g]);
        reg.addScalar(base + ".wasted", &ws->wasted[g]);
        for (unsigned h = 0; h < NumSystemGroups; ++h)
            reg.addScalar(prefix + ".edge." + simGroupName(g) +
                              "." + simGroupName(h),
                          &ws->edges[g][h]);
    }
    for (std::size_t r = 0; r < kNumNetWakeReasons; ++r)
        reg.addScalar(
            prefix + ".net_reason." +
                netWakeReasonName(static_cast<NetWakeReason>(r)),
            &ws->netReasons[r]);
}

void
registerWorkStats(StatsRegistry &reg, const WallProfile *wall)
{
    reg.addScalar("sim.work.routers_ticked", &wall->routersTicked);
    reg.addScalar("sim.work.nis_ticked", &wall->nisTicked);
    for (unsigned g = 0; g < NumSystemGroups; ++g)
        reg.addScalar(std::string("sim.work.") + simGroupName(g) +
                          "_ticked",
                      &wall->groupTicks[g]);
}

void
registerAggregateStats(StatsRegistry &reg)
{
    // Everything reads the global aggregate at dump time, so stats
    // registered before a sweep report the sweep's final totals.
    auto wall = [](auto field) {
        return [field]() { return field(aggregateWall()); };
    };
    if (!reg.has("sim.wall.total_seconds")) {
        reg.addScalarFn("sim.wall.total_seconds",
                        wall([](const WallProfile &w) {
                            return w.totalSeconds;
                        }));
        if (aggregateWall().phasesTimed) {
            reg.addScalarFn("sim.wall.tick_seconds",
                            wall([](const WallProfile &w) {
                                return w.tickSeconds;
                            }));
            reg.addScalarFn("sim.wall.account_seconds",
                            wall([](const WallProfile &w) {
                                return w.accountSeconds;
                            }));
            reg.addScalarFn("sim.wall.sched_seconds",
                            wall([](const WallProfile &w) {
                                return w.schedSeconds;
                            }));
        }
        reg.addScalarFn("sim.wall.cycles",
                        wall([](const WallProfile &w) {
                            return static_cast<double>(w.cycles);
                        }));
        reg.addScalarFn("sim.wall.cycles_processed",
                        wall([](const WallProfile &w) {
                            return static_cast<double>(
                                w.cyclesProcessed);
                        }));
        reg.addScalarFn("sim.wall.cycles_skipped",
                        wall([](const WallProfile &w) {
                            return static_cast<double>(
                                w.cyclesSkipped);
                        }));
        reg.addScalarFn("sim.wall.events_scheduled",
                        wall([](const WallProfile &w) {
                            return static_cast<double>(
                                w.eventsScheduled);
                        }));
        reg.addScalarFn("sim.work.routers_ticked",
                        wall([](const WallProfile &w) {
                            return static_cast<double>(
                                w.routersTicked);
                        }));
        reg.addScalarFn("sim.work.nis_ticked",
                        wall([](const WallProfile &w) {
                            return static_cast<double>(w.nisTicked);
                        }));
        for (unsigned g = 0; g < NumSystemGroups; ++g)
            reg.addScalarFn(std::string("sim.work.") +
                                simGroupName(g) + "_ticked",
                            [g]() {
                                return static_cast<double>(
                                    aggregateWall().groupTicks[g]);
                            });
    }
    reg.addScalarFn("sim.wall.runs", []() {
        return static_cast<double>(aggregateRuns());
    });

    if (aggregateWakeRuns() == 0)
        return; // no profiled run: keep stats.json free of zeros
    if (reg.has("sim.wake.cycles_profiled"))
        return; // a live Simulator already registered its run's view
    reg.addScalarFn("sim.wake.runs", []() {
        return static_cast<double>(aggregateWakeRuns());
    });
    reg.addScalarFn("sim.wake.cycles_profiled", []() {
        return static_cast<double>(aggregateWake().cyclesProfiled);
    });
    for (unsigned g = 0; g < NumSystemGroups; ++g) {
        const std::string base =
            std::string("sim.wake.") + simGroupName(g);
        reg.addScalarFn(base + ".wakes", [g]() {
            return static_cast<double>(aggregateWake().wakes[g]);
        });
        reg.addScalarFn(base + ".wasted", [g]() {
            return static_cast<double>(aggregateWake().wasted[g]);
        });
        for (unsigned h = 0; h < NumSystemGroups; ++h)
            reg.addScalarFn(std::string("sim.wake.edge.") +
                                simGroupName(g) + "." +
                                simGroupName(h),
                            [g, h]() {
                                return static_cast<double>(
                                    aggregateWake().edges[g][h]);
                            });
    }
    for (std::size_t r = 0; r < kNumNetWakeReasons; ++r)
        reg.addScalarFn(
            std::string("sim.wake.net_reason.") +
                netWakeReasonName(static_cast<NetWakeReason>(r)),
            [r]() {
                return static_cast<double>(
                    aggregateWake().netReasons[r]);
            });
}

} // namespace ocor

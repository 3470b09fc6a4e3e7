/**
 * @file
 * End-to-end tests for the observability stack: event tracing from a
 * real simulated run, trace determinism (including traced runs racing
 * on a worker pool), tracing-off invariance of the metrics, interval
 * telemetry, wall-clock profiling and the System stats registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats_registry.hh"
#include "common/thread_pool.hh"
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

unsigned
countEv(const std::vector<TraceRecord> &recs, TraceEv ev)
{
    unsigned n = 0;
    for (const TraceRecord &r : recs)
        n += r.ev == ev;
    return n;
}

/** One traced run; returns its Chrome JSON export. */
std::string
tracedRunJson()
{
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("all");
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    sim.run();
    std::ostringstream os;
    sim.system().tracer()->exportChromeJson(os);
    return os.str();
}

} // namespace

TEST(Observability, TracedRunRecordsTheLockProtocol)
{
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("lock");
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    RunMetrics m = sim.run();

    Tracer *tr = sim.system().tracer();
    ASSERT_NE(tr, nullptr);
    std::vector<TraceRecord> recs = tr->snapshot();
    ASSERT_FALSE(recs.empty());

    // Lock-only tracing: every record is a lock-protocol event.
    for (const TraceRecord &r : recs)
        EXPECT_EQ(traceEvCat(r.ev), TraceCat::Lock);

    // Every critical section leaves a matched enter/exit pair.
    EXPECT_EQ(countEv(recs, TraceEv::CsEnter), m.totalAcquisitions());
    EXPECT_EQ(countEv(recs, TraceEv::CsExit), m.totalAcquisitions());
    EXPECT_EQ(countEv(recs, TraceEv::LockAcquireStart),
              m.totalAcquisitions());

    // Tries carry the RTR budget annotation (Section III's counter).
    bool saw_rtr = false;
    for (const TraceRecord &r : recs)
        if (r.ev == TraceEv::LockTrySent && r.a0 > 0)
            saw_rtr = true;
    EXPECT_TRUE(saw_rtr);

    // Contention on one word means ownership changed hands at least
    // once, with a measurable release-to-grant gap.
    unsigned handovers = 0;
    std::uint32_t max_gap = 0;
    for (const TraceRecord &r : recs)
        if (r.ev == TraceEv::LockHandover) {
            ++handovers;
            max_gap = std::max(max_gap, r.a1);
        }
    EXPECT_GT(handovers, 0u);
    EXPECT_GT(max_gap, 0u);

    // Cycle stamps never decrease (records are appended in order).
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].cycle, recs[i - 1].cycle);
}

TEST(Observability, TraceBytesIdenticalAcrossRunsAndWorkerPools)
{
    // Serial reference...
    const std::string serial = tracedRunJson();
    EXPECT_FALSE(serial.empty());

    // ...and the same traced configuration racing 4-wide on a pool
    // (the bench binaries' --jobs path). Per-System tracers mean host
    // scheduling can never leak into a trace.
    ThreadPool pool(4);
    std::vector<std::future<std::string>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(pool.run([] { return tracedRunJson(); }));
    for (auto &f : futs)
        EXPECT_EQ(f.get(), serial);
}

TEST(Observability, MetricsUnaffectedByTracingAndTelemetry)
{
    SystemConfig plain_cfg = smallConfig();
    Simulator plain(plain_cfg, contendedPrograms(4),
                    BgTrafficConfig{});
    RunMetrics a = plain.run();

    SystemConfig traced_cfg = smallConfig();
    traced_cfg.trace.categories = parseTraceCats("all");
    SimOptions opts;
    opts.telemetryInterval = 64;
    opts.profileWall = true;
    Simulator traced(traced_cfg, contendedPrograms(4),
                     BgTrafficConfig{}, opts);
    RunMetrics b = traced.run();

    EXPECT_EQ(a.roiFinish, b.roiFinish);
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
    EXPECT_EQ(a.p50PacketLatency, b.p50PacketLatency);
    EXPECT_EQ(a.p95PacketLatency, b.p95PacketLatency);
    EXPECT_EQ(a.p99PacketLatency, b.p99PacketLatency);
    EXPECT_EQ(a.p50LockHandover, b.p50LockHandover);
    EXPECT_EQ(a.p99LockHandover, b.p99LockHandover);
}

TEST(Observability, PercentilesPopulatedAndOrdered)
{
    SystemConfig cfg = smallConfig();
    Simulator sim(cfg, contendedPrograms(4, 5), BgTrafficConfig{});
    RunMetrics m = sim.run();

    EXPECT_GT(m.p50PacketLatency, 0.0);
    EXPECT_LE(m.p50PacketLatency, m.p95PacketLatency);
    EXPECT_LE(m.p95PacketLatency, m.p99PacketLatency);

    EXPECT_GT(m.p50LockHandover, 0.0);
    EXPECT_LE(m.p50LockHandover, m.p95LockHandover);
    EXPECT_LE(m.p95LockHandover, m.p99LockHandover);
}

TEST(Observability, TelemetrySamplesOnTheInterval)
{
    constexpr Cycle kInterval = 100;
    SystemConfig cfg = smallConfig();
    SimOptions opts;
    opts.telemetryInterval = kInterval;
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{}, opts);
    RunMetrics m = sim.run();

    const TelemetryRecorder &tel = sim.telemetry();
    EXPECT_TRUE(tel.enabled());
    ASSERT_GT(tel.points(), 0u);
    EXPECT_LE(tel.points(), m.roiFinish / kInterval + 1);

    // Every sample emits one row per router, per link and per thread.
    Network &net = sim.system().network();
    const std::size_t per_sample = net.mesh().numNodes()
        + net.numLinks() + sim.system().numThreads();
    EXPECT_EQ(tel.rows().size(), tel.points() * per_sample);

    for (const TelemetryRow &r : tel.rows()) {
        EXPECT_EQ(r.cycle % kInterval, 0u);
        EXPECT_GE(r.value, 0.0);
    }

    std::ostringstream os;
    tel.exportCsv(os);
    EXPECT_EQ(os.str().rfind("cycle,kind,index,value\n", 0), 0u);
}

TEST(Observability, WallProfileMeasuresTheRun)
{
    SystemConfig cfg = smallConfig();
    SimOptions opts;
    opts.profileWall = true;
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{}, opts);
    RunMetrics m = sim.run();

    const WallProfile &w = sim.wallProfile();
    EXPECT_EQ(w.cycles, m.roiFinish);
    EXPECT_GT(w.totalSeconds, 0.0);
    EXPECT_GT(w.tickSeconds, 0.0);
    EXPECT_GT(w.accountSeconds, 0.0);
    // Phase times are subsets of the whole-run time.
    EXPECT_LE(w.tickSeconds + w.accountSeconds,
              w.totalSeconds * 1.001);
}

TEST(Observability, PhaseSecondsExistOnlyWhenTimed)
{
    // A counter is populated or absent: the tick/account/sched split
    // is only measured under profileWall, so a plain run's stats dump
    // must not carry it as zeros, per run or in the process
    // aggregates. The always-measured keys are there either way.
    const char *phases[] = {"sim.wall.tick_seconds",
                            "sim.wall.account_seconds",
                            "sim.wall.sched_seconds"};
    auto dump = [](const StatsRegistry &reg) {
        std::ostringstream os;
        reg.dumpJson(os);
        return os.str();
    };
    resetRunAggregates();
    for (bool timed : {false, true}) {
        SCOPED_TRACE(timed ? "profileWall" : "plain");
        SimOptions opts;
        opts.profileWall = timed;
        Simulator sim(smallConfig(), contendedPrograms(4),
                      BgTrafficConfig{}, opts);
        sim.run();
        StatsRegistry run_reg;
        sim.registerStats(run_reg);
        StatsRegistry agg_reg;
        registerAggregateStats(agg_reg);
        for (const StatsRegistry *reg : {&run_reg, &agg_reg}) {
            const std::string json = dump(*reg);
            for (const char *key : phases) {
                EXPECT_EQ(reg->has(key), timed) << key;
                EXPECT_EQ(json.find(key) != std::string::npos, timed)
                    << key;
            }
            EXPECT_TRUE(reg->has("sim.wall.total_seconds"));
            EXPECT_TRUE(reg->has("sim.work.routers_ticked"));
        }
        if (timed) {
            EXPECT_GT(run_reg.scalar("sim.wall.tick_seconds"), 0.0);
        }
    }
    resetRunAggregates();
}

TEST(Observability, SystemRegistersHierarchicalStats)
{
    SystemConfig cfg = smallConfig();
    cfg.trace.categories = parseTraceCats("lock");
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    RunMetrics m = sim.run();

    StatsRegistry reg;
    sim.system().registerStats(reg);

    for (const char *name :
         {"system.net.packets_delivered", "system.net.packet_latency",
          "system.net.packet_latency_hist", "system.router0.sa_grants",
          "system.router3.flits_routed", "system.ni0.packets_injected",
          "system.lockmgr0.grants",
          "system.lockmgr0.handover_latency_hist",
          "system.thread0.acquisitions", "system.thread3.cs_cycles",
          "system.trace.emitted"})
        EXPECT_TRUE(reg.has(name)) << name;

    // Registered pointers reflect the run's live counters.
    EXPECT_EQ(reg.scalar("system.thread0.acquisitions"),
              static_cast<double>(m.perThread[0].acquisitions));
    EXPECT_GT(reg.scalar("system.trace.emitted"), 0.0);

    // The dump is one machine-readable JSON object and two dumps of
    // the same system are byte-identical.
    std::ostringstream x, y;
    reg.dumpJson(x);
    reg.dumpJson(y);
    EXPECT_EQ(x.str(), y.str());
    EXPECT_EQ(x.str().front(), '{');

    // The NoC has one fidelity: no analytic fast-path or window
    // counter in the dump, and no fastpath wake reason even with the
    // wake profiler publishing the other reasons.
    SimOptions opts;
    opts.wakeProfile = true;
    Simulator prof(smallConfig(), contendedPrograms(4),
                   BgTrafficConfig{}, opts);
    prof.run();
    StatsRegistry full;
    prof.registerStats(full);
    std::ostringstream z;
    full.dumpJson(z);
    EXPECT_TRUE(full.has("sim.wake.net_reason.router_busy"));
    for (const std::string &json : {x.str(), z.str()})
        for (const char *gone :
             {"net.fastpath_packets", "net.window.", "fastpath"})
            EXPECT_EQ(json.find(gone), std::string::npos) << gone;
}

/**
 * @file
 * Event-driven core equivalence tests (DESIGN.md §13).
 *
 * The event core exists purely for wall-clock speed: it must be
 * *bit-identical* to the legacy unconditional per-cycle loop. These
 * tests enforce that promise field-by-field over randomized
 * configurations (mesh size, thread count, OCOR on/off, background
 * traffic, fault seeds), byte-for-byte on trace
 * exports, and with every protocol checker armed. The ActiveSets
 * group checks the event core's bookkeeping white-box after every
 * processed cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/wake_profiler.hh"
#include "workload/synthetic.hh"

using namespace ocor;

namespace
{

std::vector<Program>
contendedPrograms(unsigned n, unsigned iters)
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
runWith(const SystemConfig &cfg, const BgTrafficConfig &bg,
        SimCoreMode core, unsigned iters = 3)
{
    SimOptions opts;
    opts.core = core;
    Simulator sim(cfg, contendedPrograms(cfg.numThreads, iters), bg,
                  opts);
    return sim.run();
}

/**
 * Assert two RunMetrics are field-exact: every integer counter equal,
 * every derived double bit-equal (both sides compute them from
 * identical integer state, so == is the right comparison — any drift
 * means the simulations diverged).
 */
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
    }
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.lockPacketsInjected, b.lockPacketsInjected);
    EXPECT_EQ(a.fastpathPackets, b.fastpathPackets);
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
    EXPECT_EQ(a.avgLockPacketLatency, b.avgLockPacketLatency);
    EXPECT_EQ(a.avgDataPacketLatency, b.avgDataPacketLatency);
    EXPECT_EQ(a.p50PacketLatency, b.p50PacketLatency);
    EXPECT_EQ(a.p95PacketLatency, b.p95PacketLatency);
    EXPECT_EQ(a.p99PacketLatency, b.p99PacketLatency);
    EXPECT_EQ(a.p50LockHandover, b.p50LockHandover);
    EXPECT_EQ(a.p95LockHandover, b.p95LockHandover);
    EXPECT_EQ(a.p99LockHandover, b.p99LockHandover);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.flitsDropped, b.flitsDropped);
    EXPECT_EQ(a.flitsCorrupted, b.flitsCorrupted);
    EXPECT_EQ(a.crcRejects, b.crcRejects);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.duplicatesDropped, b.duplicatesDropped);
    EXPECT_EQ(a.watchdogRecoveries, b.watchdogRecoveries);
    EXPECT_EQ(a.unrecoverable, b.unrecoverable);
    EXPECT_EQ(a.hangDetected, b.hangDetected);
    EXPECT_EQ(a.cancelled, b.cancelled);
}

struct ProfileInput
{
    SystemConfig cfg;
    std::vector<Program> programs;
    BgTrafficConfig bg;
};

/** A 16-thread OCOR system running @p profile for @p iterations
 * critical sections per thread. */
ProfileInput
profileInput(BenchmarkProfile profile, unsigned iterations)
{
    ExperimentConfig exp;
    exp.threads = 16;
    ProfileInput in;
    in.cfg = makeSystemConfig(exp, /*ocor_enabled=*/true);
    in.cfg.maxCycles = 4'000'000;
    SyntheticParams wl = profile.workload;
    wl.iterations = iterations;
    wl.lineBytes = in.cfg.mem.lineBytes;
    for (ThreadId t = 0; t < exp.threads; ++t)
        in.programs.push_back(buildSyntheticProgram(wl, exp.seed, t));
    in.bg = profile.traffic;
    return in;
}

/** "can" with background traffic off: only lock packets move. */
ProfileInput
lockStorm(unsigned iterations = 4)
{
    BenchmarkProfile p = profileByName("can");
    p.traffic.rate = 0.0;
    p.workload.meanGap = 500;
    return profileInput(p, iterations);
}

// ---- random mesh traffic, driven without a System ---------------------

struct Send
{
    Cycle at;
    NodeId src, dst;
    MsgType type;
};

/** @p count sends between random endpoints over [0, @p horizon),
 * ordered by cycle. */
std::vector<Send>
randomTraffic(unsigned nodes, unsigned count, Cycle horizon,
              std::uint64_t seed)
{
    static constexpr MsgType types[] = {MsgType::GetS, MsgType::Data,
                                        MsgType::LockTry, MsgType::Inv};
    std::mt19937_64 rng(seed);
    std::vector<Send> out;
    for (unsigned i = 0; i < count; ++i)
        out.push_back({rng() % horizon,
                       static_cast<NodeId>(rng() % nodes),
                       static_cast<NodeId>(rng() % nodes),
                       types[rng() % std::size(types)]});
    std::stable_sort(out.begin(), out.end(),
                     [](const Send &a, const Send &b) {
                         return a.at < b.at;
                     });
    return out;
}

/** Delivery log: (node, send index, eject cycle). */
using DeliveryLog = std::vector<std::tuple<NodeId, Addr, Cycle>>;

/**
 * Run @p traffic through a bare Network until it drains. Each
 * processed cycle ticks the network first and then sends, as the
 * System's slot order does. The event flavor jumps to the earlier of
 * nextWake() and the next send; @p check runs after every processed
 * cycle.
 */
template <class Check>
DeliveryLog
runTraffic(const MeshShape &mesh, const std::vector<Send> &traffic,
           bool event, Check &&check)
{
    NocParams params;
    OcorConfig ocor;
    ocor.enabled = true;
    Network net(mesh, params, ocor);
    DeliveryLog log;
    for (NodeId n = 0; n < mesh.numNodes(); ++n)
        net.setNodeSink(n, [&log, n](const PacketPtr &pkt, Cycle now) {
            log.emplace_back(n, pkt->addr, now);
        });
    std::size_t next = 0;
    for (Cycle now = 0; now < 1'000'000;) {
        if (event)
            net.tickEvent(now);
        else
            net.tick(now);
        for (; next < traffic.size() && traffic[next].at == now; ++next) {
            const Send &s = traffic[next];
            net.send(makePacket(s.type, s.src, s.dst, next), now);
        }
        check(net, now);
        if (::testing::Test::HasFatalFailure())
            break;
        if (next == traffic.size() && net.idle())
            break;
        if (!event) {
            ++now;
            continue;
        }
        Cycle w = net.nextWake(now);
        if (next < traffic.size())
            w = std::min(w, traffic[next].at);
        now = w;
    }
    EXPECT_EQ(log.size(), traffic.size());
    return log;
}

/** Meshes past 64 nodes, so the active sets span several words (the
 * System itself stops at 64 nodes: the L2 sharer bitmask). */
const MeshShape kWideMesh{12, 9};

// ---- white-box reference definitions ----------------------------------

/** Network::nextWake() as defined before the active sets: a full
 * scan of every router, link and NI. */
Cycle
referenceNextWake(Network &net, Cycle now)
{
    const unsigned nodes = net.mesh().numNodes();
    bool busy = false;
    for (NodeId n = 0; n < nodes; ++n)
        busy = busy || net.router(n).occupancy() > 0;
    for (unsigned l = 0; l < net.numLinks(); ++l)
        busy = busy || !net.link(l).idle();
    if (busy)
        return now + 1;
    Cycle w = neverCycle;
    for (NodeId n = 0; n < nodes; ++n)
        w = std::min(w, net.ni(n).nextWake(now));
    return w <= now ? now + 1 : w;
}

/** Network::wakeReason() by the same full scan. */
NetWakeReason
referenceWakeReason(Network &net, Cycle now)
{
    const unsigned nodes = net.mesh().numNodes();
    for (NodeId n = 0; n < nodes; ++n)
        if (net.router(n).occupancy() > 0)
            return NetWakeReason::RouterBusy;
    for (unsigned l = 0; l < net.numLinks(); ++l)
        if (!net.link(l).idle())
            return NetWakeReason::LinkBusy;
    Cycle w = neverCycle;
    for (NodeId n = 0; n < nodes; ++n)
        w = std::min(w, net.ni(n).nextWake(now));
    return w != neverCycle ? NetWakeReason::NiQueue
                           : NetWakeReason::Idle;
}

/** After a processed cycle: each set bit is exactly "not
 * quiescent", and the set-based queries match the full scans. */
void
checkActiveSets(Network &net, Cycle now)
{
    const unsigned nodes = net.mesh().numNodes();
    bool all_idle = true;
    for (NodeId n = 0; n < nodes; ++n) {
        ASSERT_EQ(net.activeRouters().contains(n),
                  !net.router(n).quiescent())
            << "router " << n << " cycle " << now;
        ASSERT_EQ(net.activeNis().contains(n), !net.ni(n).quiescent())
            << "NI " << n << " cycle " << now;
        all_idle = all_idle && net.router(n).occupancy() == 0 &&
                   net.ni(n).idle();
    }
    for (unsigned l = 0; l < net.numLinks(); ++l)
        all_idle = all_idle && net.link(l).idle();
    ASSERT_EQ(net.idle(), all_idle) << "cycle " << now;
    ASSERT_EQ(net.nextWake(now), referenceNextWake(net, now))
        << "cycle " << now;
    ASSERT_EQ(net.wakeReason(now), referenceWakeReason(net, now))
        << "cycle " << now;
}

/** ...and every cached component wake and group minimum equals the
 * live nextWake(). */
void
checkWakeCaches(System &sys, Cycle now)
{
    checkActiveSets(sys.network(), now);
    for (unsigned g = GL1; g < NumSystemGroups; ++g) {
        Cycle min = neverCycle;
        for (unsigned i = 0; i < sys.groupSize(g); ++i) {
            ASSERT_EQ(sys.cachedWake(g, i), sys.liveWake(g, i))
                << simGroupName(g) << i << " cycle " << now;
            min = std::min(min, sys.liveWake(g, i));
        }
        ASSERT_EQ(sys.cachedGroupWake(g), min)
            << simGroupName(g) << " cycle " << now;
        ASSERT_EQ(sys.componentWake(g, now), min);
    }
}

/**
 * Drive @p in through System::tickEvent the way the event loop does
 * (minus accounting, which never touches a component): process a
 * cycle, check, then jump to the earliest group wake, or to the next
 * cycle when @p skip is off (checker-armed runs). The legacy flavor
 * ticks every cycle and checks the Network's sets, which both tick
 * flavors keep exact. Returns the processed cycles.
 */
std::uint64_t
runChecked(ProfileInput in, bool event, bool skip = true)
{
    System sys(in.cfg, std::move(in.programs), in.bg);
    std::uint64_t processed = 0;
    for (Cycle now = 0; !sys.allFinished() && now < in.cfg.maxCycles;
         ++processed) {
        if (event) {
            sys.tickEvent(now);
            checkWakeCaches(sys, now);
        } else {
            sys.tick(now);
            checkActiveSets(sys.network(), now);
        }
        if (::testing::Test::HasFatalFailure())
            return processed;
        Cycle next = now + 1;
        if (event && skip) {
            next = neverCycle;
            for (unsigned g = 0; g < NumSystemGroups; ++g)
                next = std::min(next, sys.componentWake(g, now));
            next = std::max(next, now + 1);
        }
        now = next;
    }
    EXPECT_TRUE(sys.allFinished());
    return processed;
}

} // namespace

TEST(ActiveSets, ExactEveryCycleOnALockStorm)
{
    const std::uint64_t cycles = runChecked(lockStorm(), true);
    EXPECT_GT(cycles, 1000u);
    runChecked(lockStorm(2), true, /*skip=*/false);
}

TEST(ActiveSets, ExactEveryCycleWithBackgroundTraffic)
{
    BenchmarkProfile p = profileByName("can");
    p.workload.meanGap = 500;
    ASSERT_GT(p.traffic.rate, 0.0);
    runChecked(profileInput(p, 2), true);
}

TEST(ActiveSets, ExactEveryCycleUnderFaults)
{
    // Drops synthesize credits for the upstream agent, acks can leave
    // a source NI quiescent, and retransmission deadlines keep NIs
    // active with nothing on their links.
    ProfileInput in = lockStorm();
    in.cfg.fault.dropRate = 0.002;
    in.cfg.fault.corruptRate = 0.002;
    in.cfg.fault.jitterRate = 0.01;
    in.cfg.fault.retryTimeout = 512;
    runChecked(in, true);
}

TEST(ActiveSets, LegacyTickKeepsTheNetworkSetsExact)
{
    runChecked(lockStorm(2), false);
}

TEST(ActiveSets, ExactEveryCycleBeyond64Nodes)
{
    const auto traffic =
        randomTraffic(kWideMesh.numNodes(), 3000, 4000, 11);
    for (bool event : {true, false}) {
        SCOPED_TRACE(event ? "event" : "legacy");
        runTraffic(kWideMesh, traffic, event, checkActiveSets);
    }
}

TEST(ActiveSets, WorkCountersShowTheEventCoreTicksOnlyActiveWork)
{
    // The same lock storm under both cores: identical results, but
    // the legacy loop ticks every router, NI and component on every
    // cycle while the event core ticks a small fraction of them.
    auto run = [](SimCoreMode core) {
        ProfileInput in = lockStorm();
        SimOptions opts;
        opts.core = core;
        Simulator sim(in.cfg, std::move(in.programs), in.bg, opts);
        sim.run();
        StatsRegistry reg;
        sim.registerStats(reg);
        EXPECT_EQ(reg.scalar("sim.work.routers_ticked"),
                  static_cast<double>(sim.wallProfile().routersTicked));
        EXPECT_TRUE(reg.has("sim.work.nis_ticked"));
        for (unsigned g = 0; g < NumSystemGroups; ++g)
            EXPECT_TRUE(reg.has(std::string("sim.work.") +
                                simGroupName(g) + "_ticked"));
        return sim.wallProfile();
    };
    const WallProfile legacy = run(SimCoreMode::Legacy);
    const WallProfile event = run(SimCoreMode::Event);
    ASSERT_EQ(legacy.cycles, event.cycles);
    const std::uint64_t per_cycle = 16; // nodes, and threads
    EXPECT_EQ(legacy.routersTicked, legacy.cyclesProcessed * per_cycle);
    EXPECT_EQ(legacy.nisTicked, legacy.cyclesProcessed * per_cycle);
    EXPECT_EQ(legacy.groupTicks[GCore],
              legacy.cyclesProcessed * per_cycle);
    EXPECT_LT(event.routersTicked * 2, legacy.routersTicked);
    EXPECT_LT(event.nisTicked * 2, legacy.nisTicked);
    EXPECT_LE(event.groupTicks[GNetwork], legacy.groupTicks[GNetwork]);
    for (unsigned g = GL1; g < NumSystemGroups; ++g)
        EXPECT_LT(event.groupTicks[g] * 2, legacy.groupTicks[g])
            << simGroupName(g);
}

TEST(EventCore, BitIdenticalOnContendedWorkload)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    RunMetrics legacy = runWith(cfg, {}, SimCoreMode::Legacy);
    RunMetrics event = runWith(cfg, {}, SimCoreMode::Event);
    expectFieldExact(legacy, event);
}

TEST(EventCore, BitIdenticalWithBackgroundTraffic)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.seed = 9;
    BgTrafficConfig bg;
    bg.rate = 0.05;
    RunMetrics legacy = runWith(cfg, bg, SimCoreMode::Legacy);
    RunMetrics event = runWith(cfg, bg, SimCoreMode::Event);
    expectFieldExact(legacy, event);
    EXPECT_EQ(event.fastpathPackets, 0u);
}

TEST(EventCore, FuzzBitIdenticalAcrossConfigs)
{
    // Randomized sweep: the config space the two cores must agree on
    // everywhere, not just on hand-picked workloads. Fixed RNG seed
    // keeps the sweep reproducible; any failure names its config.
    std::mt19937_64 rng(0xC0FFEE);
    for (int i = 0; i < 8; ++i) {
        SystemConfig cfg;
        cfg.numThreads = (rng() % 2 == 0) ? 4 : 16;
        cfg.mesh = SystemConfig::meshFor(cfg.numThreads);
        cfg.maxCycles = 4'000'000;
        cfg.seed = 1 + rng() % 1000;
        cfg.ocor.enabled = rng() % 2 == 0;
        BgTrafficConfig bg;
        bg.rate = (rng() % 2 == 0) ? 0.0 : 0.02;
        if (rng() % 2 == 0) {
            cfg.fault.dropRate = 0.0005;
            cfg.fault.corruptRate = 0.0005;
            cfg.fault.seed = rng() % 100;
        }
        unsigned iters = 2 + rng() % 2;
        SCOPED_TRACE("config " + std::to_string(i) + ": threads="
                     + std::to_string(cfg.numThreads) + " seed="
                     + std::to_string(cfg.seed) + " ocor="
                     + std::to_string(cfg.ocor.enabled) + " bg="
                     + std::to_string(bg.rate) + " drop="
                     + std::to_string(cfg.fault.dropRate) + " iters="
                     + std::to_string(iters));
        RunMetrics legacy =
            runWith(cfg, bg, SimCoreMode::Legacy, iters);
        RunMetrics event =
            runWith(cfg, bg, SimCoreMode::Event, iters);
        expectFieldExact(legacy, event);
    }

    {
        // A background-free lock storm: the sparse regime, where the
        // active sets and wake caches skip almost everything.
        SCOPED_TRACE("lock storm");
        auto run = [](SimCoreMode core) {
            ProfileInput in = lockStorm();
            SimOptions opts;
            opts.core = core;
            return Simulator(in.cfg, std::move(in.programs), in.bg,
                             opts)
                .run();
        };
        expectFieldExact(run(SimCoreMode::Legacy),
                         run(SimCoreMode::Event));
    }

    {
        // Past 64 nodes the active sets span several words. The
        // System stops at 64 nodes, so this leg drives the Network
        // alone with the same random traffic under both walks.
        SCOPED_TRACE("12x9 mesh");
        const auto traffic =
            randomTraffic(kWideMesh.numNodes(), 4000, 3000, rng());
        auto none = [](Network &, Cycle) {};
        EXPECT_EQ(runTraffic(kWideMesh, traffic, false, none),
                  runTraffic(kWideMesh, traffic, true, none));
    }
}

TEST(EventCore, TraceExportByteIdentical)
{
    // The Chrome-JSON export includes per-event timestamps from every
    // traced component; byte equality means not one flit moved on a
    // different cycle in event mode.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.trace.categories = parseTraceCats("all");
    BgTrafficConfig bg;
    bg.rate = 0.02;

    auto traceOf = [&](SimCoreMode core) {
        SimOptions opts;
        opts.core = core;
        Simulator sim(cfg, contendedPrograms(4, 3), bg, opts);
        sim.run();
        std::ostringstream os;
        sim.system().tracer()->exportChromeJson(os);
        return os.str();
    };
    std::string legacy = traceOf(SimCoreMode::Legacy);
    std::string event = traceOf(SimCoreMode::Event);
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(legacy, event);
}

TEST(EventCore, CheckersPassAndMetricsMatchWhenArmed)
{
    // With every protocol checker armed the event loop may not skip
    // any cycle (checkers observe per-cycle state); the run must
    // still complete, violate nothing (checkers panic on violation)
    // and agree with an armed legacy run.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.check.checks = allChecksMask();
    BgTrafficConfig bg;
    bg.rate = 0.02;
    RunMetrics legacy = runWith(cfg, bg, SimCoreMode::Legacy);
    RunMetrics event = runWith(cfg, bg, SimCoreMode::Event);
    expectFieldExact(legacy, event);
}

TEST(EventCore, ResolvedModeDefaultsToEvent)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    Simulator sim(cfg, contendedPrograms(4, 1), {});
    // Auto resolves through the process default (Event unless the
    // environment overrides); the tests run without OCOR_SIM_CORE so
    // assert only that Auto resolved to *something* concrete.
    EXPECT_NE(sim.resolvedCoreMode(), SimCoreMode::Auto);
}

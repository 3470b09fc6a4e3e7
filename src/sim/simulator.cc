#include "sim/simulator.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "os/lock_ledger.hh"
#include "sim/crashdump.hh"
#include "sim/event_wheel.hh"
#include "sim/wake_profiler.hh"

namespace ocor
{

namespace
{

using sim_clock = std::chrono::steady_clock;

double
secondsSince(sim_clock::time_point a, sim_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Wheel ranks beyond the System component groups: pseudo events
 * that keep the watchdog/cancel poll stride and the telemetry
 * sampler firing on exactly the cycles the legacy loop visits. */
constexpr unsigned kTelemetryGroup = NumSystemGroups;
constexpr unsigned kStrideGroup = NumSystemGroups + 1;
constexpr unsigned kNumGroups = NumSystemGroups + 2;

/** The watchdog/cancel poll stride of the run loop (cycles with
 * (now & kStrideMask) == 0 are poll cycles). */
constexpr Cycle kStrideMask = 0x7ff;

std::atomic<SimCoreMode> g_default_core{SimCoreMode::Auto};
std::atomic<bool> g_default_wake_profile{false};

SimCoreMode
envCoreMode()
{
    static const SimCoreMode mode = [] {
        const char *s = std::getenv("OCOR_SIM_CORE");
        if (!s || !*s)
            return SimCoreMode::Auto;
        if (std::strcmp(s, "legacy") == 0)
            return SimCoreMode::Legacy;
        if (std::strcmp(s, "event") == 0)
            return SimCoreMode::Event;
        ocor_warn("OCOR_SIM_CORE=\"%s\" not recognized "
                  "(want \"legacy\" or \"event\"); ignoring", s);
        return SimCoreMode::Auto;
    }();
    return mode;
}

} // namespace

void
Simulator::setDefaultCoreMode(SimCoreMode m)
{
    g_default_core.store(m, std::memory_order_relaxed);
}

SimCoreMode
Simulator::defaultCoreMode()
{
    return g_default_core.load(std::memory_order_relaxed);
}

void
Simulator::setDefaultWakeProfile(bool on)
{
    g_default_wake_profile.store(on, std::memory_order_relaxed);
}

bool
Simulator::defaultWakeProfile()
{
    return g_default_wake_profile.load(std::memory_order_relaxed);
}

SimCoreMode
Simulator::resolvedCoreMode() const
{
    if (opts_.core != SimCoreMode::Auto)
        return opts_.core;
    if (SimCoreMode d = defaultCoreMode(); d != SimCoreMode::Auto)
        return d;
    if (SimCoreMode e = envCoreMode(); e != SimCoreMode::Auto)
        return e;
    return SimCoreMode::Event;
}

Simulator::Simulator(const SystemConfig &cfg,
                     std::vector<Program> programs,
                     const BgTrafficConfig &bg, Options opts)
    : cfg_(cfg), opts_(opts)
{
    system_ = std::make_unique<System>(cfg, std::move(programs), bg);
    live_.reserve(system_->numThreads());
    for (ThreadId t = 0; t < system_->numThreads(); ++t)
        live_.push_back(t);
    if (opts_.timelineHorizon > 0) {
        unsigned t = opts_.timelineThreads == 0
            ? system_->numThreads()
            : std::min(opts_.timelineThreads, system_->numThreads());
        timeline_ = Timeline(t, opts_.timelineHorizon);
    }
    if (opts_.telemetryInterval > 0)
        telemetry_ = TelemetryRecorder(opts_.telemetryInterval);
    if (opts_.cohLedger) {
        ledger_ =
            std::make_unique<LockLedger>(system_->numThreads());
        system_->setLedger(ledger_.get());
        budgetMemo_.resize(system_->numThreads());
    }
    if (opts_.wakeProfile || defaultWakeProfile())
        wakeProf_ = std::make_unique<WakeProfiler>();
    // Traced runs publish their ring to the crash-dump handler so a
    // fatal signal dumps the last events. One tracer at a time
    // (last wins) -- exactly the single-simulator tracing setup the
    // observability benches use.
    if (system_->tracer())
        crashdump::setTracer(system_->tracer());
}

Simulator::~Simulator()
{
    if (system_ && system_->tracer())
        crashdump::setTracer(nullptr);
}

Cycle
Simulator::tryBudget(ThreadId t, Addr lock)
{
    BudgetMemo &memo = budgetMemo_[t];
    if (memo.lock != lock) {
        const NodeId src = system_->pcb(t).node;
        const NodeId dst = system_->addressMap().homeOf(lock);
        const Network &net = system_->network();
        // Uncontended transit of a 1-flit lock packet: one cycle into
        // the mesh, the router pipeline plus link traversal per hop,
        // one cycle out (same-node traffic takes the 1-cycle
        // loopback).
        const Cycle transit = src == dst
            ? 1
            : 2 + net.mesh().hops(src, dst) *
                      (net.params().routerStages +
                       net.params().linkLatency);
        memo.lock = lock;
        memo.budget = 2 * transit + cfg_.os.homeLatency;
    }
    return memo.budget;
}

void
Simulator::chargeCohCauses(ThreadId t, Pcb &pcb, Addr lock,
                           Cycle from, Cycle to)
{
    auto charge = [&](CohCause cause, std::uint64_t n) {
        if (n == 0)
            return;
        switch (cause) {
          case CohCause::Transfer:
            pcb.counters.cohTransferCycles += n;
            break;
          case CohCause::Arbitration:
            pcb.counters.cohArbitrationCycles += n;
            break;
          case CohCause::Backoff:
            pcb.counters.cohBackoffCycles += n;
            break;
          case CohCause::Sleep:
            pcb.counters.cohSleepCycles += n;
            break;
          case CohCause::GrantGap:
            pcb.counters.cohGrantGapCycles += n;
            break;
          default:
            break;
        }
        ledger_->charge(lock, cause, n);
    };
    const QSpinlock &qs = system_->qspinlock(t);
    switch (pcb.state) {
      case ThreadState::Spinning:
        if (qs.tryInFlight()) {
            // The LockTry (or its verdict) is on the wire. Up to
            // the uncontended round-trip budget that is NoC
            // transfer; anything beyond is the home arbitrating
            // among competing tries (queueing, RTR ordering).
            const Cycle boundary =
                qs.trySentAt() + tryBudget(t, lock);
            const Cycle split =
                std::min(std::max(boundary, from), to);
            charge(CohCause::Transfer, split - from);
            charge(CohCause::Arbitration, to - split);
        } else {
            // No request outstanding: the client is sitting out a
            // local RTR retry backoff interval.
            charge(CohCause::Backoff, to - from);
        }
        break;
      case ThreadState::SleepPrep:
      case ThreadState::Sleeping:
        charge(CohCause::Sleep, to - from);
        break;
      case ThreadState::Waking:
        // Grant arrived while the thread sleeps: the lock is
        // reserved but unused until the wakeup completes.
        charge(CohCause::GrantGap, to - from);
        break;
      default:
        break;
    }
}

void
Simulator::accountThread(ThreadId t, Cycle now)
{
    Pcb &pcb = system_->pcb(t);
    switch (pcb.state) {
      case ThreadState::Running:
        ++pcb.counters.computeCycles;
        break;
      case ThreadState::InCS:
        ++pcb.counters.csCycles;
        break;
      case ThreadState::Spinning:
      case ThreadState::SleepPrep:
      case ThreadState::Sleeping:
      case ThreadState::Waking: {
        // Equation-1 decomposition: is the contended lock held
        // (a predecessor is inside the CS) or idle (pure
        // competition overhead)? The verdict is constant within a
        // cycle, so it is derived once per (lock, cycle).
        Addr lock = system_->qspinlock(t).currentLock();
        bool held;
        if (!holderMemo_.lookup(lock, held)) {
            held = system_->lockHolderInCs(lock);
            holderMemo_.insert(lock, held);
        }
        if (held) {
            ++pcb.counters.blockedHeldCycles;
        } else {
            ++pcb.counters.blockedIdleCycles;
            if (ledger_)
                chargeCohCauses(t, pcb, lock, now, now + 1);
        }
        break;
      }
      case ThreadState::Finished:
        break;
    }
}

void
Simulator::accountCycle(Cycle now)
{
    holderMemo_.reset();
    if (timeline_.enabled()) {
        // The timeline records Finished threads too (as Done), so
        // the recorder path walks every thread.
        const unsigned threads = system_->numThreads();
        for (ThreadId t = 0; t < threads; ++t) {
            accountThread(t, now);
            timeline_.record(t, now, segClassOf(system_->pcb(t).state));
        }
        return;
    }
    // Hot path: only threads that can still accrue cycles. Finished
    // is terminal, so a thread is unlinked the first cycle it is
    // seen Finished and never revisited.
    for (std::size_t i = 0; i < live_.size();) {
        ThreadId t = live_[i];
        accountThread(t, now);
        if (system_->pcb(t).state == ThreadState::Finished) {
            live_[i] = live_.back();
            live_.pop_back();
        } else {
            ++i;
        }
    }
}

std::uint64_t
Simulator::progressSignal() const
{
    // Strictly monotone while any thread retires work (compute or CS
    // cycles, lock acquisitions, completion) or the NoC delivers
    // packets; constant exactly when the run is wedged.
    std::uint64_t p = system_->network().stats().packetsDelivered;
    const unsigned threads = system_->numThreads();
    for (ThreadId t = 0; t < threads; ++t) {
        const Pcb &pcb = system_->pcb(t);
        p += pcb.counters.computeCycles + pcb.counters.csCycles
            + pcb.counters.acquisitions;
        if (pcb.state == ThreadState::Finished)
            ++p;
    }
    return p;
}

std::string
Simulator::diagnoseHang() const
{
    std::ostringstream os;
    const unsigned threads = system_->numThreads();
    for (ThreadId t = 0; t < threads; ++t) {
        const Pcb &pcb = system_->pcb(t);
        QSpinlock &qs = system_->qspinlock(t);
        os << "t" << t << ": " << threadStateName(pcb.state);
        if (qs.waiting() || qs.holding()) {
            Addr lock = qs.currentLock();
            NodeId home = system_->addressMap().homeOf(lock);
            const LockManager &lm = system_->lockManager(home);
            os << " lock=0x" << std::hex << lock << std::dec
               << " tryInFlight=" << qs.tryInFlight()
               << " | home" << home
               << " held=" << lm.heldNow(lock)
               << " holder=" << lm.holderOf(lock)
               << " queue=" << lm.queueLength(lock)
               << " pollers=" << lm.pollerCount(lock);
        }
        os << "\n";
    }
    return os.str();
}

bool
Simulator::processCycle(bool event, Tracer *tr, CheckerRegistry *ck,
                        Cycle &last_progress_at,
                        std::uint64_t &last_progress)
{
    auto tick_system = [&] {
        if (event && wakeProf_)
            system_->tickEventProfiled(now_, *wakeProf_);
        else if (event)
            system_->tickEvent(now_);
        else
            system_->tick(now_);
    };
    if (opts_.profileWall) {
        const auto t0 = sim_clock::now();
        tick_system();
        const auto t1 = sim_clock::now();
        accountCycle(now_);
        wall_.tickSeconds += secondsSince(t0, t1);
        wall_.accountSeconds += secondsSince(t1, sim_clock::now());
    } else {
        tick_system();
        accountCycle(now_);
    }
    ++wall_.cyclesProcessed;
    if (ck)
        ck->onCycleEnd(now_);
    if (telemetry_.due(now_)) {
        telemetry_.sample(now_, *system_);
        if (tr)
            tr->record(TraceCat::Sim, TraceEv::TelemetrySample,
                       now_, invalidNode, invalidThread, 0, 0,
                       static_cast<std::uint32_t>(
                           telemetry_.points()));
    }
    if (system_->allFinished())
        return true;
    // Cooperative cancellation (supervision deadline), polled at
    // the same coarse stride as the watchdog so the unsupervised
    // loop stays bit-identical and cheap.
    if (opts_.cancel && (now_ & kStrideMask) == 0 &&
        opts_.cancel->cancelled()) {
        cancelled_ = true;
        if (tr)
            tr->record(TraceCat::Sim, TraceEv::WatchdogFired,
                       now_, invalidNode, invalidThread, 0, 0,
                       1 /* a0 = cancelled, not wedged */);
        ocor_warn("run cancelled by supervisor at cycle %llu",
                  static_cast<unsigned long long>(now_));
        return true;
    }
    // Forward-progress watchdog, checked at a coarse stride so
    // the fault-free loop stays cheap.
    if (cfg_.progressWindow > 0 && (now_ & kStrideMask) == 0) {
        std::uint64_t p = progressSignal();
        if (p != last_progress) {
            last_progress = p;
            last_progress_at = now_;
        } else if (now_ - last_progress_at >= cfg_.progressWindow) {
            hangDetected_ = true;
            hangDiagnosis_ = diagnoseHang();
            if (tr)
                tr->record(TraceCat::Sim, TraceEv::WatchdogFired,
                           now_, invalidNode);
            ocor_warn("no forward progress for %llu cycles at "
                      "cycle %llu; failing fast\n%s",
                      static_cast<unsigned long long>(
                          now_ - last_progress_at),
                      static_cast<unsigned long long>(now_),
                      hangDiagnosis_.c_str());
            return true;
        }
    }
    return false;
}

void
Simulator::runLegacyLoop(Tracer *tr, CheckerRegistry *ck)
{
    Cycle last_progress_at = 0;
    std::uint64_t last_progress = 0;
    for (now_ = 0; now_ < cfg_.maxCycles; ++now_)
        if (processCycle(false, tr, ck, last_progress_at,
                         last_progress))
            break;
}

void
Simulator::accountSpan(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    // Exact per-cycle rows while the timeline recorder is within its
    // horizon; the counter batching below covers the rest.
    if (timeline_.enabled() && from < timeline_.horizon()) {
        const Cycle cap = std::min(to, timeline_.horizon());
        for (Cycle c = from; c < cap; ++c)
            accountCycle(c);
        from = cap;
        if (to <= from)
            return;
    }
    const std::uint64_t span = to - from;
    holderMemo_.reset();
    for (std::size_t i = 0; i < live_.size();) {
        ThreadId t = live_[i];
        Pcb &pcb = system_->pcb(t);
        switch (pcb.state) {
          case ThreadState::Running:
            pcb.counters.computeCycles += span;
            break;
          case ThreadState::InCS:
            pcb.counters.csCycles += span;
            break;
          case ThreadState::Spinning:
          case ThreadState::SleepPrep:
          case ThreadState::Sleeping:
          case ThreadState::Waking: {
            Addr lock = system_->qspinlock(t).currentLock();
            bool held;
            if (!holderMemo_.lookup(lock, held)) {
                held = system_->lockHolderInCs(lock);
                holderMemo_.insert(lock, held);
            }
            if (held) {
                pcb.counters.blockedHeldCycles += span;
            } else {
                pcb.counters.blockedIdleCycles += span;
                if (ledger_)
                    chargeCohCauses(t, pcb, lock, from, to);
            }
            break;
          }
          case ThreadState::Finished:
            // A thread only reaches Finished on a processed cycle
            // and is unlinked there; defensive no-charge.
            break;
        }
        if (pcb.state == ThreadState::Finished &&
            !timeline_.enabled()) {
            live_[i] = live_.back();
            live_.pop_back();
        } else {
            ++i;
        }
    }
}

void
Simulator::runEventLoop(Tracer *tr, CheckerRegistry *ck)
{
    // With a checker registry attached the end-of-cycle invariant
    // walk must run every cycle (its per-cycle verdicts — and thus
    // violation counts under a collecting handler — are observable),
    // so cycle skipping is off; the lazy per-component tick skipping
    // of tickEvent() still applies.
    const bool skipping = (ck == nullptr);
    const bool stride_active =
        cfg_.progressWindow > 0 || opts_.cancel != nullptr;

    EventWheel wheel;
    Cycle scheduled[kNumGroups];
    if (skipping) {
        // Seed every group due at cycle 0, like the legacy loop's
        // unconditional first tick (non-due ticks are no-ops).
        for (unsigned g = 0; g < kNumGroups; ++g) {
            scheduled[g] = 0;
            wheel.schedule(0, g);
        }
    }

    auto group_wake = [&](unsigned g) -> Cycle {
        if (g < NumSystemGroups)
            return system_->componentWake(g, now_);
        if (g == kTelemetryGroup)
            return telemetry_.nextDue();
        // Poll-stride pseudo event: the next (now & mask) == 0
        // cycle, so cancel/watchdog polls fire on the exact cycles
        // the legacy loop polls on.
        return stride_active
            ? ((now_ | kStrideMask) + 1)
            : neverCycle;
    };

    Cycle last_progress_at = 0;
    std::uint64_t last_progress = 0;
    now_ = 0;
    while (now_ < cfg_.maxCycles) {
        if (processCycle(true, tr, ck, last_progress_at,
                         last_progress))
            break;
        if (!skipping) {
            ++now_;
            continue;
        }

        const auto s0 =
            opts_.profileWall ? sim_clock::now() : sim_clock::time_point{};
        // Re-register every group whose wake moved. Value-equality
        // against scheduled[] doubles as the staleness test for
        // entries already in the wheel.
        for (unsigned g = 0; g < kNumGroups; ++g) {
            Cycle w = group_wake(g);
            if (w <= now_)
                w = now_ + 1;
            if (w != scheduled[g]) {
                scheduled[g] = w;
                if (wakeProf_ && g < NumSystemGroups)
                    wakeProf_->noteReschedule(g);
                if (w != neverCycle)
                    wheel.schedule(w, g);
            }
        }
        Cycle next = neverCycle;
        while (!wheel.empty()) {
            WheelEvent e = wheel.pop();
            if (e.cycle == scheduled[e.rank]) {
                next = e.cycle;
                break;
            }
        }
        if (opts_.profileWall)
            wall_.schedSeconds += secondsSince(s0, sim_clock::now());

        if (next >= cfg_.maxCycles) {
            // Nothing left to do before the horizon: the legacy loop
            // would idle-tick to maxCycles, charging thread states
            // each cycle. Account the span and stop there.
            accountSpan(now_ + 1, cfg_.maxCycles);
            if (cfg_.maxCycles > now_ + 1)
                wall_.cyclesSkipped += cfg_.maxCycles - (now_ + 1);
            now_ = cfg_.maxCycles;
            break;
        }
        accountSpan(now_ + 1, next);
        wall_.cyclesSkipped += next - (now_ + 1);
        now_ = next;
    }
    wall_.eventsScheduled = wheel.scheduled();
}

RunMetrics
Simulator::run()
{
    const auto run_start = sim_clock::now();

    Tracer *tr = system_->tracer();
    if (tr)
        tr->record(TraceCat::Sim, TraceEv::RunBegin, 0, invalidNode);
    CheckerRegistry *ck = system_->checker();

    if (resolvedCoreMode() == SimCoreMode::Legacy)
        runLegacyLoop(tr, ck);
    else
        runEventLoop(tr, ck);

    if (!hangDetected_ && !cancelled_ && now_ >= cfg_.maxCycles)
        ocor_warn("simulation hit maxCycles (%llu) before finishing",
                  static_cast<unsigned long long>(cfg_.maxCycles));

    if (tr)
        tr->record(TraceCat::Sim, TraceEv::RunEnd, now_, invalidNode,
                   invalidThread, 0, 0, hangDetected_ ? 1 : 0);
    if (ck)
        ck->finalize(now_);
    wall_.cycles = now_;
    wall_.totalSeconds = secondsSince(run_start, sim_clock::now());
    wall_.phasesTimed = opts_.profileWall;
    wall_.routersTicked = system_->network().routersTicked();
    wall_.nisTicked = system_->network().nisTicked();
    for (unsigned g = 0; g < NumSystemGroups; ++g)
        wall_.groupTicks[g] = system_->ticked(g);

    RunMetrics m;
    m.roiFinish = now_;
    m.threads = system_->numThreads();
    for (ThreadId t = 0; t < m.threads; ++t)
        m.perThread.push_back(system_->pcb(t).counters);

    const Network &net = system_->network();
    m.packetsInjected = net.totalPacketsInjected();
    m.flitsInjected = net.totalFlitsInjected();
    m.lockPacketsInjected = net.totalLockPacketsInjected();
    m.avgPacketLatency = net.stats().packetLatency.mean();
    m.avgLockPacketLatency = net.stats().lockPacketLatency.mean();
    m.avgDataPacketLatency = net.stats().dataPacketLatency.mean();
    m.p50PacketLatency = net.stats().packetLatencyHist.percentile(50);
    m.p95PacketLatency = net.stats().packetLatencyHist.percentile(95);
    m.p99PacketLatency = net.stats().packetLatencyHist.percentile(99);

    // One handover distribution across all lock homes (usually only
    // one home is hot, but merging keeps the metric shape-agnostic).
    Histogram handover{4.0, 256};
    const unsigned nodes = cfg_.mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n)
        handover.merge(
            system_->lockManager(n).stats().handoverLatencyHist);
    m.p50LockHandover = handover.percentile(50);
    m.p95LockHandover = handover.percentile(95);
    m.p99LockHandover = handover.percentile(99);

    if (const FaultInjector *fi = system_->faultInjector()) {
        const FaultStats &fs = fi->stats();
        m.faultsInjected = fs.faultsInjected();
        m.flitsDropped = fs.flitsDropped;
        m.flitsCorrupted = fs.flitsCorrupted;
        m.crcRejects = fs.crcRejects;
        m.retransmissions = fs.retransmissions;
        m.duplicatesDropped = fs.duplicatesDropped;
        m.unrecoverable = fs.unrecoverable;
    }
    m.watchdogRecoveries = system_->watchdogRecoveries();
    m.hangDetected = hangDetected_;
    m.cancelled = cancelled_;

    // Fold this run into the process-global aggregates so sweeps
    // whose Simulators die inside the result cache still report
    // sim.wall.* / sim.wake.* totals (registerAggregateStats).
    mergeRunAggregates(wall_,
                       wakeProf_ ? &wakeProf_->stats() : nullptr);
    return m;
}

void
Simulator::registerStats(StatsRegistry &reg)
{
    system_->registerStats(reg);
    // Host wall-clock cost of the run, split by phase (Fig 10's
    // observability leg). The phase splits exist only with
    // profileWall on; the cycle and work counters always do.
    reg.addScalarFn("sim.wall.total_seconds",
                    [this] { return wall_.totalSeconds; });
    if (opts_.profileWall) {
        reg.addScalarFn("sim.wall.tick_seconds",
                        [this] { return wall_.tickSeconds; });
        reg.addScalarFn("sim.wall.account_seconds",
                        [this] { return wall_.accountSeconds; });
        reg.addScalarFn("sim.wall.sched_seconds",
                        [this] { return wall_.schedSeconds; });
    }
    reg.addScalarFn("sim.wall.cycles",
                    [this] { return static_cast<double>(wall_.cycles); });
    reg.addScalar("sim.wall.cycles_processed", &wall_.cyclesProcessed);
    reg.addScalar("sim.wall.cycles_skipped", &wall_.cyclesSkipped);
    reg.addScalar("sim.wall.events_scheduled", &wall_.eventsScheduled);
    registerWorkStats(reg, &wall_);
    if (ledger_)
        ledger_->registerStats(reg, "sim.coh");
    if (wakeProf_)
        registerWakeStats(reg, "sim.wake", &wakeProf_->stats());
}

} // namespace ocor

#include "layers.hh"

#include <algorithm>
#include <string>

namespace perfbench
{

using namespace ocor;

namespace
{

double
share(double part, double whole)
{
    return whole == 0.0 ? 0.0 : part / whole;
}

} // namespace

void
LayerTotals::addMetrics(const RunMetrics &m, bool ocor_enabled)
{
    const std::size_t i = ocor_enabled ? 1 : 0;
    packetsInjected += m.packetsInjected;
    lockPacketsInjected += m.lockPacketsInjected;
    packetLatencySum +=
        m.avgPacketLatency * static_cast<double>(m.packetsInjected);
    packetLatencyCount += m.packetsInjected;
    spinWins[i] += m.totalSpinWins();
    sleeps[i] += m.totalSleeps();
    for (const ThreadCounters &c : m.perThread) {
        retries += c.retries;
        coh[static_cast<std::size_t>(CohCause::Transfer)] +=
            c.cohTransferCycles;
        coh[static_cast<std::size_t>(CohCause::Arbitration)] +=
            c.cohArbitrationCycles;
        coh[static_cast<std::size_t>(CohCause::Backoff)] +=
            c.cohBackoffCycles;
        coh[static_cast<std::size_t>(CohCause::Sleep)] +=
            c.cohSleepCycles;
        coh[static_cast<std::size_t>(CohCause::GrantGap)] +=
            c.cohGrantGapCycles;
    }
    cycles[i] += m.roiFinish;
}

void
LayerTotals::addSimulator(Simulator &sim)
{
    System &sys = sim.system();
    Network &net = sys.network();
    const unsigned nodes = sys.config().mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        const RouterStats &r = net.router(n).stats();
        flitsRouted += r.flitsRouted;
        vaGrants += r.vaGrants;
        saGrants += r.saGrants;
        saConflictLosses += r.saConflictLosses;
        injectQueuePeak =
            std::max(injectQueuePeak, net.ni(n).stats().injectQueuePeak);

        const L1Stats &l1 = sys.l1(n).stats();
        l1Hits += l1.hits;
        l1Misses += l1.misses;
        l1MshrRejects += l1.mshrRejects;
        const L2Stats &l2 = sys.l2(n).stats();
        l2GetS += l2.getS;
        l2GetM += l2.getM;
        l2InvsSent += l2.invsSent;
        l2MemReads += l2.memReads;
        l2MemWrites += l2.memWrites;

        const LockMgrStats &lm = sys.lockManager(n).stats();
        lockTries += lm.tries;
        lockGrants += lm.grants;
        futexWaits += lm.futexWaits;
        wakes += lm.wakes;
        handover.merge(lm.handoverLatency);
        handoverOverflow += lm.handoverLatencyHist.overflow();
    }
    for (unsigned i = 0; i < net.numLinks(); ++i)
        linkFlits += net.link(i).flitsCarried();
    packetLatencyOverflow += net.stats().packetLatencyHist.overflow();
    packetLatencySamples +=
        net.stats().packetLatencyHist.stat().count();

    for (ThreadId t = 0; t < sys.numThreads(); ++t) {
        const CoreStats &c = sys.core(t).stats();
        opsExecuted += c.opsExecuted;
        bgAccesses += c.bgAccesses;
        bgRejected += c.bgRejected;
        fgRetries += c.fgRetries;
    }
    if (const WakeProfiler *wp = sim.wakeProfiler())
        wake.merge(wp->stats());
}

void
LayerTotals::addWall(const WallProfile &w)
{
    runSeconds += w.totalSeconds;
    tickSeconds += w.tickSeconds;
    accountSeconds += w.accountSeconds;
    schedSeconds += w.schedSeconds;
    cyclesProcessed += w.cyclesProcessed;
    cyclesSkipped += w.cyclesSkipped;
    eventsScheduled += w.eventsScheduled;
}

void
LayerTotals::publish(MetricSet &out) const
{
    const auto d = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    out.set("noc.flits_routed", d(flitsRouted), "flits");
    out.set("noc.va_grants", d(vaGrants), "count");
    out.set("noc.sa_grants", d(saGrants), "count");
    out.set("noc.sa_conflict_losses", d(saConflictLosses), "count");
    out.set("noc.sa_win_ratio",
            share(d(saGrants), d(saGrants + saConflictLosses)),
            "ratio");
    out.set("noc.link_flits", d(linkFlits), "flits");
    out.set("noc.packets_injected", d(packetsInjected), "packets");
    out.set("noc.lock_packets_injected", d(lockPacketsInjected),
            "packets");
    out.set("noc.inject_queue_peak", d(injectQueuePeak), "packets");
    out.set("noc.packet_latency_mean_cycles",
            share(packetLatencySum, d(packetLatencyCount)), "cycles");
    // The histogram tops out at 512 cycles; its percentiles are only
    // meaningful without overflow, so the overflow share is published
    // instead of a percentile (see perfbench/README.md).
    out.set("noc.packet_latency_overflow_share",
            share(d(packetLatencyOverflow), d(packetLatencySamples)),
            "ratio");
    out.set("noc.host_ns_per_flit",
            share(runSeconds * 1e9, d(flitsRouted)), "ns");

    out.set("mem.l1_hits", d(l1Hits), "count");
    out.set("mem.l1_misses", d(l1Misses), "count");
    out.set("mem.l1_mshr_rejects", d(l1MshrRejects), "count");
    out.set("mem.l2_gets", d(l2GetS), "count");
    out.set("mem.l2_getm", d(l2GetM), "count");
    out.set("mem.l2_invs_sent", d(l2InvsSent), "count");
    out.set("mem.l2_mem_reads", d(l2MemReads), "count");
    out.set("mem.l2_mem_writes", d(l2MemWrites), "count");

    out.set("cpu.ops_executed", d(opsExecuted), "count");
    out.set("cpu.bg_accesses", d(bgAccesses), "count");
    out.set("cpu.bg_rejected", d(bgRejected), "count");
    out.set("cpu.fg_retries", d(fgRetries), "count");

    out.set("os.lock_tries", d(lockTries), "count");
    out.set("os.lock_grants", d(lockGrants), "count");
    out.set("os.try_grant_ratio", share(d(lockGrants), d(lockTries)),
            "ratio");
    out.set("os.futex_waits", d(futexWaits), "count");
    out.set("os.wakes", d(wakes), "count");
    out.set("os.spin_wins.base", d(spinWins[0]), "count");
    out.set("os.spin_wins.ocor", d(spinWins[1]), "count");
    out.set("os.sleeps.base", d(sleeps[0]), "count");
    out.set("os.sleeps.ocor", d(sleeps[1]), "count");
    out.set("os.retries", d(retries), "count");
    out.set("os.handover_mean_cycles", handover.mean(), "cycles");
    // Same rule as packet latency: the handover histogram tops out at
    // 1024 cycles, so only its overflow share is published.
    out.set("os.handover_overflow_share",
            share(d(handoverOverflow), d(handover.count())), "ratio");
    for (std::size_t c = 0; c < kNumCohCauses; ++c)
        out.set(std::string("os.coh.") +
                    cohCauseName(static_cast<CohCause>(c)) + "_cycles",
                d(coh[c]), "cycles");

    const double all_cycles = d(cycles[0] + cycles[1]);
    out.set("sim.construct_s", constructSeconds, "s");
    out.set("sim.run_s", runSeconds, "s");
    out.set("sim.tick_s", tickSeconds, "s");
    out.set("sim.account_s", accountSeconds, "s");
    out.set("sim.sched_s", schedSeconds, "s");
    out.set("sim.cycles.base", d(cycles[0]), "cycles");
    out.set("sim.cycles.ocor", d(cycles[1]), "cycles");
    out.set("sim.cycles_processed", d(cyclesProcessed), "cycles");
    out.set("sim.skip_share", share(d(cyclesSkipped), all_cycles),
            "ratio");
    out.set("sim.events_scheduled", d(eventsScheduled), "count");
    out.set("sim.host_ns_per_cycle", share(runSeconds * 1e9, all_cycles),
            "ns");
    for (unsigned g = 0; g < NumSystemGroups; ++g)
        out.set(std::string("sim.wake.") + simGroupName(g) +
                    ".wasted_share",
                share(d(wake.wasted[g]), d(wake.wakes[g])), "ratio");
}

void
publishQuality(const std::vector<BenchmarkResult> &pairs, MetricSet &out)
{
    double coh = 0.0, roi = 0.0, spin = 0.0;
    for (const BenchmarkResult &r : pairs) {
        coh += r.cohImprovementPct();
        roi += r.roiImprovementPct();
        spin += r.spinWinImprovementPts();
    }
    const double n = pairs.empty() ? 1.0 : pairs.size();
    out.set("coh_reduction_pct", coh / n, "%");
    out.set("roi_reduction_pct", roi / n, "%");
    out.set("spin_win_gain_pts", spin / n, "pts");
}

} // namespace perfbench

#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "os/lock_ledger.hh"
#include "sim/wake_profiler.hh"

namespace ocor
{

System::System(const SystemConfig &cfg, std::vector<Program> programs,
               const BgTrafficConfig &bg)
    : cfg_(cfg), amap_(cfg.mesh, cfg.mem.lineBytes)
{
    cfg_.validate();
    if (programs.size() != cfg_.numThreads)
        ocor_fatal("System: %zu programs for %u threads",
                   programs.size(), cfg_.numThreads);

    if (cfg_.fault.enabled())
        fault_ = std::make_unique<FaultInjector>(cfg_.fault,
                                                 cfg_.seed);
    network_ = std::make_unique<Network>(cfg_.mesh, cfg_.noc,
                                         cfg_.ocor, fault_.get());

    SendFn send = [this](const PacketPtr &pkt, Cycle now) {
        network_->send(pkt, now);
    };

    const unsigned nodes = cfg_.mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        l1s_.push_back(std::make_unique<L1Cache>(n, amap_, cfg_.mem,
                                                 send));
        l2s_.push_back(std::make_unique<L2Directory>(n, amap_,
                                                     cfg_.mem, send));
        lockMgrs_.push_back(
            std::make_unique<LockManager>(n, cfg_.os, send));
        network_->setNodeSink(n,
            [this, n](const PacketPtr &pkt, Cycle now) {
                dispatch(n, pkt, now);
            });
    }

    std::vector<NodeId> mc_nodes = amap_.mcNodes();
    std::sort(mc_nodes.begin(), mc_nodes.end());
    mcSlot_.assign(nodes, ActiveSet::npos);
    for (NodeId n : mc_nodes) {
        mcSlot_[n] = static_cast<unsigned>(mcs_.size());
        mcs_.push_back(std::make_unique<MemController>(n, cfg_.mem, send));
    }

    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        auto pcb = std::make_unique<Pcb>();
        pcb->tid = t;
        pcb->node = t; // thread t pinned to node t
        pcbs_.push_back(std::move(pcb));

        qspins_.push_back(std::make_unique<QSpinlock>(
            *pcbs_[t], cfg_.ocor, cfg_.os, amap_, send));

        cores_.push_back(std::make_unique<Core>(
            *pcbs_[t], *l1s_[t], *qspins_[t], std::move(programs[t]),
            bg, cfg_.seed + 7919 * (t + 1), cfg_.lockRegionBase,
            cfg_.mem.lineBytes));
    }

    const unsigned sizes[NumSystemGroups] = {
        0, nodes, nodes, nodes, static_cast<unsigned>(mcs_.size()),
        cfg_.numThreads, cfg_.numThreads};
    for (unsigned g = GL1; g < NumSystemGroups; ++g) {
        WakeCache &c = wakes_[g];
        c.wake.assign(sizes[g], neverCycle);
        c.dirty = ActiveSet(sizes[g]);
        for (unsigned i = 0; i < sizes[g]; ++i)
            c.dirty.insert(i);
    }
    refreshWakes();

    if (cfg_.trace.enabled()) {
        tracer_ = std::make_unique<Tracer>(cfg_.trace);
        network_->setTracer(tracer_.get());
        for (auto &lm : lockMgrs_)
            lm->setTracer(tracer_.get());
        for (auto &qs : qspins_)
            qs->setTracer(tracer_.get());
    }

    if (cfg_.check.enabled()) {
        checks_ = std::make_unique<CheckerRegistry>(
            cfg_.check, cfg_.ocor, cfg_.noc.vcDepth);
        checks_->attachSystem(this);
        checks_->attachTracer(tracer_.get());
        checks_->attachFault(fault_.get());
        network_->setChecker(checks_.get());
        for (auto &lm : lockMgrs_)
            lm->setChecker(checks_.get());
        for (auto &qs : qspins_)
            qs->setChecker(checks_.get());
    }
}

void
System::setLedger(LockLedger *l)
{
    for (auto &qs : qspins_)
        qs->setLedger(l);
    for (auto &lm : lockMgrs_)
        lm->setLedger(l);
}

void
System::registerStats(StatsRegistry &reg, const std::string &prefix)
{
    const NetworkStats &net = network_->stats();
    reg.addScalar(prefix + ".net.packets_delivered",
                  &net.packetsDelivered);
    reg.addScalar(prefix + ".net.lock_packets_delivered",
                  &net.lockPacketsDelivered);
    reg.addSample(prefix + ".net.packet_latency", &net.packetLatency);
    reg.addSample(prefix + ".net.lock_packet_latency",
                  &net.lockPacketLatency);
    reg.addSample(prefix + ".net.data_packet_latency",
                  &net.dataPacketLatency);
    reg.addHistogram(prefix + ".net.packet_latency_hist",
                     &net.packetLatencyHist);
    reg.addHistogram(prefix + ".net.lock_packet_latency_hist",
                     &net.lockPacketLatencyHist);
    reg.addScalarFn(prefix + ".net.flits_injected", [this]() {
        return static_cast<double>(network_->totalFlitsInjected());
    });

    // Memory-side footprint, summed over banks: cache rows are
    // allocated on first touch, directory entries per line touched.
    reg.addScalarFn(prefix + ".mem.l1_rows_allocated", [this]() {
        double rows = 0;
        for (const auto &l1 : l1s_)
            rows += l1->rowsAllocated();
        return rows;
    });
    reg.addScalarFn(prefix + ".mem.l2_rows_allocated", [this]() {
        double rows = 0;
        for (const auto &l2 : l2s_)
            rows += l2->rowsAllocated();
        return rows;
    });
    reg.addScalarFn(prefix + ".mem.l2_dir_entries_peak", [this]() {
        double peak = 0;
        for (const auto &l2 : l2s_)
            peak += static_cast<double>(l2->dirEntriesPeak());
        return peak;
    });

    const unsigned nodes = cfg_.mesh.numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        const std::string r = prefix + ".router" + std::to_string(n);
        const RouterStats &rs = network_->router(n).stats();
        reg.addScalar(r + ".flits_routed", &rs.flitsRouted);
        reg.addScalar(r + ".lock_flits_routed", &rs.lockFlitsRouted);
        reg.addScalar(r + ".va_grants", &rs.vaGrants);
        reg.addScalar(r + ".sa_grants", &rs.saGrants);
        reg.addScalar(r + ".sa_conflict_losses",
                      &rs.saConflictLosses);

        const std::string i = prefix + ".ni" + std::to_string(n);
        const NiStats &ns = network_->ni(n).stats();
        reg.addScalar(i + ".packets_injected", &ns.packetsInjected);
        reg.addScalar(i + ".flits_injected", &ns.flitsInjected);
        reg.addScalar(i + ".packets_ejected", &ns.packetsEjected);
        reg.addScalar(i + ".lock_packets_injected",
                      &ns.lockPacketsInjected);
        reg.addScalar(i + ".inject_queue_peak", &ns.injectQueuePeak);

        const std::string m = prefix + ".lockmgr" + std::to_string(n);
        const LockMgrStats &ms = lockMgrs_[n]->stats();
        reg.addScalar(m + ".tries", &ms.tries);
        reg.addScalar(m + ".grants", &ms.grants);
        reg.addScalar(m + ".fails", &ms.fails);
        reg.addScalar(m + ".releases", &ms.releases);
        reg.addScalar(m + ".futex_waits", &ms.futexWaits);
        reg.addScalar(m + ".immediate_wakes", &ms.immediateWakes);
        reg.addScalar(m + ".wakes", &ms.wakes);
        reg.addScalar(m + ".notifies", &ms.notifies);
        reg.addScalar(m + ".duplicate_tries", &ms.duplicateTries);
        reg.addScalar(m + ".stray_releases", &ms.strayReleases);
        reg.addScalar(m + ".rewakes", &ms.rewakes);
        reg.addScalar(m + ".duplicate_waits", &ms.duplicateWaits);
        reg.addSample(m + ".handover_latency", &ms.handoverLatency);
        reg.addHistogram(m + ".handover_latency_hist",
                         &ms.handoverLatencyHist);
    }

    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        const std::string p = prefix + ".thread" + std::to_string(t);
        const ThreadCounters &tc = pcbs_[t]->counters;
        reg.addScalar(p + ".compute_cycles", &tc.computeCycles);
        reg.addScalar(p + ".cs_cycles", &tc.csCycles);
        reg.addScalar(p + ".blocked_held_cycles",
                      &tc.blockedHeldCycles);
        reg.addScalar(p + ".blocked_idle_cycles",
                      &tc.blockedIdleCycles);
        reg.addScalar(p + ".acquisitions", &tc.acquisitions);
        reg.addScalar(p + ".spin_wins", &tc.spinWins);
        reg.addScalar(p + ".sleep_wins", &tc.sleepWins);
        reg.addScalar(p + ".retries", &tc.retries);
        reg.addScalar(p + ".sleeps", &tc.sleeps);
        reg.addScalar(p + ".coh_transfer_cycles",
                      &tc.cohTransferCycles);
        reg.addScalar(p + ".coh_arbitration_cycles",
                      &tc.cohArbitrationCycles);
        reg.addScalar(p + ".coh_backoff_cycles",
                      &tc.cohBackoffCycles);
        reg.addScalar(p + ".coh_sleep_cycles", &tc.cohSleepCycles);
        reg.addScalar(p + ".coh_grant_gap_cycles",
                      &tc.cohGrantGapCycles);
    }

    if (tracer_) {
        reg.addScalarFn(prefix + ".trace.emitted", [this]() {
            return static_cast<double>(tracer_->emitted());
        });
        reg.addScalarFn(prefix + ".trace.dropped", [this]() {
            return static_cast<double>(tracer_->dropped());
        });
    }

    if (checks_) {
        reg.addScalarFn(prefix + ".check.violations", [this]() {
            return static_cast<double>(checks_->violations());
        });
    }
}

void
System::dispatch(NodeId node, const PacketPtr &pkt, Cycle now)
{
    switch (pkt->type) {
      // Home-side coherence + memory fills.
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutM:
      case MsgType::PutE:
      case MsgType::InvAck:
      case MsgType::FetchResp:
      case MsgType::Unblock:
      case MsgType::MemResp:
        l2s_[node]->handle(pkt, now);
        touch(GL2, node);
        break;

      // L1-side coherence.
      case MsgType::Inv:
      case MsgType::Fetch:
      case MsgType::Data:
      case MsgType::DataExcl:
      case MsgType::WbAck:
        l1s_[node]->handle(pkt, now);
        touch(GL1, node);
        touchPeers(GL1, node);
        break;

      // Off-chip memory.
      case MsgType::MemRead:
      case MsgType::MemWrite: {
        const unsigned slot = mcSlot_[node];
        if (slot == ActiveSet::npos)
            ocor_panic("node %u has no memory controller", node);
        mcs_[slot]->handle(pkt, now);
        touch(GMc, slot);
        break;
      }

      // Lock protocol, home side.
      case MsgType::LockTry:
      case MsgType::LockRelease:
      case MsgType::FutexWait:
      case MsgType::FutexWake:
        lockMgrs_[node]->handle(pkt, now);
        touch(GLockMgr, node);
        break;

      // Lock protocol, thread side: the response goes to the
      // requesting thread's client, wherever it was delivered.
      case MsgType::LockGrant:
      case MsgType::LockFail:
      case MsgType::LockFreeNotify:
      case MsgType::WakeNotify:
        if (pkt->thread >= qspins_.size())
            ocor_panic("lock response for unknown thread %u",
                       pkt->thread);
        qspins_[pkt->thread]->handle(pkt, now);
        touch(GQspin, pkt->thread);
        touchPeers(GQspin, pkt->thread);
        break;

      default:
        ocor_panic("dispatch: unhandled message %s",
                   msgTypeName(pkt->type));
    }
}

void
System::tick(Cycle now)
{
    network_->tick(now);
    // Legacy exact path: every component every cycle, by definition.
    for (auto &l1 : l1s_)  // simlint: allow(unconditional-tick)
        l1->tick(now);
    for (auto &l2 : l2s_)  // simlint: allow(unconditional-tick)
        l2->tick(now);
    for (auto &lm : lockMgrs_)  // simlint: allow(unconditional-tick)
        lm->tick(now);
    for (auto &mc : mcs_)  // simlint: allow(unconditional-tick)
        mc->tick(now);
    for (auto &qs : qspins_)  // simlint: allow(unconditional-tick)
        qs->tick(now);
    for (auto &c : cores_)  // simlint: allow(unconditional-tick)
        c->tick(now);
    ++ticked_[GNetwork];
    for (unsigned g = GL1; g < NumSystemGroups; ++g)
        ticked_[g] += wakes_[g].wake.size();
}

void
System::touchPeers(unsigned g, unsigned i)
{
    switch (g) {
      case GL1:
        if (i < cfg_.numThreads)
            touch(GCore, i);
        break;
      case GQspin:
        touch(GCore, i);
        break;
      case GCore:
        touch(GL1, i);
        touch(GQspin, i);
        break;
      default:
        break;
    }
}

template <class Vec>
void
System::tickGroup(unsigned g, Vec &vec, Cycle now, WakeProfiler *wp)
{
    WakeCache &c = wakes_[g];
    // Clean slots equal the live wake, so the components to visit
    // are the cached-due ones plus the dirty ones; fold the former
    // into the dirty set (each of them is ticked, hence dirty).
    if (c.min <= now)
        for (unsigned i = 0; i < c.wake.size(); ++i)
            if (c.wake[i] <= now)
                c.dirty.insert(i);
    if (c.dirty.empty())
        return;
    std::uint64_t sig = 0;
    if (wp) {
        bool due = false;
        for (unsigned i = c.dirty.next(0); i != ActiveSet::npos && !due;
             i = c.dirty.next(i + 1))
            due = vec[i]->nextWake() <= now;
        if (!due)
            return;
        sig = groupSignature(g);
    }
    for (unsigned i = c.dirty.next(0); i != ActiveSet::npos;
         i = c.dirty.next(i + 1)) {
        if (vec[i]->nextWake() <= now) {
            vec[i]->tick(now);
            ++ticked_[g];
            touchPeers(g, i);
        }
    }
    if (wp)
        wp->noteWake(g, sig != groupSignature(g));
}

template <class Vec>
void
System::refreshGroup(unsigned g, const Vec &vec)
{
    WakeCache &c = wakes_[g];
    // The minimum only needs a rescan when a slot holding it moved
    // later; otherwise it is the old minimum or a new, earlier wake.
    bool rescan = false;
    for (unsigned i = c.dirty.next(0); i != ActiveSet::npos;
         i = c.dirty.next(i + 1)) {
        const Cycle w = vec[i]->nextWake();
        rescan |= c.wake[i] == c.min && w > c.min;
        c.wake[i] = w;
        c.min = std::min(c.min, w);
        c.dirty.erase(i);
    }
    if (rescan)
        c.min = c.wake.empty()
            ? neverCycle
            : *std::min_element(c.wake.begin(), c.wake.end());
}

void
System::refreshWakes()
{
    refreshGroup(GL1, l1s_);
    refreshGroup(GL2, l2s_);
    refreshGroup(GLockMgr, lockMgrs_);
    refreshGroup(GMc, mcs_);
    refreshGroup(GQspin, qspins_);
    refreshGroup(GCore, cores_);
}

void
System::walk(Cycle now, WakeProfiler *wp)
{
    if (wp)
        wp->beginCycle();
    // With a profiler, each group that has a due component is
    // bracketed by its progress signature.
    if (netWake_ <= now) {
        std::uint64_t sig = 0;
        if (wp) {
            wp->noteNetReason(network_->wakeReason(now));
            sig = groupSignature(GNetwork);
        }
        network_->tickEvent(now);
        ++ticked_[GNetwork];
        if (wp)
            wp->noteWake(GNetwork, sig != groupSignature(GNetwork));
    }
    tickGroup(GL1, l1s_, now, wp);
    tickGroup(GL2, l2s_, now, wp);
    tickGroup(GLockMgr, lockMgrs_, now, wp);
    tickGroup(GMc, mcs_, now, wp);
    tickGroup(GQspin, qspins_, now, wp);
    tickGroup(GCore, cores_, now, wp);
    refreshWakes();
    // All sends of this cycle have been queued by now (NI inject
    // queues stamp ready = now + 1), so this scan sees them.
    netWake_ = network_->nextWake(now);
}

void
System::tickEvent(Cycle now)
{
    walk(now, nullptr);
}

void
System::tickEventProfiled(Cycle now, WakeProfiler &wp)
{
    walk(now, &wp);
}

namespace
{

/** FNV-style fold; order-sensitive so swapped counters don't cancel. */
inline std::uint64_t
sigFold(std::uint64_t sig, std::uint64_t v)
{
    return (sig ^ v) * 1099511628211ull;
}

} // namespace

std::uint64_t
System::groupSignature(unsigned g) const
{
    std::uint64_t s = 14695981039346656037ull;
    switch (g) {
      case GNetwork: {
        // Forward progress = flits moving through allocation stages
        // or packets leaving the network. Credit return and conflict
        // losses are deliberately excluded: a cycle that only shuffles
        // credits is the wasted network wake the ROADMAP's coalescing
        // item is after.
        const NetworkStats &ns = network_->stats();
        s = sigFold(s, ns.packetsDelivered);
        const unsigned nodes = cfg_.mesh.numNodes();
        for (NodeId n = 0; n < nodes; ++n) {
            const RouterStats &rs = network_->router(n).stats();
            s = sigFold(s, rs.flitsRouted + rs.vaGrants +
                               rs.saGrants);
            const NiStats &is = network_->ni(n).stats();
            s = sigFold(s, is.flitsInjected + is.packetsEjected);
        }
        break;
      }
      case GL1:
        // The delayed-completion FIFOs advance via tick() without
        // touching a counter (the counters moved at handle() time),
        // so nextWake() joins the fold: popping a due completion is
        // real work, not a wasted wake.
        for (const auto &l1 : l1s_) {
            const L1Stats &st = l1->stats();
            s = sigFold(s, st.hits + st.misses + st.evictions +
                               st.writebacks + st.invsReceived +
                               st.fetchesReceived + st.mshrRejects);
            s = sigFold(s, l1->nextWake());
        }
        break;
      case GL2:
        for (const auto &l2 : l2s_) {
            const L2Stats &st = l2->stats();
            s = sigFold(s, st.getS + st.getM + st.invsSent +
                               st.fetchesSent + st.memReads +
                               st.memWrites + st.queuedRequests +
                               st.staleAcks + st.l2Evictions);
            s = sigFold(s, l2->nextWake());
        }
        break;
      case GLockMgr:
        // A popped retry FutexWake that finds the lock held (or the
        // queue empty) bumps no counter: that tick reads as wasted,
        // which is the attribution we want for no-op wake retries.
        for (const auto &lm : lockMgrs_) {
            const LockMgrStats &st = lm->stats();
            s = sigFold(s, st.tries + st.grants + st.fails +
                               st.releases + st.futexWaits +
                               st.immediateWakes + st.wakes +
                               st.notifies + st.duplicateTries +
                               st.strayReleases + st.rewakes +
                               st.duplicateWaits);
        }
        break;
      case GMc:
        // reads/writes move at handle() time (inside the network
        // slot); completing an access only pops the service queue,
        // which shows up in nextWake().
        for (const auto &mc : mcs_) {
            const McStats &st = mc->stats();
            s = sigFold(s, st.reads + st.writes);
            s = sigFold(s, mc->nextWake());
        }
        break;
      case GQspin:
        // Counters alone miss timer-only transitions (e.g. the
        // deferred FUTEX_WAKE firing), so the per-thread nextWake()
        // and state enter the fold too.
        for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
            const Pcb &pcb = *pcbs_[t];
            const QSpinlock &qs = *qspins_[t];
            s = sigFold(s, static_cast<std::uint64_t>(pcb.state));
            s = sigFold(s, pcb.counters.retries +
                               pcb.counters.sleeps +
                               pcb.counters.acquisitions +
                               qs.recoveries() +
                               qs.duplicatesAbsorbed());
            s = sigFold(s, qs.nextWake());
        }
        break;
      case GCore:
        for (const auto &c : cores_) {
            const CoreStats &st = c->stats();
            s = sigFold(s, st.opsExecuted + st.fgLoads +
                               st.fgStores + st.bgAccesses +
                               st.bgRejected + st.fgRetries);
        }
        break;
      default:
        ocor_panic("groupSignature: unknown group %u", g);
    }
    return s;
}

Cycle
System::componentWake(unsigned g, Cycle now) const
{
    if (g == GNetwork)
        return netWake_ <= now ? network_->nextWake(now) : netWake_;
    if (g >= NumSystemGroups)
        ocor_panic("componentWake: unknown group %u", g);
    return wakes_[g].min;
}

Cycle
System::liveWake(unsigned g, unsigned i) const
{
    switch (g) {
      case GL1:      return l1s_[i]->nextWake();
      case GL2:      return l2s_[i]->nextWake();
      case GLockMgr: return lockMgrs_[i]->nextWake();
      case GMc:      return mcs_[i]->nextWake();
      case GQspin:   return qspins_[i]->nextWake();
      case GCore:    return cores_[i]->nextWake();
      default:
        ocor_panic("liveWake: unknown group %u", g);
    }
}

bool
System::allFinished() const
{
    // Finishing is monotone per core, so resume the scan where it
    // last stopped; the common not-finished case is one check.
    const unsigned n = static_cast<unsigned>(cores_.size());
    while (firstUnfinished_ < n &&
           cores_[firstUnfinished_]->finished())
        ++firstUnfinished_;
    return firstUnfinished_ == n;
}

bool
System::drained() const
{
    if (!network_->idle())
        return false;
    for (const auto &l1 : l1s_)
        if (!l1->idle())
            return false;
    for (const auto &l2 : l2s_)
        if (!l2->idle())
            return false;
    for (const auto &lm : lockMgrs_)
        if (!lm->idle())
            return false;
    for (const auto &mc : mcs_)
        if (!mc->idle())
            return false;
    return true;
}

std::uint64_t
System::watchdogRecoveries() const
{
    std::uint64_t n = 0;
    for (const auto &lm : lockMgrs_)
        n += lm->stats().rewakes;
    for (const auto &qs : qspins_)
        n += qs->recoveries();
    return n;
}

bool
System::lockHeld(Addr lock_word) const
{
    NodeId home = amap_.homeOf(lock_word);
    return lockMgrs_[home]->heldNow(lock_word);
}

bool
System::lockHolderInCs(Addr lock_word) const
{
    NodeId home = amap_.homeOf(lock_word);
    ThreadId holder = lockMgrs_[home]->holderOf(lock_word);
    if (holder == invalidThread || holder >= pcbs_.size())
        return false;
    return pcbs_[holder]->state == ThreadState::InCS;
}

std::size_t
System::lockQueueLength(Addr lock_word) const
{
    NodeId home = amap_.homeOf(lock_word);
    return lockMgrs_[home]->queueLength(lock_word);
}

} // namespace ocor

/**
 * @file
 * System: instantiates and wires every component of the target CMP
 * (Figure 3) — mesh NoC, per-node core/L1/lock-client, per-node L2
 * bank + directory + lock manager, and the memory controllers.
 */

#ifndef OCOR_SIM_SYSTEM_HH
#define OCOR_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "check/checker_registry.hh"
#include "common/active_set.hh"
#include "common/stats_registry.hh"
#include "common/trace.hh"
#include "cpu/core.hh"
#include "mem/address_map.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_directory.hh"
#include "mem/mem_controller.hh"
#include "noc/network.hh"
#include "os/lock_manager.hh"
#include "os/pcb.hh"
#include "os/qspinlock.hh"
#include "sim/config.hh"
#include "workload/program.hh"

namespace ocor
{

class WakeProfiler;
class LockLedger;

/**
 * Component scheduling groups of the event-driven core, in the
 * canonical slot order of System::tick(). The event wheel carries one
 * entry per group (not per component), which bounds scheduler traffic
 * while preserving the legacy intra-cycle component order exactly:
 * a processed cycle ticks due groups in ascending rank.
 */
enum SimGroup : unsigned
{
    GNetwork = 0,
    GL1,
    GL2,
    GLockMgr,
    GMc,
    GQspin,
    GCore,
    NumSystemGroups
};

/** One fully wired CMP instance. */
class System
{
  public:
    /**
     * Build the system. @p programs holds one program per thread
     * (threads map to nodes 0..numThreads-1); @p bg the background
     * traffic configuration applied to every core.
     */
    System(const SystemConfig &cfg, std::vector<Program> programs,
           const BgTrafficConfig &bg);

    /** Advance the whole system one cycle. */
    void tick(Cycle now);

    /**
     * Event-core variant of tick(): identical slot order, but each
     * component is ticked only when its nextWake() marks cycle
     * @p now as having work. Ticking a non-due component is a no-op
     * by construction, so skipping preserves bit-identical behavior.
     * Each group walks only its cached-due and dirty components (see
     * the wake caches below), re-reading their live nextWake(), so
     * work created for a later slot earlier in the same cycle (e.g. a
     * grant delivered by the network arming a qspinlock timer) is
     * never missed.
     */
    void tickEvent(Cycle now);

    /**
     * tickEvent() with wake attribution: identical gating, walk
     * order and side effects, but each group's due/ticked status and
     * progress-signature delta are reported to @p wp. The signature
     * reads are const folds of existing counters, so a profiled run
     * stays bit-identical to an unprofiled one.
     */
    void tickEventProfiled(Cycle now, WakeProfiler &wp);

    /**
     * Earliest future cycle group @p g needs a tick, as seen at the
     * end of processed cycle @p now: O(1), read from the group's wake
     * cache. May return cycles <= now (core wakes can be overdue);
     * the event loop clamps to now + 1.
     */
    Cycle componentWake(unsigned g, Cycle now) const;

    /** Cached nextWake() of component @p i of group @p g (@p g is
     * not GNetwork) and the group minimum; white-box tests compare
     * them with the live values. */
    Cycle cachedWake(unsigned g, unsigned i) const
    {
        return wakes_[g].wake[i];
    }
    Cycle cachedGroupWake(unsigned g) const { return wakes_[g].min; }

    /** Live nextWake() of component @p i of group @p g. */
    Cycle liveWake(unsigned g, unsigned i) const;

    /** Components in group @p g (@p g is not GNetwork). */
    unsigned groupSize(unsigned g) const
    {
        return static_cast<unsigned>(wakes_[g].wake.size());
    }

    /** Component ticks performed per group (work counters; for
     * GNetwork, network ticks). */
    std::uint64_t ticked(unsigned g) const { return ticked_[g]; }

    /** All threads ran to completion. */
    bool allFinished() const;

    /** Every queue, buffer and link is empty. */
    bool drained() const;

    // --- component access -------------------------------------------
    const SystemConfig &config() const { return cfg_; }
    Network &network() { return *network_; }

    /** Fault oracle; null when cfg.fault has every rate at zero. */
    FaultInjector *faultInjector() { return fault_.get(); }

    /** Event tracer; null when cfg.trace is off. */
    Tracer *tracer() { return tracer_.get(); }

    /** Invariant-checker registry; null when cfg.check is off. */
    CheckerRegistry *checker() { return checks_.get(); }

    /** Attach the COH attribution ledger to every lock client and
     * home (null = detach; off by default, zero cost). */
    void setLedger(LockLedger *l);

    /**
     * Register every component's live counters under dotted names
     * ("<prefix>.router3.sa_grants", "<prefix>.lockmgr0.grants",
     * ...). The registry stores pointers into this System, so it must
     * not outlive it.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "system");

    /** OS-layer watchdog recoveries (lost lock messages re-issued). */
    std::uint64_t watchdogRecoveries() const;
    const AddressMap &addressMap() const { return amap_; }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    Core &core(ThreadId t) { return *cores_[t]; }
    Pcb &pcb(ThreadId t) { return *pcbs_[t]; }
    const Pcb &pcb(ThreadId t) const { return *pcbs_[t]; }
    QSpinlock &qspinlock(ThreadId t) { return *qspins_[t]; }
    L1Cache &l1(NodeId n) { return *l1s_[n]; }
    L2Directory &l2(NodeId n) { return *l2s_[n]; }
    LockManager &lockManager(NodeId n) { return *lockMgrs_[n]; }

    /** Oracle: is the lock word @p lock_word held right now? */
    bool lockHeld(Addr lock_word) const;

    /**
     * Oracle: is the holder of @p lock_word actually executing its
     * critical section (vs. still waking up / in transit)? This is
     * the Equation-1 boundary between predecessor-CS time and
     * competition overhead.
     */
    bool lockHolderInCs(Addr lock_word) const;

    /** Oracle: futex queue length of @p lock_word. */
    std::size_t lockQueueLength(Addr lock_word) const;

  private:
    void dispatch(NodeId node, const PacketPtr &pkt, Cycle now);

    /** tickEvent(), with wake attribution to @p wp when non-null
     * (tickEventProfiled()). */
    void walk(Cycle now, WakeProfiler *wp);

    template <class Vec>
    void tickGroup(unsigned g, Vec &vec, Cycle now, WakeProfiler *wp);

    template <class Vec>
    void refreshGroup(unsigned g, const Vec &vec);

    /** Re-read every dirty slot's nextWake() and the group minima. */
    void refreshWakes();

    /** Component @p i of group @p g may have a new nextWake(). */
    void touch(unsigned g, unsigned i) { wakes_[g].dirty.insert(i); }

    /** Ticking component @p i of group @p g, or handing it a
     * packet, can move the wakes of the same thread's other
     * components: an L1 or qspinlock completion wakes the core, and
     * the core issues into both. */
    void touchPeers(unsigned g, unsigned i);

    /**
     * Observable-progress signature of group @p g: a fold of the
     * group's existing counters (plus, for lock clients, thread
     * state and next-wake values). A tick that leaves the signature
     * unchanged did no attributable work — the profiler's "wasted
     * wake". Deliberately excludes credit movement and peak gauges.
     */
    std::uint64_t groupSignature(unsigned g) const;

    SystemConfig cfg_;
    AddressMap amap_;
    std::unique_ptr<FaultInjector> fault_; ///< before network_
    std::unique_ptr<Tracer> tracer_;       ///< null when tracing off
    std::unique_ptr<Network> network_;
    std::unique_ptr<CheckerRegistry> checks_; ///< null: checking off

    std::vector<std::unique_ptr<Pcb>> pcbs_;
    std::vector<std::unique_ptr<L1Cache>> l1s_;
    std::vector<std::unique_ptr<L2Directory>> l2s_;
    std::vector<std::unique_ptr<LockManager>> lockMgrs_;
    std::vector<std::unique_ptr<QSpinlock>> qspins_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Memory controllers in ascending node order; mcSlot_[node] is
     * the index of that node's controller (ActiveSet::npos: none). */
    std::vector<std::unique_ptr<MemController>> mcs_;
    std::vector<unsigned> mcSlot_;

    /**
     * Wake cache of one component group (unused for GNetwork, which
     * keeps netWake_). A clean slot holds the component's live
     * nextWake(); a slot is dirty from the moment its component is
     * ticked or handed a packet (or a peer's tick may have moved it,
     * see touchPeers()) until refreshWakes() re-reads it at the end
     * of the processed cycle. min is the minimum over the slots as
     * of that refresh.
     */
    struct WakeCache
    {
        std::vector<Cycle> wake;
        ActiveSet dirty;
        Cycle min = neverCycle;
    };
    std::array<WakeCache, NumSystemGroups> wakes_;
    std::array<std::uint64_t, NumSystemGroups> ticked_{};

    /** First index in cores_ not yet finished: threads finish
     * monotonically, so allFinished() is O(1) amortized instead of
     * a full scan per cycle. */
    mutable unsigned firstUnfinished_ = 0;

    /** Next cycle the network needs a tick. Recomputed at the end of
     * every processed cycle (after all injections of that cycle have
     * been queued); the network slot runs first within a cycle, so
     * nothing can move its due cycle earlier in between. */
    Cycle netWake_ = 0;
};

} // namespace ocor

#endif // OCOR_SIM_SYSTEM_HH

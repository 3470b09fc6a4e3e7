/**
 * @file
 * The runtime invariant checkers (DESIGN.md §11).
 *
 * Each checker polices one correctness property the OCOR design
 * depends on but the simulator otherwise never verifies:
 *
 *  - MutexChecker      mutual exclusion under the queue spinlock: at
 *                      most one thread holds / executes the critical
 *                      section of any lock word at any cycle (the
 *                      core safety property of queue-based mutual
 *                      exclusion).
 *  - VcFifoChecker     flits leave every input VC in exactly the
 *                      order they entered it (Section 4.2: FIFO
 *                      order within a VC is preserved for fairness).
 *  - OneHotChecker     priority header fields are well-formed per
 *                      Figure 8: one-hot priority/progress words,
 *                      check bit consistent with the message class,
 *                      wakeup requests at the dedicated lowest level
 *                      (Table 1 rule 4).
 *  - ArbitrationChecker Table-1 conformance: an LPA/VA/SA grant
 *                      never beats a strictly higher-priority
 *                      competing requester.
 *  - CreditChecker     credit/flit conservation: per downstream VC,
 *                      outstanding flits never exceed the buffer
 *                      depth, no spurious credits, and at drain time
 *                      every flit put on a wire was delivered or
 *                      accounted as a fault-injected drop.
 *  - RtrChecker        RTR is monotonically non-increasing across
 *                      the LockTry packets of one locking attempt
 *                      (Algorithm 1: RTR = MAX_SPIN_COUNT - retries).
 *  - WakeupChecker     no lost futex wakeups: the last WAKE_UP the
 *                      home issues to a sleeper is consumed, and no
 *                      sleeper consumes more wakes than were sent.
 *
 * Checkers are pure observers: they read hook arguments and System
 * oracles but never mutate simulation state, so a checked run is
 * bit-identical to an unchecked one.
 */

#ifndef OCOR_CHECK_CHECKERS_HH
#define OCOR_CHECK_CHECKERS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/check_config.hh"
#include "common/types.hh"
#include "core/ocor_config.hh"

namespace ocor
{

class System;
struct Packet;

/** One invariant violation, as reported to the registry. */
struct CheckViolation
{
    CheckId id = CheckId::NumChecks;
    Cycle cycle = 0;
    std::string message;
};

/** Sink every checker reports through (owned by the registry). */
using ReportFn = std::function<void(CheckId, Cycle,
                                    const std::string &)>;

/**
 * One thread's lock-client snapshot for the mutual-exclusion walk.
 * Built from a live System at the end of every checked cycle, or
 * from abstract protocol state by the model-checker replay harness
 * (src/verify) — the checker itself needs no System.
 */
struct HolderView
{
    bool holding = false; ///< lock client owns / is entering a CS
    bool inCs = false;    ///< thread scheduler state says InCS
    Addr lock = 0;        ///< the lock word `holding` refers to
};

/** Mutual exclusion: <=1 holder / CS occupant per lock word. */
class MutexChecker
{
  public:
    explicit MutexChecker(ReportFn report) : report_(std::move(report))
    {}

    /** Check the per-thread snapshots (index = ThreadId). */
    void onHolderWalk(const std::vector<HolderView> &view, Cycle now);

  private:
    ReportFn report_;
    /** Scratch (lock, holder) pairs; ordered, rebuilt per cycle. */
    std::vector<std::pair<Addr, ThreadId>> holders_;
};

/** FIFO order preservation within every router input VC. */
class VcFifoChecker
{
  public:
    explicit VcFifoChecker(ReportFn report)
        : report_(std::move(report))
    {}

    void onPush(NodeId node, unsigned port, unsigned vc,
                std::uint64_t pkt_id, unsigned flit_index, Cycle now);
    void onPop(NodeId node, unsigned port, unsigned vc,
               std::uint64_t pkt_id, unsigned flit_index, Cycle now);

  private:
    /** (packet id, flit index) identifies a flit uniquely. */
    using FlitKey = std::pair<std::uint64_t, unsigned>;

    static std::uint64_t vcKey(NodeId node, unsigned port,
                               unsigned vc);

    ReportFn report_;
    /** Shadow FIFO per (router, port, vc); ordered map so any
     * iteration is deterministic. */
    std::map<std::uint64_t, std::deque<FlitKey>> shadow_;
};

/** Figure-8 header well-formedness at packet injection. */
class OneHotChecker
{
  public:
    OneHotChecker(ReportFn report, const OcorConfig &ocor)
        : report_(std::move(report)), ocor_(ocor)
    {}

    void onInject(const Packet &pkt, Cycle now);

  private:
    ReportFn report_;
    const OcorConfig &ocor_;
};

/** Table-1 arbitration conformance at every grant decision. */
class ArbitrationChecker
{
  public:
    ArbitrationChecker(ReportFn report, const OcorConfig &ocor)
        : report_(std::move(report)), ocor_(ocor)
    {}

    /**
     * A grant decision at @p node: @p candidates holds the head
     * packet of every *competing* requester (null = slot not
     * requesting), @p winner indexes the granted one. The checker
     * recomputes each candidate's Table-1 rank from its own header
     * fields — independently of the ranks the router arbitrated
     * with — and flags any strictly higher-priority loser.
     */
    void onGrant(NodeId node, const char *stage,
                 const std::vector<const Packet *> &candidates,
                 unsigned winner, Cycle now);

  private:
    ReportFn report_;
    const OcorConfig &ocor_;
};

/** Credit/flit conservation per link and downstream VC. */
class CreditChecker
{
  public:
    CreditChecker(ReportFn report, unsigned vc_depth)
        : report_(std::move(report)), vcDepth_(vc_depth)
    {}

    /** A flit left @p node through @p out_port on downstream VC
     * @p out_vc (one credit debited upstream). */
    void onTraversal(NodeId node, unsigned out_port, unsigned out_vc,
                     Cycle now);

    /** A credit for (@p port, @p vc) returned to @p node. */
    void onCredit(NodeId node, unsigned port, unsigned vc, Cycle now);

    /** Wire-level accounting (aggregate over all links). */
    void onLinkFlitSent() { ++wireSent_; }
    void onLinkFlitDelivered() { ++wireDelivered_; }

    /**
     * End-of-run conservation: when the network drained, every
     * downstream VC must have all credits home, and flits put on
     * wires must equal flits taken off them plus the fault
     * injector's dropped-flit count (@p dropped_flits; 0 without
     * fault injection).
     */
    void finalize(bool drained, std::uint64_t dropped_flits,
                  Cycle now);

  private:
    static std::uint64_t slotKey(NodeId node, unsigned port,
                                 unsigned vc);

    ReportFn report_;
    unsigned vcDepth_;

    /** Flits in flight towards each downstream VC (sent - credited);
     * ordered map for deterministic iteration. */
    std::map<std::uint64_t, std::int64_t> outstanding_;

    std::uint64_t wireSent_ = 0;
    std::uint64_t wireDelivered_ = 0;
};

/** RTR monotonicity across the tries of one locking attempt. */
class RtrChecker
{
  public:
    RtrChecker(ReportFn report, const OcorConfig &ocor)
        : report_(std::move(report)), ocor_(ocor)
    {}

    void onAcquireStart(ThreadId tid, Cycle now);
    void onLockTry(ThreadId tid, unsigned rtr, Cycle now);

  private:
    ReportFn report_;
    const OcorConfig &ocor_;
    /** Last RTR stamped per thread (ordered map, small). */
    std::map<ThreadId, unsigned> lastRtr_;
};

/** Futex wakeup matching: every WAKE_UP reaches one sleeper. */
class WakeupChecker
{
  public:
    explicit WakeupChecker(ReportFn report)
        : report_(std::move(report))
    {}

    void onWakeSent(Addr lock, ThreadId tid, Cycle now);
    void onWakeConsumed(Addr lock, ThreadId tid, Cycle now);

    /**
     * @p lossy: the run saw unrecoverable packet losses, so an
     * outstanding wake may legitimately have died on a faulty link;
     * the lost-wakeup check is skipped (FaultInjector accounting).
     */
    void finalize(bool lossy, Cycle now);

  private:
    /** Wake state of one (lock, sleeper). A watchdog rewake is a
     * second send that is delivered too, so sends are counted; a
     * wake is lost only if a send came after the last consumption
     * (an extra copy absorbed after its twin woke the sleeper is
     * not). */
    struct Pending
    {
        unsigned unconsumed = 0;
        bool sentSinceConsume = false;
    };

    ReportFn report_;
    std::map<std::pair<Addr, ThreadId>, Pending> pending_;
    std::uint64_t sent_ = 0;
    std::uint64_t consumed_ = 0;
};

} // namespace ocor

#endif // OCOR_CHECK_CHECKERS_HH

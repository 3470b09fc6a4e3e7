/**
 * @file
 * Queue-spinlock client: the thread-side lock/unlock state machine of
 * Algorithms 1 and 2 under cache coherence (Figure 4).
 *
 * Lock path. The first atomic_try_lock is a network round trip to
 * the lock word's home bank. On failure the thread spins *locally*
 * on its cached copy of the lock line (test-and-test-and-set style):
 * the spin loop burns one retry of the MAX_SPIN_COUNT budget every
 * retryInterval cycles and generates no network traffic. When the
 * holder releases, the home invalidates every polling sharer
 * (LockFreeNotify, the invalidation of Figure 4a at T4); each
 * spinner then re-issues an atomic locking request, and the burst of
 * requests races through the NoC — the race OCOR's router
 * prioritization decides. Before each request the enhanced primitive
 * computes RTR = MAX_SPIN_COUNT - burned retries and stamps (RTR,
 * PROG) into the packet via the core-local registers.
 *
 * When the budget is exhausted the thread pays the sleep-preparation
 * cost, registers through sys_futex(FUTEX_WAIT), and sleeps until
 * the home wakes it with the lock already reserved (queue-spinlock
 * handover), after which it pays the wakeup cost and enters the CS.
 *
 * Unlock path: atomic_release (LockRelease), PROG++, then
 * sys_futex(FUTEX_WAKE) after the syscall delay; the FUTEX_WAKE
 * packet carries the lowest priority under OCOR (Table 1 rule 4).
 */

#ifndef OCOR_OS_QSPINLOCK_HH
#define OCOR_OS_QSPINLOCK_HH

#include <algorithm>
#include <functional>

#include "common/types.hh"
#include "core/ocor_config.hh"
#include "mem/address_map.hh"
#include "noc/packet.hh"
#include "os/params.hh"
#include "os/pcb.hh"
#include "os/protocol_step.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;
class LockLedger;

/** Per-thread queue-spinlock state machine. */
class QSpinlock
{
  public:
    using AcquiredFn = std::function<void(Cycle)>;

    QSpinlock(Pcb &pcb, const OcorConfig &ocor, const OsParams &os,
              const AddressMap &amap, SendFn send);

    /** Begin acquiring @p lock_word; @p done fires on entry. */
    void acquire(Addr lock_word, Cycle now, AcquiredFn done);

    /** Release the currently held lock (Algorithm 2). */
    void release(Cycle now);

    /** Lock-protocol traffic addressed to this thread. */
    void handle(const PacketPtr &pkt, Cycle now);

    /** Advance timed transitions (budget, sleep prep, wakeup). */
    void tick(Cycle now);

    bool waiting() const { return cs_.active; }
    bool holding() const { return cs_.holding; }
    Addr currentLock() const { return lock_; }
    bool everSleptThisWait() const { return cs_.everSlept; }
    bool tryInFlight() const { return cs_.tryInFlight; }

    /** The pure protocol core (model-checker-shared state). */
    const proto::ClientState &protoState() const { return cs_; }

    /** Departure cycle of the last LockTry (neverCycle before the
     * first). The accounting layer splits transfer vs arbitration
     * cycles around trySentAt() + the uncontended round trip. */
    Cycle trySentAt() const { return trySentAt_; }

    /**
     * Earliest cycle tick() would do any work (neverCycle = none),
     * mirroring tick()'s guards term by term: the two fault-recovery
     * watchdogs, the deferred FUTEX_WAKE, and the retry/sleep-prep/
     * wakeup timer. Everything else this class does is handle()
     * traffic or an acquire()/release() call, not tick() work.
     */
    Cycle
    nextWake() const
    {
        Cycle w = neverCycle;
        if (os_.tryWatchdogCycles > 0 && cs_.active &&
            cs_.tryInFlight &&
            pcb_.state == ThreadState::Spinning)
            w = std::min(w, trySentAt_ + os_.tryWatchdogCycles);
        if (os_.sleepWatchdogCycles > 0 && cs_.active &&
            pcb_.state == ThreadState::Sleeping &&
            sleepingSince_ != neverCycle)
            w = std::min(w, sleepingSince_ + os_.sleepWatchdogCycles);
        w = std::min(w, pendingWakeAt_);
        if (cs_.timer != proto::ClientTimer::None)
            w = std::min(w, timerAt_);
        return w;
    }

    /** Watchdog re-issues of a LockTry / FutexWait (fault recovery). */
    std::uint64_t recoveries() const { return recoveries_; }

    /** Duplicate or orphan grants/wakes absorbed idempotently. */
    std::uint64_t duplicatesAbsorbed() const
    {
        return duplicatesAbsorbed_;
    }

    /** Current RTR value (Algorithm 1 line 5). */
    unsigned currentRtr(Cycle now) const;

    /** Attach the event tracer (null = tracing off, zero overhead). */
    void setTracer(Tracer *t) { trace_ = t; }

    /** Attach the invariant checker (null = checking off). */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /** Attach the COH attribution ledger (null = off, zero cost). */
    void setLedger(LockLedger *l) { ledger_ = l; }

    /**
     * Test hook: pretend to hold @p lock_word without acquiring it,
     * so seeded-violation tests can break mutual exclusion on
     * purpose. Never called outside tests.
     */
    void testForceHold(Addr lock_word)
    {
        cs_.holding = true;
        lock_ = lock_word;
    }

  private:
    void issueTry(Cycle now);
    void enterCs(Cycle now);
    void beginSleepPrep(Cycle now);
    void registerWait(Cycle now);
    Cycle sleepDeadline() const;

    /** Map a clientStep result onto packets, timers and counters. */
    void applyAction(const proto::ClientResult &res, Addr addr,
                     Cycle now);

    /** Return an unwanted grant/wake so the home frees the lock. */
    void returnOrphanGrant(Addr lock_word, Cycle now);

    Pcb &pcb_;
    const OcorConfig &ocor_;
    OsParams os_;
    const AddressMap &amap_;
    SendFn send_;

    /** Pure protocol core: every protocol decision is made by
     * proto::clientStep on this struct (DESIGN.md §15); the fields
     * below it are simulation-only timing/accounting. */
    proto::ClientState cs_;

    Addr lock_ = 0;
    Cycle spinStart_ = 0;   ///< budget anchor
    AcquiredFn done_;

    Cycle timerAt_ = neverCycle; ///< due cycle of cs_.timer

    /** Deferred sys_futex(FUTEX_WAKE) after a release. */
    Cycle pendingWakeAt_ = neverCycle;
    Addr pendingWakeLock_ = 0;

    // --- fault-recovery watchdogs (inert while the OsParams
    //     *WatchdogCycles knobs stay 0, their default) --------------
    Cycle trySentAt_ = neverCycle;    ///< last LockTry departure
    Cycle sleepingSince_ = neverCycle; ///< entered Sleeping state
    std::uint64_t recoveries_ = 0;
    std::uint64_t duplicatesAbsorbed_ = 0;

    Tracer *trace_ = nullptr;
    CheckerRegistry *check_ = nullptr;
    LockLedger *ledger_ = nullptr;
};

} // namespace ocor

#endif // OCOR_OS_QSPINLOCK_HH

#include "os/qspinlock.hh"

#include <algorithm>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "core/priority.hh"
#include "os/lock_ledger.hh"

namespace ocor
{

QSpinlock::QSpinlock(Pcb &pcb, const OcorConfig &ocor,
                     const OsParams &os, const AddressMap &amap,
                     SendFn send)
    : pcb_(pcb), ocor_(ocor), os_(os), amap_(amap),
      send_(std::move(send))
{}

Cycle
QSpinlock::sleepDeadline() const
{
    switch (os_.lockMode) {
      case LockMode::PureSpin:
        return neverCycle; // a spinlock never sleeps
      case LockMode::PureSleep:
        return spinStart_; // a queueing lock parks immediately
      default:
        return spinStart_
            + static_cast<Cycle>(ocor_.maxSpinCount)
            * os_.retryInterval;
    }
}

void
QSpinlock::beginSleepPrep(Cycle now)
{
    // Spin budget exhausted: fall into the sleeping phase (the pure
    // step already moved cs_ to SleepPrep and armed its timer).
    ++pcb_.counters.sleeps;
    pcb_.state = ThreadState::SleepPrep;
    timerAt_ = now + os_.sleepPrepCycles;
    if (trace_)
        trace_->record(TraceCat::Lock, TraceEv::LockSleep, now,
                       pcb_.node, pcb_.tid, lock_);
}

void
QSpinlock::registerWait(Cycle now)
{
    // sys_futex(FUTEX_WAIT): register in the home lock queue.
    pcb_.state = ThreadState::Sleeping;
    sleepingSince_ = now;
    auto pkt = makePacket(MsgType::FutexWait, pcb_.node,
                          amap_.homeOf(lock_), lock_);
    pkt->thread = pcb_.tid;
    pkt->priority = makePriority(ocor_, PriorityClass::Wakeup,
                                 1, pcb_.prog);
    send_(pkt, now);
}

unsigned
QSpinlock::currentRtr(Cycle now) const
{
    // One retry of the budget burns every retryInterval cycles of
    // local polling (Algorithm 1's loop under a cached lock line).
    Cycle elapsed = now >= spinStart_ ? now - spinStart_ : 0;
    std::uint64_t burned = elapsed / os_.retryInterval;
    if (burned >= ocor_.maxSpinCount)
        return 1;
    return static_cast<unsigned>(ocor_.maxSpinCount - burned);
}

void
QSpinlock::applyAction(const proto::ClientResult &res, Addr addr,
                       Cycle now)
{
    switch (res.action) {
      case proto::ClientAction::None:
        break;

      case proto::ClientAction::SendTry:
        if (res.countRetry)
            ++pcb_.counters.retries;
        issueTry(now);
        break;

      case proto::ClientAction::ArmRetryTimer:
        // Revalidate remotely at the remote-try cadence (capped by
        // the budget deadline).
        timerAt_ = std::min(now + os_.remoteTryInterval,
                            sleepDeadline());
        break;

      case proto::ClientAction::BeginSleepPrep:
        beginSleepPrep(now);
        break;

      case proto::ClientAction::RegisterWait:
        registerWait(now);
        break;

      case proto::ClientAction::EnterCs:
        enterCs(now);
        break;

      case proto::ClientAction::StartWaking:
        pcb_.state = ThreadState::Waking;
        timerAt_ = now + os_.wakeupCycles;
        break;

      case proto::ClientAction::AbsorbDuplicate:
        ++duplicatesAbsorbed_;
        break;

      case proto::ClientAction::ReturnOrphan:
        ++duplicatesAbsorbed_;
        returnOrphanGrant(addr, now);
        break;

      case proto::ClientAction::SendRelease: {
        // Algorithm 2: atomic_release, PROG++, then FUTEX_WAKE with
        // the lowest priority (Table 1 rule 4) after the syscall
        // delay.
        auto rel = makePacket(MsgType::LockRelease, pcb_.node,
                              amap_.homeOf(lock_), lock_);
        rel->thread = pcb_.tid;
        rel->priority = makePriority(ocor_,
                                     PriorityClass::LockRelease,
                                     1, pcb_.prog);
        send_(rel, now);

        ++pcb_.prog;
        pcb_.regProg = pcb_.prog;

        pendingWakeLock_ = lock_;
        pendingWakeAt_ = now + os_.futexWakeDelay;

        pcb_.state = ThreadState::Running;
        break;
      }
    }
}

void
QSpinlock::acquire(Addr lock_word, Cycle now, AcquiredFn done)
{
    if (cs_.active || cs_.holding)
        ocor_panic("QSpinlock t%u: acquire while busy", pcb_.tid);
    proto::ClientResult res =
        proto::clientStep(cs_, proto::ClientEvent::Acquire, {});
    lock_ = lock_word;
    spinStart_ = now;
    done_ = std::move(done);
    pcb_.state = ThreadState::Spinning;
    if (check_)
        check_->onAcquireStart(pcb_.tid, now);
    if (ledger_)
        ledger_->noteAttemptStart(lock_);
    if (trace_)
        trace_->record(TraceCat::Lock, TraceEv::LockAcquireStart, now,
                       pcb_.node, pcb_.tid, lock_, 0,
                       currentRtr(now));
    applyAction(res, lock_, now);
}

void
QSpinlock::issueTry(Cycle now)
{
    // Algorithm 1, lines 5-7: compute RTR, expose it (and PROG) to
    // the NI through core-local registers, then try the lock.
    pcb_.regRtr = currentRtr(now);
    pcb_.regProg = pcb_.prog;
    cs_.tryInFlight = true;
    trySentAt_ = now;
    if (check_)
        check_->onLockTry(pcb_.tid, pcb_.regRtr, now);

    auto pkt = makePacket(MsgType::LockTry, pcb_.node,
                          amap_.homeOf(lock_), lock_);
    pkt->thread = pcb_.tid;
    pkt->priority = makePriority(ocor_, PriorityClass::LockTry,
                                 pcb_.regRtr, pcb_.regProg);
    if (trace_)
        trace_->record(TraceCat::Lock, TraceEv::LockTrySent, now,
                       pcb_.node, pcb_.tid, lock_, pkt->id,
                       pcb_.regRtr,
                       static_cast<std::uint32_t>(pcb_.regProg));
    send_(pkt, now);
}

void
QSpinlock::enterCs(Cycle now)
{
    // Only reachable from an active acquisition (the pure step has
    // already cleared cs_.active and set cs_.holding).
    pcb_.state = ThreadState::InCS;
    ++pcb_.counters.acquisitions;
    if (cs_.everSlept)
        ++pcb_.counters.sleepWins;
    else
        ++pcb_.counters.spinWins;
    if (ledger_)
        ledger_->noteAcquired(lock_, pcb_.tid, now - spinStart_);
    if (trace_)
        trace_->record(TraceCat::Lock, TraceEv::CsEnter, now,
                       pcb_.node, pcb_.tid, lock_, 0,
                       cs_.everSlept ? 1 : 0);
    if (done_) {
        auto fn = std::move(done_);
        done_ = nullptr;
        fn(now);
    }
}

void
QSpinlock::handle(const PacketPtr &pkt, Cycle now)
{
    if (pkt->thread != pcb_.tid)
        ocor_panic("QSpinlock t%u: message for t%u", pcb_.tid,
                   pkt->thread);

    proto::ClientInputs in;
    in.sameLock = pkt->addr == lock_;

    switch (pkt->type) {
      case MsgType::LockGrant:
        applyAction(proto::clientStep(
                        cs_, proto::ClientEvent::MsgLockGrant, in),
                    pkt->addr, now);
        break;

      case MsgType::LockFail: {
        in.budgetExhausted = now >= sleepDeadline();
        proto::ClientResult res = proto::clientStep(
            cs_, proto::ClientEvent::MsgLockFail, in);
        if (res.staleFail) {
            ocor_warn("QSpinlock t%u: stale LockFail", pcb_.tid);
            break;
        }
        if (trace_)
            trace_->record(TraceCat::Lock, TraceEv::LockFailRecv, now,
                           pcb_.node, pcb_.tid, lock_, pkt->id,
                           currentRtr(now));
        applyAction(res, pkt->addr, now);
        break;
      }

      case MsgType::LockFreeNotify:
        applyAction(proto::clientStep(
                        cs_, proto::ClientEvent::MsgLockFreeNotify,
                        in),
                    pkt->addr, now);
        break;

      case MsgType::WakeNotify: {
        // Every WakeNotify arrival is one delivered wakeup: the sink
        // NI absorbs network duplicates, so each arrival pairs with a
        // distinct home-side send (watchdog rewakes re-arm the
        // checker's outstanding entry).
        if (check_)
            check_->onWakeConsumed(pkt->addr, pcb_.tid, now);
        bool wasActive = cs_.active;
        proto::ClientResult res = proto::clientStep(
            cs_, proto::ClientEvent::MsgWakeNotify, in);
        if (wasActive && in.sameLock && trace_)
            trace_->record(TraceCat::Lock, TraceEv::WakeupRecv,
                           now, pcb_.node, pcb_.tid, lock_,
                           pkt->id);
        applyAction(res, pkt->addr, now);
        break;
      }

      default:
        ocor_panic("QSpinlock t%u: unexpected message %s", pcb_.tid,
                   msgTypeName(pkt->type));
    }
}

void
QSpinlock::returnOrphanGrant(Addr lock_word, Cycle now)
{
    ocor_warn("QSpinlock t%u: returning orphan grant of %llx",
              pcb_.tid, static_cast<unsigned long long>(lock_word));
    auto rel = makePacket(MsgType::LockRelease, pcb_.node,
                          amap_.homeOf(lock_word), lock_word);
    rel->thread = pcb_.tid;
    rel->priority = makePriority(ocor_, PriorityClass::LockRelease,
                                 1, pcb_.prog);
    send_(rel, now);
}

void
QSpinlock::tick(Cycle now)
{
    // Fault-recovery watchdogs (inert at the default knob values).
    // These re-issue messages without changing protocol state, so
    // they live outside the pure step (see protocol_step.hh).
    if (os_.tryWatchdogCycles > 0 && cs_.active &&
        cs_.tryInFlight && pcb_.state == ThreadState::Spinning &&
        now >= trySentAt_ + os_.tryWatchdogCycles) {
        // The LockTry or its answer was lost: re-issue. The home
        // re-grants idempotently if the original actually won.
        ++recoveries_;
        ++pcb_.counters.retries;
        issueTry(now);
    }
    if (os_.sleepWatchdogCycles > 0 && cs_.active &&
        pcb_.state == ThreadState::Sleeping &&
        now >= sleepingSince_ + os_.sleepWatchdogCycles) {
        // Sleeping suspiciously long: the FutexWait registration or
        // the WakeNotify may be lost. Re-register; the home dedups
        // queued waiters and re-wakes an already-granted one.
        ++recoveries_;
        sleepingSince_ = now;
        auto pkt = makePacket(MsgType::FutexWait, pcb_.node,
                              amap_.homeOf(lock_), lock_);
        pkt->thread = pcb_.tid;
        pkt->priority = makePriority(ocor_, PriorityClass::Wakeup,
                                     1, pcb_.prog);
        send_(pkt, now);
    }

    if (pendingWakeAt_ != neverCycle && pendingWakeAt_ <= now) {
        pendingWakeAt_ = neverCycle;
        auto wake = makePacket(MsgType::FutexWake, pcb_.node,
                               amap_.homeOf(pendingWakeLock_),
                               pendingWakeLock_);
        wake->thread = pcb_.tid;
        wake->priority = makePriority(ocor_, PriorityClass::Wakeup,
                                      1, pcb_.prog);
        send_(wake, now);
    }

    if (cs_.timer == proto::ClientTimer::None || timerAt_ > now)
        return;
    proto::ClientInputs in;
    in.budgetExhausted = now >= sleepDeadline();
    applyAction(proto::clientStep(
                    cs_, proto::ClientEvent::TimerFire, in),
                lock_, now);
}

void
QSpinlock::release(Cycle now)
{
    if (!cs_.holding)
        ocor_panic("QSpinlock t%u: release without hold", pcb_.tid);
    proto::ClientResult res =
        proto::clientStep(cs_, proto::ClientEvent::Release, {});
    if (trace_)
        trace_->record(TraceCat::Lock, TraceEv::CsExit, now,
                       pcb_.node, pcb_.tid, lock_);
    applyAction(res, lock_, now);
}

} // namespace ocor

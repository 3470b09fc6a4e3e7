/**
 * @file
 * Unit tests for the abstract protocol model (DESIGN.md §15):
 * initial states, transition enumeration, the FIFO thread->home
 * channel, and the symmetry-canonical visited keys.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "verify/model.hh"

using namespace ocor;
using namespace ocor::verify;

namespace
{

bool
hasDeliver(const std::vector<ScheduleStep> &steps, proto::MsgKind m,
           ThreadId tid)
{
    return std::any_of(steps.begin(), steps.end(),
                       [&](const ScheduleStep &s) {
                           return s.kind == StepKind::Deliver &&
                               s.msg == m && s.tid == tid;
                       });
}

/** Apply the first enabled step matching the predicate; fatal when
 * none matches. */
template <typename Pred>
void
applyMatching(const VerifyConfig &cfg, WorldState &s, Pred pred)
{
    std::vector<ScheduleStep> steps = enabledSteps(cfg, s);
    auto it = std::find_if(steps.begin(), steps.end(), pred);
    ASSERT_NE(it, steps.end());
    applyStep(cfg, s, *it);
}

} // namespace

TEST(VerifyModel, InitialStateOnlyEnablesAcquires)
{
    VerifyConfig cfg;
    cfg.threads = 3;
    WorldState s = initialState(cfg);

    std::vector<ScheduleStep> steps = enabledSteps(cfg, s);
    ASSERT_EQ(steps.size(), 3u);
    for (const ScheduleStep &st : steps)
        EXPECT_EQ(st.kind, StepKind::Acquire);
}

TEST(VerifyModel, ForceHoldSeedsAsymmetricHolder)
{
    VerifyConfig cfg;
    cfg.bug = BugKind::ForceHold;
    WorldState s = initialState(cfg);

    EXPECT_TRUE(s.threads[0].cs.holding);
    EXPECT_EQ(s.threads[0].acqsLeft, 0u);
    EXPECT_FALSE(s.home.held) <<
        "the home must NOT know about the forced holder";
}

TEST(VerifyModel, AcquireSendsTryAndStampsRtr)
{
    VerifyConfig cfg;
    cfg.spinBudget = 2;
    WorldState s = initialState(cfg);

    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 0;
    });

    ASSERT_EQ(s.msgs.size(), 1u);
    EXPECT_EQ(s.msgs[0].kind, proto::MsgKind::LockTry);
    EXPECT_EQ(s.msgs[0].tid, 0u);
    EXPECT_EQ(s.msgs[0].rtr, 2u) << "first try carries full budget";
}

TEST(VerifyModel, HomeChannelIsFifo)
{
    // After t0 releases and immediately re-acquires, its next
    // LockTry must NOT be deliverable before its LockRelease: the
    // real NoC routes same-flow packets in order, and delivering
    // the try first makes the home re-grant to the "holder".
    VerifyConfig cfg;
    cfg.acquisitions = 2;
    WorldState s = initialState(cfg);

    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 0;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver &&
            st.msg == proto::MsgKind::LockTry;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver &&
            st.msg == proto::MsgKind::LockGrant;
    });
    ASSERT_TRUE(s.threads[0].cs.holding);
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Release;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 0;
    });

    // In flight from t0: LockRelease (seq 1) then LockTry (seq 2).
    std::vector<ScheduleStep> steps = enabledSteps(cfg, s);
    EXPECT_TRUE(hasDeliver(steps, proto::MsgKind::LockRelease, 0));
    EXPECT_FALSE(hasDeliver(steps, proto::MsgKind::LockTry, 0))
        << "LockTry overtook LockRelease on the FIFO channel";

    // Once the release lands, the try becomes deliverable.
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver &&
            st.msg == proto::MsgKind::LockRelease;
    });
    steps = enabledSteps(cfg, s);
    EXPECT_TRUE(hasDeliver(steps, proto::MsgKind::LockTry, 0));
}

TEST(VerifyModel, RetryTimerEnumeratesBudgetRace)
{
    VerifyConfig cfg;
    cfg.spinBudget = 2;
    WorldState s = initialState(cfg);

    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 0;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 1;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver && st.tid == 0 &&
            st.msg == proto::MsgKind::LockTry;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver && st.tid == 1 &&
            st.msg == proto::MsgKind::LockTry;
    });
    // t1 lost the race: a LockFail is on its way back.
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver && st.tid == 1 &&
            st.msg == proto::MsgKind::LockFail &&
            !st.budgetExhausted;
    });

    // The armed retry timer races real time: both outcomes must be
    // enabled while budget remains.
    std::vector<ScheduleStep> steps = enabledSteps(cfg, s);
    unsigned timerVariants = 0;
    for (const ScheduleStep &st : steps)
        if (st.kind == StepKind::Timer && st.tid == 1)
            ++timerVariants;
    EXPECT_EQ(timerVariants, 2u);
}

TEST(VerifyModel, CanonicalKeyMergesThreadRenamings)
{
    VerifyConfig cfg;
    cfg.threads = 2;
    WorldState a = initialState(cfg);
    WorldState b = initialState(cfg);

    // Drive the same protocol prefix on thread 0 in `a` and thread
    // 1 in `b`: the two worlds are renamings of each other.
    applyMatching(cfg, a, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 0;
    });
    applyMatching(cfg, b, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 1;
    });

    EXPECT_NE(a.encode(), b.encode());
    EXPECT_EQ(canonicalKey(cfg, a), canonicalKey(cfg, b));
}

TEST(VerifyModel, ForceHoldPinsThreadZeroInCanonicalKey)
{
    VerifyConfig cfg;
    cfg.threads = 2;
    cfg.bug = BugKind::ForceHold;
    WorldState a = initialState(cfg);

    // Swapping the forced holder onto thread 1 is NOT a legal
    // renaming: the configurations are behaviourally different
    // (thread 0 is the seeded one) and must not merge.
    WorldState b = a;
    std::swap(b.threads[0], b.threads[1]);

    EXPECT_NE(canonicalKey(cfg, a), canonicalKey(cfg, b));
}

namespace
{

/** @p s with thread identities renamed through @p pi: the plain
 * definition canonicalKey must agree with. */
WorldState
renamed(const WorldState &s, const std::vector<ThreadId> &pi)
{
    WorldState r = s;
    for (std::size_t t = 0; t < s.threads.size(); ++t)
        r.threads[pi[t]] = s.threads[t];
    if (s.home.holder != invalidThread)
        r.home.holder = pi[s.home.holder];
    for (auto &[tid, node] : r.home.waitQueue) {
        tid = pi[tid];
        node = static_cast<NodeId>(tid);
    }
    for (auto &[tid, node] : r.home.pollers) {
        tid = pi[tid];
        node = static_cast<NodeId>(tid);
    }
    for (Msg &m : r.msgs)
        if (m.tid != invalidThread)
            m.tid = pi[m.tid];
    return r;
}

/** Smallest encode() over every allowed renaming, by brute force. */
std::string
bruteForceKey(const VerifyConfig &cfg, const WorldState &s)
{
    std::vector<ThreadId> pi(s.threads.size());
    for (std::size_t t = 0; t < pi.size(); ++t)
        pi[t] = static_cast<ThreadId>(t);
    std::string best = s.encode();
    while (std::next_permutation(pi.begin(), pi.end())) {
        if (cfg.bug == BugKind::ForceHold && pi[0] != 0)
            continue;
        best = std::min(best, renamed(s, pi).encode());
    }
    return best;
}

/** canonicalKey equals the brute-force key on the first @p limit
 * distinct states a breadth-first walk of @p cfg reaches. */
void
expectKeysMatchBruteForce(const VerifyConfig &cfg, std::size_t limit)
{
    SCOPED_TRACE(cfg.describe());
    std::vector<WorldState> queue{initialState(cfg)};
    std::set<std::string> seen{queue[0].encode()};
    for (std::size_t i = 0; i < queue.size() && i < limit; ++i) {
        const WorldState cur = queue[i];
        ASSERT_EQ(canonicalKey(cfg, cur), bruteForceKey(cfg, cur))
            << "state " << i;
        for (ScheduleStep &step : enabledSteps(cfg, cur)) {
            if (queue.size() >= limit)
                break;
            WorldState next = cur;
            applyStep(cfg, next, step);
            if (seen.insert(next.encode()).second)
                queue.push_back(std::move(next));
        }
    }
}

} // namespace

TEST(VerifyModel, CanonicalKeyMatchesBruteForceRenaming)
{
    VerifyConfig cfg;
    cfg.threads = 3;
    cfg.acquisitions = 2;
    expectKeysMatchBruteForce(cfg, 3000);
    cfg.threads = 4;
    cfg.acquisitions = 1;
    expectKeysMatchBruteForce(cfg, 3000);
    cfg.bug = BugKind::ForceHold;
    expectKeysMatchBruteForce(cfg, 3000);
}

TEST(VerifyModel, RtrMonotonicityViolationDetectedOnRaise)
{
    VerifyConfig cfg;
    cfg.spinBudget = 2;
    cfg.bug = BugKind::RtrRaise;
    WorldState s = initialState(cfg);

    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 0;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Acquire && st.tid == 1;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver && st.tid == 0 &&
            st.msg == proto::MsgKind::LockTry;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver && st.tid == 1 &&
            st.msg == proto::MsgKind::LockTry;
    });
    applyMatching(cfg, s, [](const ScheduleStep &st) {
        return st.kind == StepKind::Deliver && st.tid == 1 &&
            st.msg == proto::MsgKind::LockFail &&
            !st.budgetExhausted;
    });

    // The retry re-sends a LockTry whose seeded stamp *rises*.
    std::vector<ScheduleStep> steps = enabledSteps(cfg, s);
    auto it = std::find_if(steps.begin(), steps.end(),
                           [](const ScheduleStep &st) {
                               return st.kind == StepKind::Timer &&
                                   st.tid == 1 &&
                                   !st.budgetExhausted;
                           });
    ASSERT_NE(it, steps.end());
    StepOutcome out = applyStep(cfg, s, *it);
    EXPECT_EQ(out.violated, Property::RtrMonotone);
}

TEST(VerifyModel, TerminalStuckStateClassifiedDeadlockVsLostWakeup)
{
    VerifyConfig cfg;
    WorldState s = initialState(cfg);

    // Non-terminal initial state: clean.
    EXPECT_EQ(checkState(cfg, s, false).violated, Property::None);

    // A thread still wanting the lock in a terminal state is a
    // deadlock; the same with a *sleeping* thread is a lost wakeup.
    WorldState stuck = s;
    stuck.threads[0].cs.active = true;
    EXPECT_EQ(checkState(cfg, stuck, true).violated,
              Property::Deadlock);

    stuck.threads[0].cs.phase = proto::ClientPhase::Sleeping;
    EXPECT_EQ(checkState(cfg, stuck, true).violated,
              Property::LostWakeup);
}

TEST(VerifyModel, MutexViolationOnTwoHolders)
{
    VerifyConfig cfg;
    WorldState s = initialState(cfg);
    s.threads[0].cs.holding = true;
    s.threads[1].cs.holding = true;
    EXPECT_EQ(checkState(cfg, s, false).violated, Property::Mutex);
}

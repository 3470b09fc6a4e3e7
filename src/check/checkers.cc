#include "check/checkers.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/onehot.hh"
#include "core/priority.hh"
#include "noc/packet.hh"
#include "sim/system.hh"

namespace ocor
{

// printf-checked message formatting shared with the log macros
#define fmt ::ocor::detail::formatv

// --- MutexChecker ---------------------------------------------------

void
MutexChecker::onHolderWalk(const std::vector<HolderView> &view,
                           Cycle now)
{
    holders_.clear();
    for (ThreadId t = 0; t < view.size(); ++t) {
        const HolderView &v = view[t];
        if (!v.holding && !v.inCs)
            continue;
        if (v.inCs && !v.holding) {
            report_(CheckId::Mutex, now,
                    fmt("thread %u is InCS without holding any lock",
                        t));
            continue;
        }
        holders_.emplace_back(v.lock, t);
    }
    if (holders_.size() < 2)
        return;
    std::sort(holders_.begin(), holders_.end());
    for (std::size_t i = 1; i < holders_.size(); ++i) {
        if (holders_[i].first == holders_[i - 1].first) {
            report_(CheckId::Mutex, now,
                    fmt("mutual exclusion broken: threads %u and %u "
                        "both hold lock %llx",
                        holders_[i - 1].second, holders_[i].second,
                        static_cast<unsigned long long>(
                            holders_[i].first)));
        }
    }
}

// --- VcFifoChecker --------------------------------------------------

std::uint64_t
VcFifoChecker::vcKey(NodeId node, unsigned port, unsigned vc)
{
    return (static_cast<std::uint64_t>(node) << 16) | (port << 8) | vc;
}

void
VcFifoChecker::onPush(NodeId node, unsigned port, unsigned vc,
                      std::uint64_t pkt_id, unsigned flit_index,
                      Cycle)
{
    shadow_[vcKey(node, port, vc)].emplace_back(pkt_id, flit_index);
}

void
VcFifoChecker::onPop(NodeId node, unsigned port, unsigned vc,
                     std::uint64_t pkt_id, unsigned flit_index,
                     Cycle now)
{
    auto &q = shadow_[vcKey(node, port, vc)];
    if (q.empty()) {
        report_(CheckId::VcFifo, now,
                fmt("router %u port %u vc %u popped flit "
                    "(pkt %llu idx %u) from an empty shadow FIFO",
                    node, port, vc,
                    static_cast<unsigned long long>(pkt_id),
                    flit_index));
        return;
    }
    const FlitKey expect = q.front();
    q.pop_front();
    if (expect.first != pkt_id || expect.second != flit_index) {
        report_(CheckId::VcFifo, now,
                fmt("router %u port %u vc %u reordered: expected "
                    "pkt %llu flit %u, popped pkt %llu flit %u",
                    node, port, vc,
                    static_cast<unsigned long long>(expect.first),
                    expect.second,
                    static_cast<unsigned long long>(pkt_id),
                    flit_index));
    }
}

// --- OneHotChecker --------------------------------------------------

void
OneHotChecker::onInject(const Packet &pkt, Cycle now)
{
    const PriorityFields &f = pkt.priority;

    if (!f.check) {
        if (f.priorityBits != 0 || f.progressBits != 0)
            report_(CheckId::OneHot, now,
                    fmt("pkt %llu (%s): priority/progress bits set "
                        "without the check bit",
                        static_cast<unsigned long long>(pkt.id),
                        msgTypeName(pkt.type)));
        return;
    }

    // Check bit is only ever set on lock-protocol packets, and only
    // while OCOR stamps headers at all.
    if (!isLockProtocol(pkt.type))
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): check bit on a non-lock packet",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type)));
    if (!ocor_.enabled)
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): check bit with OCOR disabled",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type)));

    if (!onehotValid(f.priorityBits)) {
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): priority bits %llx not one-hot",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type),
                    static_cast<unsigned long long>(f.priorityBits)));
        return; // level checks below need a decodable word
    }
    if (!onehotValid(f.progressBits)) {
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): progress bits %llx not one-hot",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type),
                    static_cast<unsigned long long>(f.progressBits)));
        return;
    }

    const unsigned level = onehotDecode(f.priorityBits);
    const unsigned seg = onehotDecode(f.progressBits);
    if (level > ocor_.numRtrLevels)
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): priority level %u above the top "
                    "locking level %u",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type), level,
                    ocor_.numRtrLevels));
    if (seg >= ocor_.numProgressLevels)
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): progress segment %u out of range "
                    "(max %u)",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type), seg,
                    ocor_.numProgressLevels - 1));

    // Table 1 rule 4: wakeup requests occupy the dedicated lowest
    // level — and nothing else does.
    const bool wakeup_class = pkt.type == MsgType::FutexWake ||
        pkt.type == MsgType::WakeNotify ||
        pkt.type == MsgType::FutexWait;
    if (ocor_.ruleWakeupLast && wakeup_class && level != 0)
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): wakeup-class packet at level %u "
                    "(Table 1 rule 4 demands the lowest level)",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type), level));
    if (ocor_.ruleWakeupLast && !wakeup_class && level == 0)
        report_(CheckId::OneHot, now,
                fmt("pkt %llu (%s): non-wakeup packet at the "
                    "wakeup-reserved level 0",
                    static_cast<unsigned long long>(pkt.id),
                    msgTypeName(pkt.type)));
}

// --- ArbitrationChecker ---------------------------------------------

void
ArbitrationChecker::onGrant(NodeId node, const char *stage,
                            const std::vector<const Packet *> &cands,
                            unsigned winner, Cycle now)
{
    if (winner >= cands.size() || cands[winner] == nullptr) {
        report_(CheckId::Arbitration, now,
                fmt("router %u %s: granted slot %u which is not a "
                    "requester", node, stage, winner));
        return;
    }
    const std::uint64_t won =
        priorityRank(ocor_, cands[winner]->priority);
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (i == winner || cands[i] == nullptr)
            continue;
        const std::uint64_t rival =
            priorityRank(ocor_, cands[i]->priority);
        if (rival > won) {
            report_(CheckId::Arbitration, now,
                    fmt("router %u %s: grant to pkt %llu (%s, rank "
                        "%llu) beat higher-priority pkt %llu (%s, "
                        "rank %llu) — Table 1 violated",
                        node, stage,
                        static_cast<unsigned long long>(
                            cands[winner]->id),
                        msgTypeName(cands[winner]->type),
                        static_cast<unsigned long long>(won),
                        static_cast<unsigned long long>(cands[i]->id),
                        msgTypeName(cands[i]->type),
                        static_cast<unsigned long long>(rival)));
        }
    }
}

// --- CreditChecker --------------------------------------------------

std::uint64_t
CreditChecker::slotKey(NodeId node, unsigned port, unsigned vc)
{
    return (static_cast<std::uint64_t>(node) << 16) | (port << 8) | vc;
}

void
CreditChecker::onTraversal(NodeId node, unsigned out_port,
                           unsigned out_vc, Cycle now)
{
    std::int64_t &out = outstanding_[slotKey(node, out_port, out_vc)];
    ++out;
    if (out > static_cast<std::int64_t>(vcDepth_))
        report_(CheckId::Credit, now,
                fmt("router %u port %u vc %u: %lld flits in flight "
                    "exceed the downstream depth %u (credit "
                    "underflow)", node, out_port, out_vc,
                    static_cast<long long>(out), vcDepth_));
}

void
CreditChecker::onCredit(NodeId node, unsigned port, unsigned vc,
                        Cycle now)
{
    std::int64_t &out = outstanding_[slotKey(node, port, vc)];
    --out;
    if (out < 0)
        report_(CheckId::Credit, now,
                fmt("router %u port %u vc %u: credit returned with "
                    "no outstanding flit (spurious credit)", node,
                    port, vc));
}

void
CreditChecker::finalize(bool drained, std::uint64_t dropped_flits,
                        Cycle now)
{
    if (!drained)
        return; // a hung / truncated run legitimately leaves flits
    for (const auto &[key, out] : outstanding_) {
        if (out != 0)
            report_(CheckId::Credit, now,
                    fmt("router %u port %u vc %u: %lld credits never "
                        "returned after drain",
                        static_cast<unsigned>(key >> 16),
                        static_cast<unsigned>((key >> 8) & 0xff),
                        static_cast<unsigned>(key & 0xff),
                        static_cast<long long>(out)));
    }
    // Wire conservation: every flit sent was delivered, except the
    // ones the fault injector dropped (whose credits it synthesized).
    if (wireSent_ != wireDelivered_ + dropped_flits)
        report_(CheckId::Credit, now,
                fmt("link flit conservation broken: %llu sent != "
                    "%llu delivered + %llu fault-dropped",
                    static_cast<unsigned long long>(wireSent_),
                    static_cast<unsigned long long>(wireDelivered_),
                    static_cast<unsigned long long>(dropped_flits)));
}

// --- RtrChecker -----------------------------------------------------

void
RtrChecker::onAcquireStart(ThreadId tid, Cycle)
{
    lastRtr_.erase(tid);
}

void
RtrChecker::onLockTry(ThreadId tid, unsigned rtr, Cycle now)
{
    if (rtr < 1 || rtr > ocor_.maxSpinCount) {
        report_(CheckId::Rtr, now,
                fmt("thread %u stamped RTR %u outside [1, %u]", tid,
                    rtr, ocor_.maxSpinCount));
        return;
    }
    auto it = lastRtr_.find(tid);
    if (it != lastRtr_.end() && rtr > it->second) {
        report_(CheckId::Rtr, now,
                fmt("thread %u: RTR rose %u -> %u within one locking "
                    "attempt (must be non-increasing)", tid,
                    it->second, rtr));
    }
    lastRtr_[tid] = rtr;
}

// --- WakeupChecker --------------------------------------------------

void
WakeupChecker::onWakeSent(Addr lock, ThreadId tid, Cycle)
{
    Pending &p = pending_[{lock, tid}];
    ++p.unconsumed;
    p.sentSinceConsume = true;
    ++sent_;
}

void
WakeupChecker::onWakeConsumed(Addr lock, ThreadId tid, Cycle now)
{
    auto it = pending_.find({lock, tid});
    if (it == pending_.end() || it->second.unconsumed == 0) {
        report_(CheckId::Wakeup, now,
                fmt("thread %u consumed a WAKE_UP for lock %llx the "
                    "home never issued (or consumed it twice)", tid,
                    static_cast<unsigned long long>(lock)));
        return;
    }
    --it->second.unconsumed;
    it->second.sentSinceConsume = false;
    ++consumed_;
}

void
WakeupChecker::finalize(bool lossy, Cycle now)
{
    if (lossy)
        return; // unrecoverable losses may eat a wake legitimately
    for (const auto &[key, p] : pending_) {
        if (!p.sentSinceConsume)
            continue;
        const auto &[lock, tid] = key;
        report_(CheckId::Wakeup, now,
                fmt("lost wakeup: WAKE_UP for thread %u on lock %llx "
                    "was never consumed (%llu sent, %llu consumed)",
                    tid, static_cast<unsigned long long>(lock),
                    static_cast<unsigned long long>(sent_),
                    static_cast<unsigned long long>(consumed_)));
    }
}

#undef fmt

} // namespace ocor

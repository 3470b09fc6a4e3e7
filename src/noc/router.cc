#include "noc/router.hh"

#include <bit>
#include <utility>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "core/priority.hh"

namespace ocor
{

Router::Router(NodeId id, const MeshShape &mesh,
               const NocParams &params, const OcorConfig &ocor)
    : id_(id), mesh_(mesh), params_(params), ocor_(ocor)
{
    if (params.numVcs > maxVcs)
        ocor_panic("Router: numVcs %u exceeds %u", params.numVcs,
                   maxVcs);
    vcs_.resize(std::size_t{NumPorts} * params.numVcs);
    outputs_.assign(NumPorts, OutputUnit(params.numVcs, params.vcDepth));
    slab_.resize(vcs_.size() * params.vcDepth);
    for (std::size_t i = 0; i < vcs_.size(); ++i)
        vcs_[i].fifo = Ring<BufferedFlit>(
            {slab_.data() + i * params.vcDepth, params.vcDepth});
    for (unsigned p = 0; p < NumPorts; ++p) {
        vaArb_.emplace_back(NumPorts * params.numVcs);
        saLocalArb_.emplace_back(params.numVcs);
        saGlobalArb_.emplace_back(NumPorts);
    }
}

void
Router::attach(unsigned port, Link *in_link, Link *out_link)
{
    if (port >= NumPorts)
        ocor_panic("Router::attach: bad port %u", port);
    inLinks_[port] = in_link;
    outLinks_[port] = out_link;
}

unsigned
Router::occupancy() const
{
    return buffered_;
}

void
Router::headAtFront(unsigned p, unsigned v)
{
    auto &vc = vcAt(p, v);
    const Packet &pkt = *vc.front().flit.pkt;
    vc.outPort = xyRoute(mesh_, id_, pkt.dst);
    vc.rank = static_cast<std::int64_t>(priorityRank(ocor_, pkt.priority));
    setBit(vaReady_, vaPorts_, p, v);
}

void
Router::testSwapVcFlits(unsigned port, unsigned v)
{
    auto &vc = vcAt(port, v);
    if (vc.fifo.size() < 2)
        return;
    std::swap(vc.fifo[0], vc.fifo[1]);
    vc.rank = static_cast<std::int64_t>(
        priorityRank(ocor_, vc.front().flit.pkt->priority));
}

void
Router::acceptCredits(unsigned p, Cycle now)
{
    // Credits returning from downstream.
    outLinks_[p]->drainCredits(now, [&](unsigned vc) {
        if (vc >= params_.numVcs)
            ocor_panic("router %u: bad credit vc %u", id_, vc);
        unsigned &credits = outputs_[p].credits[vc];
        if (credits >= params_.vcDepth)
            ocor_panic("router %u: credit overflow", id_);
        ++credits;
        if (check_)
            check_->onCreditReturn(id_, p, vc, now);
    });
}

void
Router::acceptFlits(unsigned p, Cycle now)
{
    // Flits arriving from upstream.
    while (auto flit = inLinks_[p]->takeFlit(now)) {
        const unsigned v = flit->vc;
        if (v >= params_.numVcs)
            ocor_panic("router %u: bad flit vc %u", id_, v);
        auto &vc = vcAt(p, v);
        if (vc.fifo.full())
            ocor_panic("router %u: VC overflow p=%u vc=%u", id_, p, v);
        // A head landing in an empty VC is a fresh VA candidate (an
        // empty VC cannot be mid-packet: outVc is reset when the
        // previous tail traverses, so front-is-head implies
        // unallocated). A body flit landing in an empty VC belongs
        // to the packet already being routed, whose rank is cached.
        const bool fresh_head = vc.fifo.empty() && flit->isHead();
        vc.fifo.push({std::move(*flit), now});
        if (fresh_head)
            headAtFront(p, v);
        ++buffered_;
        if (check_)
            check_->onVcPush(id_, p, v, vc.fifo.back().flit, now);
    }
}

void
Router::deliverIncoming(Cycle now)
{
    for (unsigned p = 0; p < NumPorts; ++p) {
        if (outLinks_[p])
            acceptCredits(p, now);
        if (inLinks_[p])
            acceptFlits(p, now);
    }
}

void
Router::grantVc(unsigned p, unsigned v, unsigned op, Cycle now)
{
    auto &vc = vcAt(p, v);
    const int ovc = outputs_[op].findFreeVc();
    outputs_[op].allocate(static_cast<unsigned>(ovc));
    vc.outVc = ovc;
    clearBit(vaReady_, vaPorts_, p, v);
    setBit(saActive_, saPorts_, p, v);
    ++stats_.vaGrants;
    if (trace_) {
        const auto &pkt = *vc.front().flit.pkt;
        trace_->record(TraceCat::Noc, TraceEv::VcAlloc, now, id_,
                       invalidThread, 0, pkt.id,
                       static_cast<std::uint32_t>(pkt.type), op);
    }
}

void
Router::vcAllocation(Cycle now)
{
    const unsigned nvc = params_.numVcs;

    // Bucket the eligible VA candidates by output port, in increasing
    // flattened index port * numVcs + vc (the VA arbiters' input
    // order). A head whose output has no free VC cannot be granted
    // this cycle, so it is left out: it would neither win nor move an
    // arbiter pointer.
    constexpr unsigned maxReqs = NumPorts * maxVcs;
    std::array<std::array<unsigned, maxReqs>, NumPorts> reqs;
    std::array<unsigned, NumPorts> reqCount{};
    for (std::uint32_t ports = vaPorts_; ports; ports &= ports - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(ports));
        for (std::uint32_t m = vaReady_[p]; m; m &= m - 1) {
            const auto v = static_cast<unsigned>(std::countr_zero(m));
            const auto &vc = vcAt(p, v);
            // Stage-1 eligibility: one cycle after arrival.
            if (vc.front().arrival + 1 > now)
                continue;
            if (outputs_[vc.outPort].freeMask == 0)
                continue;
            reqs[vc.outPort][reqCount[vc.outPort]++] = p * nvc + v;
        }
    }

    for (unsigned op = 0; op < NumPorts; ++op) {
        unsigned n = reqCount[op];
        if (n == 0)
            continue;
        auto &idx = reqs[op];
        if (n == 1) {
            // Single-requester fast path: no competition, so skip
            // the rank scan. grantSingle advances the round-robin
            // pointer exactly as the full arbitration would.
            vaArb_[op].grantSingle(idx[0]);
            grantVc(idx[0] / nvc, idx[0] % nvc, op, now);
            continue;
        }
        // Grant free output VCs to requesters in rank order; the
        // arbiter's pointer rotates ties. Ranks do not change within
        // the cycle, so a grant just drops the winner from the list.
        std::array<std::int64_t, maxReqs> ranks;
        for (unsigned i = 0; i < n; ++i)
            ranks[i] = headRank(vcs_[idx[i]]);
        while (n > 0 && outputs_[op].freeMask != 0) {
            const int winner = vaArb_[op].pickSparse(
                {idx.data(), n}, {ranks.data(), n});
            if (check_ && check_->wantsArbitration()) {
                std::vector<const Packet *> cands(NumPorts * nvc,
                                                  nullptr);
                for (unsigned i = 0; i < n; ++i)
                    cands[idx[i]] = vcs_[idx[i]].front().flit.pkt.get();
                check_->onArbGrant(id_, "va", cands,
                                   static_cast<unsigned>(winner),
                                   now);
            }
            const auto w = static_cast<unsigned>(winner);
            grantVc(w / nvc, w % nvc, op, now);
            unsigned i = 0;
            while (idx[i] != w)
                ++i;
            for (--n; i < n; ++i) {
                idx[i] = idx[i + 1];
                ranks[i] = ranks[i + 1];
            }
        }
    }
}

void
Router::traverse(unsigned p, unsigned v, std::int64_t rank, Cycle now)
{
    auto &vc = vcAt(p, v);
    const unsigned op = vc.outPort;
    const auto ovc_id = static_cast<unsigned>(vc.outVc);
    if (!outLinks_[op])
        ocor_panic("router %u: traversal to unattached port %u", id_,
                   op);

    BufferedFlit bf = vc.fifo.pop();
    --buffered_;
    if (check_)
        check_->onVcPop(id_, p, v, bf.flit, now);

    Flit &out = bf.flit;
    out.vc = ovc_id;
    const bool head = out.isHead();
    const bool tail = out.isTail();
    const MsgType type = out.pkt->type;
    const std::uint64_t pkt_id = out.pkt->id;
    outLinks_[op]->sendFlit(std::move(out), now);
    --outputs_[op].credits[ovc_id];
    if (check_)
        check_->onTraversal(id_, op, ovc_id, now);

    // Return the freed buffer slot upstream.
    if (inLinks_[p])
        inLinks_[p]->sendCredit(v, now);

    ++stats_.saGrants;
    ++stats_.flitsRouted;
    if (isLockProtocol(type))
        ++stats_.lockFlitsRouted;
    if (trace_ && head)
        trace_->record(TraceCat::Noc, TraceEv::SaGrant, now, id_,
                       invalidThread, 0, pkt_id,
                       static_cast<std::uint32_t>(type),
                       static_cast<std::uint32_t>(rank));

    if (tail) {
        outputs_[op].release(ovc_id); // VC reusable by the next packet
        vc.outVc = -1;
        clearBit(saActive_, saPorts_, p, v);
        // Anything left in the FIFO is the next packet, so its head
        // is now at the front awaiting VA.
        if (!vc.fifo.empty())
            headAtFront(p, v);
    }
}

void
Router::switchAllocation(Cycle now)
{
    const unsigned nvc = params_.numVcs;

    // Local stage: per input port, pick the best ready VC (the LPA of
    // Figure 9, modeled by rank arbitration). Only VCs holding a
    // downstream VC can be ready.
    struct Candidate
    {
        unsigned inVc = 0;
        std::int64_t rank = -1;
    };
    std::array<Candidate, NumPorts> local{};
    // Bit p of outReq[op]: port p's local winner heads for op.
    std::array<std::uint32_t, NumPorts> outReq{};

    for (std::uint32_t ports = saPorts_; ports; ports &= ports - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(ports));
        std::array<unsigned, maxVcs> idx;
        std::array<std::int64_t, maxVcs> ranks;
        unsigned n = 0;
        for (std::uint32_t m = saActive_[p]; m; m &= m - 1) {
            const auto v = static_cast<unsigned>(std::countr_zero(m));
            const auto &vc = vcAt(p, v);
            if (vc.empty())
                continue;
            if (outputs_[vc.outPort].credits[vc.outVc] == 0)
                continue; // no downstream buffer space
            if (vc.front().arrival + params_.routerStages > now)
                continue; // still in the pipeline
            idx[n] = v;
            ranks[n] = headRank(vc);
            ++n;
        }
        if (n == 0)
            continue;
        // Lone ready VC: bypass the rank arbitration (pointer still
        // advances identically).
        unsigned w = 0;
        if (n == 1) {
            saLocalArb_[p].grantSingle(idx[0]);
        } else {
            const auto winner = static_cast<unsigned>(
                saLocalArb_[p].pickSparse({idx.data(), n},
                                          {ranks.data(), n}));
            while (idx[w] != winner)
                ++w;
            if (check_ && check_->wantsArbitration()) {
                std::vector<const Packet *> cands(nvc, nullptr);
                for (unsigned i = 0; i < n; ++i)
                    cands[idx[i]] =
                        vcAt(p, idx[i]).front().flit.pkt.get();
                check_->onArbGrant(id_, "sa-local", cands, winner, now);
            }
        }
        local[p] = {idx[w], ranks[w]};
        outReq[vcAt(p, idx[w]).outPort] |= 1u << p;
    }

    // Global stage: per output port, pick among input-port winners.
    for (unsigned op = 0; op < NumPorts; ++op) {
        const std::uint32_t req = outReq[op];
        if (req == 0)
            continue;
        const auto count = static_cast<unsigned>(std::popcount(req));
        unsigned p;
        if (count == 1) {
            p = static_cast<unsigned>(std::countr_zero(req));
            saGlobalArb_[op].grantSingle(p);
        } else {
            std::array<unsigned, NumPorts> idx;
            std::array<std::int64_t, NumPorts> ranks;
            unsigned n = 0;
            for (std::uint32_t m = req; m; m &= m - 1) {
                idx[n] = static_cast<unsigned>(std::countr_zero(m));
                ranks[n] = local[idx[n]].rank;
                ++n;
            }
            p = static_cast<unsigned>(saGlobalArb_[op].pickSparse(
                {idx.data(), n}, {ranks.data(), n}));
            if (check_ && check_->wantsArbitration()) {
                std::vector<const Packet *> cands(NumPorts, nullptr);
                for (unsigned i = 0; i < n; ++i)
                    cands[idx[i]] = vcAt(idx[i], local[idx[i]].inVc)
                                        .front().flit.pkt.get();
                check_->onArbGrant(id_, "sa-global", cands, p, now);
            }
            stats_.saConflictLosses += count - 1;
        }
        // Switch traversal for the winner.
        traverse(p, local[p].inVc, local[p].rank, now);
    }
}

void
Router::tick(Cycle now)
{
    deliverIncoming(now);
    if (buffered_ == 0)
        return; // nothing to route this cycle
    vcAllocation(now);
    switchAllocation(now);
}

void
Router::tickEvent(Cycle now)
{
    for (unsigned p = 0; p < NumPorts; ++p) {
        if (outLinks_[p] && outLinks_[p]->creditDue(now))
            acceptCredits(p, now);
        if (inLinks_[p] && inLinks_[p]->flitDue(now))
            acceptFlits(p, now);
    }
    if (buffered_ == 0)
        return;
    // With no unallocated head anywhere, vcAllocation() finds no
    // candidate, and with no allocated VC, switchAllocation() finds
    // no local-stage candidate: both are provable no-ops, so the
    // gates cannot change behavior.
    if (vaPorts_ != 0)
        vcAllocation(now);
    if (saPorts_ != 0)
        switchAllocation(now);
}

} // namespace ocor

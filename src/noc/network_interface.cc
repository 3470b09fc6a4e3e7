#include "noc/network_interface.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "check/checker_registry.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "core/priority.hh"
#include "noc/routing.hh"

namespace ocor
{

NetworkInterface::NetworkInterface(NodeId id, const NocParams &params,
                                   const OcorConfig &ocor)
    : id_(id), params_(params), ocor_(ocor), sendArb_(params.numVcs)
{
    outVcs_.resize(params.numVcs);
    reassembly_.resize(params.numVcs);
    for (auto &vc : outVcs_)
        vc.credits = params.vcDepth;
}

void
NetworkInterface::attach(Link *to_router, Link *from_router)
{
    toRouter_ = to_router;
    fromRouter_ = from_router;
}

void
NetworkInterface::inject(const PacketPtr &pkt, Cycle now)
{
    pkt->injectCycle = now;
    if (check_)
        check_->onInject(*pkt, now);
    if (trace_)
        trace_->record(TraceCat::Noc, TraceEv::PktInject, now, id_,
                       invalidThread, 0, pkt->id,
                       static_cast<std::uint32_t>(pkt->type),
                       pkt->dst);
    if (pkt->dst == id_) {
        // Local traffic never enters the mesh; model a minimal
        // loopback latency. It cannot fault, so it is never tracked.
        loopback_.emplace_back(now + 1, pkt);
        return;
    }
    if (fault_ && fault_->active()) {
        // Source NI duties under the fault model: establish the
        // retransmission lineage and stamp the header CRC.
        if (pkt->seq == 0)
            pkt->seq = pkt->id;
        pkt->crc = packetCrc(*pkt);
        if (fault_->config().retransmit && !outstanding_.count(pkt->seq))
            outstanding_[pkt->seq] =
                {pkt, now + fault_->backoff(0), 0};
    }
    injectQueue_.push_back({pkt, now + 1});
    stats_.injectQueuePeak =
        std::max<std::uint64_t>(stats_.injectQueuePeak,
                                injectQueue_.size());
}

void
NetworkInterface::onAcked(std::uint64_t seq, Cycle)
{
    outstanding_.erase(seq);
}

void
NetworkInterface::checkRetransmits(Cycle now)
{
    const FaultConfig &cfg = fault_->config();
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
        Outstanding &o = it->second;
        if (o.deadline > now) {
            ++it;
            continue;
        }
        if (o.attempts >= cfg.maxRetries) {
            ++fault_->stats().unrecoverable;
            ocor_warn("NI %u: giving up on %s after %u "
                      "retransmissions", id_,
                      o.pkt->describe().c_str(), o.attempts);
            it = outstanding_.erase(it);
            continue;
        }
        // Re-send a fresh copy (the timed-out transmission may still
        // be crawling through a congested mesh; the sink absorbs
        // duplicates). The clone keeps the OCOR priority header of
        // the original.
        PacketPtr copy = clonePacket(*o.pkt);
        copy->crc = packetCrc(*copy);
        copy->injectCycle = now;
        ++o.attempts;
        o.pkt = copy;
        o.deadline = now + fault_->backoff(o.attempts);
        ++fault_->stats().retransmissions;
        if (trace_)
            trace_->record(TraceCat::Noc, TraceEv::Retransmit, now,
                           id_, invalidThread, 0, copy->id,
                           static_cast<std::uint32_t>(copy->type),
                           o.attempts);
        injectQueue_.push_back({copy, now + 1});
        ++it;
    }
}

bool
NetworkInterface::idle() const
{
    if (!injectQueue_.empty() || !loopback_.empty())
        return false;
    if (!outstanding_.empty())
        return false; // a retransmission may still be due
    for (const auto &vc : outVcs_)
        if (vc.pkt)
            return false;
    return reassembling_ == 0;
}

void
NetworkInterface::ejectIncoming(Cycle now)
{
    // Loopback deliveries.
    while (!loopback_.empty() && loopback_.front().first <= now) {
        auto pkt = loopback_.front().second;
        loopback_.pop_front();
        pkt->ejectCycle = now;
        ++stats_.packetsEjected;
        if (trace_)
            trace_->record(TraceCat::Noc, TraceEv::PktEject, now, id_,
                           invalidThread, 0, pkt->id,
                           static_cast<std::uint32_t>(pkt->type),
                           pkt->src);
        if (deliver_)
            deliver_(pkt, now);
    }

    if (!fromRouter_)
        return;

    // The router's local port delivers at most one flit per cycle;
    // the NI consumes it immediately and returns the credit.
    while (auto flit = fromRouter_->takeFlit(now)) {
        fromRouter_->sendCredit(flit->vc, now);
        if (flit->vc >= reassembly_.size())
            ocor_panic("NI %u: bad flit vc %u", id_, flit->vc);
        RxPacket &rx = reassembly_[flit->vc];
        if (flit->isHead()) {
            if (rx.pkt)
                ocor_panic("NI %u: head over unfinished packet", id_);
            rx.pkt = std::move(flit->pkt);
            ++reassembling_;
        } else if (!rx.pkt) {
            ocor_panic("NI %u: flit without head", id_);
        }
        rx.corrupt |= flit->corrupted;
        if (flit->isTail()) {
            RxPacket done = std::exchange(rx, {});
            --reassembling_;
            deliverMeshPacket(done.pkt, done.corrupt, now);
        }
    }
}

void
NetworkInterface::deliverMeshPacket(const PacketPtr &pkt, bool corrupt,
                                    Cycle now)
{
    if (fault_ && fault_->active() && pkt->seq != 0) {
        // Reassembly complete: re-compute the CRC over the received
        // header/payload and compare against the source NI's stamp.
        // A mismatch discards the packet; the sender's timeout will
        // retransmit it.
        if (corrupt || pkt->crc != packetCrc(*pkt)) {
            ++fault_->stats().crcRejects;
            if (trace_)
                trace_->record(
                    TraceCat::Noc, TraceEv::CrcReject, now, id_,
                    invalidThread, 0, pkt->id,
                    static_cast<std::uint32_t>(pkt->type), pkt->src);
            return;
        }
        if (ack_)
            ack_(pkt->src, pkt->seq, now);

        // Absorb duplicates (an original that outlived the sender's
        // timeout, or a redundant retransmission).
        if (!deliveredSeqs_.insert(pkt->seq).second) {
            ++fault_->stats().duplicatesDropped;
            return;
        }
        deliveredAge_.emplace_back(now, pkt->seq);
        // Age out lineages no retransmission can still revive: the
        // sender stops after the full backoff sequence has elapsed.
        Cycle horizon = 2 * fault_->backoff(
            fault_->config().maxRetries + 1);
        while (!deliveredAge_.empty() &&
               deliveredAge_.front().first + horizon < now) {
            deliveredSeqs_.erase(deliveredAge_.front().second);
            deliveredAge_.pop_front();
        }
    }
    pkt->ejectCycle = now;
    ++stats_.packetsEjected;
    if (trace_)
        trace_->record(TraceCat::Noc, TraceEv::PktEject, now, id_,
                       invalidThread, 0, pkt->id,
                       static_cast<std::uint32_t>(pkt->type),
                       pkt->src);
    if (deliver_)
        deliver_(pkt, now);
}

void
NetworkInterface::assignVcs(Cycle now)
{
    // Hand free VCs to the highest-rank waiting packets. FIFO order
    // among equal ranks (stable scan).
    for (auto &vc : outVcs_) {
        if (vc.pkt)
            continue;
        std::int64_t best = -1;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < injectQueue_.size(); ++i) {
            auto &q = injectQueue_[i];
            if (q.ready > now)
                continue;
            if (q.rank < 0)
                q.rank = static_cast<std::int64_t>(
                    priorityRank(ocor_, q.pkt->priority));
            if (q.rank > best) {
                best = q.rank;
                best_idx = i;
            }
        }
        if (best < 0)
            break;
        vc.pkt = std::move(injectQueue_[best_idx].pkt);
        vc.rank = best;
        vc.nextFlit = 0;
        injectQueue_.erase(injectQueue_.begin()
                           + static_cast<std::ptrdiff_t>(best_idx));
    }
}

void
NetworkInterface::sendOneFlit(Cycle now)
{
    if (!toRouter_)
        return;

    std::array<std::int64_t, 16> rank_buf;
    auto ranks = std::span<std::int64_t>(rank_buf.data(),
                                         params_.numVcs);
    bool any = false;
    for (unsigned v = 0; v < params_.numVcs; ++v) {
        ranks[v] = -1;
        const auto &vc = outVcs_[v];
        if (!vc.pkt || vc.credits == 0)
            continue;
        ranks[v] = vc.rank;
        any = true;
    }
    if (!any)
        return;
    int winner = sendArb_.pick(ranks);
    if (winner < 0)
        return;

    auto &vc = outVcs_[static_cast<unsigned>(winner)];
    Flit flit;
    flit.index = vc.nextFlit;
    flit.type = flitTypeFor(vc.nextFlit, vc.pkt->numFlits);
    flit.vc = static_cast<unsigned>(winner);
    const bool tail = flit.isTail();

    if (flit.isHead())
        vc.pkt->networkEnter = now;
    if (tail) {
        ++stats_.packetsInjected;
        if (isLockProtocol(vc.pkt->type))
            ++stats_.lockPacketsInjected;
        // The tail flit takes over the VC's reference.
        flit.pkt = std::move(vc.pkt);
        vc.nextFlit = 0;
    } else {
        flit.pkt = vc.pkt;
        ++vc.nextFlit;
    }

    toRouter_->sendFlit(std::move(flit), now);
    --vc.credits;
    ++stats_.flitsInjected;
    // The NI's injection VCs are "port NumPorts" in the credit
    // ledger: a pseudo-port that can never clash with a router port.
    if (check_)
        check_->onTraversal(id_, NumPorts, static_cast<unsigned>(winner),
                            now);
}

void
NetworkInterface::tick(Cycle now)
{
    // Credits from the router's local input port.
    if (toRouter_) {
        toRouter_->drainCredits(now, [&](unsigned v) {
            if (v >= params_.numVcs)
                ocor_panic("NI %u: bad credit vc %u", id_, v);
            auto &vc = outVcs_[v];
            if (vc.credits >= params_.vcDepth)
                ocor_panic("NI %u: credit overflow", id_);
            ++vc.credits;
            if (check_)
                check_->onCreditReturn(id_, NumPorts, v, now);
        });
    }

    ejectIncoming(now);
    if (fault_ && fault_->active() && fault_->config().retransmit)
        checkRetransmits(now);
    assignVcs(now);
    sendOneFlit(now);
}

void
NetworkInterface::tickEvent(Cycle now)
{
    bool due = (toRouter_ && toRouter_->creditDue(now)) ||
               (fromRouter_ && fromRouter_->flitDue(now)) ||
               (!loopback_.empty() && loopback_.front().first <= now) ||
               (!injectQueue_.empty() &&
                injectQueue_.front().ready <= now);
    if (!due) {
        for (const auto &vc : outVcs_) {
            if (vc.pkt && vc.credits > 0) {
                due = true;
                break;
            }
        }
    }
    if (!due && fault_ && fault_->active() &&
        fault_->config().retransmit) {
        for (const auto &[seq, o] : outstanding_) {
            if (o.deadline <= now) {
                due = true;
                break;
            }
        }
    }
    if (due)
        tick(now);
}

} // namespace ocor

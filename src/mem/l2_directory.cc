#include "mem/l2_directory.hh"

#include <algorithm>

#include "common/log.hh"

namespace ocor
{

namespace
{
std::uint64_t
bitOf(NodeId n)
{
    return std::uint64_t{1} << n;
}
} // namespace

L2Directory::L2Directory(NodeId node, const AddressMap &amap,
                         const MemParams &params, SendFn send)
    : node_(node), amap_(amap), params_(params),
      send_(std::move(send)),
      l2_(params.l2Sets, params.l2Ways, params.lineBytes)
{}

NodeId
L2Directory::ownerOf(Addr addr) const
{
    auto it = dir_.find(amap_.lineAddr(addr));
    return it == dir_.end() ? invalidNode : it->second.owner;
}

std::uint64_t
L2Directory::sharersOf(Addr addr) const
{
    auto it = dir_.find(amap_.lineAddr(addr));
    return it == dir_.end() ? 0 : it->second.sharers;
}

bool
L2Directory::lineBusy(Addr addr) const
{
    auto it = dir_.find(amap_.lineAddr(addr));
    return it != dir_.end() && it->second.busy;
}

bool
L2Directory::idle() const
{
    if (!delayed_.empty())
        return false;
    for (const auto &[addr, e] : dir_)
        if (e.busy || !e.pending.empty())
            return false;
    return true;
}

void
L2Directory::handle(const PacketPtr &pkt, Cycle now)
{
    // Bank access latency before the controller sees the message.
    delayed_.emplace_back(now + params_.l2Latency, pkt);
}

void
L2Directory::tick(Cycle now)
{
    while (!delayed_.empty() && delayed_.front().first <= now) {
        PacketPtr pkt = delayed_.front().second;
        delayed_.pop_front();
        process(pkt, now);
    }
}

void
L2Directory::fillL2(Addr line, Cycle now)
{
    ++useTick_;
    if (CacheLine *l = l2_.find(line)) {
        l2_.touch(l, useTick_);
        return;
    }
    CacheLine *victim = l2_.victimFor(line);
    if (victim->valid) {
        const Addr vline = victim->addr;
        auto vit = dir_.find(vline);
        if (vit != dir_.end() && !vit->second.busy) {
            // Best-effort recall of the victim's cached copies; acks
            // are dropped as stale (txSeq bumped). Rare by design:
            // the banks are far larger than any workload footprint.
            auto &ve = vit->second;
            ++ve.txSeq;
            std::uint64_t targets = ve.sharers;
            if (ve.owner != invalidNode)
                targets |= bitOf(ve.owner);
            for (NodeId n = 0; targets != 0; ++n, targets >>= 1) {
                if (targets & 1) {
                    auto inv = makePacket(MsgType::Inv, node_, n,
                                          vline);
                    inv->aux = ve.txSeq << 8;
                    send_(inv, now);
                    ++stats_.invsSent;
                }
            }
            dir_.erase(vit);
            ++stats_.l2Evictions;
            auto wb = makePacket(MsgType::MemWrite, node_,
                                 amap_.mcOf(vline), vline);
            send_(wb, now);
            ++stats_.memWrites;
        } else if (vit != dir_.end()) {
            // The victim line is mid-transaction; drop only the L2
            // copy and keep the directory state (timing-directed
            // model, no data correctness impact).
            ++stats_.l2Evictions;
        }
    }
    l2_.fill(victim, line, CoherState::S, useTick_);
}

void
L2Directory::awaitUnblock(DirEntry &e, const PacketPtr &req)
{
    // The line stays busy until the requester confirms its fill;
    // this closes the window where a later Fetch/Inv could overtake
    // the in-flight grant.
    e.busy = true;
    e.req = req;
    e.waitingUnblock = true;
}

void
L2Directory::unbusyAndDrain(Addr line, Cycle now)
{
    auto it = dir_.find(line);
    if (it == dir_.end())
        return;
    DirEntry &e = it->second;
    e.busy = false;
    e.req.reset();
    e.waitingMem = false;
    e.waitingFetch = false;
    e.waitingUnblock = false;
    e.acksLeft = 0;
    while (!e.busy && !e.pending.empty()) {
        PacketPtr next = e.pending.pop();
        process(next, now);
    }
}

void
L2Directory::grantM(DirEntry &e, Cycle now)
{
    const PacketPtr req = e.req;
    e.owner = req->src;
    e.sharers = 0;
    auto resp = makePacket(MsgType::DataExcl, node_, req->src,
                           req->addr);
    send_(resp, now);
    e.waitingFetch = false;
    e.acksLeft = 0;
    awaitUnblock(e, req);
}

void
L2Directory::finishGetS(DirEntry &e, bool owner_had_data, Cycle now)
{
    const PacketPtr req = e.req;
    fillL2(req->addr, now); // owner data (or stale copy) lands in L2
    if (!owner_had_data)
        e.owner = invalidNode;

    if (e.owner == invalidNode && e.sharers == 0) {
        e.owner = req->src;
        auto resp = makePacket(MsgType::DataExcl, node_, req->src,
                               req->addr);
        send_(resp, now);
    } else {
        e.sharers |= bitOf(req->src);
        auto resp = makePacket(MsgType::Data, node_, req->src,
                               req->addr);
        send_(resp, now);
    }
    awaitUnblock(e, req);
}

void
L2Directory::startRequest(DirEntry &e, const PacketPtr &pkt,
                          Cycle now)
{
    const Addr line = pkt->addr;

    // Miss in the bank with no on-chip owner: fetch from DRAM first.
    if (!l2_.find(line) && e.owner == invalidNode) {
        e.busy = true;
        e.req = pkt;
        e.waitingMem = true;
        auto rd = makePacket(MsgType::MemRead, node_,
                             amap_.mcOf(line), line);
        send_(rd, now);
        ++stats_.memReads;
        return;
    }

    if (pkt->type == MsgType::GetS) {
        ++stats_.getS;
        if (e.owner != invalidNode && e.owner != pkt->src) {
            e.busy = true;
            e.req = pkt;
            e.waitingFetch = true;
            ++e.txSeq;
            auto f = makePacket(MsgType::Fetch, node_, e.owner, line);
            f->aux = e.txSeq << 8; // downgrade-to-O fetch
            send_(f, now);
            ++stats_.fetchesSent;
            return;
        }
        if (e.owner == pkt->src) {
            // Requester believes it lost the line (in-flight PutE/M):
            // re-grant exclusivity.
            auto resp = makePacket(MsgType::DataExcl, node_, pkt->src,
                                   line);
            send_(resp, now);
        } else if (e.sharers == 0) {
            e.owner = pkt->src; // MOESI E grant
            auto resp = makePacket(MsgType::DataExcl, node_, pkt->src,
                                   line);
            send_(resp, now);
        } else {
            e.sharers |= bitOf(pkt->src);
            auto resp = makePacket(MsgType::Data, node_, pkt->src,
                                   line);
            send_(resp, now);
        }
        awaitUnblock(e, pkt);
        return;
    }

    if (pkt->type != MsgType::GetM)
        ocor_panic("L2 %u: startRequest on %s", node_,
                   msgTypeName(pkt->type));

    ++stats_.getM;
    ++e.txSeq;
    unsigned acks = 0;
    std::uint64_t sharers = e.sharers & ~bitOf(pkt->src);
    for (NodeId n = 0; sharers != 0; ++n, sharers >>= 1) {
        if (sharers & 1) {
            auto inv = makePacket(MsgType::Inv, node_, n, line);
            inv->aux = e.txSeq << 8;
            send_(inv, now);
            ++stats_.invsSent;
            ++acks;
        }
    }
    if (e.owner != invalidNode && e.owner != pkt->src) {
        auto f = makePacket(MsgType::Fetch, node_, e.owner, line);
        f->aux = (e.txSeq << 8) | 1; // invalidating fetch
        send_(f, now);
        ++stats_.fetchesSent;
        ++acks;
    }
    e.sharers = 0;

    e.busy = true;
    e.req = pkt;
    e.acksLeft = acks;
    if (acks == 0)
        grantM(e, now);
}

void
L2Directory::process(const PacketPtr &pkt, Cycle now)
{
    const Addr line = pkt->addr;
    DirEntry &e = dir_[line];
    dirPeak_ = std::max(dirPeak_, dir_.size());

    switch (pkt->type) {
      case MsgType::GetS:
      case MsgType::GetM:
        if (e.busy) {
            e.pending.push(pkt);
            ++stats_.queuedRequests;
        } else {
            startRequest(e, pkt, now);
        }
        break;

      case MsgType::PutM:
      case MsgType::PutE:
        if (e.busy) {
            e.pending.push(pkt);
            ++stats_.queuedRequests;
            break;
        }
        if (e.owner == pkt->src)
            e.owner = invalidNode;
        if (pkt->type == MsgType::PutM)
            fillL2(line, now);
        break;

      case MsgType::InvAck:
        if (!e.busy || e.acksLeft == 0 ||
            (pkt->aux >> 8) != e.txSeq) {
            ++stats_.staleAcks;
            break;
        }
        if (--e.acksLeft == 0 && !e.waitingMem && !e.waitingFetch)
            grantM(e, now);
        break;

      case MsgType::FetchResp:
        if (!e.busy || (pkt->aux >> 8) != e.txSeq) {
            ++stats_.staleAcks;
            break;
        }
        if (pkt->aux & 1) { // invalidating fetch: part of a GetM
            if (e.acksLeft > 0 && --e.acksLeft == 0)
                grantM(e, now);
        } else {            // downgrading fetch: completes a GetS
            e.waitingFetch = false;
            finishGetS(e, (pkt->aux & 2) == 0, now);
        }
        break;

      case MsgType::Unblock: {
        if (!e.busy || !e.waitingUnblock) {
            ++stats_.staleAcks;
            break;
        }
        unbusyAndDrain(line, now);
        break;
      }

      case MsgType::MemResp: {
        fillL2(line, now);
        e.waitingMem = false;
        PacketPtr req = e.req;
        e.busy = false;
        e.req.reset();
        if (req)
            process(req, now);
        else
            unbusyAndDrain(line, now);
        break;
      }

      default:
        ocor_panic("L2 %u: unexpected message %s", node_,
                   msgTypeName(pkt->type));
    }
}

} // namespace ocor

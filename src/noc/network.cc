#include "noc/network.hh"

#include <algorithm>

#include "common/log.hh"

namespace ocor
{

Network::Network(const MeshShape &mesh, const NocParams &params,
                 const OcorConfig &ocor, FaultInjector *fault)
    : mesh_(mesh), params_(params), ocor_(ocor),
      activeRouters_(mesh.numNodes()), activeNis_(mesh.numNodes())
{
    const unsigned n = mesh.numNodes();
    routers_.reserve(n);
    nis_.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
        routers_.push_back(
            std::make_unique<Router>(i, mesh, params, ocor));
        nis_.push_back(
            std::make_unique<NetworkInterface>(i, params, ocor));
        if (fault) {
            nis_[i]->setFaultInjector(fault);
            // An ack can leave the source NI with nothing to do.
            nis_[i]->setAckChannel(
                [this](NodeId src, std::uint64_t seq, Cycle now) {
                    nis_[src]->onAcked(seq, now);
                    settleNi(src);
                });
        }
    }

    // A link's flits go to @p down and its credits to @p up.
    unsigned next_link_id = 0;
    auto new_link = [&](ActiveSet::Member up, ActiveSet::Member down) {
        links_.push_back(std::make_unique<Link>(
            params.linkLatency, linkCapacity(params)));
        links_.back()->setSinks(down, up);
        if (fault)
            links_.back()->setFaultInjector(fault, next_link_id);
        ++next_link_id;
        return links_.back().get();
    };
    auto router = [&](NodeId i) {
        return ActiveSet::Member{&activeRouters_, i};
    };

    // Inter-router links: create one per directed adjacency, wiring
    // east/west and north/south pairs once from the lower index side.
    for (NodeId i = 0; i < n; ++i) {
        NodeId east = mesh.neighbor(i, PortEast);
        if (east != invalidNode) {
            Link *i_to_e = new_link(router(i), router(east));
            Link *e_to_i = new_link(router(east), router(i));
            routers_[i]->attach(PortEast, e_to_i, i_to_e);
            routers_[east]->attach(PortWest, i_to_e, e_to_i);
        }
        NodeId south = mesh.neighbor(i, PortSouth);
        if (south != invalidNode) {
            Link *i_to_s = new_link(router(i), router(south));
            Link *s_to_i = new_link(router(south), router(i));
            routers_[i]->attach(PortSouth, s_to_i, i_to_s);
            routers_[south]->attach(PortNorth, i_to_s, s_to_i);
        }
    }

    // NI <-> router local port.
    for (NodeId i = 0; i < n; ++i) {
        const ActiveSet::Member ni{&activeNis_, i};
        Link *ni_to_r = new_link(ni, router(i));
        Link *r_to_ni = new_link(router(i), ni);
        routers_[i]->attach(PortLocal, ni_to_r, r_to_ni);
        nis_[i]->attach(ni_to_r, r_to_ni);
    }
}

void
Network::setNodeSink(NodeId node, NetworkInterface::DeliverFn fn)
{
    nis_[node]->setDeliver(
        [this, fn = std::move(fn)](const PacketPtr &pkt, Cycle now) {
            ++stats_.packetsDelivered;
            double lat =
                static_cast<double>(pkt->ejectCycle - pkt->injectCycle);
            stats_.packetLatency.sample(lat);
            stats_.packetLatencyHist.sample(lat);
            if (isLockProtocol(pkt->type)) {
                ++stats_.lockPacketsDelivered;
                stats_.lockPacketLatency.sample(lat);
                stats_.lockPacketLatencyHist.sample(lat);
            } else {
                stats_.dataPacketLatency.sample(lat);
            }
            fn(pkt, now);
        });
}

void
Network::send(const PacketPtr &pkt, Cycle now)
{
    if (pkt->src >= mesh_.numNodes() || pkt->dst >= mesh_.numNodes())
        ocor_panic("Network::send: bad endpoints %u->%u", pkt->src,
                   pkt->dst);
    activeNis_.insert(pkt->src);
    nis_[pkt->src]->inject(pkt, now);
}

void
Network::tick(Cycle now)
{
    // Legacy exact path: every component every cycle, by definition.
    // The active sets are kept exact here too: the legacy core's
    // drain checks read them.
    const auto n = static_cast<NodeId>(routers_.size());
    for (NodeId i = 0; i < n; ++i) {  // simlint: allow(unconditional-tick)
        routers_[i]->tick(now);
        settleRouter(i);
    }
    for (NodeId i = 0; i < n; ++i) {  // simlint: allow(unconditional-tick)
        nis_[i]->tick(now);
        settleNi(i);
    }
    routersTicked_ += n;
    nisTicked_ += n;
}

void
Network::tickEvent(Cycle now)
{
    // next() reads the live words: a router or NI marked ahead of
    // the walk (by a link push this cycle) is still visited, exactly
    // as the full walk would visit it.
    for (unsigned i = activeRouters_.next(0); i != ActiveSet::npos;
         i = activeRouters_.next(i + 1)) {
        routers_[i]->tickEvent(now);
        settleRouter(i);
        ++routersTicked_;
    }
    for (unsigned i = activeNis_.next(0); i != ActiveSet::npos;
         i = activeNis_.next(i + 1)) {
        nis_[i]->tickEvent(now);
        settleNi(i);
        ++nisTicked_;
    }
}

Cycle
Network::nextWake(Cycle now) const
{
    // An active router, or an active NI whose links are not idle,
    // has a flit or credit in the pipeline, which advances next
    // cycle.
    if (!activeRouters_.empty())
        return now + 1;
    Cycle w = neverCycle;
    for (unsigned i = activeNis_.next(0); i != ActiveSet::npos;
         i = activeNis_.next(i + 1)) {
        if (!nis_[i]->linksIdle())
            return now + 1;
        w = std::min(w, nis_[i]->nextWake(now));
    }
    if (w <= now)
        w = now + 1;
    return w;
}

const char *
netWakeReasonName(NetWakeReason r)
{
    switch (r) {
      case NetWakeReason::RouterBusy: return "router_busy";
      case NetWakeReason::LinkBusy:   return "link_busy";
      case NetWakeReason::NiQueue:    return "ni_queue";
      case NetWakeReason::Idle:       return "idle";
      default:                        return "?";
    }
}

NetWakeReason
Network::wakeReason(Cycle now) const
{
    // Every non-empty link marks its consumer, so with no active
    // router a busy link shows up on an active NI.
    if (!activeRouters_.empty()) {
        for (unsigned i = activeRouters_.next(0); i != ActiveSet::npos;
             i = activeRouters_.next(i + 1))
            if (routers_[i]->occupancy() > 0)
                return NetWakeReason::RouterBusy;
        return NetWakeReason::LinkBusy;
    }
    Cycle ni_wake = neverCycle;
    for (unsigned i = activeNis_.next(0); i != ActiveSet::npos;
         i = activeNis_.next(i + 1)) {
        if (!nis_[i]->linksIdle())
            return NetWakeReason::LinkBusy;
        ni_wake = std::min(ni_wake, nis_[i]->nextWake(now));
    }
    if (ni_wake != neverCycle)
        return NetWakeReason::NiQueue;
    return NetWakeReason::Idle;
}

bool
Network::idle() const
{
    return activeRouters_.empty() && activeNis_.empty();
}

void
Network::setTracer(Tracer *t)
{
    for (auto &r : routers_)
        r->setTracer(t);
    for (auto &ni : nis_)
        ni->setTracer(t);
}

void
Network::setChecker(CheckerRegistry *c)
{
    for (auto &r : routers_)
        r->setChecker(c);
    for (auto &ni : nis_)
        ni->setChecker(c);
    for (auto &l : links_)
        l->setChecker(c);
}

std::uint64_t
Network::totalFlitsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &ni : nis_)
        n += ni->stats().flitsInjected;
    return n;
}

std::uint64_t
Network::totalPacketsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &ni : nis_)
        n += ni->stats().packetsInjected;
    return n;
}

std::uint64_t
Network::totalLockPacketsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &ni : nis_)
        n += ni->stats().lockPacketsInjected;
    return n;
}

} // namespace ocor

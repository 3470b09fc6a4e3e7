/**
 * @file
 * White-box fuzz of the router's incremental allocation state.
 *
 * The router caches each input VC's route and Table-1 rank when a
 * head reaches the front, and keeps VA-ready / SA-active bitmasks and
 * per-output free-VC masks up to date at every transition instead of
 * rescanning. This test drives a fully wired router (all five ports)
 * with random multi-packet, multi-priority traffic and random
 * downstream backpressure, and after every cycle recomputes all of
 * that state, and the active-set membership the Network reads, from
 * the buffers themselves.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "common/active_set.hh"
#include "common/rng.hh"
#include "core/priority.hh"
#include "noc/router.hh"

using namespace ocor;

namespace
{

/** Router 4, the centre of a 3x3 mesh, with a hand-driven link on
 * every side of every port. */
struct FuzzRig
{
    MeshShape mesh{3, 3};
    NocParams params;
    OcorConfig ocor;
    std::unique_ptr<Router> router;
    std::array<std::unique_ptr<Link>, NumPorts> in;  // into the router
    std::array<std::unique_ptr<Link>, NumPorts> out; // out of it
    Rng rng;

    /** Upstream side of each input port: credits and the flits left
     * of the packet in progress, per VC. */
    std::array<std::array<unsigned, 16>, NumPorts> credits{};
    std::array<std::array<unsigned, 16>, NumPorts> left{};
    std::array<std::array<PacketPtr, 16>, NumPorts> pkt{};

    /** Downstream side: credits withheld for a while (backpressure). */
    std::array<std::vector<unsigned>, NumPorts> held;

    /** An active set over every agent on the router's links, as the
     * Network keeps one: the router, the upstream agent of each input
     * port (it consumes that link's credits) and the downstream agent
     * of each output port (it consumes that link's flits). The links
     * insert; each agent erases itself once it has nothing left, as
     * the Network's settle step does. */
    static constexpr unsigned kRouter = 0;
    static constexpr unsigned upstream(unsigned p) { return 1 + p; }
    static constexpr unsigned downstream(unsigned p)
    {
        return 1 + NumPorts + p;
    }
    ActiveSet active{1 + 2 * NumPorts};

    explicit FuzzRig(std::uint64_t seed) : rng(seed)
    {
        ocor.enabled = true;
        router = std::make_unique<Router>(4, mesh, params, ocor);
        for (unsigned p = 0; p < NumPorts; ++p) {
            in[p] = std::make_unique<Link>(1, linkCapacity(params));
            out[p] = std::make_unique<Link>(1, linkCapacity(params));
            in[p]->setSinks({&active, kRouter}, {&active, upstream(p)});
            out[p]->setSinks({&active, downstream(p)}, {&active, kRouter});
            router->attach(p, in[p].get(), out[p].get());
            credits[p].fill(params.vcDepth);
        }
    }

    /** The router's tick, then the Network's settle step. */
    void
    tick(Cycle now, bool event_tick)
    {
        if (event_tick)
            router->tickEvent(now);
        else
            router->tick(now);
        if (router->quiescent())
            active.erase(kRouter);
    }

    PacketPtr
    randomPacket()
    {
        static constexpr MsgType types[] = {
            MsgType::GetS, MsgType::Data, MsgType::LockTry,
            MsgType::LockRelease, MsgType::WakeNotify};
        const MsgType t = types[rng.range(std::size(types))];
        auto p = makePacket(t, 0,
                            static_cast<NodeId>(rng.range(9)), 0x80);
        if (isLockProtocol(t)) {
            const auto cls = t == MsgType::WakeNotify
                ? PriorityClass::Wakeup
                : t == MsgType::LockRelease ? PriorityClass::LockRelease
                                            : PriorityClass::LockTry;
            p->priority = makePriority(
                ocor, cls,
                static_cast<unsigned>(1 + rng.range(ocor.maxSpinCount)),
                rng.range(64));
        }
        return p;
    }

    /** Upstream of every port: maybe send one flit (one per cycle per
     * wire), always against a credit, wormhole per VC. */
    void
    feed(Cycle now)
    {
        for (unsigned p = 0; p < NumPorts; ++p) {
            in[p]->drainCredits(now, [&](unsigned v) { ++credits[p][v]; });
            if (!rng.chance(0.7))
                continue;
            const auto v = static_cast<unsigned>(rng.range(params.numVcs));
            if (credits[p][v] == 0)
                continue;
            if (left[p][v] == 0) {
                pkt[p][v] = randomPacket();
                left[p][v] = pkt[p][v]->numFlits;
            }
            const PacketPtr &pk = pkt[p][v];
            Flit f;
            f.pkt = pk;
            f.index = pk->numFlits - left[p][v];
            f.type = flitTypeFor(f.index, pk->numFlits);
            f.vc = v;
            in[p]->sendFlit(std::move(f), now);
            --credits[p][v];
            --left[p][v];
        }
        for (unsigned p = 0; p < NumPorts; ++p)
            if (!in[p]->carriesCredit())
                active.erase(upstream(p));
    }

    /** Downstream of every port: consume, return credits late. */
    void
    drain(Cycle now)
    {
        for (unsigned p = 0; p < NumPorts; ++p) {
            if (auto f = out[p]->takeFlit(now))
                held[p].push_back(f->vc);
            // Stall ports in bursts so VCs fill up and allocated VCs
            // run out of credits.
            if (rng.chance(0.4)) {
                for (unsigned v : held[p])
                    out[p]->sendCredit(v, now);
                held[p].clear();
            }
            if (!out[p]->carriesFlit())
                active.erase(downstream(p));
        }
    }

    /** Recompute every cached field and mask and compare. */
    void
    verify(Cycle now) const
    {
        const Router &r = *router;
        std::array<std::uint32_t, NumPorts> owned{};
        unsigned buffered = 0;
        for (unsigned p = 0; p < NumPorts; ++p) {
            std::uint32_t va = 0, sa = 0;
            for (unsigned v = 0; v < params.numVcs; ++v) {
                const VcState &vc = r.vc(p, v);
                buffered += r.vcOccupancy(p, v);
                if (vc.outVc >= 0) {
                    sa |= 1u << v;
                    EXPECT_FALSE(owned[vc.outPort] >> vc.outVc & 1)
                        << "two input VCs own one output VC";
                    owned[vc.outPort] |= 1u << vc.outVc;
                }
                if (vc.empty())
                    continue;
                const Packet &front = *vc.front().flit.pkt;
                ASSERT_EQ(vc.rank, static_cast<std::int64_t>(
                                       priorityRank(ocor, front.priority)))
                    << "cycle " << now << " port " << p << " vc " << v;
                ASSERT_EQ(vc.outPort, xyRoute(mesh, r.id(), front.dst));
                if (vc.front().flit.isHead() && vc.outVc < 0)
                    va |= 1u << v;
            }
            ASSERT_EQ(r.vaReadyMask(p), va)
                << "cycle " << now << " port " << p;
            ASSERT_EQ(r.saActiveMask(p), sa)
                << "cycle " << now << " port " << p;
        }
        const std::uint32_t all = (1u << params.numVcs) - 1;
        for (unsigned op = 0; op < NumPorts; ++op) {
            ASSERT_EQ(r.output(op).freeMask, all & ~owned[op])
                << "cycle " << now << " output " << op;
            EXPECT_EQ(static_cast<unsigned>(
                          std::popcount(r.output(op).freeMask)),
                      params.numVcs -
                          static_cast<unsigned>(std::popcount(owned[op])));
        }
        ASSERT_EQ(r.occupancy(), buffered);
        // Every flit and credit on a wire keeps its consumer in the
        // set; an agent with nothing left has left it.
        bool quiet = buffered == 0;
        for (unsigned p = 0; p < NumPorts; ++p) {
            quiet = quiet && !in[p]->carriesFlit() &&
                    !out[p]->carriesCredit();
            ASSERT_EQ(active.contains(upstream(p)),
                      in[p]->carriesCredit())
                << "cycle " << now << " port " << p;
            ASSERT_EQ(active.contains(downstream(p)),
                      out[p]->carriesFlit())
                << "cycle " << now << " port " << p;
        }
        ASSERT_EQ(r.quiescent(), quiet) << "cycle " << now;
        ASSERT_EQ(active.contains(kRouter), !quiet) << "cycle " << now;
    }
};

void
fuzz(std::uint64_t seed, bool event_tick)
{
    FuzzRig rig(seed);
    for (Cycle c = 0; c < 20000; ++c) {
        rig.feed(c);
        rig.tick(c, event_tick);
        rig.drain(c);
        rig.verify(c);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The traffic must actually have exercised contention.
    EXPECT_GT(rig.router->stats().flitsRouted, 10000u);
    EXPECT_GT(rig.router->stats().saConflictLosses, 100u);
    EXPECT_GT(rig.router->stats().vaGrants, 1000u);
}

} // namespace

TEST(RouterInvariants, CachedStateMatchesRecomputationEveryCycle)
{
    fuzz(1, /*event_tick=*/true);
}

TEST(RouterInvariants, LegacyTickKeepsTheSameInvariants)
{
    fuzz(2, /*event_tick=*/false);
}

TEST(RouterInvariants, SwapHookRefreshesTheCachedRank)
{
    // testSwapVcFlits puts a different packet at the front; the
    // cached rank must follow it.
    FuzzRig rig(3);
    auto low = makePacket(MsgType::GetS, 0, 5, 0x80);
    auto high = makePacket(MsgType::LockTry, 0, 5, 0x80);
    high->priority =
        makePriority(rig.ocor, PriorityClass::LockTry, 1, 0);
    for (const auto &p : {low, high}) {
        Flit f;
        f.pkt = p;
        f.vc = 0;
        rig.in[PortWest]->sendFlit(std::move(f), p == low ? 0 : 1);
    }
    rig.router->tick(1);
    rig.router->tick(2);
    ASSERT_EQ(rig.router->vcOccupancy(PortWest, 0), 2u);
    EXPECT_EQ(rig.router->vc(PortWest, 0).rank, 0);
    rig.router->testSwapVcFlits(PortWest, 0);
    EXPECT_EQ(rig.router->vc(PortWest, 0).rank,
              static_cast<std::int64_t>(
                  priorityRank(rig.ocor, high->priority)));
    EXPECT_GT(rig.router->vc(PortWest, 0).rank, 0);
}

/**
 * @file
 * Router stress tests: VC exhaustion, cross-VC packet interleaving,
 * head-of-line behaviour and long-run stability under saturation.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "noc/router.hh"

using namespace ocor;

namespace
{

struct StressRig
{
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    std::unique_ptr<Router> router;
    Link intoWest, intoEast, intoLocal;
    Link outOfEast, outOfLocal;

    StressRig()
    {
        router = std::make_unique<Router>(0, mesh, params, ocor);
        router->attach(PortWest, &intoWest, nullptr);
        router->attach(PortEast, &intoEast, &outOfEast);
        router->attach(PortLocal, &intoLocal, &outOfLocal);
    }

    void
    sendFlit(Link &link, const PacketPtr &pkt, unsigned index,
             unsigned vc, Cycle now)
    {
        Flit f;
        f.pkt = pkt;
        f.index = index;
        f.type = flitTypeFor(index, pkt->numFlits);
        f.vc = vc;
        link.sendFlit(f, now);
    }
};

} // namespace

TEST(RouterStress, MorePacketsThanOutputVcs)
{
    // numVcs+2 single-flit packets from one input port: output VCs
    // are recycled after each tail, so all must eventually leave.
    StressRig rig;
    const unsigned n = rig.params.numVcs + 2;
    unsigned sent = 0;
    unsigned exited = 0;
    for (Cycle c = 0; c < 200 && exited < n; ++c) {
        if (sent < n && c % 2 == 0) {
            auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80u * sent);
            rig.sendFlit(rig.intoWest, pkt, 0,
                         sent % rig.params.numVcs, c);
            ++sent;
        }
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c)) {
            rig.outOfEast.sendCredit(f->vc, c);
            ++exited;
        }
    }
    EXPECT_EQ(exited, n);
}

TEST(RouterStress, TwoDataPacketsInterleaveAcrossVcs)
{
    // Two 8-flit packets on different input VCs share the east
    // output port; both must arrive complete and in per-packet
    // order even though their flits interleave on the link.
    StressRig rig;
    auto a = makePacket(MsgType::Data, 0, 1, 0x1000);
    auto b = makePacket(MsgType::Data, 0, 1, 0x2000);
    std::map<std::uint64_t, unsigned> next_index{{a->id, 0},
                                                 {b->id, 0}};
    unsigned sent_a = 0, sent_b = 0, done = 0;
    for (Cycle c = 0; c < 400 && done < 16; ++c) {
        // One flit per cycle on the west link, alternating packets.
        if (c % 2 == 0 && sent_a < 8) {
            rig.sendFlit(rig.intoWest, a, sent_a, 0, c);
            ++sent_a;
        } else if (c % 2 == 1 && sent_b < 8) {
            rig.sendFlit(rig.intoWest, b, sent_b, 1, c);
            ++sent_b;
        }
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c)) {
            rig.outOfEast.sendCredit(f->vc, c);
            ASSERT_EQ(f->index, next_index[f->pkt->id])
                << "flits of one packet must stay ordered";
            ++next_index[f->pkt->id];
            ++done;
        }
    }
    EXPECT_EQ(done, 16u);
    EXPECT_EQ(next_index[a->id], 8u);
    EXPECT_EQ(next_index[b->id], 8u);
}

TEST(RouterStress, SaturationLongRunConservesFlits)
{
    // Saturate both input ports toward one output for thousands of
    // cycles; every injected flit must come out exactly once.
    StressRig rig;
    std::uint64_t injected = 0, ejected = 0;
    std::map<unsigned, unsigned> west_credits, local_credits;
    for (unsigned v = 0; v < rig.params.numVcs; ++v)
        west_credits[v] = local_credits[v] = rig.params.vcDepth;

    unsigned seq = 0;
    for (Cycle c = 0; c < 5000; ++c) {
        rig.intoWest.drainCredits(c,
                                  [&](unsigned v) { ++west_credits[v]; });
        rig.intoLocal.drainCredits(
            c, [&](unsigned v) { ++local_credits[v]; });

        unsigned vc = seq % rig.params.numVcs;
        if (west_credits[vc] > 0) {
            auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80u * seq);
            rig.sendFlit(rig.intoWest, pkt, 0, vc, c);
            --west_credits[vc];
            ++injected;
        }
        unsigned lvc = (seq + 3) % rig.params.numVcs;
        if (local_credits[lvc] > 0) {
            auto pkt = makePacket(MsgType::InvAck, 0, 1,
                                  0x80u * seq);
            rig.sendFlit(rig.intoLocal, pkt, 0, lvc, c);
            --local_credits[lvc];
            ++injected;
        }
        ++seq;

        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c)) {
            rig.outOfEast.sendCredit(f->vc, c);
            ++ejected;
        }
    }
    // Output bandwidth is 1 flit/cycle: ejections track cycles.
    EXPECT_GT(ejected, 4000u);
    // Drain and verify conservation.
    for (Cycle c = 5000; c < 5400; ++c) {
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c)) {
            rig.outOfEast.sendCredit(f->vc, c);
            ++ejected;
        }
    }
    EXPECT_EQ(ejected + rig.router->occupancy()
                  + 0 /* in-flight on links is zero after drain */,
              injected);
}

TEST(RouterStress, FairnessUnderSymmetricLoad)
{
    // Two input ports with identical traffic: round-robin must give
    // each roughly half of the output bandwidth.
    StressRig rig;
    std::uint64_t from_west = 0, from_local = 0;
    std::map<unsigned, unsigned> wc, lc;
    for (unsigned v = 0; v < rig.params.numVcs; ++v)
        wc[v] = lc[v] = rig.params.vcDepth;

    for (Cycle c = 0; c < 4000; ++c) {
        rig.intoWest.drainCredits(c, [&](unsigned v) { ++wc[v]; });
        rig.intoLocal.drainCredits(c, [&](unsigned v) { ++lc[v]; });
        unsigned vc = static_cast<unsigned>(c) % rig.params.numVcs;
        if (wc[vc] > 0) {
            auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
            pkt->aux = 1; // marker: west
            rig.sendFlit(rig.intoWest, pkt, 0, vc, c);
            --wc[vc];
        }
        if (lc[vc] > 0) {
            auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
            pkt->aux = 2; // marker: local
            rig.sendFlit(rig.intoLocal, pkt, 0, vc, c);
            --lc[vc];
        }
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c)) {
            rig.outOfEast.sendCredit(f->vc, c);
            (f->pkt->aux == 1 ? from_west : from_local) += 1;
        }
    }
    double total = static_cast<double>(from_west + from_local);
    EXPECT_GT(from_west / total, 0.40);
    EXPECT_GT(from_local / total, 0.40);
}

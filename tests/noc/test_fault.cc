/**
 * @file
 * Fault-injection unit tests: config validation, deterministic
 * draws, CRC integrity, link-level drop/corrupt/jitter semantics
 * (including flow-control credit conservation), and network-level
 * end-to-end retransmission recovery.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/priority.hh"
#include "noc/fault.hh"
#include "noc/flit.hh"
#include "noc/link.hh"
#include "noc/network.hh"

using namespace ocor;

namespace
{

FaultConfig
lossyConfig(double drop, double corrupt = 0.0)
{
    FaultConfig f;
    f.dropRate = drop;
    f.corruptRate = corrupt;
    f.retryTimeout = 200;
    f.maxRetries = 10;
    f.seed = 7;
    return f;
}

/** A 4x4 mesh with a fault injector wired in. */
struct FaultNetRig
{
    MeshShape mesh{4, 4};
    NocParams params;
    OcorConfig ocor;
    FaultInjector fi;
    std::unique_ptr<Network> net;
    std::vector<std::pair<NodeId, PacketPtr>> delivered;

    explicit FaultNetRig(const FaultConfig &cfg, std::uint64_t seed = 1)
        : fi(cfg, seed)
    {
        net = std::make_unique<Network>(mesh, params, ocor, &fi);
        for (NodeId n = 0; n < mesh.numNodes(); ++n)
            net->setNodeSink(n,
                [this, n](const PacketPtr &pkt, Cycle) {
                    delivered.emplace_back(n, pkt);
                });
    }

    /** Run until the network drains (no failure on timeout: lossy
     * configurations legitimately never deliver). */
    Cycle
    run(Cycle start, Cycle max_cycles)
    {
        Cycle c = start;
        for (; c < start + max_cycles; ++c) {
            net->tick(c);
            if (net->idle())
                break;
        }
        return c;
    }
};

} // namespace

TEST(FaultConfig, DisabledByDefault)
{
    FaultConfig f;
    EXPECT_FALSE(f.enabled());
    f.validate(); // must not exit
    f.dropRate = 0.01;
    EXPECT_TRUE(f.enabled());
}

TEST(FaultConfigDeath, RejectsBadKnobs)
{
    FaultConfig f;
    f.dropRate = 1.5;
    EXPECT_EXIT(f.validate(), ::testing::ExitedWithCode(1),
                "dropRate");
    f = FaultConfig{};
    f.corruptRate = -0.1;
    EXPECT_EXIT(f.validate(), ::testing::ExitedWithCode(1),
                "corruptRate");
    f = FaultConfig{};
    f.jitterRate = 0.5;
    f.jitterMax = 0;
    EXPECT_EXIT(f.validate(), ::testing::ExitedWithCode(1),
                "jitterMax");
    f = FaultConfig{};
    f.retryTimeout = 0;
    EXPECT_EXIT(f.validate(), ::testing::ExitedWithCode(1),
                "retryTimeout");
    f = FaultConfig{};
    f.maxRetries = 0;
    EXPECT_EXIT(f.validate(), ::testing::ExitedWithCode(1),
                "maxRetries");
}

TEST(FaultInjector, DeterministicDraws)
{
    FaultConfig cfg;
    cfg.dropRate = 0.3;
    cfg.jitterRate = 0.4;
    FaultInjector a(cfg, 42), b(cfg, 42), c(cfg, 43);
    bool any_diff = false;
    for (int i = 0; i < 256; ++i) {
        bool da = a.drawDrop(), db = b.drawDrop();
        EXPECT_EQ(da, db);
        EXPECT_EQ(a.drawJitter(), b.drawJitter());
        if (da != c.drawDrop())
            any_diff = true;
        c.drawJitter();
    }
    EXPECT_TRUE(any_diff) << "seed must change the draw sequence";
}

TEST(FaultInjector, TargetingFilters)
{
    FaultConfig cfg;
    cfg.dropRate = 1.0;
    cfg.lockOnly = true;
    cfg.targetLinks = {3, 5};
    FaultInjector fi(cfg, 1);

    auto lock_pkt = makePacket(MsgType::LockTry, 0, 1, 0x1000);
    auto data_pkt = makePacket(MsgType::Data, 0, 1, 0x1000);
    EXPECT_TRUE(fi.targets(3, *lock_pkt));
    EXPECT_TRUE(fi.targets(5, *lock_pkt));
    EXPECT_FALSE(fi.targets(4, *lock_pkt));   // untargeted link
    EXPECT_FALSE(fi.targets(3, *data_pkt));   // not lock protocol
}

TEST(FaultInjector, BackoffGrowsExponentially)
{
    FaultConfig cfg;
    cfg.retryTimeout = 100;
    cfg.backoffShift = 1;
    FaultInjector fi(cfg, 1);
    EXPECT_EQ(fi.backoff(0), 100u);
    EXPECT_EQ(fi.backoff(1), 200u);
    EXPECT_EQ(fi.backoff(3), 800u);

    cfg.backoffShift = 0;
    FaultInjector flat(cfg, 1);
    EXPECT_EQ(flat.backoff(5), 100u);
}

TEST(FaultCrc, DetectsHeaderChangeAndMatchesClone)
{
    auto pkt = makePacket(MsgType::LockTry, 2, 9, 0x1000);
    pkt->thread = 4;
    pkt->seq = pkt->id;
    std::uint32_t crc = packetCrc(*pkt);
    EXPECT_EQ(crc, packetCrc(*pkt)); // stable

    auto clone = clonePacket(*pkt);
    EXPECT_NE(clone->id, pkt->id);
    EXPECT_EQ(clone->seq, pkt->seq);
    EXPECT_EQ(clone->attempt, pkt->attempt + 1);
    EXPECT_EQ(packetCrc(*clone), crc) << "id must not affect the CRC";

    pkt->thread = 5;
    EXPECT_NE(packetCrc(*pkt), crc);
}

TEST(FaultLink, DropConsumesPacketAndSynthesizesCredits)
{
    FaultConfig cfg;
    cfg.dropRate = 1.0;
    FaultInjector fi(cfg, 1);
    Link link(1);
    link.setFaultInjector(&fi, 0);

    auto pkt = makePacket(MsgType::Data, 0, 1, 0x80); // 8 flits
    unsigned credits = 0;
    for (unsigned i = 0; i < pkt->numFlits; ++i) {
        Flit f;
        f.pkt = pkt;
        f.index = i;
        f.type = flitTypeFor(i, pkt->numFlits);
        f.vc = 2;
        link.sendFlit(f, i);
        EXPECT_FALSE(link.takeFlit(i + 1).has_value());
        link.drainCredits(i + 1, [&](unsigned vc) {
            EXPECT_EQ(vc, 2u);
            ++credits;
        });
    }
    // Every flit vanished, yet every buffer credit the sender debited
    // came back: flow control cannot leak.
    EXPECT_EQ(credits, pkt->numFlits);
    EXPECT_EQ(fi.stats().packetsDropped, 1u);
    EXPECT_EQ(fi.stats().flitsDropped, pkt->numFlits);
    EXPECT_TRUE(link.idle());
}

TEST(FaultLink, CorruptionMarksFlitsInFlight)
{
    FaultConfig cfg;
    cfg.corruptRate = 1.0;
    FaultInjector fi(cfg, 1);
    Link link(1);
    link.setFaultInjector(&fi, 0);

    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    Flit f;
    f.pkt = pkt;
    f.type = FlitType::HeadTail;
    EXPECT_FALSE(f.corrupted);
    link.sendFlit(f, 0);
    auto rx = link.takeFlit(1);
    ASSERT_TRUE(rx.has_value());
    EXPECT_TRUE(rx->corrupted);
    EXPECT_FALSE(f.pkt == nullptr);
    EXPECT_EQ(fi.stats().flitsCorrupted, 1u);
}

TEST(FaultLink, JitterPreservesFifoOrder)
{
    FaultConfig cfg;
    cfg.jitterRate = 1.0;
    cfg.jitterMax = 5;
    FaultInjector fi(cfg, 9);
    Link link(1);
    link.setFaultInjector(&fi, 0);

    auto pkt = makePacket(MsgType::Data, 0, 1, 0x80);
    for (unsigned i = 0; i < pkt->numFlits; ++i) {
        Flit f;
        f.pkt = pkt;
        f.index = i;
        f.type = flitTypeFor(i, pkt->numFlits);
        link.sendFlit(f, i);
    }
    // Drain: flits must come out in index order despite the stalls
    // (takeFlit panics internally if one misses its delivery cycle).
    unsigned next = 0;
    for (Cycle c = 0; c < 100 && next < pkt->numFlits; ++c) {
        if (auto f = link.takeFlit(c)) {
            EXPECT_EQ(f->index, next);
            ++next;
        }
    }
    EXPECT_EQ(next, pkt->numFlits);
    EXPECT_GT(fi.stats().flitsDelayed, 0u);
}

TEST(FaultNetwork, RecoversAllPacketsUnderDrops)
{
    FaultNetRig rig(lossyConfig(0.1));
    std::set<std::uint64_t> sent;
    for (unsigned i = 0; i < 40; ++i) {
        auto pkt = makePacket(MsgType::LockTry, i % 16,
                              (i * 7 + 3) % 16, 0x1000 + 0x40 * i);
        if (pkt->src == pkt->dst)
            pkt->dst = (pkt->dst + 1) % 16;
        rig.net->send(pkt, 0);
        sent.insert(pkt->seq == 0 ? pkt->id : pkt->seq);
    }
    rig.run(0, 500'000);

    // Every lineage delivered exactly once: losses were retransmitted
    // and duplicates absorbed.
    std::set<std::uint64_t> got;
    for (const auto &[node, pkt] : rig.delivered)
        EXPECT_TRUE(got.insert(pkt->seq).second)
            << "duplicate delivery of seq " << pkt->seq;
    EXPECT_EQ(got.size(), 40u);
    EXPECT_GT(rig.fi.stats().packetsDropped, 0u);
    EXPECT_GT(rig.fi.stats().retransmissions, 0u);
    EXPECT_EQ(rig.fi.stats().unrecoverable, 0u);
}

TEST(FaultNetwork, CorruptionCaughtByCrcAndRecovered)
{
    FaultNetRig rig(lossyConfig(0.0, 0.3));
    auto pkt = makePacket(MsgType::LockTry, 0, 15, 0x1000);
    rig.net->send(pkt, 0);
    // A 1-flit control packet crossing 8 links at 30% flit corruption
    // fails most attempts; retransmission must still get it through.
    rig.run(0, 500'000);
    ASSERT_EQ(rig.delivered.size(), 1u);
    EXPECT_EQ(rig.delivered[0].first, 15u);
    EXPECT_GT(rig.fi.stats().flitsCorrupted, 0u);
    EXPECT_GT(rig.fi.stats().crcRejects, 0u);
    EXPECT_EQ(rig.fi.stats().unrecoverable, 0u);
}

TEST(FaultNetwork, GivesUpAfterMaxRetries)
{
    FaultConfig cfg = lossyConfig(1.0); // every packet dropped
    cfg.maxRetries = 2;
    FaultNetRig rig(cfg);
    auto pkt = makePacket(MsgType::GetS, 0, 5, 0x80);
    rig.net->send(pkt, 0);
    rig.run(0, 100'000);

    EXPECT_TRUE(rig.delivered.empty());
    EXPECT_EQ(rig.fi.stats().unrecoverable, 1u);
    EXPECT_EQ(rig.net->ni(0).outstandingCount(), 0u);
    EXPECT_TRUE(rig.net->idle()) << "give-up must not wedge the NI";
}

TEST(FaultNetwork, RetransmitDisabledLosesPackets)
{
    FaultConfig cfg = lossyConfig(1.0);
    cfg.retransmit = false;
    FaultNetRig rig(cfg);
    rig.net->send(makePacket(MsgType::GetS, 0, 5, 0x80), 0);
    rig.run(0, 10'000);
    EXPECT_TRUE(rig.delivered.empty());
    EXPECT_EQ(rig.fi.stats().retransmissions, 0u);
    EXPECT_TRUE(rig.net->idle());
}

TEST(FaultNetwork, RetransmittedCopyPreservesPriority)
{
    FaultConfig cfg = lossyConfig(0.15);
    FaultNetRig rig(cfg);
    rig.ocor.enabled = true;
    auto pkt = makePacket(MsgType::LockTry, 0, 15, 0x1000);
    pkt->priority = makePriority(rig.ocor, PriorityClass::LockTry,
                                 3, 1);
    ASSERT_TRUE(pkt->priority.check);
    const auto want_prio = pkt->priority.priorityBits;
    const auto want_prog = pkt->priority.progressBits;
    rig.net->send(pkt, 0);
    rig.run(0, 500'000);
    ASSERT_EQ(rig.delivered.size(), 1u);
    const PacketPtr &got = rig.delivered[0].second;
    EXPECT_TRUE(got->priority.check);
    EXPECT_EQ(got->priority.priorityBits, want_prio);
    EXPECT_EQ(got->priority.progressBits, want_prog);
}

TEST(FaultNetwork, InactiveInjectorIsBitIdenticalToNone)
{
    // Same traffic through (a) a network with no injector and (b) one
    // with an injector whose rates are all zero: identical timing.
    auto drive = [](Network &net,
                    std::vector<std::pair<NodeId, Cycle>> &out) {
        for (NodeId n = 0; n < 16; ++n)
            net.setNodeSink(n,
                [&out, n](const PacketPtr &, Cycle at) {
                    out.emplace_back(n, at);
                });
        for (unsigned i = 0; i < 10; ++i)
            net.send(makePacket(MsgType::Data, i % 16,
                                (i * 5 + 1) % 16, 0x80 * i), 0);
        for (Cycle c = 0; c < 10'000; ++c) {
            net.tick(c);
            if (net.idle())
                break;
        }
    };

    MeshShape mesh{4, 4};
    NocParams params;
    OcorConfig ocor;
    std::vector<std::pair<NodeId, Cycle>> plain, gated;

    Network a(mesh, params, ocor);
    drive(a, plain);

    FaultConfig off; // enabled() == false
    FaultInjector fi(off, 1);
    ASSERT_FALSE(fi.active());
    Network b(mesh, params, ocor, &fi);
    drive(b, gated);

    EXPECT_EQ(plain, gated);
    EXPECT_EQ(fi.stats().faultsInjected(), 0u);
}

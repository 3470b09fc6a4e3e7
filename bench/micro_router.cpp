/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot arbitration paths:
 * the Table-1 rank computation, the one-hot LPA, the rank arbiter,
 * and a full router tick under load. These quantify the "low
 * overhead" claim of Section 4.2's comparator-free design and keep
 * the simulator's inner loop honest.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "noc/arbiter.hh"
#include "noc/router.hh"

using namespace ocor;

namespace
{

OcorConfig
enabledCfg()
{
    OcorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

void
BM_PriorityRank(benchmark::State &state)
{
    OcorConfig cfg = enabledCfg();
    auto f = makePriority(cfg, PriorityClass::LockTry, 17, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(priorityRank(cfg, f));
}
BENCHMARK(BM_PriorityRank);

void
BM_MakePriority(benchmark::State &state)
{
    OcorConfig cfg = enabledCfg();
    unsigned rtr = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            makePriority(cfg, PriorityClass::LockTry, rtr, 3));
        rtr = rtr % 128 + 1;
    }
}
BENCHMARK(BM_MakePriority);

void
BM_LpaSelect(benchmark::State &state)
{
    OcorConfig cfg = enabledCfg();
    std::vector<LpaInput> inputs(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i].valid = true;
        inputs[i].fields = makePriority(
            cfg, PriorityClass::LockTry,
            static_cast<unsigned>(1 + i * 16 % 128), i % 8);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(lpaSelect(cfg, inputs));
}
BENCHMARK(BM_LpaSelect)->Arg(2)->Arg(6)->Arg(16);

void
BM_ArbiterPick(benchmark::State &state)
{
    Arbiter arb(static_cast<unsigned>(state.range(0)));
    std::vector<std::int64_t> ranks(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < ranks.size(); ++i)
        ranks[i] = static_cast<std::int64_t>(i % 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.pick(ranks));
}
BENCHMARK(BM_ArbiterPick)->Arg(6)->Arg(30);

void
BM_RouterTickLoaded(benchmark::State &state)
{
    const bool ocor_on = state.range(0) != 0;
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    ocor.enabled = ocor_on;
    OcorConfig stamping = enabledCfg();

    Router router(0, mesh, params, ocor);
    Link in_w, in_l, in_e, out_e, out_l;
    router.attach(PortWest, &in_w, nullptr);
    router.attach(PortLocal, &in_l, &out_l);
    router.attach(PortEast, &in_e, &out_e);

    Cycle now = 0;
    unsigned i = 0;
    for (auto _ : state) {
        // Keep both input ports fed with competing lock packets.
        for (Link *link : {&in_w, &in_l}) {
            const unsigned seq = i++;
            auto pkt = makePacket(MsgType::LockTry, 0, 1, 0x80);
            pkt->priority = makePriority(
                stamping, PriorityClass::LockTry,
                1 + (seq % 128), seq % 16);
            Flit f;
            f.pkt = pkt;
            f.type = FlitType::HeadTail;
            f.vc = seq % params.numVcs;
            // Respect buffer space: drop when the VC is full.
            if (router.vcOccupancy(link == &in_w ? PortWest : PortLocal,
                                   f.vc) < params.vcDepth)
                link->sendFlit(std::move(f), now);
        }
        router.tick(now);
        while (auto f = out_e.takeFlit(now))
            out_e.sendCredit(f->vc, now);
        // Upstream credits are not tracked (the occupancy test above
        // stands in for them), but the wires must still drain.
        in_w.drainCredits(now, [](unsigned) {});
        in_l.drainCredits(now, [](unsigned) {});
        ++now;
    }
    state.counters["flits/cycle"] = benchmark::Counter(
        static_cast<double>(router.stats().flitsRouted),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RouterTickLoaded)->Arg(0)->Arg(1);

void
BM_RouterTickContended(benchmark::State &state)
{
    // The fully contended case: the centre router of a 3x3 mesh with
    // all 5 ports fed every cycle, all 6 VCs of every port in use
    // (upstream credits tracked per VC) and traffic spread over all 5
    // outputs, so every VA and SA arbiter has competitors.
    const bool ocor_on = state.range(0) != 0;
    MeshShape mesh{3, 3};
    NocParams params;
    OcorConfig ocor;
    ocor.enabled = ocor_on;
    OcorConfig stamping = enabledCfg();

    Router router(4, mesh, params, ocor);
    std::array<std::unique_ptr<Link>, NumPorts> in, out;
    std::array<std::array<unsigned, 16>, NumPorts> credits{};
    for (unsigned p = 0; p < NumPorts; ++p) {
        in[p] = std::make_unique<Link>();
        out[p] = std::make_unique<Link>();
        router.attach(p, in[p].get(), out[p].get());
        credits[p].fill(params.vcDepth);
    }

    Cycle now = 0;
    unsigned seq = 0;
    for (auto _ : state) {
        for (unsigned p = 0; p < NumPorts; ++p) {
            in[p]->drainCredits(now,
                                [&](unsigned v) { ++credits[p][v]; });
            const unsigned v =
                static_cast<unsigned>(now + p) % params.numVcs;
            if (credits[p][v] == 0)
                continue;
            ++seq;
            auto pkt = makePacket(MsgType::LockTry, 0,
                                  (seq * 7 + p) % mesh.numNodes(), 0x80);
            pkt->priority =
                makePriority(stamping, PriorityClass::LockTry,
                             1 + (seq % 128), seq % 16);
            Flit f;
            f.pkt = std::move(pkt);
            f.type = FlitType::HeadTail;
            f.vc = v;
            in[p]->sendFlit(std::move(f), now);
            --credits[p][v];
        }
        router.tickEvent(now);
        for (unsigned p = 0; p < NumPorts; ++p)
            while (auto f = out[p]->takeFlit(now))
                out[p]->sendCredit(f->vc, now);
        ++now;
    }
    state.counters["flits/cycle"] = benchmark::Counter(
        static_cast<double>(router.stats().flitsRouted) /
        static_cast<double>(now));
}
BENCHMARK(BM_RouterTickContended)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();

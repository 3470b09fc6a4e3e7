/**
 * @file
 * Two-stage pipelined virtual-channel router with priority-based VC
 * and switch allocation (Figure 7).
 *
 * Stage 1 performs Route Computation, VC Allocation and Switch
 * Allocation in parallel; stage 2 is Switch Traversal. The pipeline
 * is modeled by flit eligibility times: a flit that arrives at cycle
 * t may be VC-allocated from t+1 and may traverse the switch from
 * t+routerStages; traversal puts it on the output link (one more
 * linkLatency cycle to the neighbor).
 *
 * Under OCOR, both VA and SA arbitrate by the Table-1 rank of the
 * candidate packet (see core/priority.hh); switch allocation is
 * two-staged exactly as Section 4.2 describes: a Local Priority
 * Arbiter per input port selects the best local VC, then a global
 * priority arbiter per output port selects among the port winners.
 * With OCOR disabled, every rank is zero and all arbitration
 * degrades to the baseline round-robin policy.
 */

#ifndef OCOR_NOC_ROUTER_HH
#define OCOR_NOC_ROUTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/ocor_config.hh"
#include "noc/arbiter.hh"
#include "noc/input_unit.hh"
#include "noc/link.hh"
#include "noc/output_unit.hh"
#include "noc/params.hh"
#include "noc/routing.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;

/** Per-router observability counters. */
struct RouterStats
{
    std::uint64_t flitsRouted = 0;
    std::uint64_t lockFlitsRouted = 0;
    std::uint64_t saGrants = 0;
    std::uint64_t saConflictLosses = 0;
    std::uint64_t vaGrants = 0;
};

/** One mesh router. */
class Router
{
  public:
    Router(NodeId id, const MeshShape &mesh, const NocParams &params,
           const OcorConfig &ocor);

    /** The VC rings point into slab_: a Router never moves. */
    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Wire one port. @p in_link delivers flits *to* this router (we
     * send credits back on it); @p out_link carries flits we send
     * (credits for us arrive on it). Either may be null at mesh
     * edges.
     */
    void attach(unsigned port, Link *in_link, Link *out_link);

    /** Advance one cycle: credits, deliveries, VA, SA+ST. */
    void tick(Cycle now);

    /**
     * Event-core variant of tick(): behaviorally identical, but each
     * stage runs only when it provably has work. Link polls are gated
     * by the O(1) Link due tests, VA by the VA-ready masks (some
     * input VC has an unallocated head flit at its front) and SA by
     * the SA-active masks (some input VC holds an allocated
     * downstream VC). A skipped stage would have been a pure no-op —
     * no state change, no arbiter pointer movement, no
     * stats/trace/checker callbacks — so the two tick flavors stay
     * bit-identical by construction.
     */
    void tickEvent(Cycle now);

    NodeId id() const { return id_; }
    const RouterStats &stats() const { return stats_; }

    /** Attach the event tracer (null = tracing off, zero overhead). */
    void setTracer(Tracer *t) { trace_ = t; }

    /** Attach the invariant checker (null = checking off). */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /**
     * Test hook: invert every Table-1 rank fed to the VA/SA
     * arbiters, so the *lowest*-priority competitor wins. Exists
     * solely so seeded-violation tests can prove the arbitration
     * checker fires; never set outside tests.
     */
    void testInvertArbitration(bool on) { testInvertArb_ = on; }

    /**
     * Test hook: swap the two oldest buffered flits of one input VC,
     * violating FIFO order, and re-cache the front packet's rank.
     * Seeded-violation tests only.
     */
    void testSwapVcFlits(unsigned port, unsigned v);

    /** Buffered flit count (for drain checks and tests). */
    unsigned occupancy() const;

    /**
     * No buffered flit, no flit on an in-link and no credit on an
     * out-link: nothing can reach this router until a neighbour puts
     * something on one of its links, and a tick is a no-op. The
     * Network drops a quiescent router from its active set.
     */
    bool
    quiescent() const
    {
        if (buffered_ != 0)
            return false;
        for (unsigned p = 0; p < NumPorts; ++p)
            if ((inLinks_[p] && inLinks_[p]->carriesFlit()) ||
                (outLinks_[p] && outLinks_[p]->carriesCredit()))
                return false;
        return true;
    }

    /** Flits buffered in one input VC. */
    unsigned vcOccupancy(unsigned port, unsigned v) const
    {
        return vcAt(port, v).fifo.size();
    }

    /** Direct VC inspection for white-box tests. */
    const VcState &vc(unsigned port, unsigned v) const
    {
        return vcAt(port, v);
    }

    /** White-box view of the allocation state (see vaReady_). */
    std::uint32_t vaReadyMask(unsigned port) const
    {
        return vaReady_[port];
    }
    std::uint32_t saActiveMask(unsigned port) const
    {
        return saActive_[port];
    }
    const OutputUnit &output(unsigned port) const
    {
        return outputs_[port];
    }

  private:
    VcState &vcAt(unsigned port, unsigned v)
    {
        return vcs_[port * params_.numVcs + v];
    }
    const VcState &vcAt(unsigned port, unsigned v) const
    {
        return vcs_[port * params_.numVcs + v];
    }

    void deliverIncoming(Cycle now);
    void acceptCredits(unsigned port, Cycle now);
    void acceptFlits(unsigned port, Cycle now);
    void vcAllocation(Cycle now);
    void switchAllocation(Cycle now);
    void grantVc(unsigned port, unsigned v, unsigned out_port,
                 Cycle now);
    void traverse(unsigned port, unsigned v, std::int64_t rank,
                  Cycle now);

    /** A head flit is now at the front of input VC (@p port, @p v):
     * compute its route and cache its rank; it awaits VA. */
    void headAtFront(unsigned port, unsigned v);

    /** Rank fed to the arbiters for the front packet of @p vc. */
    std::int64_t
    headRank(const VcState &vc) const
    {
        return testInvertArb_ ? (std::int64_t{1} << 20) - vc.rank
                              : vc.rank;
    }

    void
    setBit(std::array<std::uint32_t, NumPorts> &mask,
           std::uint32_t &ports, unsigned p, unsigned v)
    {
        mask[p] |= std::uint32_t{1} << v;
        ports |= 1u << p;
    }
    void
    clearBit(std::array<std::uint32_t, NumPorts> &mask,
             std::uint32_t &ports, unsigned p, unsigned v)
    {
        mask[p] &= ~(std::uint32_t{1} << v);
        if (mask[p] == 0)
            ports &= ~(1u << p);
    }

    NodeId id_;
    MeshShape mesh_;
    NocParams params_;
    const OcorConfig &ocor_;

    /** Input VCs, port-major: VC v of port p is vcs_[p * numVcs + v]
     * (the VA arbiters' input index). */
    std::vector<VcState> vcs_;
    std::vector<OutputUnit> outputs_;
    std::array<Link *, NumPorts> inLinks_{};
    std::array<Link *, NumPorts> outLinks_{};

    /** VA arbiter per output port; SA: local per input, global per
     * output. */
    std::vector<Arbiter> vaArb_;
    std::vector<Arbiter> saLocalArb_;
    std::vector<Arbiter> saGlobalArb_;

    /** Buffered flits across all input VCs (fast-path early out). */
    unsigned buffered_ = 0;

    /** Backing store of every input VC ring: port-major, then VC,
     * vcDepth slots each. */
    std::vector<BufferedFlit> slab_;

    /**
     * Ready masks, maintained at every VC state transition (a head
     * reaching the front, a VA grant, a tail traversal):
     *  - vaReady_[p] bit v: input VC v of port p is non-empty, its
     *    front flit is a head, and it holds no downstream VC (a VA
     *    candidate once its pipeline delay elapses);
     *  - saActive_[p] bit v: that VC holds a downstream VC
     *    (outVc >= 0), i.e. its packet is still traversing.
     * vaPorts_/saPorts_ have bit p set iff the port's mask is
     * non-zero. VA and SA walk only set bits, so they skip idle
     * ports and VCs outright; tickEvent() skips a stage whose port
     * set is empty. Both are over-approximations of "stage can act
     * this cycle" (pipeline timing and credits are not folded in),
     * which is what a no-op gate needs.
     */
    std::array<std::uint32_t, NumPorts> vaReady_{};
    std::array<std::uint32_t, NumPorts> saActive_{};
    std::uint32_t vaPorts_ = 0;
    std::uint32_t saPorts_ = 0;

    static constexpr unsigned maxVcs = OutputUnit::maxVcs;

    Tracer *trace_ = nullptr;
    CheckerRegistry *check_ = nullptr;
    bool testInvertArb_ = false;
    RouterStats stats_;
};

} // namespace ocor

#endif // OCOR_NOC_ROUTER_HH

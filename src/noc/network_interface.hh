/**
 * @file
 * Network interface (NI): packetization, priority stamping, VC-based
 * injection, and reassembly/ejection.
 *
 * Section 4.1/4.2: the CPU writes the thread's RTR and PROG values to
 * core-local registers; the NI reads them when packetizing a locking
 * request and integrates the priority check bit, priority bits and
 * progress bits into the packet header. This class performs that
 * stamping (via core/priority.hh) for lock-protocol packets handed to
 * inject().
 *
 * Injection also honors packet rank: a locking request never waits
 * behind a queue of lower-priority data packets at its own NI under
 * OCOR.
 */

#ifndef OCOR_NOC_NETWORK_INTERFACE_HH
#define OCOR_NOC_NETWORK_INTERFACE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/types.hh"
#include "core/ocor_config.hh"
#include "noc/arbiter.hh"
#include "noc/fault.hh"
#include "noc/link.hh"
#include "noc/params.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;

/** NI observability counters. */
struct NiStats
{
    std::uint64_t packetsInjected = 0;
    std::uint64_t flitsInjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t lockPacketsInjected = 0;
    std::uint64_t injectQueuePeak = 0;
};

/** Per-node network interface. */
class NetworkInterface
{
  public:
    using DeliverFn = std::function<void(const PacketPtr &, Cycle)>;

    /** Out-of-band delivery confirmation back to a source NI (modeled
     * like the credit wires: lossless and instantaneous). */
    using AckFn = std::function<void(NodeId src, std::uint64_t seq,
                                     Cycle now)>;

    NetworkInterface(NodeId id, const NocParams &params,
                     const OcorConfig &ocor);

    /** Wire the NI to its router (to_router carries our flits). */
    void attach(Link *to_router, Link *from_router);

    /** Node-side sink for ejected packets. */
    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /**
     * Enable fault tolerance: stamp a CRC into every injected packet,
     * verify it at ejection (discarding corrupted packets), absorb
     * duplicates, and — when the config enables retransmission —
     * track every in-flight packet and re-send unacked ones with
     * exponential backoff until maxRetries is exhausted. Inert while
     * @p fi is null or inactive.
     */
    void setFaultInjector(FaultInjector *fi) { fault_ = fi; }

    /** Route for delivery confirmations (set by the Network). */
    void setAckChannel(AckFn fn) { ack_ = std::move(fn); }

    /** A packet this NI sent reached its destination intact. */
    void onAcked(std::uint64_t seq, Cycle now);

    /** Packets awaiting delivery confirmation (tests). */
    std::size_t outstandingCount() const { return outstanding_.size(); }

    /**
     * Queue a packet for injection during cycle @p now; the caller
     * has already stamped priority fields (see stampAndInject for
     * the common path). Same-node packets take a 1-cycle loopback.
     */
    void inject(const PacketPtr &pkt, Cycle now);

    /** Advance one cycle: ejection, VC assignment, flit send. */
    void tick(Cycle now);

    /**
     * Event-core variant of tick(): runs the full tick only when some
     * stage provably has work at @p now — a credit or flit due on the
     * router links, a loopback or injection-queue entry whose ready
     * cycle has arrived (both FIFOs are monotone, so front checks are
     * exact), an active output VC with credit to send, or a due
     * retransmission deadline. When none hold, tick() would mutate
     * nothing (no arbiter pick, no stats, no callbacks), so skipping
     * it is bit-identical.
     */
    void tickEvent(Cycle now);

    /**
     * Earliest future cycle tick() could do any work, seen from
     * cycle @p now (neverCycle = none pending). Loopback and inject
     * queues are FIFO by construction (entries are stamped now+1 at
     * push, and now is monotone), so their fronts are minima. Active
     * output VCs and pending reassembly answer conservatively
     * (now + 1): ticking early is a no-op, missing a due cycle is
     * not. Credit arrival and flit ejection are driven by link
     * state, which the Network-level wake scan covers.
     */
    Cycle
    nextWake(Cycle now) const
    {
        Cycle w = neverCycle;
        if (!loopback_.empty())
            w = std::min(w, loopback_.front().first);
        if (!injectQueue_.empty())
            w = std::min(w, injectQueue_.front().ready);
        for (const auto &vc : outVcs_)
            if (vc.pkt)
                return std::min(w, now + 1);
        if (reassembling_ > 0)
            return std::min(w, now + 1);
        for (const auto &[seq, o] : outstanding_)
            w = std::min(w, o.deadline);
        return w;
    }

    /** True when nothing is queued or in flight inside this NI. */
    bool idle() const;

    /** Neither router link carries a flit or a credit. */
    bool
    linksIdle() const
    {
        return (!toRouter_ || toRouter_->idle()) &&
               (!fromRouter_ || fromRouter_->idle());
    }

    /**
     * idle(), no flit from the router and no credit for this NI on
     * the wire: ticking is a no-op until a packet is injected or the
     * router sends a flit or credit. Only what this NI consumes
     * counts, as for Router::quiescent(): a fault drop on the
     * router->NI link leaves a credit there that only the router
     * consumes. The Network drops a quiescent NI from its active set.
     */
    bool
    quiescent() const
    {
        return idle() && !(fromRouter_ && fromRouter_->carriesFlit()) &&
               !(toRouter_ && toRouter_->carriesCredit());
    }

    NodeId id() const { return id_; }
    const NiStats &stats() const { return stats_; }

    /** Attach the event tracer (null = tracing off, zero overhead). */
    void setTracer(Tracer *t) { trace_ = t; }

    /** Attach the invariant checker (null = checking off). */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /** Packets waiting for a VC (tests and backpressure checks). */
    std::size_t queueDepth() const { return injectQueue_.size(); }

  private:
    void ejectIncoming(Cycle now);
    void assignVcs(Cycle now);
    void sendOneFlit(Cycle now);
    void deliverMeshPacket(const PacketPtr &pkt, bool corrupt,
                           Cycle now);
    void checkRetransmits(Cycle now);

    NodeId id_;
    NocParams params_;
    const OcorConfig &ocor_;

    Link *toRouter_ = nullptr;
    Link *fromRouter_ = nullptr;
    DeliverFn deliver_;

    struct QueuedPacket
    {
        PacketPtr pkt;
        Cycle ready = 0; ///< earliest cycle the head may leave
        /** Table-1 rank, cached by the first assignVcs() scan that
         * sees the packet ready (-1 until then). */
        std::int64_t rank = -1;
    };
    std::deque<QueuedPacket> injectQueue_;

    struct ActiveVc
    {
        PacketPtr pkt;       ///< null when the VC is free
        std::int64_t rank = 0; ///< Table-1 rank of pkt
        unsigned nextFlit = 0;
        unsigned credits = 0;
    };
    std::vector<ActiveVc> outVcs_;
    Arbiter sendArb_;

    /** Reassembly of incoming packets, indexed by VC. */
    struct RxPacket
    {
        PacketPtr pkt;        ///< null while the VC is idle
        bool corrupt = false; ///< any flit corrupted in flight
    };
    std::vector<RxPacket> reassembly_;
    unsigned reassembling_ = 0; ///< VCs with a packet in progress

    /** Same-node loopback (src == dst), 1-cycle latency. */
    std::deque<std::pair<Cycle, PacketPtr>> loopback_;

    // --- fault tolerance (inert unless fault_ is active) -----------
    FaultInjector *fault_ = nullptr;
    AckFn ack_;

    /** Sender side: packets awaiting the delivery ack, keyed by
     * lineage seq. */
    struct Outstanding
    {
        PacketPtr pkt;     ///< latest transmission (original or clone)
        Cycle deadline;    ///< next retransmission time
        unsigned attempts; ///< retransmissions so far
    };
    std::map<std::uint64_t, Outstanding> outstanding_;

    /** Sink side: recently delivered lineages (duplicate absorption),
     * aged out once no retransmission can still be in flight. */
    std::set<std::uint64_t> deliveredSeqs_;
    std::deque<std::pair<Cycle, std::uint64_t>> deliveredAge_;

    Tracer *trace_ = nullptr;
    CheckerRegistry *check_ = nullptr;
    NiStats stats_;
};

} // namespace ocor

#endif // OCOR_NOC_NETWORK_INTERFACE_HH

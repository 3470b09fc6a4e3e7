/**
 * @file
 * Point-to-point link with fixed latency.
 *
 * A Link is unidirectional for flits (upstream -> downstream) and
 * carries per-VC credits in the reverse direction. Bandwidth is one
 * flit per cycle; credits are not bandwidth limited (a credit wire
 * per VC).
 */

#ifndef OCOR_NOC_LINK_HH
#define OCOR_NOC_LINK_HH

#include <optional>
#include <set>
#include <vector>

#include "common/active_set.hh"
#include "common/types.hh"
#include "noc/fault.hh"
#include "noc/flit.hh"
#include "noc/params.hh"
#include "noc/ring.hh"

namespace ocor
{

class CheckerRegistry;

/**
 * Flits, and separately credits, a link can have in flight. Senders
 * only transmit against a downstream credit, so the downstream
 * port's total buffering is a hard bound; a fault drop turns a flit
 * into a credit and keeps it.
 */
inline unsigned
linkCapacity(const NocParams &p)
{
    return p.numVcs * p.vcDepth;
}

/** One-cycle (configurable) pipelined channel between two agents. */
class Link
{
  public:
    /** @p capacity: see linkCapacity(); overflow panics. */
    explicit Link(unsigned latency = 1,
                  unsigned capacity = linkCapacity(NocParams{}))
        : latency_(latency), flitSlots_(capacity),
          creditSlots_(capacity), flits_(flitSlots_),
          credits_(creditSlots_)
    {}

    /** The rings point into the slot vectors: a Link never moves. */
    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /**
     * Attach the fault oracle (may be null / inactive: zero-overhead
     * path). @p link_id identifies this link for per-link targeting.
     * Faults happen on the wire: whole packets dropped (their buffer
     * credits are synthesized so flow control never leaks), flits
     * corrupted, or flits stalled — always preserving FIFO order.
     */
    void setFaultInjector(FaultInjector *fi, unsigned link_id)
    {
        fault_ = fi;
        linkId_ = link_id;
    }

    /** Attach the invariant checker (null = checking off): feeds the
     * wire-level flit conservation ledger. */
    void setChecker(CheckerRegistry *c) { check_ = c; }

    /**
     * Name the agents that consume this link: every flit put on the
     * wire marks @p flit_sink (the downstream agent) and every
     * credit, including one synthesized for a dropped flit, marks
     * @p credit_sink (the upstream agent). The Network's active sets
     * are built from these marks.
     */
    void
    setSinks(ActiveSet::Member flit_sink, ActiveSet::Member credit_sink)
    {
        flitSink_ = flit_sink;
        creditSink_ = credit_sink;
    }

    /** Upstream puts a flit on the wire during cycle @p now. */
    void sendFlit(Flit flit, Cycle now);

    /** Downstream takes the flit arriving at cycle @p now, if any. */
    std::optional<Flit>
    takeFlit(Cycle now)
    {
        if (!flitDue(now))
            return std::nullopt;
        return popFlit(now);
    }

    /** Downstream returns a credit for VC @p vc during cycle @p now. */
    void sendCredit(unsigned vc, Cycle now);

    /** Upstream collects all credits arriving at cycle @p now,
     * calling @p fn(vc) for each in send order. */
    template <class Fn>
    void
    drainCredits(Cycle now, Fn &&fn)
    {
        while (creditDue(now)) {
            if (creditAt_ < now)
                ocor_panic("Link: credit missed its delivery cycle");
            unsigned vc = credits_.pop().vc;
            creditAt_ = credits_.empty() ? neverCycle
                                         : credits_.front().at;
            fn(vc);
        }
    }

    unsigned latency() const { return latency_; }
    bool idle() const { return flits_.empty() && credits_.empty(); }
    /** A flit (resp. credit) is on the wire, due or not. */
    bool carriesFlit() const { return !flits_.empty(); }
    bool carriesCredit() const { return !credits_.empty(); }

    /**
     * O(1) event-core due tests. Arrival cycles are monotone within
     * each queue (sendFlit keeps them strictly increasing even under
     * fault jitter; credits are stamped now + latency with monotone
     * now), so the front entry is the earliest and a front check is
     * exact, not heuristic. The front arrival is cached in
     * flitAt_/creditAt_ (neverCycle when empty).
     */
    bool flitDue(Cycle now) const { return flitAt_ <= now; }
    bool creditDue(Cycle now) const { return creditAt_ <= now; }

    /** Flits ever put on the wire (dropped ones included): the
     * utilization numerator sampled by interval telemetry. */
    std::uint64_t flitsCarried() const { return flitsCarried_; }

  private:
    struct FlitSlot
    {
        Cycle at = 0;
        Flit flit;
    };
    struct CreditSlot
    {
        Cycle at = 0;
        unsigned vc = 0;
    };

    void pushCredit(unsigned vc, Cycle at);
    Flit popFlit(Cycle now);

    unsigned latency_;
    CheckerRegistry *check_ = nullptr;
    ActiveSet::Member flitSink_;
    ActiveSet::Member creditSink_;
    std::uint64_t flitsCarried_ = 0;
    Cycle lastFlitSend_ = neverCycle;
    Cycle flitAt_ = neverCycle;
    Cycle creditAt_ = neverCycle;
    std::vector<FlitSlot> flitSlots_;
    std::vector<CreditSlot> creditSlots_;
    Ring<FlitSlot> flits_;
    Ring<CreditSlot> credits_;

    // --- fault injection (inert unless fault_ is active) -----------
    FaultInjector *fault_ = nullptr;
    unsigned linkId_ = 0;
    /** Latest scheduled flit arrival: jitter must not reorder. */
    Cycle lastArrival_ = 0;
    /** Packets currently being dropped flit-by-flit on this link. */
    std::set<std::uint64_t> droppingPkts_;
};

} // namespace ocor

#endif // OCOR_NOC_LINK_HH

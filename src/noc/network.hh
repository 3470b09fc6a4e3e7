/**
 * @file
 * The mesh network: routers, NIs and links wired per Section 3.1.
 */

#ifndef OCOR_NOC_NETWORK_HH
#define OCOR_NOC_NETWORK_HH

#include <memory>
#include <vector>

#include "common/active_set.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/ocor_config.hh"
#include "noc/link.hh"
#include "noc/network_interface.hh"
#include "noc/params.hh"
#include "noc/router.hh"
#include "noc/routing.hh"

namespace ocor
{

class Tracer;
class CheckerRegistry;

/** Network-wide aggregate statistics. */
struct NetworkStats
{
    std::uint64_t packetsDelivered = 0;
    std::uint64_t lockPacketsDelivered = 0;
    SampleStat packetLatency;      ///< inject -> eject, all packets
    SampleStat lockPacketLatency;  ///< lock-protocol packets only
    SampleStat dataPacketLatency;  ///< everything else
    /** Latency distributions feeding p50/p95/p99 reporting. Bucket
     * width 2 cycles x 256 buckets covers [0, 512); longer transits
     * land in the explicit overflow bucket. */
    Histogram packetLatencyHist{2.0, 256};
    Histogram lockPacketLatencyHist{2.0, 256};
};

/**
 * Why Network::nextWake() wants the next cycle (profiling only):
 * the first matching clause of nextWake()'s scan, so the wake
 * profiler can say *what* keeps the network group hot.
 */
enum class NetWakeReason : std::uint8_t
{
    RouterBusy, ///< some router still buffers flits
    LinkBusy,   ///< some link carries a flit or credit
    NiQueue,    ///< an NI-local queue has timed work
    Idle,       ///< nothing due (wake was external/stale)
    NumReasons
};

constexpr std::size_t kNumNetWakeReasons =
    static_cast<std::size_t>(NetWakeReason::NumReasons);

/** Stable reason name (stats keys). */
const char *netWakeReasonName(NetWakeReason r);

/** A width x height mesh of 2-stage VC routers with one NI per node. */
class Network
{
  public:
    /**
     * @p fault may be null (no fault modeling, zero overhead). When
     * given, every link is registered with a stable id (construction
     * order: per node, the east out/in pair then the south out/in
     * pair, then NI<->router pairs per node) and the NIs are wired
     * with CRC/retransmission support plus an out-of-band ack channel
     * back to the source NI.
     */
    Network(const MeshShape &mesh, const NocParams &params,
            const OcorConfig &ocor, FaultInjector *fault = nullptr);

    /** Node-side packet sink; wraps the NI deliver hook. */
    void setNodeSink(NodeId node, NetworkInterface::DeliverFn fn);

    /** Stamp-and-send convenience used by all node logic. */
    void send(const PacketPtr &pkt, Cycle now);

    /** Tick every router, then every NI (the reference walk). */
    void tick(Cycle now);

    /**
     * Event-core variant of tick(): the same router-then-NI order,
     * but only over the active sets, and each member is entered
     * through its own gated tickEvent. A router or NI outside its
     * set is quiescent, so its tick would be a no-op: the walk is
     * bit-identical to tick() by construction.
     */
    void tickEvent(Cycle now);

    /**
     * Earliest future cycle tick() could do any work, seen from
     * cycle @p now (neverCycle = fully drained). While a router is
     * active or an active NI's links carry anything the answer is
     * conservatively now + 1 (pipeline stages advance every cycle);
     * otherwise only NI-local queues can create work, and the
     * active NIs' minima apply. Never returns a cycle <= now.
     */
    Cycle nextWake(Cycle now) const;

    /** All buffers and links empty (drain check). */
    bool idle() const;

    /**
     * The active sets: bit n is set iff router (resp. NI) n is not
     * quiescent(). A link push marks its consumer, Network::send
     * marks the source NI, and a router or NI leaves its set after
     * the tick that makes it quiescent.
     */
    const ActiveSet &activeRouters() const { return activeRouters_; }
    const ActiveSet &activeNis() const { return activeNis_; }

    /** Router and NI ticks performed (work counters). */
    std::uint64_t routersTicked() const { return routersTicked_; }
    std::uint64_t nisTicked() const { return nisTicked_; }

    /** First matching clause of nextWake()'s scan at cycle @p now
     * (wake-profiler attribution; same walk order as nextWake). */
    NetWakeReason wakeReason(Cycle now) const;


    NetworkInterface &ni(NodeId n) { return *nis_[n]; }
    Router &router(NodeId n) { return *routers_[n]; }
    const MeshShape &mesh() const { return mesh_; }
    const NocParams &params() const { return params_; }
    const NetworkStats &stats() const { return stats_; }

    /** Sum of injected flits over all NIs (utilization metric). */
    std::uint64_t totalFlitsInjected() const;
    std::uint64_t totalPacketsInjected() const;
    std::uint64_t totalLockPacketsInjected() const;

    /** Hand every router and NI the event tracer (null = off). */
    void setTracer(Tracer *t);

    /** Hand every router, NI and link the invariant checker. */
    void setChecker(CheckerRegistry *c);

    /** Link fan-out for interval telemetry. */
    unsigned numLinks() const
    {
        return static_cast<unsigned>(links_.size());
    }
    const Link &link(unsigned i) const { return *links_[i]; }

  private:
    /** Drop router / NI @p n from its active set if quiescent. */
    void
    settleRouter(NodeId n)
    {
        if (routers_[n]->quiescent())
            activeRouters_.erase(n);
    }
    void
    settleNi(NodeId n)
    {
        if (nis_[n]->quiescent())
            activeNis_.erase(n);
    }

    MeshShape mesh_;
    NocParams params_;
    const OcorConfig &ocor_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    std::vector<std::unique_ptr<Link>> links_;

    ActiveSet activeRouters_;
    ActiveSet activeNis_;
    std::uint64_t routersTicked_ = 0;
    std::uint64_t nisTicked_ = 0;

    NetworkStats stats_;
};

} // namespace ocor

#endif // OCOR_NOC_NETWORK_HH

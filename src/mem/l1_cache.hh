/**
 * @file
 * Private L1 cache with MSHRs, speaking the home-serialized MOESI
 * directory protocol over the NoC.
 *
 * The model is timing directed: tags and coherence states are exact,
 * data values are not simulated. Stable L1 states are MOESI; writes
 * to E upgrade silently to M; writes to S/O drop the local copy and
 * reissue as a full GetM (a small simplification that only adds data
 * traffic, see DESIGN.md).
 */

#ifndef OCOR_MEM_L1_CACHE_HH
#define OCOR_MEM_L1_CACHE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/cache_array.hh"
#include "mem/params.hh"
#include "noc/packet.hh"

namespace ocor
{

/** L1 observability counters. */
struct L1Stats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invsReceived = 0;
    std::uint64_t fetchesReceived = 0;
    std::uint64_t mshrRejects = 0;
};

/** One core's private L1 data cache. */
class L1Cache
{
  public:
    using CompletionFn = std::function<void(Cycle)>;

    L1Cache(NodeId node, const AddressMap &amap,
            const MemParams &params, SendFn send);

    /**
     * Issue a load (@p write false) or store (@p write true).
     *
     * @return true when accepted (hit or MSHR allocated); false when
     *         the request must be retried later (MSHR pressure or an
     *         incompatible outstanding miss on the same line).
     */
    bool request(Addr addr, bool write, Cycle now, CompletionFn done);

    /** Protocol traffic addressed to this L1. */
    void handle(const PacketPtr &pkt, Cycle now);

    /** Advance: release delayed hit completions. */
    void tick(Cycle now);

    bool idle() const { return mshrs_.empty() && delayed_.empty(); }

    /**
     * Earliest cycle tick() would do any work (neverCycle = none).
     * delayed_ is a FIFO of constant-latency completions, so its
     * front is the minimum. Outstanding MSHRs carry no timer — their
     * progress arrives as handle() traffic, not tick() work.
     */
    Cycle nextWake() const
    {
        return delayed_.empty() ? neverCycle : delayed_.front().first;
    }
    std::size_t outstanding() const { return mshrs_.size(); }
    const L1Stats &stats() const { return stats_; }

    /** White-box state inspection for tests. */
    CoherState lineState(Addr addr) const;

    /** Footprint stats: sets whose row has been allocated. */
    unsigned rowsAllocated() const { return array_.rowsAllocated(); }

  private:
    struct Mshr
    {
        bool wantWrite = false;
        std::vector<CompletionFn> waiters;
    };

    void fillLine(Addr line, CoherState state, Cycle now);
    void evictFor(Addr line, Cycle now);

    NodeId node_;
    const AddressMap &amap_;
    MemParams params_;
    SendFn send_;

    CacheArray array_;
    std::map<Addr, Mshr> mshrs_;
    std::deque<std::pair<Cycle, CompletionFn>> delayed_;
    std::uint64_t useTick_ = 0;

    L1Stats stats_;
};

} // namespace ocor

#endif // OCOR_MEM_L1_CACHE_HH

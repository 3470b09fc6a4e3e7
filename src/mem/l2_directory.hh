/**
 * @file
 * Shared L2 bank with an integrated MOESI directory.
 *
 * The home bank of every line serializes all coherence activity for
 * it (one transaction in flight per line; later requests queue in a
 * per-line pending FIFO, exactly like the lock requests of Figure 4
 * serialize at the lock variable's home node). The directory is
 * home-centric: owners write data back through the home instead of
 * forwarding cache-to-cache, which only lengthens the (fully
 * simulated) message chains and never changes protocol outcomes.
 *
 * Invariants, enforced by tests:
 *  - at most one owner per line;
 *  - a line with an owner has no conflicting exclusive grant pending;
 *  - every transaction eventually unblocks its pending queue.
 */

#ifndef OCOR_MEM_L2_DIRECTORY_HH
#define OCOR_MEM_L2_DIRECTORY_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/cache_array.hh"
#include "mem/params.hh"
#include "noc/packet.hh"

namespace ocor
{

/** Directory/L2-bank observability counters. */
struct L2Stats
{
    std::uint64_t getS = 0;
    std::uint64_t getM = 0;
    std::uint64_t invsSent = 0;
    std::uint64_t fetchesSent = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t queuedRequests = 0;
    std::uint64_t staleAcks = 0;
    std::uint64_t l2Evictions = 0;
};

/** One node's shared L2 bank + directory controller. */
class L2Directory
{
  public:
    L2Directory(NodeId node, const AddressMap &amap,
                const MemParams &params, SendFn send);

    /** Coherence / memory traffic addressed to this bank. */
    void handle(const PacketPtr &pkt, Cycle now);

    /** Advance: process requests that finished the bank latency. */
    void tick(Cycle now);

    bool idle() const;

    /** Earliest cycle tick() would do any work (neverCycle = none):
     * delayed_ is a constant-latency FIFO, so its front is minimal.
     * Directory transactions advance via handle(), not tick(). */
    Cycle nextWake() const
    {
        return delayed_.empty() ? neverCycle : delayed_.front().first;
    }

    const L2Stats &stats() const { return stats_; }

    /** White-box inspection for tests. */
    NodeId ownerOf(Addr addr) const;
    std::uint64_t sharersOf(Addr addr) const;
    bool lineBusy(Addr addr) const;

    /** Footprint stats: L2 rows allocated, most directory entries
     * held at once. */
    unsigned rowsAllocated() const { return l2_.rowsAllocated(); }
    std::size_t dirEntriesPeak() const { return dirPeak_; }

  private:
    /** Requests queued on a busy line, served in arrival order. Holds
     * no storage until the first push. */
    class PendingFifo
    {
      public:
        bool empty() const { return head_ == items_.size(); }
        void push(const PacketPtr &pkt) { items_.push_back(pkt); }

        PacketPtr
        pop()
        {
            PacketPtr pkt = std::move(items_[head_++]);
            if (head_ == items_.size()) {
                items_.clear();
                head_ = 0;
            }
            return pkt;
        }

      private:
        std::vector<PacketPtr> items_;
        std::size_t head_ = 0;
    };

    struct DirEntry
    {
        NodeId owner = invalidNode;
        std::uint64_t sharers = 0;   ///< bit per node
        bool busy = false;
        std::uint32_t txSeq = 0;     ///< tags Inv/Fetch of each tx
        PacketPtr req;               ///< request being served
        unsigned acksLeft = 0;
        bool waitingMem = false;
        bool waitingFetch = false;
        bool waitingUnblock = false;
        PendingFifo pending;
    };

    void process(const PacketPtr &pkt, Cycle now);
    void startRequest(DirEntry &e, const PacketPtr &pkt, Cycle now);
    void finishGetS(DirEntry &e, bool owner_had_data, Cycle now);
    void grantM(DirEntry &e, Cycle now);
    void awaitUnblock(DirEntry &e, const PacketPtr &req);
    void unbusyAndDrain(Addr line, Cycle now);
    void fillL2(Addr line, Cycle now);

    NodeId node_;
    const AddressMap &amap_;
    MemParams params_;
    SendFn send_;

    CacheArray l2_;
    /** Node-based, so a DirEntry& survives inserting or erasing
     * other lines (fillL2 erases a victim mid-transaction). */
    std::unordered_map<Addr, DirEntry> dir_;
    std::size_t dirPeak_ = 0;
    std::deque<std::pair<Cycle, PacketPtr>> delayed_;
    std::uint64_t useTick_ = 0;

    L2Stats stats_;
};

} // namespace ocor

#endif // OCOR_MEM_L2_DIRECTORY_HH

/**
 * @file
 * Set-associative tag/state array with LRU replacement.
 *
 * Shared by the private L1s and the L2 bank of each node. The
 * simulator is timing directed: the array tracks tags and coherence
 * state, not data values.
 *
 * A set's row of ways lines is allocated the first time victimFor()
 * touches the set; an untouched set holds nothing and misses in
 * find(). Rows never move once allocated, so a CacheLine* stays
 * valid for the array's lifetime. Victim choice is the same as in a
 * dense array: the first invalid way, else the lowest lastUse.
 */

#ifndef OCOR_MEM_CACHE_ARRAY_HH
#define OCOR_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace ocor
{

/** MOESI stable states (used by L1; L2 uses Valid/Invalid only). */
enum class CoherState : std::uint8_t { I, S, E, O, M };

/** Name of a coherence state (tests/traces). */
const char *coherStateName(CoherState s);

/** One tag-array entry. */
struct CacheLine
{
    Addr addr = 0;           ///< full line address
    std::uint64_t lastUse = 0;
    CoherState state = CoherState::I;
    bool valid = false;
};

/** Tag array of sets x ways lines, rows allocated on first touch. */
class CacheArray
{
  public:
    CacheArray(unsigned sets, unsigned ways, unsigned line_bytes);

    /** Lookup; returns nullptr on miss. Does not update LRU. */
    CacheLine *find(Addr line_addr);
    const CacheLine *find(Addr line_addr) const;

    /**
     * Choose a victim way in the set of @p line_addr: an invalid way
     * if one exists, else the LRU way. Returns the slot; the caller
     * inspects *victim to handle writeback, then overwrites it.
     * Allocates the set's row if this is its first touch.
     */
    CacheLine *victimFor(Addr line_addr);

    /** Install @p line_addr into @p slot with @p state. */
    void fill(CacheLine *slot, Addr line_addr, CoherState state,
              std::uint64_t use_tick);

    /** Mark an access for LRU purposes. */
    void touch(CacheLine *line, std::uint64_t use_tick);

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Number of valid lines (occupancy checks in tests). */
    unsigned validCount() const;

    /** Sets whose row has been allocated (footprint stats). */
    unsigned rowsAllocated() const { return rowsAllocated_; }

  private:
    unsigned setOf(Addr line_addr) const;

    unsigned sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned rowsAllocated_ = 0;
    /** One row of ways_ lines per set; null until first touched. */
    std::vector<std::unique_ptr<CacheLine[]>> rows_;
};

} // namespace ocor

#endif // OCOR_MEM_CACHE_ARRAY_HH

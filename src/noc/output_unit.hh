/**
 * @file
 * Router output unit: downstream VC bookkeeping and credit counters.
 */

#ifndef OCOR_NOC_OUTPUT_UNIT_HH
#define OCOR_NOC_OUTPUT_UNIT_HH

#include <array>
#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace ocor
{

/** One router output port: the upstream view of the downstream
 * port's virtual channels. */
struct OutputUnit
{
    /** VCs per port the router supports (SystemConfig caps numVcs
     * at this, and VC masks are 32-bit words). */
    static constexpr unsigned maxVcs = 16;

    OutputUnit(unsigned num_vcs, unsigned vc_depth)
        : freeMask((std::uint32_t{1} << num_vcs) - 1)
    {
        for (unsigned v = 0; v < num_vcs; ++v)
            credits[v] = vc_depth;
    }

    /** Free buffer slots in each downstream VC FIFO. */
    std::array<unsigned, maxVcs> credits{};

    /** Bit v set while downstream VC v is free: no packet owns it
     * (a VC is owned from its head's VA grant until its tail is
     * sent). */
    std::uint32_t freeMask;

    void allocate(unsigned v) { freeMask &= ~(std::uint32_t{1} << v); }
    void release(unsigned v) { freeMask |= std::uint32_t{1} << v; }

    /** Lowest-index free VC, or -1. */
    int
    findFreeVc() const
    {
        return freeMask ? std::countr_zero(freeMask) : -1;
    }
};

} // namespace ocor

#endif // OCOR_NOC_OUTPUT_UNIT_HH

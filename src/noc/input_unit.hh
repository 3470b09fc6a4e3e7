/**
 * @file
 * Router input unit: per-VC flit FIFOs and their pipeline state.
 *
 * Each input port of the 2-stage router holds numVcs virtual-channel
 * FIFOs of vcDepth flits (Table 2: 6 VCs x 4 flits). The FIFOs are
 * rings over one slab owned by the Router. Per VC we track the
 * route, the Table-1 rank and the allocated downstream VC of the
 * packet currently at the front.
 */

#ifndef OCOR_NOC_INPUT_UNIT_HH
#define OCOR_NOC_INPUT_UNIT_HH

#include <cstdint>

#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/ring.hh"

namespace ocor
{

/** A flit waiting in a VC buffer together with its arrival cycle. */
struct BufferedFlit
{
    Flit flit;
    Cycle arrival = 0;
};

/** State of one input virtual channel. */
struct VcState
{
    Ring<BufferedFlit> fifo;

    /** Route of the front packet, computed when its head reached
     * the front of the FIFO (RC runs in parallel with VA). */
    unsigned outPort = 0;

    /** Table-1 rank of the front packet (priorityRank of its
     * header), cached when its head reached the front. */
    std::int64_t rank = 0;

    /** Downstream VC allocated by VA; -1 while unallocated. */
    int outVc = -1;

    bool empty() const { return fifo.empty(); }
    const BufferedFlit &front() const { return fifo.front(); }
};

} // namespace ocor

#endif // OCOR_NOC_INPUT_UNIT_HH

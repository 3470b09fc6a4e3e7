#include "sim/config.hh"

#include "common/log.hh"

namespace ocor
{

void
SystemConfig::validate() const
{
    if (mesh.width == 0 || mesh.height == 0)
        ocor_fatal("SystemConfig: empty mesh");
    if (mesh.numNodes() > 64)
        ocor_fatal("SystemConfig: at most 64 nodes (sharer bitmask)");
    if (numThreads == 0 || numThreads > mesh.numNodes())
        ocor_fatal("SystemConfig: numThreads must be in [1, %u]",
                   mesh.numNodes());
    ocor.validate();
    if (noc.numVcs == 0 || noc.numVcs > 16)
        ocor_fatal("SystemConfig: numVcs must be in [1, 16]");
    if (noc.vcDepth == 0)
        ocor_fatal("SystemConfig: vcDepth must be > 0");
    if (noc.linkLatency == 0)
        ocor_fatal("SystemConfig: linkLatency must be > 0");
    if (noc.routerStages == 0)
        ocor_fatal("SystemConfig: routerStages must be > 0");
    if (noc.niQueueDepth == 0)
        ocor_fatal("SystemConfig: niQueueDepth must be > 0");
    if (maxCycles == 0)
        ocor_fatal("SystemConfig: maxCycles must be > 0");
    if (os.retryInterval == 0)
        ocor_fatal("SystemConfig: os.retryInterval must be > 0");
    if (os.remoteTryInterval == 0)
        ocor_fatal("SystemConfig: os.remoteTryInterval must be > 0");
    fault.validate();
}

MeshShape
SystemConfig::meshFor(unsigned cores)
{
    switch (cores) {
      case 4: return {2, 2};
      case 16: return {4, 4};
      case 32: return {8, 4};
      case 64: return {8, 8};
      default:
        ocor_fatal("no conventional mesh for %u cores "
                   "(use 4, 16, 32 or 64)", cores);
    }
}

} // namespace ocor

/**
 * @file
 * Partition-then-place mapping for tiled fabrics.
 *
 * A fabric::Topology with more than one tile is mapped in two
 * stages: (1) partition the DFG across tiles — a deterministic
 * greedy growth over "units" (share groups and SyncPlane dispatch
 * groups are atomic) followed by cut-reducing refinement passes,
 * under per-tile PE-class and router-CF capacity; (2) place each
 * tile's induced subgraph with the existing portfolio anneal
 * (mapper::mapGraph), one tile after another on the calling thread
 * (a thread per tile measured slower: docs/mapper.md). The merged
 * global mapping is then re-routed
 * on the flattened grid, pricing tile-boundary links against
 * Topology::interTileCapacity (the same classifier PS-P06 lints
 * with) and interior links against the tile's linkCapacity.
 *
 * A 1×1 topology delegates straight to mapGraph, so the tiled entry
 * point is bit-identical to the legacy path when there is nothing
 * to partition.
 */

#ifndef PIPESTITCH_MAPPER_TILED_HH
#define PIPESTITCH_MAPPER_TILED_HH

#include <string>
#include <vector>

#include "mapper/mapper.hh"

namespace pipestitch::mapper {

struct TiledMapping
{
    bool success = false;
    std::string error;

    fabric::Topology topo;

    /** The merged whole-fabric placement (global grid indices),
     *  routed on the flattened grid. */
    Mapping merged;

    /** Node → tile index; -1 for the trigger (injected, unplaced). */
    std::vector<int> tileOf;

    /** Consumer edges whose producer and consumer sit on different
     *  tiles — each becomes a latency-N inter-tile channel in the
     *  simulator. */
    int64_t cutEdges = 0;

    /** Max circuit-switched routes over any tile-boundary link. */
    int interTileLoadMax = 0;

    /** Partition attempts consumed (retries reshuffle the greedy
     *  growth when a tile fails to place or boundary links
     *  overflow). */
    int attempts = 0;
};

/**
 * Map @p graph onto the tiled fabric described by @p topo.
 * @p options drives the per-tile anneals (rngSeed is re-derived per
 * tile).
 */
TiledMapping mapGraphTiled(const dfg::Graph &graph,
                           const fabric::Topology &topo,
                           const MapperOptions &options =
                               MapperOptions{});

} // namespace pipestitch::mapper

#endif // PIPESTITCH_MAPPER_TILED_HH

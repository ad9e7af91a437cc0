/**
 * @file
 * Batched data-parallel execution: one prepared mapping, many data
 * shards, dealt across the replicated tiles of a fabric::Topology.
 * Every tile holds the same per-tile placement, so a shard can run
 * on any tile, and a shard's cycles do not depend on which tile it
 * lands on. A batch is therefore two separate things:
 *
 *  - its shards' cycles, each one executeOnFabric of the shared
 *    single-tile artifact (the prepare-once / execute-N machinery
 *    from core/system.hh), so each shard gets the deadlock and bound
 *    cross-checks and golden verification of a single run; and
 *  - scheduleBatch, a pure function of those cycles and the tile
 *    arrangement.
 *
 * The throughput model is deliberately simple: a tile runs its
 * shards back-to-back, and a shard on a remote tile (any tile but
 * the scalar core's tile 0) pays one inter-tile round trip
 * (2 × interTileLatency) to inject arguments and drain results.
 * Shards are dealt longest first, each onto the tile that finishes
 * it earliest. `totalCycles` (the sum over shards) is the
 * single-tile serial baseline and `makespanCycles` (the latest tile
 * finish) the batched finish time, so modeledSpeedup = total /
 * makespan.
 */

#ifndef PIPESTITCH_CORE_BATCH_HH
#define PIPESTITCH_CORE_BATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "core/system.hh"

namespace pipestitch {

/** The most shards one batch takes (`pstool bench-tiles --shards`,
 *  serve's "batch"). */
inline constexpr int kMaxBatchShards = 1024;

/** Where a batch's shards run on a tile arrangement, and how long
 *  the batch takes there. */
struct BatchSchedule
{
    /** Tile each shard is dealt onto, in input order. */
    std::vector<int> shardTile;

    /** Σ shard cycles: the one-tile serial baseline. */
    int64_t totalCycles = 0;
    /** max over tiles of (Σ its shards' cycles + injection
     *  overhead): the batched finish time. */
    int64_t makespanCycles = 0;
    /** totalCycles / makespanCycles (≥ 1 when batching helps). */
    double modeledSpeedup = 1.0;
};

/**
 * Deal shards of @p shardCycles cycles each onto @p tiles tiles
 * (≥ 1): longest shard first, each onto the tile that finishes it
 * earliest, with 2 × @p interTileLatency per shard on every tile but
 * tile 0. Ties go to the lower tile, so the tiles in use are always
 * a prefix.
 */
BatchSchedule scheduleBatch(const std::vector<int64_t> &shardCycles,
                            int tiles, int interTileLatency);

/** The result of one batched run. */
struct BatchRun
{
    /** The single-tile artifact every shard executed. */
    PreparedPtr prepared;
    /** Per-shard fabric cycles, in input order (excludes the
     *  inter-tile injection overhead: that depends on the tile a
     *  shard is dealt onto). */
    std::vector<int64_t> shardCycles;
    /** The shards dealt onto the tiles of runBatch's config. */
    BatchSchedule schedule;
};

/**
 * Execute @p kernel once per memory image in @p images, in order, on
 * the calling thread. The mapping is prepared once under @p config
 * with tiling forced to a single tile (each tile of the topology
 * holds that same placement); each shard is @p kernel with its
 * memory replaced by one image. Per-shard golden verification
 * follows config.verifyAgainstGolden.
 *
 * @return nullopt with @p error set when the topology is invalid,
 * @p images is empty, prepare fails or a shard fails; a failing
 * shard is reported as "runBatch: shard I (NAME): " followed by
 * executeOnFabric's error, and no later shard runs.
 */
std::optional<BatchRun> runBatch(
    const workloads::KernelInstance &kernel,
    const std::vector<scalar::MemImage> &images,
    const RunConfig &config, std::string &error);

} // namespace pipestitch

#endif // PIPESTITCH_CORE_BATCH_HH

/**
 * @file
 * Batched data-parallel execution: one prepared mapping, many data
 * shards, streamed through the replicated tiles of a
 * fabric::Topology. Every tile holds the same per-tile placement
 * (prepared once from the first shard), so a shard can run on any
 * tile. Each shard is one executeOnFabric of that shared artifact
 * (the prepare-once / execute-N machinery from core/system.hh), so
 * it gets the deadlock and bound cross-checks and golden
 * verification of a single run. Shards sit in one shared queue and
 * min(tiles, shards, hardware threads) host workers each claim the
 * next shard the moment they go idle.
 *
 * The throughput model is deliberately simple: a tile runs its
 * shards back-to-back, and a shard on a remote tile (any tile but
 * the scalar core's tile 0) pays one inter-tile round trip
 * (2 × interTileLatency) to inject arguments and drain results.
 * Because per-shard cycles are arrangement-invariant, the model
 * replays the stealing schedule deterministically: longest
 * remaining shard first, each onto the tile that finishes it
 * earliest. `totalCycles` (the sum over shards) is the single-tile
 * serial baseline and `makespanCycles` (the latest tile finish) the
 * batched finish time, so modeledSpeedup = total / makespan.
 */

#ifndef PIPESTITCH_CORE_BATCH_HH
#define PIPESTITCH_CORE_BATCH_HH

#include <string>
#include <vector>

#include "core/system.hh"

namespace pipestitch {

/** The result of one batched run. */
struct BatchRun
{
    bool success = false;
    std::string error;

    /** The shared artifact every shard executed (null when prepare
     *  itself failed). */
    PreparedPtr prepared;

    int tiles = 1;  ///< topology tile count
    int shards = 0; ///< shard count actually executed

    /** Per-shard fabric cycles, in input order (excludes the
     *  inter-tile injection overhead — that is a property of the
     *  tile a shard landed on, reported via makespanCycles). */
    std::vector<int64_t> shardCycles;
    /** Tile the throughput model schedules each shard onto
     *  (longest-first onto the earliest-finishing tile — the
     *  deterministic replay of the stealing executor). */
    std::vector<int> shardTile;

    /** Σ shardCycles: the one-tile serial baseline. */
    int64_t totalCycles = 0;
    /** max over tiles of (Σ its shards' cycles + injection
     *  overhead): the batched finish time. */
    int64_t makespanCycles = 0;
    /** totalCycles / makespanCycles (≥ 1 when batching helps). */
    double modeledSpeedup = 1.0;

    double seconds = 0;     ///< makespan at the tile clock
    double wallSeconds = 0; ///< host time spent simulating
};

/**
 * Execute every kernel in @p shards against one shared prepared
 * mapping. All shards must be instances of the same kernel (same
 * program and live-ins — typically SpMV row blocks or DNN batch
 * slices from the same generator); the mapping is prepared from
 * shards[0] under @p config with tiling forced to a single tile
 * (each tile of the topology holds that same placement).
 *
 * Failure contract mirrors runOnFabric: with @p error null any
 * failure is fatal(); otherwise *error and BatchRun::error are set
 * and success stays false. A failing shard is reported as
 * "runBatch: shard I (NAME): " followed by executeOnFabric's error;
 * when several fail, the lowest index is reported. Per-shard golden
 * verification follows config.verifyAgainstGolden.
 */
BatchRun runBatch(const std::vector<workloads::KernelInstance> &shards,
                  const RunConfig &config,
                  std::string *error = nullptr);

} // namespace pipestitch

#endif // PIPESTITCH_CORE_BATCH_HH

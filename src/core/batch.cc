#include "core/batch.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"

namespace pipestitch {

BatchSchedule
scheduleBatch(const std::vector<int64_t> &shardCycles, int tiles,
              int interTileLatency)
{
    BatchSchedule s;
    s.shardTile.assign(shardCycles.size(), 0);
    s.totalCycles = std::accumulate(shardCycles.begin(),
                                    shardCycles.end(), int64_t{0});
    if (shardCycles.empty())
        return s;

    // Remote tiles pay the injection round trip per shard, so tile 0
    // wins ties, and the tiles in use are always a prefix: no shard
    // lands past tile min(tiles, shards) - 1, so only those are
    // modeled.
    const int64_t overhead = 2 * static_cast<int64_t>(interTileLatency);
    std::vector<size_t> order(shardCycles.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return shardCycles[a] > shardCycles[b];
    });
    std::vector<int64_t> tileSum(
        std::min(static_cast<size_t>(tiles), shardCycles.size()), 0);
    for (size_t i : order) {
        size_t best = 0;
        int64_t bestFinish = 0;
        for (size_t t = 0; t < tileSum.size(); t++) {
            int64_t finish =
                tileSum[t] + shardCycles[i] + (t > 0 ? overhead : 0);
            if (t == 0 || finish < bestFinish) {
                best = t;
                bestFinish = finish;
            }
        }
        s.shardTile[i] = static_cast<int>(best);
        tileSum[best] = bestFinish;
    }
    s.makespanCycles = *std::max_element(tileSum.begin(), tileSum.end());
    s.modeledSpeedup =
        s.makespanCycles > 0
            ? static_cast<double>(s.totalCycles) /
                  static_cast<double>(s.makespanCycles)
            : 1.0;
    return s;
}

std::optional<BatchRun>
runBatch(const workloads::KernelInstance &kernel,
         const std::vector<scalar::MemImage> &images,
         const RunConfig &config, std::string &error)
{
    const fabric::Topology topo = config.topology();
    std::string terr;
    if (!topo.validate(&terr)) {
        error = "runBatch: invalid topology: " + terr;
        return std::nullopt;
    }
    if (images.empty()) {
        error = "runBatch: no shards to execute";
        return std::nullopt;
    }

    // Prepare ONCE, as a single tile: each tile of the topology
    // holds a replica of this per-tile placement, so the batch never
    // pays cross-tile routing inside a shard — only the injection
    // round trip scheduleBatch models.
    RunConfig tileCfg = config;
    tileCfg.tilesX = 1;
    tileCfg.tilesY = 1;
    BatchRun batch;
    batch.prepared = prepareKernel(kernel, tileCfg, &error);
    if (!batch.prepared)
        return std::nullopt;

    // The compiled program bakes the live-ins in, so a shard is the
    // kernel with another memory image: one working copy serves all
    // (a KernelInstance is move-only).
    workloads::KernelInstance shard{kernel.name,
                                    sir::cloneProgram(kernel.prog),
                                    kernel.liveIns,
                                    {}};
    batch.shardCycles.reserve(images.size());
    for (size_t i = 0; i < images.size(); i++) {
        shard.memory = images[i];
        std::string err;
        FabricRun run =
            executeOnFabric(*batch.prepared, shard, tileCfg, &err);
        if (!err.empty()) {
            error = csprintf("runBatch: shard %zu (%s): %s", i,
                             kernel.name.c_str(), err.c_str());
            return std::nullopt;
        }
        batch.shardCycles.push_back(run.cycles());
    }
    batch.schedule = scheduleBatch(batch.shardCycles, topo.numTiles(),
                                   topo.interTileLatency);
    return batch;
}

} // namespace pipestitch

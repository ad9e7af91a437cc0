#include "core/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "base/logging.hh"
#include "energy/model.hh"

namespace pipestitch {

BatchRun
runBatch(const std::vector<workloads::KernelInstance> &shards,
         const RunConfig &config, std::string *error)
{
    BatchRun batch;
    batch.shards = static_cast<int>(shards.size());
    // runOnFabric's failure contract: fatal() without an error
    // out-param, else the first message wins.
    auto fail = [&](std::string msg) {
        if (!error)
            fatal("%s", msg.c_str());
        if (error->empty())
            *error = std::move(msg);
        batch.error = *error;
        return batch;
    };
    const int64_t tileCount = int64_t{config.tilesX} * config.tilesY;
    if (tileCount > std::numeric_limits<int>::max())
        return fail("runBatch: the tile count overflows an int");
    batch.tiles = static_cast<int>(tileCount);

    if (shards.empty())
        return fail("runBatch: no shards to execute");
    std::string terr;
    if (!config.topology().validate(&terr))
        return fail("runBatch: invalid topology: " + terr);
    // One mapping serves every tile, so every shard must be an
    // instance of the same kernel: the compiled program bakes the
    // live-ins in, and only the memory image is per-execution.
    for (size_t i = 1; i < shards.size(); i++) {
        if (shards[i].liveIns != shards[0].liveIns ||
            shards[i].prog.memWords != shards[0].prog.memWords) {
            return fail(csprintf(
                "runBatch: shard %zu (%s) is not an instance of "
                "shard 0 (%s) — batched tiles share one program and "
                "differ only in memory contents",
                i, shards[i].name.c_str(), shards[0].name.c_str()));
        }
    }

    // Prepare ONCE, as a single tile: each tile of the topology
    // holds a replica of this per-tile placement, so the batch never
    // pays cross-tile routing inside a shard — only the injection
    // round trip modeled below.
    RunConfig tileCfg = config;
    tileCfg.tilesX = 1;
    tileCfg.tilesY = 1;
    std::string perr;
    PreparedPtr prep = prepareKernel(shards[0], tileCfg,
                                     error ? &perr : nullptr);
    if (!prep)
        return fail(std::move(perr));
    batch.prepared = prep;

    const int tiles = batch.tiles;
    const int64_t overhead =
        2 * static_cast<int64_t>(config.interTileLatency);
    batch.shardCycles.assign(shards.size(), 0);
    batch.shardTile.assign(shards.size(), 0);

    // Each shard runs through executeOnFabric, so it gets the same
    // cross-checks and golden verification as a single run and
    // borrows an idle engine from the shared Program. Shards sit in
    // one queue and each worker claims the next one as it goes
    // idle. A worker is a host thread, not a tile: at most one per
    // tile, per shard and per hardware thread.
    // Shards run unobserved: one observer cannot watch concurrent
    // workers.
    RunConfig shardCfg = tileCfg;
    shardCfg.sim.observer = nullptr;
    shardCfg.sim.trace = false;
    std::vector<std::string> shardError(shards.size());
    std::atomic<size_t> nextShard{0};
    std::atomic<bool> failed{false};
    auto worker = [&] {
        while (!failed.load()) {
            size_t i = nextShard.fetch_add(1);
            if (i >= shards.size())
                break;
            FabricRun run = executeOnFabric(*prep, shards[i], shardCfg,
                                            &shardError[i]);
            if (!shardError[i].empty()) {
                failed.store(true);
                break;
            }
            batch.shardCycles[i] = run.cycles();
        }
    };

    const size_t workers = std::min(
        {static_cast<size_t>(tiles), shards.size(),
         static_cast<size_t>(
             std::max(1u, std::thread::hardware_concurrency()))});
    auto wallStart = std::chrono::steady_clock::now();
    if (workers > 1) {
        std::vector<std::thread> threads;
        for (size_t w = 0; w < workers; w++)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
    } else {
        worker();
    }
    batch.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();

    // Shards are claimed in index order and a claimed shard always
    // runs, so the lowest failing shard ran: the reported failure
    // does not depend on thread timing.
    for (size_t i = 0; i < shards.size(); i++) {
        if (!shardError[i].empty()) {
            return fail(csprintf("runBatch: shard %zu (%s): %s", i,
                                 shards[i].name.c_str(),
                                 shardError[i].c_str()));
        }
    }

    // Throughput model: serial baseline vs batched makespan. The
    // modeled schedule mirrors the stealing executor
    // deterministically (per-shard cycles are arrangement-
    // invariant): longest remaining shard first, each onto the tile
    // that finishes it earliest — work always steals away from the
    // slowest tile while another is free. Remote tiles pay the
    // injection round trip per shard, so tile 0 wins ties, and the
    // tiles in use are always a prefix: no shard lands past tile
    // min(tiles, shards) - 1, so only those are modeled.
    batch.totalCycles = std::accumulate(batch.shardCycles.begin(),
                                        batch.shardCycles.end(),
                                        int64_t{0});
    std::vector<size_t> order(shards.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return batch.shardCycles[a] > batch.shardCycles[b];
    });
    std::vector<int64_t> tileSum(
        std::min(static_cast<size_t>(tiles), shards.size()), 0);
    for (size_t i : order) {
        size_t best = 0;
        int64_t bestFinish = 0;
        for (size_t t = 0; t < tileSum.size(); t++) {
            int64_t finish =
                tileSum[t] + batch.shardCycles[i] + (t > 0 ? overhead : 0);
            if (t == 0 || finish < bestFinish) {
                best = t;
                bestFinish = finish;
            }
        }
        batch.shardTile[i] = static_cast<int>(best);
        tileSum[best] = bestFinish;
    }
    batch.makespanCycles =
        *std::max_element(tileSum.begin(), tileSum.end());
    batch.modeledSpeedup =
        batch.makespanCycles > 0
            ? static_cast<double>(batch.totalCycles) /
                  static_cast<double>(batch.makespanCycles)
            : 1.0;
    batch.seconds = energy::secondsFor(batch.makespanCycles,
                                       config.fabric.clockMHz);
    batch.success = true;
    return batch;
}

} // namespace pipestitch

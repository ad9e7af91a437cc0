#include "core/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "base/logging.hh"
#include "energy/model.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"

namespace pipestitch {

namespace {

void
reportFailure(std::string *error, std::string msg)
{
    if (!error)
        fatal("%s", msg.c_str());
    if (error->empty())
        *error = std::move(msg);
}

} // namespace

BatchRun
runBatch(const std::vector<workloads::KernelInstance> &shards,
         const RunConfig &config, std::string *error)
{
    BatchRun batch;
    batch.tiles = config.tilesX * config.tilesY;
    batch.shards = static_cast<int>(shards.size());

    if (shards.empty()) {
        reportFailure(error, "runBatch: no shards to execute");
        batch.error = error ? *error : "";
        return batch;
    }
    {
        std::string terr;
        if (!config.topology().validate(&terr)) {
            reportFailure(
                error,
                csprintf("runBatch: invalid topology: %s",
                         terr.c_str()));
            batch.error = error ? *error : "";
            return batch;
        }
    }
    // One mapping serves every tile, so every shard must be an
    // instance of the same kernel: the compiled program bakes the
    // live-ins in, and only the memory image is per-execution.
    for (size_t i = 1; i < shards.size(); i++) {
        if (shards[i].liveIns != shards[0].liveIns ||
            shards[i].prog.memWords != shards[0].prog.memWords) {
            reportFailure(
                error,
                csprintf("runBatch: shard %zu (%s) is not an "
                         "instance of shard 0 (%s) — batched tiles "
                         "share one program and differ only in "
                         "memory contents",
                         i, shards[i].name.c_str(),
                         shards[0].name.c_str()));
            batch.error = error ? *error : "";
            return batch;
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
    if (!prep) {
        reportFailure(error, std::move(perr));
        batch.error = error ? *error : "";
        return batch;
    }
    batch.prepared = prep;

    const int tiles = batch.tiles;
    const int64_t overhead =
        2 * static_cast<int64_t>(config.interTileLatency);
    batch.shardCycles.assign(shards.size(), 0);
    batch.shardTile.assign(shards.size(), 0);

    std::vector<std::string> tileError(static_cast<size_t>(tiles));
    auto wallStart = std::chrono::steady_clock::now();

    // One worker per tile, one ExecutionState per worker: run()
    // resets all run state and borrows a warmed engine from the
    // Program, so every shard after a tile's first reuses one set of
    // slabs (sim/program.hh). Shards sit in one shared queue
    // and each idle tile claims the next one (work-stealing): a
    // tile stuck on a slow shard never holds a fixed stride of the
    // queue the way the old round-robin deal did.
    std::atomic<size_t> nextShard{0};
    auto runTile = [&](int t) {
        ScopedQuiet scopedQuiet(config.quiet);
        sim::ExecutionState exec(prep->program);
        for (;;) {
            size_t i = nextShard.fetch_add(1);
            if (i >= shards.size())
                break;
            const workloads::KernelInstance &shard = shards[i];
            scalar::MemImage mem = shard.memory;
            mem.resize(std::max(
                mem.size(),
                static_cast<size_t>(shard.prog.memWords)));
            sim::RunOptions ropts;
            ropts.maxCycles = config.sim.maxCycles;
            sim::SimResult res = exec.run(mem, ropts);
            if (res.deadlocked) {
                tileError[static_cast<size_t>(t)] = csprintf(
                    "shard %zu (%s) %s on tile %d:\n%s", i,
                    shard.name.c_str(),
                    res.fault.any()       ? "hit a memory fault"
                    : res.watchdogExpired ? "exceeded its cycle watchdog"
                                          : "deadlocked",
                    t, res.diagnostic.c_str());
                return;
            }
            if (config.verifyAgainstGolden) {
                scalar::MemImage golden = shard.memory;
                golden.resize(mem.size());
                scalar::interpret(shard.prog, golden,
                                  shard.liveIns);
                if (golden != mem) {
                    tileError[static_cast<size_t>(t)] = csprintf(
                        "shard %zu (%s) diverged from the golden "
                        "model on tile %d",
                        i, shard.name.c_str(), t);
                    return;
                }
            }
            batch.shardCycles[i] = res.stats.cycles;
        }
    };

    if (tiles > 1) {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(tiles));
        for (int t = 0; t < tiles; t++)
            workers.emplace_back(runTile, t);
        for (auto &w : workers)
            w.join();
    } else {
        runTile(0);
    }

    batch.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();

    for (int t = 0; t < tiles; t++) {
        if (tileError[static_cast<size_t>(t)].empty())
            continue;
        reportFailure(error,
                      "runBatch: " + tileError[static_cast<size_t>(t)]);
        batch.error = error ? *error : "";
        return batch;
    }

    // Throughput model: serial baseline vs batched makespan. The
    // modeled schedule mirrors the stealing executor
    // deterministically (per-shard cycles are arrangement-
    // invariant): longest remaining shard first, each onto the tile
    // that finishes it earliest — work always steals away from the
    // slowest tile while another is free. Remote tiles pay the
    // injection round trip per shard, so tile 0 wins ties.
    for (int64_t c : batch.shardCycles)
        batch.totalCycles += c;
    std::vector<size_t> order(shards.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) {
                  if (batch.shardCycles[a] != batch.shardCycles[b])
                      return batch.shardCycles[a] >
                             batch.shardCycles[b];
                  return a < b;
              });
    std::vector<int64_t> tileSum(static_cast<size_t>(tiles), 0);
    for (size_t i : order) {
        int best = 0;
        int64_t bestFinish = 0;
        for (int t = 0; t < tiles; t++) {
            int64_t finish = tileSum[static_cast<size_t>(t)] +
                             batch.shardCycles[i] +
                             (t > 0 ? overhead : 0);
            if (t == 0 || finish < bestFinish) {
                best = t;
                bestFinish = finish;
            }
        }
        batch.shardTile[i] = best;
        tileSum[static_cast<size_t>(best)] = bestFinish;
    }
    for (int t = 0; t < tiles; t++)
        batch.makespanCycles =
            std::max(batch.makespanCycles,
                     tileSum[static_cast<size_t>(t)]);
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

#include "runner/memo.hh"

#include "base/hash.hh"
#include "dfg/analysis.hh"

namespace pipestitch::runner {

namespace {

void
hashFabric(Hasher &h, const fabric::FabricConfig &f)
{
    h.i32(f.width)
        .i32(f.height)
        .vec(f.peMix)
        .i32(f.routerCfCapacity)
        .i32(f.linkCapacity)
        .i64(f.memBytes)
        .i32(f.memBanks)
        .f64(f.clockMHz);
}

/** The tile-grid fields of a RunConfig. Part of runKey and
 *  preparedKey: a 2×2 arrangement of the same per-tile grid is a
 *  different prepared artifact (partitioned mapping, channel
 *  latencies) than the 1×1 one. */
void
hashTiling(Hasher &h, const RunConfig &cfg)
{
    h.i32(cfg.tilesX)
        .i32(cfg.tilesY)
        .i32(cfg.interTileLatency)
        .i32(cfg.interTileCapacity);
}

} // namespace

uint64_t
MemoCache::programKey(const workloads::KernelInstance &k)
{
    Hasher h;
    h.u64(sir::fingerprint(k.prog)).vec(k.liveIns);
    return h.digest();
}

uint64_t
MemoCache::kernelKey(const workloads::KernelInstance &k)
{
    Hasher h;
    h.u64(programKey(k)).vec(k.memory);
    return h.digest();
}

uint64_t
MemoCache::mappingKey(const dfg::Graph &graph,
                      const fabric::FabricConfig &fabric,
                      const mapper::MapperOptions &opts)
{
    Hasher h;
    h.u64(dfg::graphFingerprint(graph));
    hashFabric(h, fabric);
    // Everything that shapes the result. `jobs` and
    // `verifyIncremental` are deliberately absent: the portfolio
    // winner is bit-identical for any thread count, and the
    // verification mode only adds assertions. `boundPruneCycles` is
    // read by nothing.
    h.u64(opts.rngSeed)
        .i32(opts.annealIterations)
        .i32(opts.portfolioSeeds)
        .f64(opts.congestionPhase)
        .i32(opts.maxTargetedRestarts);
    h.u64(opts.shareGroups.size());
    for (const auto &group : opts.shareGroups)
        h.vec(group);
    return h.digest();
}

uint64_t
MemoCache::runKey(const workloads::KernelInstance &k,
                  const RunConfig &cfg)
{
    return runKey(kernelKey(k), cfg);
}

uint64_t
MemoCache::runKey(uint64_t kernelKey, const RunConfig &cfg)
{
    Hasher h;
    h.u64(kernelKey)
        .i32(static_cast<int32_t>(cfg.variant))
        .i32(static_cast<int32_t>(cfg.threading))
        .b(cfg.useStreams)
        .i32(cfg.unrollFactor)
        .b(cfg.allowTimeMultiplex)
        .b(cfg.map)
        .b(cfg.verifyAgainstGolden)
        .u64(cfg.mapperSeed)
        .i32(cfg.mapperSeeds);
    hashFabric(h, cfg.fabric);
    hashTiling(h, cfg);
    // SimConfig: only the user-settable fields. The derived ones
    // (buffering, memBypass, memBanks, shareGroups) are functions of
    // the inputs above, and quiet/trace/observer do not affect the
    // result.
    h.i32(cfg.sim.bufferDepth)
        .i64(cfg.sim.maxCycles)
        .b(cfg.sim.checkThreadOrder)
        .b(cfg.sim.greedyDispatch);
    return h.digest();
}

uint64_t
MemoCache::preparedKey(const workloads::KernelInstance &k,
                       const RunConfig &cfg)
{
    Hasher h;
    // programKey, not kernelKey: the memory image is per-execution
    // state and must not fragment the prepared cache — that sharing
    // is exactly what lets serve batch same-kernel requests with
    // different inputs onto one Program.
    h.u64(programKey(k))
        .i32(static_cast<int32_t>(cfg.variant))
        .i32(static_cast<int32_t>(cfg.threading))
        .b(cfg.useStreams)
        .i32(cfg.unrollFactor)
        .b(cfg.allowTimeMultiplex)
        .b(cfg.map)
        .b(cfg.analyze)
        .u64(cfg.mapperSeed)
        .i32(cfg.mapperSeeds);
    hashFabric(h, cfg.fabric);
    hashTiling(h, cfg);
    // Same SimConfig subset as runKey.
    h.i32(cfg.sim.bufferDepth)
        .i64(cfg.sim.maxCycles)
        .b(cfg.sim.checkThreadOrder)
        .b(cfg.sim.greedyDispatch);
    return h.digest();
}

std::shared_ptr<const PreparedKernel>
MemoCache::lookupPrepared(const workloads::KernelInstance &kernel,
                          const RunConfig &config)
{
    uint64_t key = preparedKey(kernel, config);
    std::lock_guard<std::mutex> lock(mu);
    auto it = prepareds.find(key);
    if (it == prepareds.end()) {
        nPreparedComputes.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    nPreparedHits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
MemoCache::storePrepared(
    const workloads::KernelInstance &kernel, const RunConfig &config,
    std::shared_ptr<const PreparedKernel> prepared)
{
    uint64_t key = preparedKey(kernel, config);
    std::lock_guard<std::mutex> lock(mu);
    prepareds.emplace(key, std::move(prepared));
}

bool
MemoCache::lookupMapping(const dfg::Graph &graph,
                         const fabric::FabricConfig &fabric,
                         const mapper::MapperOptions &opts,
                         mapper::Mapping &out)
{
    uint64_t key = mappingKey(graph, fabric, opts);
    std::lock_guard<std::mutex> lock(mu);
    auto it = mappings.find(key);
    if (it == mappings.end()) {
        nMapComputes.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    nMapHits.fetch_add(1, std::memory_order_relaxed);
    out = it->second;
    return true;
}

void
MemoCache::storeMapping(const dfg::Graph &graph,
                        const fabric::FabricConfig &fabric,
                        const mapper::MapperOptions &opts,
                        const mapper::Mapping &mapping)
{
    uint64_t key = mappingKey(graph, fabric, opts);
    std::lock_guard<std::mutex> lock(mu);
    mappings.emplace(key, mapping);
}

MemoStats
MemoCache::stats() const
{
    MemoStats s;
    s.mapHits = nMapHits.load(std::memory_order_relaxed);
    s.mapComputes = nMapComputes.load(std::memory_order_relaxed);
    s.preparedHits = nPreparedHits.load(std::memory_order_relaxed);
    s.preparedComputes =
        nPreparedComputes.load(std::memory_order_relaxed);
    return s;
}

} // namespace pipestitch::runner

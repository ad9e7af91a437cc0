#include "runner/memo.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "base/hash.hh"
#include "base/logging.hh"
#include "dfg/analysis.hh"
#include "sir/printer.hh"

namespace pipestitch::runner {

namespace {

/** Bump when the on-disk mapping format or any key ingredient
 *  changes; stale files then simply miss. (v4: integrity trailer.) */
constexpr int kDiskFormatVersion = 4;

/** Final line of every mapping file: "end <payload-bytes> <magic>".
 *  A file without it is torn — truncated by a crash or caught
 *  mid-replace on a filesystem without atomic rename — and is
 *  treated as a plain cache miss, never a parse error. */
constexpr char kTrailerMagic[] = "ps-intact";

/** True iff @p f ends with a well-formed trailer whose claimed
 *  payload length matches the bytes that precede it. Leaves the
 *  file position unspecified. */
bool
trailerIntact(FILE *f)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return false;
    long size = std::ftell(f);
    // The trailer line is at most ~40 bytes; 63 is generous.
    char buf[64];
    long tail =
        std::min<long>(size, static_cast<long>(sizeof(buf)) - 1);
    if (tail <= 0 || std::fseek(f, size - tail, SEEK_SET) != 0 ||
        std::fread(buf, 1, static_cast<size_t>(tail), f) !=
            static_cast<size_t>(tail)) {
        return false;
    }
    buf[tail] = '\0';
    if (buf[tail - 1] != '\n')
        return false;
    buf[tail - 1] = '\0';
    const char *line = std::strrchr(buf, '\n');
    if (line)
        line++;
    else if (tail == size)
        line = buf; // whole file fit in the buffer
    else
        return false;
    long claimed = -1;
    char magic[16] = {0};
    if (std::sscanf(line, "end %ld %15s", &claimed, magic) != 2 ||
        std::strcmp(magic, kTrailerMagic) != 0) {
        return false;
    }
    long trailerLen = static_cast<long>(std::strlen(line)) + 1;
    return claimed == size - trailerLen;
}

/** Salted into every mapping key. Bump whenever the mapper's
 *  objective or search changes, so cached placements from an older
 *  mapper are never replayed against the new one (v2: portfolio
 *  anneal with the congestion-aware objective; v3: honest barrier
 *  snapshots, the greedy basin probe, and size-scaled schedules
 *  with keep-one halving at 20%, all of which change the selected
 *  winner). */
constexpr uint64_t kMappingKeyVersion = 3;

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

MemoCache::MemoCache(std::string cacheDir) : dir(std::move(cacheDir))
{
    if (!dir.empty())
        sweepOrphanedTmpFiles();
}

void
MemoCache::sweepOrphanedTmpFiles() const
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return;
    const auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &entry : it) {
        if (entry.path().filename().string().find(".tmp.") ==
            std::string::npos) {
            continue;
        }
        auto mtime =
            std::filesystem::last_write_time(entry.path(), ec);
        if (ec)
            continue;
        // A live writer holds its tmp file for milliseconds; one
        // this old belongs to a crashed process.
        if (now - mtime > std::chrono::hours(1))
            std::filesystem::remove(entry.path(), ec);
    }
}

uint64_t
MemoCache::programKey(const workloads::KernelInstance &k)
{
    Hasher h;
    h.str(sir::print(k.prog)).vec(k.liveIns);
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
MemoCache::compileKey(const workloads::KernelInstance &k,
                      const compiler::CompileOptions &opts)
{
    Hasher h;
    h.u64(programKey(k))
        .i32(static_cast<int32_t>(opts.variant))
        .i32(static_cast<int32_t>(opts.threading))
        .b(opts.useStreams)
        .i32(opts.bufferDepth)
        .i32(opts.unrollFactor);
    return h.digest();
}

uint64_t
MemoCache::mappingKey(const dfg::Graph &graph,
                      const fabric::FabricConfig &fabric,
                      const mapper::MapperOptions &opts)
{
    Hasher h;
    h.u64(kMappingKeyVersion);
    h.u64(dfg::graphFingerprint(graph));
    hashFabric(h, fabric);
    // Everything that shapes the result. `jobs` and
    // `verifyIncremental` are deliberately absent: the portfolio
    // winner is bit-identical for any thread count, and the
    // verification mode only adds assertions.
    h.u64(opts.rngSeed)
        .i32(opts.annealIterations)
        .f64(opts.startTemperature)
        .i32(opts.portfolioSeeds)
        .f64(opts.congestionWeight)
        .f64(opts.congestionPhase)
        .i32(opts.maxTargetedRestarts);
    h.u64(static_cast<uint64_t>(opts.boundPruneCycles));
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
        .i32(cfg.mapperSeeds)
        .i64(cfg.boundPruneCycles);
    hashFabric(h, cfg.fabric);
    hashTiling(h, cfg);
    // SimConfig: only the user-settable fields. The derived ones
    // (buffering, memBypass, memBanks, shareGroups) are functions of
    // the inputs above, and quiet/trace/observer do not affect the
    // result. The scheduler stays in the key: the engines are
    // bit-identical, but a caller asking for the DenseScan oracle
    // must get an oracle run.
    h.i32(static_cast<int32_t>(cfg.sim.scheduler))
        .i32(cfg.sim.bufferDepth)
        .i32(cfg.sim.memLatency)
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
        .i32(cfg.mapperSeeds)
        .i64(cfg.boundPruneCycles);
    hashFabric(h, cfg.fabric);
    hashTiling(h, cfg);
    // Same SimConfig subset as runKey.
    h.i32(static_cast<int32_t>(cfg.sim.scheduler))
        .i32(cfg.sim.bufferDepth)
        .i32(cfg.sim.memLatency)
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
MemoCache::lookupCompile(const workloads::KernelInstance &kernel,
                         const compiler::CompileOptions &opts,
                         compiler::CompileResult &out)
{
    uint64_t key = compileKey(kernel, opts);
    std::lock_guard<std::mutex> lock(mu);
    auto it = compiles.find(key);
    if (it == compiles.end()) {
        nCompileComputes.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    nCompileHits.fetch_add(1, std::memory_order_relaxed);
    out = it->second;
    return true;
}

void
MemoCache::storeCompile(const workloads::KernelInstance &kernel,
                        const compiler::CompileOptions &opts,
                        const compiler::CompileResult &result)
{
    uint64_t key = compileKey(kernel, opts);
    std::lock_guard<std::mutex> lock(mu);
    compiles.emplace(key, result);
}

bool
MemoCache::lookupMapping(const dfg::Graph &graph,
                         const fabric::FabricConfig &fabric,
                         const mapper::MapperOptions &opts,
                         mapper::Mapping &out)
{
    uint64_t key = mappingKey(graph, fabric, opts);
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = mappings.find(key);
        if (it != mappings.end()) {
            nMapHits.fetch_add(1, std::memory_order_relaxed);
            out = it->second;
            return true;
        }
    }
    if (!dir.empty() && loadMappingFile(key, out)) {
        nMapDiskHits.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        mappings.emplace(key, out);
        return true;
    }
    nMapComputes.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
MemoCache::storeMapping(const dfg::Graph &graph,
                        const fabric::FabricConfig &fabric,
                        const mapper::MapperOptions &opts,
                        const mapper::Mapping &mapping)
{
    uint64_t key = mappingKey(graph, fabric, opts);
    {
        std::lock_guard<std::mutex> lock(mu);
        mappings.emplace(key, mapping);
    }
    // Failed mappings are cheap to recompute and their error text is
    // diagnostic, not canonical — only successes go to disk.
    if (!dir.empty() && mapping.success)
        saveMappingFile(key, mapping);
}

MemoStats
MemoCache::stats() const
{
    MemoStats s;
    s.compileHits = nCompileHits.load(std::memory_order_relaxed);
    s.compileComputes =
        nCompileComputes.load(std::memory_order_relaxed);
    s.mapHits = nMapHits.load(std::memory_order_relaxed);
    s.mapDiskHits = nMapDiskHits.load(std::memory_order_relaxed);
    s.mapComputes = nMapComputes.load(std::memory_order_relaxed);
    s.preparedHits = nPreparedHits.load(std::memory_order_relaxed);
    s.preparedComputes =
        nPreparedComputes.load(std::memory_order_relaxed);
    return s;
}

std::string
MemoCache::mappingPath(uint64_t key) const
{
    return dir + "/map-" + hashHex(key) + ".txt";
}

bool
MemoCache::loadMappingFile(uint64_t key, mapper::Mapping &out) const
{
    FILE *f = std::fopen(mappingPath(key).c_str(), "r");
    if (!f)
        return false;
    if (!trailerIntact(f)) {
        // Torn write (crash mid-write, or caught mid-replace where
        // rename is not atomic): silently miss and recompute.
        std::fclose(f);
        return false;
    }
    std::rewind(f);
    mapper::Mapping m;
    m.success = true;
    int version = 0;
    size_t nPe = 0, nRouter = 0, nHops = 0;
    bool ok =
        std::fscanf(f, "pipestitch-mapping %d\n", &version) == 1 &&
        version == kDiskFormatVersion &&
        std::fscanf(f, "wirelength %" SCNd64 "\n",
                    &m.totalWireLength) == 1 &&
        std::fscanf(f, "avghops %la\n", &m.avgHops) == 1 &&
        std::fscanf(f, "maxlinkload %d\n", &m.maxLinkLoad) == 1 &&
        std::fscanf(f, "cost %la\n", &m.cost) == 1 &&
        std::fscanf(f, "overflow %" SCNd64 "\n",
                    &m.congestionOverflow) == 1 &&
        std::fscanf(f, "winningseed %d\n", &m.winningSeed) == 1 &&
        std::fscanf(f, "earlyexits %d\n", &m.seedsEarlyExited) ==
            1 &&
        std::fscanf(f, "halved %d\n", &m.seedsHalved) == 1 &&
        std::fscanf(f, "pe %zu\n", &nPe) == 1;
    if (ok) {
        m.peOf.resize(nPe);
        for (size_t i = 0; ok && i < nPe; i++)
            ok = std::fscanf(f, "%d", &m.peOf[i]) == 1;
    }
    ok = ok && std::fscanf(f, "\nrouter %zu\n", &nRouter) == 1;
    if (ok) {
        m.routerOf.resize(nRouter);
        for (size_t i = 0; ok && i < nRouter; i++)
            ok = std::fscanf(f, "%d", &m.routerOf[i]) == 1;
    }
    ok = ok && std::fscanf(f, "\nhops %zu\n", &nHops) == 1;
    if (ok) {
        m.hopsOf.resize(nHops);
        for (size_t i = 0; ok && i < nHops; i++) {
            size_t nPorts = 0;
            ok = std::fscanf(f, "%zu", &nPorts) == 1;
            if (!ok)
                break;
            m.hopsOf[i].resize(nPorts);
            for (size_t j = 0; ok && j < nPorts; j++)
                ok = std::fscanf(f, "%d", &m.hopsOf[i][j]) == 1;
        }
    }
    std::fclose(f);
    if (!ok) {
        warn("ignoring malformed mapping cache file %s",
             mappingPath(key).c_str());
        return false;
    }
    out = std::move(m);
    return true;
}

void
MemoCache::saveMappingFile(uint64_t key,
                           const mapper::Mapping &mapping) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create cache dir %s: %s", dir.c_str(),
             ec.message().c_str());
        return;
    }
    std::string path = mappingPath(key);
    // Unique tmp name per writer thread, then an atomic rename, so
    // concurrent processes sharing a cache dir never see torn files.
    std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<uint64_t>(std::hash<std::thread::id>{}(
            std::this_thread::get_id())));
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn("cannot write mapping cache file %s", tmp.c_str());
        return;
    }
    std::fprintf(f, "pipestitch-mapping %d\n", kDiskFormatVersion);
    std::fprintf(f, "wirelength %" PRId64 "\n",
                 mapping.totalWireLength);
    // %a round-trips the double exactly.
    std::fprintf(f, "avghops %a\n", mapping.avgHops);
    std::fprintf(f, "maxlinkload %d\n", mapping.maxLinkLoad);
    std::fprintf(f, "cost %a\n", mapping.cost);
    std::fprintf(f, "overflow %" PRId64 "\n",
                 mapping.congestionOverflow);
    std::fprintf(f, "winningseed %d\n", mapping.winningSeed);
    std::fprintf(f, "earlyexits %d\n", mapping.seedsEarlyExited);
    std::fprintf(f, "halved %d\n", mapping.seedsHalved);
    std::fprintf(f, "pe %zu\n", mapping.peOf.size());
    for (int v : mapping.peOf)
        std::fprintf(f, "%d ", v);
    std::fprintf(f, "\nrouter %zu\n", mapping.routerOf.size());
    for (int v : mapping.routerOf)
        std::fprintf(f, "%d ", v);
    std::fprintf(f, "\nhops %zu\n", mapping.hopsOf.size());
    for (const auto &ports : mapping.hopsOf) {
        std::fprintf(f, "%zu", ports.size());
        for (int v : ports)
            std::fprintf(f, " %d", v);
        std::fprintf(f, "\n");
    }
    // Integrity trailer: readers reject any file whose trailer is
    // missing or disagrees with the preceding byte count.
    long payloadBytes = std::ftell(f);
    std::fprintf(f, "end %ld %s\n", payloadBytes, kTrailerMagic);
    bool bad = std::ferror(f) != 0;
    if (std::fclose(f) != 0)
        bad = true;
    if (bad) {
        // Disk full or similar: never publish a torn file.
        warn("error writing mapping cache file %s", tmp.c_str());
        std::filesystem::remove(tmp, ec);
        return;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

} // namespace pipestitch::runner

/**
 * @file
 * Tiled-fabric end-to-end coverage: the partition-then-place mapper
 * (mapper/tiled.hh), inter-tile latency channels in the simulator,
 * the core RunConfig tiling surface, and batched data-parallel
 * execution (core/batch.hh).
 *
 * The cornerstone invariant is 1×1 ≡ legacy: a single-tile topology
 * must reproduce today's mappings and stats bit-identically (the
 * whole-suite version of that claim lives in test_golden_stats.cc —
 * the tiled code must never perturb the single-grid path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "analysis/placement.hh"
#include "base/logging.hh"
#include "compiler/compile.hh"
#include "core/batch.hh"
#include "core/system.hh"
#include "mapper/tiled.hh"
#include "scalar/interpreter.hh"
#include "sim/program.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;

namespace {

/** A 4-operator streaming kernel small enough for a 4×4 tile. */
workloads::KernelInstance
makeTinyScale(int n)
{
    const char *text = "program tiny_scale\n"
                       "array x 8\n"
                       "array y 8\n"
                       "livein n\n"
                       "\n"
                       "foreach i = 0 .. n:\n"
                       "  v = load x[i]\n"
                       "  s = mul v 3\n"
                       "  r = add s 7\n"
                       "  store y[i] = r\n"
                       "end\n";
    auto parsed = sir::parseSir(text, "<test>");
    workloads::KernelInstance kernel;
    kernel.name = parsed.program.name;
    kernel.prog = std::move(parsed.program);
    kernel.liveIns = {n};
    kernel.memory = scalar::makeMemory(kernel.prog);
    for (int i = 0; i < n; i++)
        kernel.memory[static_cast<size_t>(
            kernel.prog.array(parsed.arrays.at("x")).base + i)] =
            i + 1;
    return kernel;
}

fabric::Topology
quadTopo(int tileW, int tileH)
{
    fabric::Topology topo;
    topo.tile.width = tileW;
    topo.tile.height = tileH;
    topo.tile.peMix = fabric::scaleMixFor(tileW, tileH);
    topo.tilesX = 2;
    topo.tilesY = 2;
    return topo;
}

compiler::CompileResult
compileKernel(const workloads::KernelInstance &kernel)
{
    compiler::CompileOptions copts;
    return compiler::compileProgram(kernel.prog, kernel.liveIns,
                                    copts);
}

TEST(TiledMapper, SingleTileDelegatesToMapGraphBitIdentically)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.3, 7);
    auto res = compileKernel(kernel);

    fabric::Topology topo; // 1×1 of the default 8×8
    mapper::MapperOptions mopts;
    mapper::TiledMapping tm =
        mapper::mapGraphTiled(res.graph, topo, mopts);
    ASSERT_TRUE(tm.success) << tm.error;

    fabric::Fabric fab(topo.tile);
    mapper::Mapping direct =
        mapper::mapGraph(res.graph, fab, mopts);
    ASSERT_TRUE(direct.success) << direct.error;

    EXPECT_EQ(tm.merged.peOf, direct.peOf);
    EXPECT_EQ(tm.merged.routerOf, direct.routerOf);
    EXPECT_EQ(tm.merged.cost, direct.cost);
    EXPECT_EQ(tm.merged.totalWireLength, direct.totalWireLength);
    EXPECT_EQ(tm.cutEdges, 0);
}

TEST(TiledMapper, PartitionsSpreadAndLintClean)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.3, 7);
    auto res = compileKernel(kernel);

    fabric::Topology topo = quadTopo(4, 4);
    mapper::TiledMapping tm =
        mapper::mapGraphTiled(res.graph, topo, mapper::MapperOptions{});
    ASSERT_TRUE(tm.success) << tm.error;
    ASSERT_EQ(tm.tileOf.size(),
              static_cast<size_t>(res.graph.size()));

    // 17 operators cannot fit one 16-PE tile, so the partition must
    // use at least two tiles and cut at least one edge.
    std::set<int> used;
    for (int t : tm.tileOf) {
        if (t >= 0)
            used.insert(t);
    }
    EXPECT_GE(used.size(), 2u);
    EXPECT_GT(tm.cutEdges, 0);
    EXPECT_LE(tm.interTileLoadMax, topo.interTileCapacity);

    // Every placed node sits inside its assigned tile, and the
    // placement passes the lint (PS-P01..P06) on the tiled fabric.
    fabric::Fabric fab(topo);
    for (dfg::NodeId id = 0; id < res.graph.size(); id++) {
        int pe = tm.merged.peOf[static_cast<size_t>(id)];
        if (pe < 0)
            continue;
        EXPECT_EQ(fab.tileOfPe(pe),
                  tm.tileOf[static_cast<size_t>(id)])
            << "node " << id;
    }
    analysis::AnalysisReport report;
    analysis::lintPlacement(res.graph, fab, tm.merged, report,
                            analysis::PlacementLintOptions{});
    EXPECT_TRUE(report.ok()) << report.toString(res.graph);
}

TEST(TiledMapper, BitIdenticalAcrossJobs)
{
    // MapperOptions::jobs maps the tiles on a thread pool; the
    // merged placement must not depend on it. CI also runs this
    // under TSan, so jobs > 1 exercises real concurrent tile maps.
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.3, 7);
    auto res = compileKernel(kernel);
    fabric::Topology topo = quadTopo(4, 4);
    mapper::TiledMapping ref;
    for (int jobs : {1, 2, 4}) {
        mapper::MapperOptions opts;
        opts.jobs = jobs;
        mapper::TiledMapping tm =
            mapper::mapGraphTiled(res.graph, topo, opts);
        ASSERT_TRUE(tm.success) << "jobs=" << jobs << ": " << tm.error;
        if (jobs == 1) {
            std::set<int> used(tm.tileOf.begin(), tm.tileOf.end());
            used.erase(-1);
            ASSERT_GE(used.size(), 2u) << "nothing to parallelize";
            ref = std::move(tm);
            continue;
        }
        EXPECT_EQ(tm.merged.peOf, ref.merged.peOf) << "jobs=" << jobs;
        EXPECT_EQ(tm.merged.routerOf, ref.merged.routerOf)
            << "jobs=" << jobs;
        EXPECT_EQ(tm.tileOf, ref.tileOf) << "jobs=" << jobs;
        EXPECT_EQ(tm.merged.cost, ref.merged.cost) << "jobs=" << jobs;
    }
}

TEST(TiledRun, FourByFourFabricGolden)
{
    setQuiet(true);
    auto kernel = makeTinyScale(8);
    RunConfig cfg;
    cfg.quiet = true;
    cfg.fabric.width = 4;
    cfg.fabric.height = 4;
    cfg.fabric.peMix = fabric::scaleMixFor(4, 4);
    std::string err;
    FabricRun run = runOnFabric(kernel, cfg, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_FALSE(run.sim.deadlocked);
    EXPECT_GT(run.cycles(), 0);
    // Golden verification against the scalar interpreter is on by
    // default; an empty error above certifies the memory image.
}

TEST(TiledRun, QuadTileRunMatchesGoldenWithInterTileTraffic)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.3, 7);
    RunConfig cfg;
    cfg.quiet = true;
    cfg.fabric.width = 4;
    cfg.fabric.height = 4;
    cfg.fabric.peMix = fabric::scaleMixFor(4, 4);
    cfg.tilesX = 2;
    cfg.tilesY = 2;

    std::string err;
    cfg.sim.scheduler = sim::SimConfig::Scheduler::DenseScan;
    FabricRun dense = runOnFabric(kernel, cfg, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_FALSE(dense.sim.deadlocked) << dense.sim.diagnostic;
    EXPECT_GT(dense.sim.stats.interTileTokens, 0);

    // The ready-list scheduler must agree cycle-for-cycle with the
    // dense reference even with latency-N channels in play.
    cfg.sim.scheduler = sim::SimConfig::Scheduler::ReadyList;
    FabricRun ready = runOnFabric(kernel, cfg, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(dense.cycles(), ready.cycles());
    EXPECT_EQ(dense.sim.stats.interTileTokens,
              ready.sim.stats.interTileTokens);
    EXPECT_EQ(dense.memory, ready.memory);

    // Crossing a tile boundary costs interTileLatency cycles, so
    // the tiled run can never beat the same kernel on one big grid
    // of identical size.
    RunConfig flat = cfg;
    flat.tilesX = 1;
    flat.tilesY = 1;
    flat.fabric.width = 8;
    flat.fabric.height = 8;
    flat.fabric.peMix = fabric::scaleMixFor(8, 8);
    flat.sim.scheduler = sim::SimConfig::Scheduler::DenseScan;
    FabricRun single = runOnFabric(kernel, flat, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_GE(dense.cycles(), single.cycles());
}

TEST(TiledRun, StructuredErrorsInsteadOfFatal)
{
    setQuiet(true);
    auto kernel = makeTinyScale(4);

    // Invalid topology: peMix does not cover the tile grid.
    RunConfig bad;
    bad.quiet = true;
    bad.tilesX = 2;
    bad.fabric.width = 4;
    bad.fabric.height = 4; // keeps the default 64-PE mix: invalid
    std::string err;
    FabricRun run = runOnFabric(kernel, bad, &err);
    EXPECT_FALSE(err.empty());
    EXPECT_NE(err.find("peMix"), std::string::npos) << err;

    // Tiled execution requires mapping (channels come from the
    // placement).
    RunConfig unmapped;
    unmapped.quiet = true;
    unmapped.tilesX = 2;
    unmapped.map = false;
    err.clear();
    runOnFabric(kernel, unmapped, &err);
    EXPECT_NE(err.find("mapping"), std::string::npos) << err;
}

TEST(BatchRun, QuadTileSpmvShardsReachTargetSpeedup)
{
    setQuiet(true);
    auto shards = workloads::makeSpmvShards(64, 0.2, 1, 8);
    ASSERT_EQ(shards.size(), 8u);

    RunConfig cfg;
    cfg.quiet = true;
    cfg.tilesX = 2;
    cfg.tilesY = 2;
    std::string err;
    BatchRun batch = runBatch(shards, cfg, &err);
    ASSERT_TRUE(batch.success) << err;
    EXPECT_EQ(batch.tiles, 4);
    EXPECT_EQ(batch.shards, 8);
    ASSERT_EQ(batch.shardCycles.size(), 8u);
    for (size_t i = 0; i < batch.shardCycles.size(); i++) {
        EXPECT_GT(batch.shardCycles[i], 0) << i;
        EXPECT_GE(batch.shardTile[i], 0) << i;
        EXPECT_LT(batch.shardTile[i], batch.tiles) << i;
    }
    EXPECT_GT(batch.totalCycles, batch.makespanCycles);
    // The acceptance bar: 2×2 batched throughput at least 1.8× the
    // single-tile serial baseline.
    EXPECT_GE(batch.modeledSpeedup, 1.8);

    // The reported schedule must reproduce the reported makespan:
    // per-tile finish = its shards' cycles plus one injection round
    // trip per shard on every tile but 0.
    std::vector<int64_t> finish(static_cast<size_t>(batch.tiles), 0);
    for (size_t i = 0; i < batch.shardCycles.size(); i++) {
        int t = batch.shardTile[i];
        finish[static_cast<size_t>(t)] +=
            batch.shardCycles[i] +
            (t > 0 ? 2 * cfg.interTileLatency : 0);
    }
    EXPECT_EQ(batch.makespanCycles,
              *std::max_element(finish.begin(), finish.end()));

    // Single tile is the serial baseline by definition.
    RunConfig one = cfg;
    one.tilesX = 1;
    one.tilesY = 1;
    BatchRun serial = runBatch(shards, one, &err);
    ASSERT_TRUE(serial.success) << err;
    EXPECT_EQ(serial.makespanCycles, serial.totalCycles);
    EXPECT_DOUBLE_EQ(serial.modeledSpeedup, 1.0);
    EXPECT_EQ(serial.totalCycles, batch.totalCycles);
}

TEST(BatchRun, ShardCyclesMatchSingleExecutions)
{
    setQuiet(true);
    auto shards = workloads::makeSpmvShards(64, 0.2, 1, 8);
    RunConfig cfg;
    cfg.quiet = true;
    cfg.tilesX = 2;
    cfg.tilesY = 2;
    std::string err;
    BatchRun batch = runBatch(shards, cfg, &err);
    ASSERT_TRUE(batch.success) << err;

    // One engine per worker at most, and never more workers than
    // tiles, shards or hardware threads.
    const size_t workers = std::min<size_t>(
        {4, shards.size(),
         std::max(1u, std::thread::hardware_concurrency())});
    EXPECT_GE(batch.prepared->program->idleEngines(), 1u);
    EXPECT_LE(batch.prepared->program->idleEngines(), workers);

    // Each shard is one execution of the shared single-tile
    // artifact.
    RunConfig tileCfg = cfg;
    tileCfg.tilesX = 1;
    tileCfg.tilesY = 1;
    for (size_t i = 0; i < shards.size(); i++) {
        FabricRun run =
            executeOnFabric(*batch.prepared, shards[i], tileCfg, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(batch.shardCycles[i], run.cycles()) << i;
    }
}

TEST(BatchRun, ShardPastItsArraysFailsWithAMemoryFault)
{
    setQuiet(true);
    std::vector<workloads::KernelInstance> shards;
    for (int i = 0; i < 3; i++) {
        shards.push_back(makeTinyScale(4));
        shards.back().liveIns = {100}; // n past the 8-word arrays
    }
    RunConfig cfg;
    cfg.quiet = true;
    cfg.tilesX = 2;
    std::string err;
    BatchRun batch = runBatch(shards, cfg, &err);
    EXPECT_FALSE(batch.success);
    EXPECT_EQ(batch.error, err);
    // Every shard faults; the lowest index is the one reported.
    EXPECT_NE(err.find("shard 0 (tiny_scale)"), std::string::npos)
        << err;
    EXPECT_NE(err.find("memory fault"), std::string::npos) << err;
}

TEST(BatchRun, RejectsEmptyAndIncompatibleShards)
{
    setQuiet(true);
    RunConfig cfg;
    cfg.quiet = true;
    std::string err;
    BatchRun empty = runBatch({}, cfg, &err);
    EXPECT_FALSE(empty.success);
    EXPECT_FALSE(err.empty());

    // Different programs can't share one prepared mapping.
    std::vector<workloads::KernelInstance> mixed;
    mixed.push_back(workloads::makeSpmv(16, 0.3, 7));
    mixed.push_back(makeTinyScale(4));
    err.clear();
    BatchRun bad = runBatch(mixed, cfg, &err);
    EXPECT_FALSE(bad.success);
    EXPECT_FALSE(err.empty());

    // A tile count past int is refused before anything runs.
    RunConfig huge = cfg;
    huge.tilesX = 65536;
    huge.tilesY = 65536;
    err.clear();
    BatchRun overflow = runBatch(mixed, huge, &err);
    EXPECT_FALSE(overflow.success);
    EXPECT_NE(err.find("tile count"), std::string::npos) << err;
}

} // namespace

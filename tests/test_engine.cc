/**
 * @file
 * Bit-identity gate for the fast engine (sim/engine.hh): for every
 * kernel and configuration, its SimStats, termination status,
 * diagnostic text, and memory image must equal the DenseScan
 * oracle's field by field.
 *
 * Coverage matrix:
 *  - the small kernels under SyncPlane and greedy dispatch, with
 *    destination and source buffering;
 *  - inter-tile channels via a real 2×2-tiled run;
 *  - share groups (time multiplexing) under both bufferings;
 *  - watchdog diagnostics (diagnose() must match byte-for-byte);
 *  - memory faults (out-of-bounds loads and stores): same node,
 *    address, cycle, stats and partial memory image.
 *
 * The randomized counterpart is tests/test_fuzz_equivalence.cc; the
 * pinned counterpart is tests/test_golden_stats.cc.
 */

#include <gtest/gtest.h>

#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "core/system.hh"
#include "fabric/fabric.hh"
#include "scalar/interpreter.hh"
#include "sim/simulator.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

#include "simulators.hh"

using namespace pipestitch;
using sim::SimConfig;

namespace {

/** Field-by-field stats equality with readable failure output. */
void
expectSameRun(const sim::SimResult &oracle, const sim::SimResult &fast,
              const scalar::MemImage &oracleMem,
              const scalar::MemImage &fastMem, const std::string &tag)
{
    const auto &a = oracle.stats;
    const auto &b = fast.stats;
#define PS_EQ(field) EXPECT_EQ(a.field, b.field) << tag << " " #field
    PS_EQ(cycles);
    PS_EQ(nodeFires);
    PS_EQ(portReads);
    PS_EQ(classFires);
    PS_EQ(nocCfFires);
    PS_EQ(bufferWrites);
    PS_EQ(bufferReads);
    PS_EQ(nocTraversals);
    PS_EQ(memLoads);
    PS_EQ(memStores);
    PS_EQ(steerDrops);
    PS_EQ(syncPlaneCycles);
    PS_EQ(dispatchSpawns);
    PS_EQ(dispatchConts);
    PS_EQ(shareConflicts);
    PS_EQ(muxSwitches);
    PS_EQ(interTileTokens);
    PS_EQ(stallNoInput);
    PS_EQ(stallNoSpace);
    PS_EQ(bankConflictStalls);
#undef PS_EQ
    EXPECT_TRUE(sim::statsEqual(a, b)) << tag;
    EXPECT_EQ(oracle.deadlocked, fast.deadlocked) << tag;
    EXPECT_EQ(oracle.watchdogExpired, fast.watchdogExpired) << tag;
    EXPECT_EQ(oracle.fault, fast.fault) << tag;
    EXPECT_EQ(oracle.diagnostic, fast.diagnostic) << tag;
    EXPECT_EQ(oracleMem, fastMem) << tag << " memory image";
}

/** Run @p cfg on both engines and compare. */
void
expectEnginesAgree(const dfg::Graph &graph,
                   const workloads::KernelInstance &kernel,
                   const SimConfig &cfg, const std::string &tag)
{
    scalar::MemImage denseMem = kernel.memory;
    denseMem.resize(static_cast<size_t>(kernel.prog.memWords));
    scalar::MemImage fastMem = denseMem;
    auto dense = simtest::simulateOn(simtest::Engine::Dense, graph,
                                     denseMem, cfg);
    auto fast = simtest::simulateOn(simtest::Engine::Fast, graph,
                                    fastMem, cfg);
    expectSameRun(dense, fast, denseMem, fastMem, tag);
}

} // namespace

TEST(FastEngine, SmallKernelsMatchDenseScan)
{
    setQuiet(true);
    for (const auto &kernel : workloads::smallKernels(1)) {
        auto res = compiler::compileProgram(kernel.prog,
                                            kernel.liveIns, {});
        for (auto buffering : {SimConfig::Buffering::Destination,
                               SimConfig::Buffering::Source}) {
            for (bool greedy : {false, true}) {
                auto cfg = res.simConfig;
                cfg.buffering = buffering;
                cfg.greedyDispatch = greedy;
                cfg.maxCycles = 500000;
                expectEnginesAgree(
                    res.graph, kernel, cfg,
                    kernel.name +
                        (buffering == SimConfig::Buffering::Source
                             ? "/source"
                             : "/dest") +
                        (greedy ? "/greedy" : ""));
            }
        }
    }
}

TEST(FastEngine, TiledChannelsMatchDenseScan)
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

    // Prepare once; the reference runs the prepared Program on the
    // image executeOnFabric starts from.
    std::string err;
    PreparedPtr prepared = prepareKernel(kernel, cfg, &err);
    ASSERT_TRUE(prepared) << err;
    FabricRun fast = executeOnFabric(*prepared, kernel, cfg, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_GT(fast.sim.stats.interTileTokens, 0);

    scalar::MemImage denseMem;
    auto dense = simtest::runDenseOnPrepared(*prepared, kernel, denseMem);
    expectSameRun(dense, fast.sim, denseMem, fast.memory,
                  "spmv_tiled");
}

TEST(FastEngine, WatchdogDiagnosticsMatchByteForByte)
{
    // Cut the run short so both engines hit the watchdog with tokens
    // still in flight: the diagnose() fabric dumps must be equal.
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 3);
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, {});
    for (auto buffering : {SimConfig::Buffering::Destination,
                           SimConfig::Buffering::Source}) {
        auto cfg = res.simConfig;
        cfg.buffering = buffering;
        cfg.maxCycles = 200;
        scalar::MemImage mem = kernel.memory;
        mem.resize(static_cast<size_t>(kernel.prog.memWords));
        ASSERT_TRUE(sim::simulate(res.graph, mem, cfg).watchdogExpired);
        expectEnginesAgree(res.graph, kernel, cfg, "dither/watchdog");
    }
}

TEST(FastEngine, MemoryFaultsMatchDenseScan)
{
    setQuiet(true);
    // An out-of-bounds store: the trip count runs past both arrays.
    auto parsed = sir::parseSir("program scale\n"
                                "array x 16\n"
                                "array y 16\n"
                                "livein n\n"
                                "foreach i = 0 .. n:\n"
                                "  v = load x[i]\n"
                                "  store y[i] = v\n"
                                "end\n",
                                "scale.sir");
    workloads::KernelInstance scale;
    scale.name = "scale";
    scale.prog = std::move(parsed.program);
    scale.liveIns = {40};
    scale.memory = scalar::makeMemory(scale.prog);
    // An out-of-bounds load: one column index far past x.
    auto spmv = workloads::makeSpmv(8, 0.5, 5);
    for (const auto &arr : spmv.prog.arrays) {
        if (arr.name == "colidx")
            spmv.memory[static_cast<size_t>(arr.base)] = -(1 << 20);
    }
    for (const workloads::KernelInstance *kernel : {&scale, &spmv}) {
        auto res = compiler::compileProgram(kernel->prog,
                                            kernel->liveIns, {});
        for (auto buffering : {SimConfig::Buffering::Destination,
                               SimConfig::Buffering::Source}) {
            auto cfg = res.simConfig;
            cfg.buffering = buffering;
            cfg.maxCycles = 500000;
            scalar::MemImage mem = kernel->memory;
            mem.resize(static_cast<size_t>(kernel->prog.memWords));
            auto fault = sim::simulate(res.graph, mem, cfg).fault;
            ASSERT_TRUE(fault.any()) << kernel->name;
            EXPECT_EQ(res.graph.at(fault.node).kind,
                      kernel == &scale ? dfg::NodeKind::Store
                                       : dfg::NodeKind::Load);
            expectEnginesAgree(res.graph, *kernel, cfg,
                               kernel->name + "/fault");
        }
    }
}

TEST(FastEngine, ShareGroupsMatchDenseScan)
{
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 2);
    compiler::CompileOptions opts;
    opts.unrollFactor = 2;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    auto groups = compiler::planTimeMultiplexing(
        res.graph, fabric::FabricConfig{});
    ASSERT_FALSE(groups.empty());
    for (auto buffering : {SimConfig::Buffering::Destination,
                           SimConfig::Buffering::Source}) {
        auto cfg = res.simConfig;
        cfg.buffering = buffering;
        cfg.maxCycles = 500000;
        for (const auto &group : groups)
            cfg.shareGroups.emplace_back(group.begin(), group.end());
        expectEnginesAgree(res.graph, kernel, cfg, "dither/tm");
    }
}

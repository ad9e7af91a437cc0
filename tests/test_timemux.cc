/**
 * @file
 * Time-multiplexing tests (paper Sec. 6 future work): the planner
 * only folds cold operators, shared PEs never double-fire, results
 * stay correct, and over-subscribed kernels (e.g. unrolled lanes)
 * become mappable at a bounded performance cost.
 */

#include <gtest/gtest.h>

#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "core/system.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;

TEST(TimeMux, NoGroupsWhenKernelFits)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.8, 1);
    compiler::CompileOptions opts;
    auto res = compiler::compileProgram(kernel.prog,
                                        kernel.liveIns, opts);
    fabric::FabricConfig cfg;
    auto groups = compiler::planTimeMultiplexing(res.graph, cfg);
    EXPECT_TRUE(groups.empty());
}

TEST(TimeMux, PlansOnlyColdSameClassOperators)
{
    setQuiet(true);
    // Unrolled Dither over-subscribes arith PEs.
    auto kernel = workloads::makeDither(16, 8, 2);
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    opts.unrollFactor = 2;
    auto res = compiler::compileProgram(kernel.prog,
                                        kernel.liveIns, opts);
    fabric::FabricConfig cfg;
    auto groups = compiler::planTimeMultiplexing(res.graph, cfg);
    ASSERT_FALSE(groups.empty());
    for (const auto &group : groups) {
        ASSERT_GE(group.size(), 2u);
        auto cls = res.graph.at(group[0]).peClass();
        for (auto id : group) {
            const auto &node = res.graph.at(id);
            EXPECT_EQ(node.peClass(), cls);
            EXPECT_FALSE(node.innerLoop) << "folded a hot operator";
            EXPECT_NE(node.kind, dfg::NodeKind::Dispatch);
        }
    }
    // The plan must actually make the kernel fit.
    auto counts = res.graph.peClassCounts();
    int freed[5] = {};
    for (const auto &group : groups) {
        freed[static_cast<size_t>(
            res.graph.at(group[0]).peClass())] +=
            static_cast<int>(group.size()) - 1;
    }
    for (size_t c = 0; c < 5; c++)
        EXPECT_LE(counts[c] - freed[c], cfg.peMix[c]);
}

TEST(TimeMux, UnrolledDitherMapsAndMatchesGolden)
{
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 2);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.unrollFactor = 2;
    cfg.allowTimeMultiplex = true;
    // Without time-multiplexing this fatal()s on mapping (see
    // test_unroll); with it, the run must map AND stay correct
    // (golden check inside runOnFabric).
    auto run = runOnFabric(kernel, cfg);
    EXPECT_TRUE(run.mapping().success);
    EXPECT_GT(run.sim.stats.muxSwitches, 0);
}

TEST(TimeMux, SharedPeNeverDoubleFires)
{
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 2);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.unrollFactor = 2;
    cfg.allowTimeMultiplex = true;
    auto run = runOnFabric(kernel, cfg);
    // Members of one group cannot fire more, in total, than cycles.
    auto groups = compiler::planTimeMultiplexing(
        run.compiled().graph, fabric::FabricConfig{});
    for (const auto &group : groups) {
        int64_t fires = 0;
        for (auto id : group)
            fires +=
                run.sim.stats.nodeFires[static_cast<size_t>(id)];
        EXPECT_LE(fires, run.cycles());
    }
}

TEST(TimeMux, CostIsBoundedOnColdOperators)
{
    setQuiet(true);
    // Dither x2 with sharing must still beat un-unrolled Dither:
    // the folded operators are cold, so sharing costs little.
    auto kernel = workloads::makeDither(64, 32, 4);
    RunConfig base;
    base.variant = ArchVariant::Pipestitch;
    auto r1 = runOnFabric(kernel, base);
    RunConfig tm = base;
    tm.unrollFactor = 2;
    tm.allowTimeMultiplex = true;
    auto r2 = runOnFabric(kernel, tm);
    EXPECT_LT(static_cast<double>(r2.cycles()),
              0.85 * static_cast<double>(r1.cycles()))
        << "unroll+time-multiplex should still win";
}

TEST(TimeMux, PlannerRejectsImpossibleFits)
{
    setQuiet(true);
    auto kernel = workloads::makeSpMSpMd(8, 0.8, 3);
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    opts.unrollFactor = 4; // hopeless on an 8x8 fabric
    auto res = compiler::compileProgram(kernel.prog,
                                        kernel.liveIns, opts);
    fabric::FabricConfig cfg;
    EXPECT_DEATH(
        { compiler::planTimeMultiplexing(res.graph, cfg); },
        "cannot fit");
}

TEST(TimeMux, PrepareReportsImpossibleFitsThroughError)
{
    setQuiet(true);
    // The explore grid's SpMSpMd at unroll 8 on the 8x8 fabric: a
    // caller that passes an error out-param gets a structured
    // failure naming the PE demand, not a process exit.
    auto kernel = workloads::makeSpMSpMd(8, 0.8, 6);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.unrollFactor = 8;
    cfg.allowTimeMultiplex = true;
    std::string error;
    EXPECT_EQ(prepareKernel(kernel, cfg, &error), nullptr);
    EXPECT_NE(error.find("PEs demanded"), std::string::npos) << error;
    EXPECT_NE(error.find(kernel.name), std::string::npos) << error;
}

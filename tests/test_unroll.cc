/**
 * @file
 * Spatial-unrolling tests (paper Sec. 6 future work): correctness
 * across kernels and factors, lane-level dispatch-group structure,
 * and the performance benefit on dispatch-throughput-bound loops.
 */

#include <gtest/gtest.h>

#include "compiler/compile.hh"
#include "compiler/unroll.hh"
#include "core/system.hh"
#include "scalar/interpreter.hh"
#include "sir/builder.hh"
#include "sir/verifier.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sir::Opcode;
using sir::Reg;

namespace {

workloads::KernelInstance
countdownKernel(int threads, int iters)
{
    sir::Builder b("countdown");
    auto w = b.array("work", threads);
    auto done = b.array("done", threads);
    Reg n = b.liveIn("n");
    // Lean body (one carried value per lane, so two unrolled lanes
    // fit the 28 CF PEs) with a 3-op carried chain so II > 1 and
    // the loop threads.
    b.forEach0(n, [&](Reg i) {
        Reg k = b.reg("k");
        b.loadIdxInto(k, w, i);
        b.whileLoop([&] { return b.gti(k, 0); },
                    [&] {
                        // k = (k - 1) >> 1: two-op carried chain,
                        // so II = 2 and the loop threads.
                        Reg dec = b.addi(k, -1);
                        b.computeInto(k, Opcode::Shr, dec,
                                      b.let(1));
                    });
        // Consume the loop's final value so the loop is live.
        b.storeIdx(done, i, k);
    });
    workloads::KernelInstance kernel;
    kernel.name = "countdown";
    kernel.prog = b.finish();
    kernel.liveIns = {threads};
    kernel.memory = scalar::makeMemory(kernel.prog);
    for (int i = 0; i < threads; i++)
        kernel.memory[static_cast<size_t>(i)] = iters;
    return kernel;
}

} // namespace

TEST(Unroll, TransformPreservesScalarSemantics)
{
    auto kernel = countdownKernel(13, 5); // non-multiple of factor
    for (int factor : {2, 4}) {
        auto unrolled = compiler::unrollForeachLoops(kernel.prog,
                                                     factor);
        EXPECT_TRUE(sir::verify(unrolled).empty());
        auto m1 = kernel.memory;
        auto m2 = kernel.memory;
        m1.resize(static_cast<size_t>(kernel.prog.memWords));
        m2.resize(static_cast<size_t>(unrolled.memWords));
        scalar::interpret(kernel.prog, m1, kernel.liveIns);
        scalar::interpret(unrolled, m2, kernel.liveIns);
        EXPECT_EQ(m1, m2) << "factor " << factor;
    }
}

TEST(Unroll, LanesGetTheirOwnDispatchGroups)
{
    auto kernel = countdownKernel(16, 8);
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto base = compiler::compileProgram(kernel.prog,
                                         kernel.liveIns, opts);
    opts.unrollFactor = 2;
    auto unrolled = compiler::compileProgram(kernel.prog,
                                             kernel.liveIns, opts);
    // Two threaded loops instead of one.
    EXPECT_EQ(unrolled.threadedLoops.size(),
              2 * base.threadedLoops.size());
    std::set<int> groups;
    for (const auto &n : unrolled.graph.nodes) {
        if (n.kind == dfg::NodeKind::Dispatch)
            groups.insert(n.loopId);
    }
    EXPECT_EQ(groups.size(), 2u);
}

TEST(Unroll, FabricResultsMatchGolden)
{
    auto kernel = countdownKernel(11, 7);
    for (int factor : {1, 2}) {
        RunConfig cfg;
        cfg.variant = ArchVariant::Pipestitch;
        cfg.unrollFactor = factor;
        // runOnFabric verifies against the (un-unrolled) golden.
        auto run = runOnFabric(kernel, cfg);
        EXPECT_GT(run.cycles(), 0);
    }
}

TEST(Unroll, BreaksTheDispatchThroughputCeiling)
{
    // One dispatch group caps throughput at one token set per
    // cycle; two lanes should approach 2x on a uniform workload.
    // Long-ish inner loops (k halves each step) on many threads so
    // the single dispatch group's 1 set/cycle ceiling dominates.
    auto kernel = countdownKernel(48, 20000);
    RunConfig u1;
    u1.variant = ArchVariant::Pipestitch;
    RunConfig u2 = u1;
    u2.unrollFactor = 2;
    auto r1 = runOnFabric(kernel, u1);
    auto r2 = runOnFabric(kernel, u2);
    EXPECT_LT(static_cast<double>(r2.cycles()),
              0.70 * static_cast<double>(r1.cycles()))
        << "unroll x2 should cut cycles substantially";
}

TEST(Unroll, PaperKernelsStayFunctionallyCorrect)
{
    // The paper's kernels are too large to fit two lanes on the
    // 8x8 fabric (exactly why Sec. 6 frames unrolling as a
    // small-kernel technique), but the transform must still be
    // semantics-preserving: simulate unmapped.
    setQuiet(true);
    auto dither = workloads::makeDither(16, 8, 5);
    auto spslice = workloads::makeSpSlice(16, 0.8, 6);
    for (auto *k : {&dither, &spslice}) {
        RunConfig cfg;
        cfg.variant = ArchVariant::Pipestitch;
        cfg.unrollFactor = 2;
        cfg.map = false; // golden check still applies
        auto run = runOnFabric(*k, cfg);
        EXPECT_GT(run.cycles(), 0) << k->name;
    }
}

TEST(Unroll, SmallKernelLanesFitTheFabric)
{
    // The lean countdown kernel maps with two lanes: the fit check
    // the paper's framing implies.
    auto kernel = countdownKernel(16, 4);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.unrollFactor = 2;
    auto run = runOnFabric(kernel, cfg);
    EXPECT_TRUE(run.mapping().success);
}

TEST(Unroll, RejectsBadFactors)
{
    auto kernel = countdownKernel(4, 2);
    EXPECT_DEATH(
        { compiler::unrollForeachLoops(kernel.prog, 3); },
        "power of two");
}

/**
 * @file
 * Robustness and determinism tests: degenerate inputs, forced bank
 * conflicts, watchdog behavior, configuration validation, and
 * bit-exact repeatability of full runs.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "scalar/interpreter.hh"
#include "sim/simulator.hh"
#include "sir/builder.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sir::Opcode;
using sir::Reg;

TEST(Robustness, ZeroTripLoops)
{
    // n = 0: the foreach never runs; memory must be untouched.
    sir::Builder b("empty");
    auto out = b.array("out", 4);
    Reg n = b.liveIn("n");
    b.forEach0(n, [&](Reg i) { b.storeIdx(out, i, i); });
    workloads::KernelInstance k;
    k.name = "empty";
    k.prog = b.finish();
    k.liveIns = {0};
    k.memory = scalar::MemImage(4, -7);
    for (ArchVariant v :
         {ArchVariant::RipTide, ArchVariant::Pipestitch}) {
        RunConfig cfg;
        cfg.variant = v;
        auto run = runOnFabric(k, cfg);
        for (int i = 0; i < 4; i++)
            EXPECT_EQ(run.memory[static_cast<size_t>(i)], -7);
    }
}

TEST(Robustness, SingleBankForcesConflictsButStaysCorrect)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.7, 4);
    RunConfig one;
    one.variant = ArchVariant::Pipestitch;
    one.fabric.memBanks = 1;
    RunConfig many;
    many.variant = ArchVariant::Pipestitch;
    many.fabric.memBanks = 16;
    auto r1 = runOnFabric(kernel, one);   // golden-checked
    auto r16 = runOnFabric(kernel, many); // golden-checked
    EXPECT_GT(r1.sim.stats.bankConflictStalls, 0);
    EXPECT_GT(r1.cycles(), r16.cycles())
        << "one bank must serialize memory";
}

TEST(Robustness, WatchdogFlagsRunawayGraphs)
{
    // An infinite loop: carry whose decider is always true.
    sir::Builder b("forever");
    auto out = b.array("out", 2);
    Reg x = b.reg("x");
    b.assignConst(x, 1);
    b.whileLoop([&] { return b.gti(x, 0); },
                [&] {
                    // x oscillates 1 <-> 2: never <= 0.
                    b.computeInto(x, Opcode::Xor, x, b.let(3));
                });
    b.storeIdx(out, b.let(0), x);
    auto prog = b.finish();

    compiler::CompileOptions opts;
    auto res = compiler::compileProgram(prog, {}, opts);
    auto cfg = res.simConfig;
    cfg.maxCycles = 2000;
    scalar::MemImage mem(2, 0);
    auto sim = sim::simulate(res.graph, mem, cfg);
    EXPECT_TRUE(sim.deadlocked);
    EXPECT_NE(sim.diagnostic.find("watchdog"), std::string::npos);
    EXPECT_EQ(sim.stats.cycles, 2000);
}

TEST(Robustness, ThreadedGraphsRejectDepthOne)
{
    setQuiet(true);
    auto kernel = workloads::makeSpMSpVd(16, 0.8, 4);
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(kernel.prog,
                                        kernel.liveIns, opts);
    auto cfg = res.simConfig;
    cfg.bufferDepth = 1;
    scalar::MemImage mem = kernel.memory;
    mem.resize(static_cast<size_t>(kernel.prog.memWords));
    EXPECT_DEATH(sim::simulate(res.graph, mem, cfg),
                 "buffer depth >= 2");
}

TEST(Robustness, RunsAreDeterministic)
{
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 9);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto a = runOnFabric(kernel, cfg);
    auto b = runOnFabric(kernel, cfg);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.sim.stats.nodeFires, b.sim.stats.nodeFires);
    EXPECT_DOUBLE_EQ(a.energy.totalPj(), b.energy.totalPj());
    EXPECT_EQ(a.mapping().peOf, b.mapping().peOf);
    EXPECT_EQ(a.memory, b.memory);
}

TEST(Robustness, RunsShareTheirPreparedKernel)
{
    // Every execution of one PreparedKernel reads the compiled
    // graph, mapping, analysis and bound terms through it instead of
    // holding copies; a FabricRun{} from a failed prepare reads empty.
    setQuiet(true);
    auto kernel = workloads::makeSpmv(8, 0.5, 4);
    RunConfig cfg;
    cfg.quiet = true;
    PreparedPtr prep = prepareKernel(kernel, cfg);
    FabricRun a = executeOnFabric(*prep, kernel, cfg);
    FabricRun b = executeOnFabric(*prep, kernel, cfg);
    EXPECT_EQ(a.prepared, prep);
    EXPECT_EQ(b.prepared, prep);
    EXPECT_EQ(&a.compiled(), prep->compiled.get());
    EXPECT_EQ(&b.mapping(), &prep->mapping);
    EXPECT_EQ(&b.analysis(), &prep->analysis);
    EXPECT_EQ(&b.bound(), &prep->bound);
    EXPECT_FALSE(a.bound().terms.empty());
    EXPECT_EQ(a.boundCycles, a.boundEval.certifiedCycles);

    FabricRun failed;
    EXPECT_EQ(failed.prepared, nullptr);
    EXPECT_EQ(failed.compiled().graph.size(), 0);
    EXPECT_FALSE(failed.mapping().success);
    EXPECT_TRUE(failed.analysis().diags.empty());
    EXPECT_TRUE(failed.bound().terms.empty());
}

TEST(Robustness, ScalarProfilesAreOrdered)
{
    scalar::EventCounts c;
    c.alu = 1000;
    c.load = 200;
    c.store = 100;
    c.branch = 150;
    const auto &rv = scalar::riptideScalarProfile();
    const auto &m33 = scalar::cortexM33Profile();
    EXPECT_GT(m33.energyPj(c), rv.energyPj(c))
        << "the MCU must cost more energy per instruction";
    EXPECT_GT(rv.cycles(c), 0.0);
}

TEST(Robustness, InterpreterStepLimit)
{
    sir::Builder b("spin");
    auto out = b.array("out", 1);
    Reg x = b.reg("x");
    b.assignConst(x, 1);
    b.whileLoop([&] { return b.gti(x, 0); },
                [&] { b.computeInto(x, Opcode::Xor, x, b.let(3)); });
    b.storeIdx(out, b.let(0), x);
    auto prog = b.finish();
    auto mem = scalar::makeMemory(prog);
    EXPECT_DEATH(scalar::interpret(prog, mem, {}, 10000),
                 "interpreter steps");
}

TEST(Robustness, NegativeValuesFlowEverywhere)
{
    // Negative data, comparisons, shifts: arithmetic must match the
    // golden model bit for bit.
    sir::Builder b("neg");
    auto in = b.array("in", 8);
    auto out = b.array("out", 8);
    Reg n = b.liveIn("n");
    b.forEach0(n, [&](Reg i) {
        Reg v = b.loadIdx(in, i);
        Reg neg = b.lti(v, 0);
        Reg mag = b.select(neg, b.sub(b.let(0), v), v);
        Reg folded = b.bxor(b.shr(mag, 1), v);
        b.storeIdx(out, i, folded);
    });
    workloads::KernelInstance k;
    k.name = "neg";
    k.prog = b.finish();
    k.liveIns = {8};
    k.memory = scalar::makeMemory(k.prog);
    for (int i = 0; i < 8; i++)
        k.memory[static_cast<size_t>(i)] = -1000 + 300 * i;
    RunConfig cfg;
    auto run = runOnFabric(k, cfg); // golden-checked
    EXPECT_GT(run.cycles(), 0);
}

TEST(Robustness, EmptyRowsAndFullRowsInSparseKernels)
{
    setQuiet(true);
    // Fully dense (sparsity 0) and nearly-empty (0.99) extremes.
    for (double sparsity : {0.0, 0.99}) {
        auto kernel = workloads::makeSpMSpVd(16, sparsity, 5);
        RunConfig cfg;
        cfg.variant = ArchVariant::Pipestitch;
        auto run = runOnFabric(kernel, cfg); // golden-checked
        EXPECT_GT(run.cycles(), 0);
    }
}

/**
 * @file
 * The Program/ExecutionState contract (docs/simulator.md): one
 * compiled+built sim::Program is immutable and may be executed by
 * any number of ExecutionStates concurrently, each against its own
 * memory image, with results bit-identical to the legacy serial
 * simulate() calls. Run under TSan in CI: any write through the
 * shared Program is a data race by construction. A Program's digest
 * names the simulated machine, so it must change with the graph and
 * every result-bearing SimConfig field, and with nothing else.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "compiler/compile.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"
#include "sim/program.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using Word = sir::Word;

namespace {

constexpr int kRuns = 8;

/** Field-by-field stats equality with readable failure output. */
void
expectSameResult(const sim::SimResult &want,
                 const sim::SimResult &got,
                 const scalar::MemImage &wantMem,
                 const scalar::MemImage &gotMem,
                 const std::string &tag)
{
    const auto &a = want.stats;
    const auto &b = got.stats;
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
    PS_EQ(stallNoInput);
    PS_EQ(stallNoSpace);
    PS_EQ(bankConflictStalls);
    PS_EQ(interTileTokens);
#undef PS_EQ
    EXPECT_EQ(want.deadlocked, got.deadlocked) << tag;
    EXPECT_EQ(want.watchdogExpired, got.watchdogExpired) << tag;
    EXPECT_EQ(want.diagnostic, got.diagnostic) << tag;
    EXPECT_EQ(wantMem, gotMem) << tag << " memory image";
}

/** The run-i memory image: the kernel's, with the data arrays
 *  (values, not CSR structure) perturbed so every run computes
 *  something different over the same Program. */
scalar::MemImage
imageForRun(const workloads::KernelInstance &kernel, int run)
{
    scalar::MemImage mem = kernel.memory;
    mem.resize(static_cast<size_t>(kernel.prog.memWords));
    for (const auto &arr : kernel.prog.arrays) {
        if (arr.name != "x" && arr.name != "val")
            continue;
        for (int64_t j = 0; j < arr.words; j++)
            mem[static_cast<size_t>(arr.base + j)] +=
                static_cast<Word>(run * 13 + j);
    }
    return mem;
}

struct Built
{
    std::shared_ptr<const compiler::CompileResult> compiled;
    sim::SimConfig cfg;
    std::shared_ptr<const sim::Program> program;
};

Built
build(const workloads::KernelInstance &kernel,
      sim::SimConfig::Scheduler sched)
{
    Built b;
    compiler::CompileOptions opts;
    opts.variant = compiler::ArchVariant::Pipestitch;
    b.compiled = std::make_shared<const compiler::CompileResult>(
        compiler::compileProgram(kernel.prog, kernel.liveIns,
                                 opts));
    b.cfg = b.compiled->simConfig;
    b.cfg.scheduler = sched;
    b.cfg.maxCycles = 500000;
    auto graph = std::shared_ptr<const dfg::Graph>(
        b.compiled, &b.compiled->graph);
    b.program = std::make_shared<const sim::Program>(graph, b.cfg);
    return b;
}

} // namespace

TEST(ConcurrentExecution, SharedProgramMatchesSerialSimulate)
{
    auto kernel = workloads::makeSpmv(8, 0.5, 7);
    for (auto sched : {sim::SimConfig::Scheduler::DenseScan,
                       sim::SimConfig::Scheduler::ReadyList}) {
        Built b = build(kernel, sched);

        // Golden: the legacy entry point, serially, per image.
        std::vector<sim::SimResult> want(kRuns);
        std::vector<scalar::MemImage> wantMem(kRuns);
        for (int i = 0; i < kRuns; i++) {
            wantMem[static_cast<size_t>(i)] =
                imageForRun(kernel, i);
            want[static_cast<size_t>(i)] = sim::simulate(
                b.compiled->graph,
                wantMem[static_cast<size_t>(i)], b.cfg);
        }

        // One Program, kRuns concurrent ExecutionStates.
        std::vector<sim::SimResult> got(kRuns);
        std::vector<scalar::MemImage> gotMem(kRuns);
        std::vector<std::thread> threads;
        for (int i = 0; i < kRuns; i++) {
            threads.emplace_back([&, i] {
                gotMem[static_cast<size_t>(i)] =
                    imageForRun(kernel, i);
                sim::ExecutionState es(b.program);
                got[static_cast<size_t>(i)] =
                    es.run(gotMem[static_cast<size_t>(i)]);
            });
        }
        for (auto &t : threads)
            t.join();

        for (int i = 0; i < kRuns; i++) {
            expectSameResult(
                want[static_cast<size_t>(i)],
                got[static_cast<size_t>(i)],
                wantMem[static_cast<size_t>(i)],
                gotMem[static_cast<size_t>(i)],
                "run " + std::to_string(i) +
                    (sched ==
                             sim::SimConfig::Scheduler::ReadyList
                         ? " ready"
                         : " reference"));
        }
        // The perturbed inputs really exercised different runs.
        EXPECT_NE(gotMem[0], gotMem[1]);
    }
}

TEST(ConcurrentExecution, ExecutionStateIsReusable)
{
    auto kernel = workloads::makeSpmv(8, 0.5, 11);
    Built b = build(kernel, sim::SimConfig::Scheduler::ReadyList);

    sim::ExecutionState es(b.program);
    scalar::MemImage mem1 = imageForRun(kernel, 0);
    sim::SimResult first = es.run(mem1);

    // A different image in between must not leak state into the
    // repeat of the first run.
    scalar::MemImage memOther = imageForRun(kernel, 3);
    es.run(memOther);

    scalar::MemImage mem2 = imageForRun(kernel, 0);
    sim::SimResult second = es.run(mem2);
    expectSameResult(first, second, mem1, mem2, "reuse");
}

TEST(ConcurrentExecution, ProgramStripsPerRunConfig)
{
    auto kernel = workloads::makeSpmv(4, 0.5, 3);
    compiler::CompileOptions opts;
    opts.variant = compiler::ArchVariant::Pipestitch;
    auto compiled =
        std::make_shared<const compiler::CompileResult>(
            compiler::compileProgram(kernel.prog, kernel.liveIns,
                                     opts));
    sim::SimConfig cfg = compiled->simConfig;
    cfg.trace = true;
    cfg.observer =
        reinterpret_cast<trace::SimObserver *>(0x1); // sentinel
    auto graph = std::shared_ptr<const dfg::Graph>(
        compiled, &compiled->graph);
    sim::Program prog(graph, cfg);
    EXPECT_EQ(prog.config().observer, nullptr);
    EXPECT_FALSE(prog.config().trace);
}

TEST(ConcurrentExecution, ProgramDigestCoversResultBearingConfig)
{
    auto kernel = workloads::makeSpmv(4, 0.5, 3);
    auto compileFor = [&](compiler::ArchVariant variant) {
        compiler::CompileOptions opts;
        opts.variant = variant;
        return std::make_shared<const compiler::CompileResult>(
            compiler::compileProgram(kernel.prog, kernel.liveIns,
                                     opts));
    };
    auto compiled = compileFor(compiler::ArchVariant::Pipestitch);
    auto graph = std::shared_ptr<const dfg::Graph>(
        compiled, &compiled->graph);
    const sim::SimConfig base = compiled->simConfig;
    ASSERT_EQ(base.buffering,
              sim::SimConfig::Buffering::Destination);
    auto digestOf = [](std::shared_ptr<const dfg::Graph> g,
                       const sim::SimConfig &cfg) {
        return sim::Program(std::move(g), cfg).digest();
    };
    const uint64_t want = digestOf(graph, base);
    EXPECT_EQ(want, digestOf(graph, base));

    // Observability is not part of the machine.
    {
        sim::SimConfig cfg = base;
        cfg.trace = true;
        cfg.observer =
            reinterpret_cast<trace::SimObserver *>(0x1); // sentinel
        EXPECT_EQ(want, digestOf(graph, cfg));
    }

    // Two PE nodes for a share group and one wired input for an
    // inter-tile channel.
    std::vector<int> peNodes;
    sim::SimConfig::EdgeLatency edge{-1, 0, 2};
    for (dfg::NodeId id = 0; id < graph->size(); id++) {
        const dfg::Node &n = graph->at(id);
        if (!n.cfInNoc && n.kind != dfg::NodeKind::Trigger &&
            peNodes.size() < 2) {
            peNodes.push_back(id);
        }
        for (int i = 0; i < n.numInputs() && edge.node < 0; i++) {
            if (n.inputs[static_cast<size_t>(i)].isWire())
                edge = {id, i, 2};
        }
    }
    ASSERT_EQ(peNodes.size(), 2u);
    ASSERT_GE(edge.node, 0);

    using SimConfig = sim::SimConfig;
    const std::pair<const char *, std::function<void(SimConfig &)>>
        mutations[] = {
            {"buffering",
             [](SimConfig &c) {
                 c.buffering = SimConfig::Buffering::Source;
             }},
            {"bufferDepth", [](SimConfig &c) { c.bufferDepth = 8; }},
            {"memBanks", [](SimConfig &c) { c.memBanks = 8; }},
            {"memLatency", [](SimConfig &c) { c.memLatency = 3; }},
            {"memBypass",
             [](SimConfig &c) { c.memBypass = !c.memBypass; }},
            {"maxCycles", [](SimConfig &c) { c.maxCycles = 12345; }},
            {"checkThreadOrder",
             [](SimConfig &c) {
                 c.checkThreadOrder = !c.checkThreadOrder;
             }},
            {"greedyDispatch",
             [](SimConfig &c) {
                 c.greedyDispatch = !c.greedyDispatch;
             }},
            {"scheduler",
             [](SimConfig &c) {
                 c.scheduler = SimConfig::Scheduler::DenseScan;
             }},
            {"shareGroups",
             [&](SimConfig &c) { c.shareGroups = {peNodes}; }},
            {"edgeLatencies",
             [&](SimConfig &c) { c.edgeLatencies = {edge}; }},
        };
    for (const auto &[field, mutate] : mutations) {
        sim::SimConfig cfg = base;
        mutate(cfg);
        EXPECT_NE(want, digestOf(graph, cfg)) << field;
    }
    // A channel's latency is part of the machine, not just its
    // presence.
    {
        sim::SimConfig a = base, b = base;
        a.edgeLatencies = {edge};
        b.edgeLatencies = {{edge.node, edge.input, edge.latency + 1}};
        EXPECT_NE(digestOf(graph, a), digestOf(graph, b));
    }

    // Same config, different graph: PipeCFoP moves the router
    // control flow onto PEs.
    auto cfop = compileFor(compiler::ArchVariant::PipeCFoP);
    EXPECT_NE(want,
              digestOf(std::shared_ptr<const dfg::Graph>(
                           cfop, &cfop->graph),
                       base));
}

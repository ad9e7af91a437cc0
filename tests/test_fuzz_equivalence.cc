/**
 * @file
 * Property-based compiler/simulator fuzzing: randomly generated
 * structured programs must produce identical memory images on the
 * scalar interpreter and on every architecture variant, across
 * buffer depths and threading policies. Every simulation runs on
 * both engines — the fast engine must be sim::statsEqual to the
 * DenseScan oracle under destination buffering, source buffering,
 * share groups and inter-tile channels. Every compiled graph also
 * runs through the static analyzer: a fuzz-generated program the
 * analyzer rejects (or that deadlocks after certification) is a
 * bug in either the compiler or the analyzer. Every simulation also
 * runs twice through one ExecutionState, so a reused engine must
 * carry nothing from its previous run.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/throughput.hh"
#include "base/random.hh"
#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "dfg/dot.hh"
#include "scalar/interpreter.hh"
#include "sim/dense_scan.hh"
#include "sim/execution.hh"
#include "sim/program.hh"
#include "sim/simulator.hh"
#include "sir/builder.hh"
#include "sir/printer.hh"
#include "sir/verifier.hh"

#include "fuzz_program.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using fuzz::ProgramGen;

namespace {

class Fuzz : public ::testing::TestWithParam<int>
{};

/** Every fuzz-compiled graph must certify deadlock-free; the sim
 *  runs that follow then cross-check the verdict for real. */
void
expectCertified(const dfg::Graph &graph, uint64_t seed,
                int bufferDepth = 4)
{
    analysis::AnalysisOptions opts;
    opts.bufferDepth = bufferDepth;
    auto report = analysis::analyzeGraph(graph, opts);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << " fails static analysis:\n"
        << report.toString(graph) << "\n"
        << dfg::toDot(graph);
    ASSERT_TRUE(report.deadlockFree);
}

/** The throughput bound must be sound on every fuzz graph: no
 *  completed run may finish in fewer cycles than the certified
 *  floor its own fire counts instantiate. */
void
expectBoundHolds(const dfg::Graph &graph, const sim::SimConfig &cfg,
                 const sim::SimResult &sim, uint64_t seed,
                 const std::string &tag)
{
    if (sim.deadlocked || sim.watchdogExpired)
        return; // the run stopped early; the completion floor says nothing
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &graph);
    sim::Program prog(hold, cfg);
    sim::BoundReport::Evaluation ev =
        analysis::computeBound(prog).evaluate(sim.stats);
    EXPECT_TRUE(ev.holds(sim.stats.cycles))
        << "seed " << seed << " " << tag << ": simulated "
        << sim.stats.cycles << " cycles beats the certified bound of "
        << ev.certifiedCycles;
}

/**
 * Simulate @p cfg twice through one @p Sim (sim::DenseScan or
 * sim::ExecutionState), each time on a copy of @p mem: the second
 * run reuses the first run's state (and, on the fast engine, its
 * borrowed engine), so it must equal the first. Leaves the second
 * run's image in @p mem.
 */
template <typename Sim>
sim::SimResult
simulateTwice(const dfg::Graph &graph, const sim::SimConfig &cfg,
              scalar::MemImage &mem, uint64_t seed,
              const std::string &tag)
{
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &graph);
    Sim exec(std::make_shared<const sim::Program>(hold, cfg));
    scalar::MemImage firstMem = mem;
    sim::SimResult first = exec.run(firstMem);
    sim::SimResult again = exec.run(mem);
    EXPECT_TRUE(sim::statsEqual(first.stats, again.stats))
        << "seed " << seed << " " << tag << ": a reused state diverges";
    EXPECT_EQ(first.deadlocked, again.deadlocked)
        << "seed " << seed << " " << tag;
    EXPECT_EQ(first.diagnostic, again.diagnostic)
        << "seed " << seed << " " << tag;
    EXPECT_EQ(firstMem, mem) << "seed " << seed << " " << tag;
    return again;
}

/**
 * Simulate @p cfg on the DenseScan oracle and on the fast engine
 * (each twice, see simulateTwice), require the runs to be
 * bit-identical, and leave the fast engine's memory image in @p mem.
 */
sim::SimResult
simulateBoth(const dfg::Graph &graph, const sim::SimConfig &cfg,
             scalar::MemImage &mem, uint64_t seed,
             const std::string &tag)
{
    scalar::MemImage denseMem = mem;
    sim::SimResult dense = simulateTwice<sim::DenseScan>(
        graph, cfg, denseMem, seed, tag + " dense");
    sim::SimResult fast =
        simulateTwice<sim::ExecutionState>(graph, cfg, mem, seed, tag);
    EXPECT_TRUE(sim::statsEqual(dense.stats, fast.stats))
        << "seed " << seed << " " << tag
        << ": fast engine stats diverge from DenseScan";
    EXPECT_EQ(dense.deadlocked, fast.deadlocked)
        << "seed " << seed << " " << tag;
    EXPECT_EQ(dense.diagnostic, fast.diagnostic)
        << "seed " << seed << " " << tag;
    EXPECT_EQ(denseMem, mem) << "seed " << seed << " " << tag;
    return fast;
}

} // namespace

TEST_P(Fuzz, AllVariantsMatchGolden)
{
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty())
        << sir::print(prog) << "\n"
        << sir::verify(prog).front();

    scalar::MemImage init = fuzz::inputMemory(seed, prog);
    const std::vector<sir::Word> &liveIns = fuzz::kLiveIns;

    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    for (ArchVariant v :
         {ArchVariant::RipTide, ArchVariant::Pipestitch,
          ArchVariant::PipeSB, ArchVariant::PipeCFiN,
          ArchVariant::PipeCFoP}) {
        for (auto threading :
             {compiler::CompileOptions::Threading::Heuristic,
              compiler::CompileOptions::Threading::ForceOn}) {
            compiler::CompileOptions opts;
            opts.variant = v;
            opts.threading = threading;
            auto res =
                compiler::compileProgram(prog, liveIns, opts);
            for (int depth : {2, 4}) {
                expectCertified(res.graph, seed, depth);
                // RipTide and PipeSB buffer at the source, the
                // others at the destination; both engines must agree
                // under each, and the throughput bound must hold.
                auto cfg = res.simConfig;
                cfg.bufferDepth = depth;
                cfg.maxCycles = 3'000'000;
                std::string tag =
                    std::string(compiler::archVariantName(v)) +
                    " depth " + std::to_string(depth);
                scalar::MemImage mem = init;
                auto sim = simulateBoth(res.graph, cfg, mem, seed, tag);
                ASSERT_FALSE(sim.deadlocked)
                    << "seed " << seed << " " << tag << "\n"
                    << sim.diagnostic << "\n"
                    << sir::print(prog);
                ASSERT_EQ(golden, mem)
                    << "seed " << seed << " " << tag << "\n"
                    << sir::print(prog);
                expectBoundHolds(res.graph, cfg, sim, seed, tag);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(0, 48));

TEST_P(Fuzz, TimeMultiplexingPreservesSemantics)
{
    // Fold operators onto shared PEs against a deliberately tiny
    // fabric budget; mutual exclusion must never change results.
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed * 17 + 3);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty());

    scalar::MemImage init = fuzz::inputMemory(seed, prog);
    const std::vector<sir::Word> &liveIns = fuzz::kLiveIns;
    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(prog, liveIns, opts);
    expectCertified(res.graph, seed);

    fabric::FabricConfig tiny;
    tiny.peMix = {3, 1, 5, 3, 2}; // squeeze hard to force folding
    auto groups =
        compiler::tryPlanTimeMultiplexing(res.graph, tiny);
    if (!groups || groups->empty())
        return; // nothing to fold for this program

    for (auto buffering : {sim::SimConfig::Buffering::Destination,
                           sim::SimConfig::Buffering::Source}) {
        auto cfg = res.simConfig;
        cfg.buffering = buffering;
        cfg.maxCycles = 3'000'000;
        for (const auto &group : *groups)
            cfg.shareGroups.emplace_back(group.begin(), group.end());
        std::string tag =
            buffering == sim::SimConfig::Buffering::Source
                ? "timemux source"
                : "timemux";
        scalar::MemImage mem = init;
        auto sim = simulateBoth(res.graph, cfg, mem, seed, tag);
        ASSERT_FALSE(sim.deadlocked)
            << "seed " << seed << " " << tag << "\n"
            << sim.diagnostic;
        ASSERT_EQ(golden, mem) << "seed " << seed << " " << tag;
        expectBoundHolds(res.graph, cfg, sim, seed, tag);
    }
}

TEST_P(Fuzz, TiledChannelsMatchDenseScan)
{
    // Turn a random subset of consumer edges into inter-tile FIFO
    // channels (as a tiled fabric does at tile boundaries): latency
    // must never change results, and both engines must agree.
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed * 29 + 11);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty());

    scalar::MemImage init = fuzz::inputMemory(seed, prog);
    const std::vector<sir::Word> &liveIns = fuzz::kLiveIns;
    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(prog, liveIns, opts);
    expectCertified(res.graph, seed);

    auto cfg = res.simConfig;
    cfg.maxCycles = 3'000'000;
    Rng edgeRng(seed * 613 + 5);
    for (dfg::NodeId id = 0; id < res.graph.size(); id++) {
        const auto &node = res.graph.at(id);
        for (int in = 0; in < node.numInputs(); in++) {
            if (node.inputs[static_cast<size_t>(in)].isWire() &&
                edgeRng.nextBool(0.3)) {
                cfg.edgeLatencies.push_back(
                    {id, in,
                     static_cast<int>(edgeRng.nextRange(1, 3))});
            }
        }
    }
    ASSERT_FALSE(cfg.edgeLatencies.empty());
    scalar::MemImage mem = init;
    auto sim = simulateBoth(res.graph, cfg, mem, seed, "channels");
    ASSERT_FALSE(sim.deadlocked)
        << "seed " << seed << "\n" << sim.diagnostic;
    ASSERT_EQ(golden, mem) << "seed " << seed;
    EXPECT_GT(sim.stats.interTileTokens, 0);
    expectBoundHolds(res.graph, cfg, sim, seed, "channels");
}

TEST_P(Fuzz, SpatialUnrollMatchesGolden)
{
    // The Sec. 6 unrolling transform must preserve semantics on the
    // same random programs (foreach bodies in the generator are
    // independent by construction), and both engines must agree on
    // the unrolled graphs' nested dispatch.
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed * 131 + 7);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty());

    scalar::MemImage init = fuzz::inputMemory(seed, prog);
    const std::vector<sir::Word> &liveIns = fuzz::kLiveIns;
    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    for (int unroll : {2, 4}) {
        compiler::CompileOptions opts;
        opts.variant = ArchVariant::Pipestitch;
        opts.unrollFactor = unroll;
        auto res = compiler::compileProgram(prog, liveIns, opts);
        expectCertified(res.graph, seed);
        auto cfg = res.simConfig;
        cfg.maxCycles = 3'000'000;
        scalar::MemImage mem = init;
        auto sim = simulateBoth(res.graph, cfg, mem, seed,
                                "unroll " + std::to_string(unroll));
        ASSERT_FALSE(sim.deadlocked)
            << "seed " << seed << " unroll " << unroll << "\n"
            << sim.diagnostic;
        ASSERT_EQ(golden, mem)
            << "seed " << seed << " unroll " << unroll;
        expectBoundHolds(res.graph, cfg, sim, seed,
                         "unroll " + std::to_string(unroll));
    }
}

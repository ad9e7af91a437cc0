/**
 * @file
 * Positive-direction tests of the static analyzer: every shipped
 * workload must analyze clean on every variant, the verdict must be
 * carried through runOnFabric (which cross-checks it against the
 * simulator), and concurrent sweeps must analyze every run without
 * data races (exercised under the TSan preset in CI).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/diagnostics.hh"
#include "analysis/placement.hh"
#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "core/system.hh"
#include "mapper/mapper.hh"
#include "runner/sweep.hh"
#include "scalar/interpreter.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;

namespace {

struct AnalyzedKernel
{
    dfg::Graph graph{"empty"};
    analysis::AnalysisReport report;
};

AnalyzedKernel
analyzeKernel(const workloads::KernelInstance &kernel,
              ArchVariant variant, int unroll = 1)
{
    compiler::CompileOptions copts;
    copts.variant = variant;
    copts.unrollFactor = unroll;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);
    AnalyzedKernel out;
    out.report = analysis::analyzeGraph(res.graph);
    out.graph = std::move(res.graph);
    return out;
}

} // namespace

TEST(Analysis, RuleRegistryIsWellFormed)
{
    const auto &rules = analysis::ruleRegistry();
    EXPECT_EQ(rules.size(), 22u);
    for (const auto &info : rules) {
        EXPECT_EQ(analysis::findRule(info.id), &info);
        EXPECT_EQ(std::string(info.id).substr(0, 3), "PS-");
        EXPECT_NE(info.title, nullptr);
        // Every rule cites the paper section or figure it models.
        std::string cite = info.citation;
        EXPECT_TRUE(cite.find("Sec.") != std::string::npos ||
                    cite.find("Fig.") != std::string::npos)
            << info.id;
    }
    EXPECT_EQ(analysis::findRule("PS-X99"), nullptr);
}

TEST(Analysis, AllWorkloadsCertifyCleanOnAllVariants)
{
    for (const auto &kernel : workloads::smallKernels(7)) {
        for (ArchVariant v : {ArchVariant::RipTide,
                              ArchVariant::Pipestitch,
                              ArchVariant::PipeCFiN}) {
            auto a = analyzeKernel(kernel, v);
            EXPECT_TRUE(a.report.ok())
                << kernel.name << " on "
                << compiler::archVariantName(v) << ":\n"
                << a.report.toString(a.graph);
            EXPECT_TRUE(a.report.deadlockFree);
            EXPECT_TRUE(a.report.balanced);
            EXPECT_EQ(a.report.errorCount(), 0);
        }
    }
}

TEST(Analysis, UnrolledKernelsCertifyClean)
{
    auto kernel = workloads::makeSpmv(16, 0.8, 11);
    auto a = analyzeKernel(kernel, ArchVariant::Pipestitch, 2);
    EXPECT_TRUE(a.report.ok()) << a.report.toString(a.graph);
    EXPECT_TRUE(a.report.deadlockFree);
}

TEST(Analysis, PlacementLintAcceptsMapperOutput)
{
    auto kernel = workloads::makeSpmv(16, 0.8, 13);
    compiler::CompileOptions copts;
    copts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);
    fabric::FabricConfig fc;
    fabric::Fabric fab(fc);
    auto mapping = mapper::mapGraph(res.graph, fab);
    ASSERT_TRUE(mapping.success);

    auto report = analysis::analyzeGraph(res.graph);
    analysis::lintPlacement(res.graph, fab, mapping, report);
    EXPECT_TRUE(report.ok()) << report.toString(res.graph);
    EXPECT_TRUE(report.placementOk);
}

TEST(Analysis, RunOnFabricCarriesTheReport)
{
    auto kernel = workloads::makeSpmv(16, 0.8, 17);
    RunConfig cfg;
    FabricRun run = runOnFabric(kernel, cfg);
    // analyze defaults on: the run only returns when certification
    // succeeded and the simulator agreed (no deadlock).
    EXPECT_TRUE(run.analysis().ok());
    EXPECT_TRUE(run.analysis().deadlockFree);
    EXPECT_TRUE(run.analysis().placementOk);
    EXPECT_FALSE(run.sim.deadlocked);

    std::string summary = run.analysis().toString(run.compiled().graph);
    EXPECT_NE(summary.find("deadlock-free=yes"), std::string::npos);
    std::string json = run.analysis().toJson(run.compiled().graph);
    EXPECT_NE(json.find("\"deadlockFree\":true"),
              std::string::npos);
}

TEST(Analysis, AnalyzeOffLeavesReportEmpty)
{
    auto kernel = workloads::makeSpmv(16, 0.8, 17);
    RunConfig cfg;
    cfg.analyze = false;
    FabricRun run = runOnFabric(kernel, cfg);
    EXPECT_TRUE(run.analysis().diags.empty());
}

/** Sweeps analyze every run they compile, concurrently; this is the
 *  test the TSan CI job leans on for the analyzer's thread safety. */
TEST(Analysis, ConcurrentSweepAnalyzesEveryRun)
{
    runner::RunnerOptions ropts;
    ropts.jobs = 4;
    runner::Runner runner(ropts);

    std::vector<runner::KernelPtr> kernels;
    kernels.push_back(
        runner::share(workloads::makeSpmv(16, 0.8, 23)));
    kernels.push_back(
        runner::share(workloads::makeSpMSpVd(16, 0.8, 29)));
    std::vector<RunConfig> configs;
    for (ArchVariant v :
         {ArchVariant::RipTide, ArchVariant::Pipestitch}) {
        RunConfig cfg;
        cfg.variant = v;
        cfg.quiet = true;
        configs.push_back(cfg);
    }
    std::vector<std::shared_future<FabricRun>> runs;
    for (const auto &kernel : kernels)
        for (const auto &cfg : configs)
            runs.push_back(runner.enqueue(kernel, cfg));

    ASSERT_EQ(runs.size(), kernels.size() * configs.size());
    for (const auto &future : runs) {
        const FabricRun &run = future.get();
        EXPECT_TRUE(run.analysis().ok());
        EXPECT_TRUE(run.analysis().deadlockFree);
        EXPECT_TRUE(run.analysis().placementOk);
    }
}

/** Time-multiplexed placements share PEs legally: the declared
 *  share groups must satisfy the occupancy rule. */
TEST(Analysis, TimeMultiplexedPlacementLintsClean)
{
    auto kernel = workloads::makeSpmv(16, 0.8, 31);
    compiler::CompileOptions copts;
    copts.variant = ArchVariant::Pipestitch;
    copts.unrollFactor = 2;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);
    fabric::FabricConfig fc;
    auto groups = compiler::planTimeMultiplexing(res.graph, fc);
    fabric::Fabric fab(fc);
    mapper::MapperOptions mopts;
    mopts.shareGroups = groups;
    auto mapping = mapper::mapGraph(res.graph, fab, mopts);
    ASSERT_TRUE(mapping.success);

    auto report = analysis::analyzeGraph(res.graph);
    analysis::PlacementLintOptions popts;
    popts.shareGroups = groups;
    analysis::lintPlacement(res.graph, fab, mapping, report, popts);
    EXPECT_TRUE(report.ok()) << report.toString(res.graph);
}

namespace {

/** Build a KernelInstance from inline SIR, binding live-ins in
 *  declaration order and initialising one named array. */
workloads::KernelInstance
makeSirKernel(const char *src, std::vector<sir::Word> liveIns,
              const std::string &arrayName,
              const std::vector<sir::Word> &values)
{
    auto parsed = sir::parseSir(src, "<inline>");
    workloads::KernelInstance kernel;
    kernel.name = parsed.program.name;
    kernel.prog = std::move(parsed.program);
    kernel.liveIns = std::move(liveIns);
    kernel.memory = scalar::makeMemory(kernel.prog);
    const auto &arr =
        kernel.prog.array(parsed.arrays.at(arrayName));
    for (size_t i = 0; i < values.size(); i++)
        kernel.memory[static_cast<size_t>(arr.base) + i] = values[i];
    return kernel;
}

/** Serial loop-carried chain — kernels/loop_chain.sir, n=16. */
workloads::KernelInstance
makeChainKernel()
{
    static const char *kSrc = R"(
program loop_chain
array x 32
array out 1
livein n
livein scale
i = const 0
acc = const 0
while:
  alive = lt i n
cond alive
do:
  v = load x[i]
  t1 = mul acc scale
  t2 = add t1 v
  t3 = xor t2 5
  t4 = add t3 1
  t5 = mul t4 3
  acc = add t5 0
  i = add i 1
end
store out[0] = acc
)";
    std::vector<sir::Word> x(16);
    for (int i = 0; i < 16; i++)
        x[static_cast<size_t>(i)] = i + 1;
    return makeSirKernel(kSrc, {16, 3}, "x", x);
}

/** Data-dependent halving loops — kernels/prefix_count.sir, n=32.
 *  At this trip count the pipeline term's fire counts dominate its
 *  fill depth, so the bound converges on the simulated run. */
workloads::KernelInstance
makePrefixCountKernel()
{
    static const char *kSrc = R"(
program prefix_count
array seeds 32
array steps 32
livein n
livein threshold
foreach i = 0 .. n:
  v = load seeds[i]
  c = const 0
  while:
    big = gt v threshold
  cond big
  do:
    half = shr v 1
    v = add half 0
    c = add c 1
  end
  store steps[i] = c
end
)";
    std::vector<sir::Word> seeds(32);
    for (int i = 0; i < 32; i++)
        seeds[static_cast<size_t>(i)] = (i + 1) * 10;
    return makeSirKernel(kSrc, {32, 50}, "seeds", seeds);
}

} // namespace

/**
 * Tightness calibration: the certified floor must stay within 10%
 * of the simulated run on at least these two kernels — one
 * recurrence-bound (the serial chain: the PS-T01 term IS the
 * runtime) and one pipeline-bound (prefix_count at a trip count
 * where fires dominate fill depth). A looser bound here means an
 * analysis regression even though soundness still holds.
 */
TEST(Analysis, BoundIsTightOnCalibrationKernels)
{
    struct Case
    {
        workloads::KernelInstance kernel;
        sim::BoundTerm::Kind binding;
    };
    Case cases[] = {
        {makeChainKernel(), sim::BoundTerm::Kind::Recurrence},
        {makePrefixCountKernel(), sim::BoundTerm::Kind::Pipeline},
    };
    for (const Case &c : cases) {
        RunConfig cfg;
        cfg.quiet = true;
        FabricRun run = runOnFabric(c.kernel, cfg);
        ASSERT_FALSE(run.sim.deadlocked) << c.kernel.name;
        ASSERT_GT(run.boundCycles, 0) << c.kernel.name;
        // Sound: certified floor never beats the simulator...
        EXPECT_LE(run.boundCycles, run.cycles()) << c.kernel.name;
        // ...and tight: within 10% of the simulated run.
        EXPECT_GE(run.boundCycles * 10, run.cycles() * 9)
            << c.kernel.name << ": bound " << run.boundCycles
            << " vs simulated " << run.cycles();
        // The documented binding constraint is the one that binds.
        ASSERT_GE(run.boundEval.binding, 0) << c.kernel.name;
        EXPECT_EQ(run.bound()
                      .terms[static_cast<size_t>(
                          run.boundEval.binding)]
                      .kind,
                  c.binding)
            << c.kernel.name;
    }
}

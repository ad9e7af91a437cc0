/**
 * @file
 * Workload-level tests: every paper kernel matches the golden model
 * on every variant, the II heuristic reproduces Table 1's
 * threaded/unthreaded split, and every kernel maps onto the 8×8
 * fabric.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workloads/dnn.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using workloads::KernelInstance;

namespace {

constexpr ArchVariant kVariants[] = {
    ArchVariant::RipTide, ArchVariant::Pipestitch,
    ArchVariant::PipeSB, ArchVariant::PipeCFiN,
    ArchVariant::PipeCFoP};

class SmallKernels
    : public ::testing::TestWithParam<std::tuple<int, ArchVariant>>
{};

} // namespace

TEST_P(SmallKernels, MatchesGoldenAndMaps)
{
    auto [index, variant] = GetParam();
    auto kernels = workloads::smallKernels(7);
    const KernelInstance &kernel =
        kernels[static_cast<size_t>(index)];

    RunConfig cfg;
    cfg.variant = variant;
    // runOnFabric fatal()s on deadlock, mapping failure, or golden
    // mismatch, so reaching the assertions below is the test.
    FabricRun run = runOnFabric(kernel, cfg);
    EXPECT_GT(run.cycles(), 0);
    EXPECT_TRUE(run.mapping().success);
    EXPECT_GT(run.energy.totalPj(), 0.0);
}

namespace {

const char *const kKernelNames[] = {"DMM",     "SpMV",
                                    "Dither",  "SpSlice",
                                    "SpMSpVd", "SpMSpMd"};

std::string
paramName(
    const ::testing::TestParamInfo<std::tuple<int, ArchVariant>>
        &info)
{
    return std::string(kKernelNames[std::get<0>(info.param)]) + "_" +
           compiler::archVariantName(std::get<1>(info.param));
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllVariants, SmallKernels,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(kVariants[0], kVariants[1],
                                         kVariants[2], kVariants[3],
                                         kVariants[4])),
    paramName);

TEST(Table1, ThreadingDecisionsMatchThePaper)
{
    // DMM and SpMV have inner II = 1 and run unthreaded; Dither,
    // SpSlice, SpMSpVd and SpMSpMd have II > 1 and thread.
    auto kernels = workloads::smallKernels(3);
    bool expectThreaded[] = {false, false, true, true, true, true};
    for (size_t i = 0; i < kernels.size(); i++) {
        compiler::CompileOptions opts;
        opts.variant = ArchVariant::Pipestitch;
        auto res = compiler::compileProgram(
            kernels[i].prog, kernels[i].liveIns, opts);
        EXPECT_EQ(res.threaded, expectThreaded[i])
            << kernels[i].name;
    }
}

TEST(Table1, ThreadedLoopsHaveHigherII)
{
    auto kernels = workloads::smallKernels(3);
    for (size_t i = 0; i < kernels.size(); i++) {
        compiler::CompileOptions opts;
        opts.variant = ArchVariant::Pipestitch;
        auto res = compiler::compileProgram(
            kernels[i].prog, kernels[i].liveIns, opts);
        for (int loop : res.threadedLoops) {
            EXPECT_GT(res.loopII[static_cast<size_t>(loop)], 1)
                << kernels[i].name << " loop " << loop;
        }
    }
}

TEST(Workloads, ThreadedKernelsBeatRipTide)
{
    // Even at reduced sizes, the threaded kernels must show a
    // meaningful cycle-count win for Pipestitch over RipTide.
    auto kernels = workloads::smallKernels(5);
    for (size_t i = 2; i < kernels.size(); i++) { // threaded four
        RunConfig pipe;
        pipe.variant = ArchVariant::Pipestitch;
        RunConfig rip;
        rip.variant = ArchVariant::RipTide;
        auto p = runOnFabric(kernels[i], pipe);
        auto r = runOnFabric(kernels[i], rip);
        EXPECT_LT(static_cast<double>(p.cycles()),
                  0.8 * static_cast<double>(r.cycles()))
            << kernels[i].name;
    }
}

TEST(Workloads, UnthreadedKernelsStayClose)
{
    // DMM/SpMV: Pipestitch runs them unthreaded and must stay
    // within a few percent of RipTide even at reduced sizes (at
    // paper scale the two are cycle-identical, Fig. 13).
    auto kernels = workloads::smallKernels(5);
    for (size_t i = 0; i < 2; i++) {
        RunConfig pipe;
        pipe.variant = ArchVariant::Pipestitch;
        RunConfig rip;
        rip.variant = ArchVariant::RipTide;
        auto p = runOnFabric(kernels[i], pipe);
        auto r = runOnFabric(kernels[i], rip);
        EXPECT_LE(static_cast<double>(p.cycles()),
                  1.10 * static_cast<double>(r.cycles()))
            << kernels[i].name;
    }
}

TEST(Dnn, TinyInferenceConsistentAcrossSystems)
{
    workloads::DnnConfig cfg;
    cfg.dims = {32, 16, 8};
    cfg.weightSparsity = {0.8, 0.7};
    cfg.inputSparsity = 0.5;
    cfg.seed = 9;
    auto model = workloads::buildDnn(cfg);

    auto scalarRun = workloads::runDnnOnScalar(
        model, scalar::riptideScalarProfile());
    auto pipeRun =
        workloads::runDnnOnFabric(model, ArchVariant::Pipestitch);
    auto ripRun =
        workloads::runDnnOnFabric(model, ArchVariant::RipTide);

    ASSERT_EQ(scalarRun.logits.size(), pipeRun.logits.size());
    EXPECT_EQ(scalarRun.logits, pipeRun.logits);
    EXPECT_EQ(scalarRun.logits, ripRun.logits);
    EXPECT_GT(pipeRun.cycles, 0);
    EXPECT_LE(pipeRun.cycles, ripRun.cycles);
}

/**
 * @file
 * Golden compiled graphs: the compiler's output is a bit-identity
 * contract (docs/compiler.md). A fixed corpus is compiled under every
 * architecture variant and threading mode, and each result's
 * dfg::graphFingerprint (which covers node names, operands, loop
 * bookkeeping and CF placement), node count, threaded flag and
 * per-loop baseline II is compared with tests/golden_graphs.txt.
 *
 * The corpus:
 *   - workloads::paperKernels and smallKernels at seeds 1 and 2,
 *     × unroll {1, 2, 4, 8};
 *   - the shipped kernels/NAME.sir programs with the golden-stats
 *     live-ins;
 *   - the tests/fuzz_program.hh corpus (seeds 0..47), whose random
 *     if/loop nesting exercises liveness and carry insertion.
 *
 * Regenerate the file only for an intended change of the compiled
 * graphs, with:
 *
 *   PS_UPDATE_GOLDENS=1 ./build/tests/test_golden_graphs
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "compiler/compile.hh"
#include "dfg/analysis.hh"
#include "workloads/kernels.hh"

#include "fuzz_program.hh"
#include "shipped_kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using compiler::CompileOptions;

namespace {

constexpr ArchVariant kVariants[] = {
    ArchVariant::RipTide, ArchVariant::Pipestitch, ArchVariant::PipeSB,
    ArchVariant::PipeCFiN, ArchVariant::PipeCFoP};

struct ThreadingMode
{
    const char *name;
    CompileOptions::Threading threading;
};

constexpr ThreadingMode kThreadingModes[] = {
    {"heuristic", CompileOptions::Threading::Heuristic},
    {"on", CompileOptions::Threading::ForceOn},
    {"off", CompileOptions::Threading::ForceOff},
};

/** One result line: everything the contract pins. */
std::string
describe(const compiler::CompileResult &res)
{
    std::ostringstream line;
    line << " fp=" << std::hex << dfg::graphFingerprint(res.graph)
         << std::dec << " nodes=" << res.graph.size()
         << " threaded=" << (res.threaded ? 1 : 0) << " loopII=";
    for (size_t i = 0; i < res.loopII.size(); i++)
        line << (i ? "," : "") << res.loopII[i];
    return line.str();
}

class GoldenGraphs
{
  public:
    GoldenGraphs()
    {
        update = std::getenv("PS_UPDATE_GOLDENS") != nullptr;
        if (update)
            return;
        std::ifstream in(GOLDEN_GRAPHS_FILE);
        if (!in.good()) {
            ADD_FAILURE()
                << "missing " << GOLDEN_GRAPHS_FILE
                << " (run with PS_UPDATE_GOLDENS=1 to create)";
            return;
        }
        std::string tag, line;
        while (in >> tag && std::getline(in, line))
            golden[tag] = line;
    }

    /** Compile @p kernel under every variant × threading mode. */
    void
    checkAll(const workloads::KernelInstance &kernel,
             const std::string &prefix, int unroll)
    {
        for (ArchVariant v : kVariants) {
            for (const auto &mode : kThreadingModes) {
                CompileOptions opts;
                opts.variant = v;
                opts.threading = mode.threading;
                opts.unrollFactor = unroll;
                auto res = compiler::compileProgram(
                    kernel.prog, kernel.liveIns, opts);
                check(csprintf("%s/u%d/%s/%s", prefix.c_str(), unroll,
                               compiler::archVariantName(v),
                               mode.name),
                      describe(res));
            }
        }
    }

    void
    finish()
    {
        if (!update) {
            EXPECT_EQ(seen, golden.size())
                << "golden_graphs.txt lists cases the corpus no "
                   "longer compiles";
            return;
        }
        std::ofstream outFile(GOLDEN_GRAPHS_FILE);
        ASSERT_TRUE(outFile.good()) << GOLDEN_GRAPHS_FILE;
        outFile << out.str();
        GTEST_SKIP() << "goldens regenerated, rerun to verify";
    }

  private:
    void
    check(const std::string &tag, const std::string &line)
    {
        if (update) {
            out << tag << line << "\n";
            return;
        }
        auto it = golden.find(tag);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden entry for " << tag
                          << " (regenerate golden_graphs.txt)";
            return;
        }
        seen++;
        EXPECT_EQ(it->second, line) << tag;
    }

    bool update = false;
    size_t seen = 0;
    std::map<std::string, std::string> golden;
    std::ostringstream out;
};

} // namespace

TEST(GoldenGraphs, CompiledGraphsMatchGoldens)
{
    setQuiet(true);
    GoldenGraphs goldens;

    for (uint64_t seed : {1, 2}) {
        for (const auto &[set, kernels] :
             {std::pair{"paper", workloads::paperKernels(seed)},
              std::pair{"small", workloads::smallKernels(seed)}}) {
            for (const auto &kernel : kernels) {
                for (int unroll : {1, 2, 4, 8}) {
                    goldens.checkAll(kernel,
                                     csprintf("%s%d/%s", set,
                                              static_cast<int>(seed),
                                              kernel.name.c_str()),
                                     unroll);
                }
            }
        }
    }

    for (const auto &kernel : shipped::kernels())
        goldens.checkAll(kernel, "sir/" + kernel.name, 1);

    for (uint64_t seed = 0; seed < 48; seed++) {
        fuzz::ProgramGen gen(seed);
        workloads::KernelInstance kernel;
        kernel.prog = gen.generate();
        kernel.liveIns = fuzz::kLiveIns;
        goldens.checkAll(kernel, "fuzz/" + kernel.prog.name, 1);
    }

    goldens.finish();
}

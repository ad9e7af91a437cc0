/**
 * @file
 * Golden-stats regression harness for the simulator.
 *
 * Every shipped .sir kernel and every workload kernel, compiled for
 * Pipestitch, runs under {destination, source} buffering ×
 * {SyncPlane, greedy} dispatch (plus a time-multiplexed
 * configuration); compiled for the CF-in-NoC variants PipeCFiN and
 * RipTide, it runs under that variant's own microarchitecture, which
 * pins the router control-flow settle. Each case runs twice: once on
 * the DenseScan reference and once on the fast engine. The two runs
 * must produce bit-identical SimStats, termination status, and
 * memory images — the fast engine is an optimization, never a
 * semantic change.
 *
 * On top of the pairwise check, a fingerprint of each run is
 * compared against tests/golden_stats.txt so that *any* accidental
 * change to simulator timing or accounting shows up in review.
 * Regenerate the file with:
 *
 *   PS_UPDATE_GOLDENS=1 ./build/tests/test_golden_stats
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "fabric/fabric.hh"
#include "scalar/interpreter.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

#include "fuzz_program.hh"
#include "shipped_kernels.hh"
#include "simulators.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sim::SimConfig;
using Word = sir::Word;

namespace {

/** One simulator configuration applied to every kernel. */
struct Variant
{
    const char *suffix;
    SimConfig::Buffering buffering;
    bool greedy;
};

constexpr Variant kVariants[] = {
    {"/dst/sync", SimConfig::Buffering::Destination, false},
    {"/dst/greedy", SimConfig::Buffering::Destination, true},
    {"/src/sync", SimConfig::Buffering::Source, false},
    {"/src/greedy", SimConfig::Buffering::Source, true},
};

/** A variant that places all control flow in the NoC, run with the
 *  buffering it compiles to. */
struct CfInNocVariant
{
    const char *suffix;
    ArchVariant variant;
    SimConfig::Buffering buffering;
};

constexpr CfInNocVariant kCfInNocVariants[] = {
    {"/cfin", ArchVariant::PipeCFiN, SimConfig::Buffering::Destination},
    {"/riptide", ArchVariant::RipTide, SimConfig::Buffering::Source},
};

uint64_t
fnv1a(uint64_t h, int64_t v)
{
    for (int byte = 0; byte < 8; byte++) {
        h ^= static_cast<uint64_t>(v >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/** Digest every observable outcome of a run. */
uint64_t
fingerprint(const sim::SimResult &r, const scalar::MemImage &mem)
{
    uint64_t h = 14695981039346656037ull;
    const auto &s = r.stats;
    h = fnv1a(h, s.cycles);
    for (int64_t f : s.nodeFires)
        h = fnv1a(h, f);
    for (const auto &ports : s.portReads) {
        for (int64_t f : ports)
            h = fnv1a(h, f);
    }
    for (int64_t f : s.classFires)
        h = fnv1a(h, f);
    h = fnv1a(h, s.nocCfFires);
    h = fnv1a(h, s.bufferWrites);
    h = fnv1a(h, s.bufferReads);
    h = fnv1a(h, s.nocTraversals);
    h = fnv1a(h, s.memLoads);
    h = fnv1a(h, s.memStores);
    h = fnv1a(h, s.steerDrops);
    h = fnv1a(h, s.syncPlaneCycles);
    h = fnv1a(h, s.dispatchSpawns);
    h = fnv1a(h, s.dispatchConts);
    h = fnv1a(h, s.shareConflicts);
    h = fnv1a(h, s.muxSwitches);
    h = fnv1a(h, s.stallNoInput);
    h = fnv1a(h, s.stallNoSpace);
    h = fnv1a(h, s.bankConflictStalls);
    h = fnv1a(h, r.deadlocked ? 1 : 0);
    for (Word w : mem)
        h = fnv1a(h, w);
    return h;
}

/** Field-by-field stats equality with readable failure output. */
void
expectSameStats(const sim::SimResult &dense,
                const sim::SimResult &ready,
                const scalar::MemImage &denseMem,
                const scalar::MemImage &readyMem,
                const std::string &tag)
{
    const auto &a = dense.stats;
    const auto &b = ready.stats;
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
    EXPECT_EQ(dense.deadlocked, ready.deadlocked) << tag;
    EXPECT_EQ(dense.diagnostic, ready.diagnostic) << tag;
    EXPECT_EQ(denseMem, readyMem) << tag << " memory image";
}

std::vector<workloads::KernelInstance>
allKernels()
{
    std::vector<workloads::KernelInstance> kernels = shipped::kernels();
    for (auto &k : workloads::smallKernels(1))
        kernels.push_back(std::move(k));
    return kernels;
}

/** Fuzz-corpus programs in which a router op's fire wakes a router
 *  op later in the same NoC settle sweep; the fast engine must visit
 *  it in that sweep, as DenseScan does, or a carry or merge fires
 *  twice. */
std::vector<workloads::KernelInstance>
nocWakeKernels()
{
    std::vector<workloads::KernelInstance> kernels;
    for (uint64_t seed : {7, 16, 37}) {
        fuzz::ProgramGen gen(seed);
        workloads::KernelInstance kernel;
        kernel.prog = gen.generate();
        kernel.name = kernel.prog.name;
        kernel.liveIns = fuzz::kLiveIns;
        kernel.memory = fuzz::inputMemory(seed, kernel.prog);
        kernels.push_back(std::move(kernel));
    }
    return kernels;
}

sim::SimResult
runCase(const workloads::KernelInstance &kernel, ArchVariant variant,
        SimConfig::Buffering buffering, bool greedy, bool timeMux,
        simtest::Engine engine, scalar::MemImage &memOut)
{
    compiler::CompileOptions opts;
    opts.variant = variant;
    if (timeMux)
        opts.unrollFactor = 2;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        opts);
    auto cfg = res.simConfig;
    EXPECT_TRUE(variant == ArchVariant::Pipestitch ||
                cfg.buffering == buffering)
        << kernel.name << " compiles to the other buffering";
    cfg.buffering = buffering;
    cfg.greedyDispatch = greedy;
    cfg.maxCycles = 500000;
    if (timeMux) {
        auto groups = compiler::planTimeMultiplexing(
            res.graph, fabric::FabricConfig{});
        EXPECT_FALSE(groups.empty()) << kernel.name;
        for (const auto &group : groups)
            cfg.shareGroups.emplace_back(group.begin(),
                                         group.end());
    }
    memOut = kernel.memory;
    memOut.resize(static_cast<size_t>(kernel.prog.memWords));
    return simtest::simulateOn(engine, res.graph, memOut, cfg);
}

class GoldenHarness
{
  public:
    GoldenHarness()
    {
        update = std::getenv("PS_UPDATE_GOLDENS") != nullptr;
        if (update)
            return;
        std::ifstream in(GOLDEN_STATS_FILE);
        if (!in.good()) {
            ADD_FAILURE()
                << "missing " << GOLDEN_STATS_FILE
                << " (run with PS_UPDATE_GOLDENS=1 to create)";
            return;
        }
        std::string tag, line;
        while (in >> tag && std::getline(in, line))
            golden[tag] = line;
    }

    void
    check(const workloads::KernelInstance &kernel,
          const std::string &tag, ArchVariant variant,
          SimConfig::Buffering buffering, bool greedy, bool timeMux)
    {
        scalar::MemImage denseMem, readyMem;
        auto dense =
            runCase(kernel, variant, buffering, greedy, timeMux,
                    simtest::Engine::Dense, denseMem);
        auto ready =
            runCase(kernel, variant, buffering, greedy, timeMux,
                    simtest::Engine::Fast, readyMem);
        expectSameStats(dense, ready, denseMem, readyMem, tag);

        std::ostringstream line;
        line << " fp=" << std::hex << fingerprint(ready, readyMem)
             << std::dec << " cycles=" << ready.stats.cycles
             << " fires=" << ready.stats.totalPeFires()
             << " deadlocked=" << (ready.deadlocked ? 1 : 0);
        if (update) {
            out << tag << line.str() << "\n";
            return;
        }
        auto it = golden.find(tag);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden entry for " << tag
                          << " (regenerate golden_stats.txt)";
        } else {
            EXPECT_EQ(it->second, line.str()) << tag;
        }
    }

    void
    finish()
    {
        if (!update)
            return;
        std::ofstream outFile(GOLDEN_STATS_FILE);
        ASSERT_TRUE(outFile.good()) << GOLDEN_STATS_FILE;
        outFile << out.str();
        GTEST_SKIP() << "goldens regenerated, rerun to verify";
    }

  private:
    bool update = false;
    std::map<std::string, std::string> golden;
    std::ostringstream out;
};

} // namespace

TEST(GoldenStats, ReadyListMatchesDenseScanEverywhere)
{
    setQuiet(true);
    GoldenHarness harness;

    const auto kernels = allKernels();
    const auto nocWake = nocWakeKernels();
    for (const auto &kernel : kernels) {
        for (const auto &v : kVariants) {
            harness.check(kernel, kernel.name + v.suffix,
                          ArchVariant::Pipestitch, v.buffering,
                          v.greedy, /*timeMux=*/false);
        }
    }

    // Time-multiplexed configuration: unrolled Dither
    // over-subscribes the arith PEs, so planTimeMultiplexing folds
    // cold operators onto shared PEs (share groups exercise the
    // mux-switch / share-conflict accounting).
    auto dither = workloads::makeDither(16, 8, 2);
    harness.check(dither, "dither_u2/dst/sync/tm",
                  ArchVariant::Pipestitch,
                  SimConfig::Buffering::Destination,
                  /*greedy=*/false, /*timeMux=*/true);

    // Router control flow: every carry, merge, steer and invariant
    // settles through the NoC within the cycle.
    for (const auto *set : {&kernels, &nocWake}) {
        for (const auto &kernel : *set) {
            for (const auto &v : kCfInNocVariants) {
                harness.check(kernel, kernel.name + v.suffix,
                              v.variant, v.buffering,
                              /*greedy=*/false, /*timeMux=*/false);
            }
        }
    }

    harness.finish();
}

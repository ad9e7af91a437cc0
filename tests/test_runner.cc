/**
 * @file
 * Tests of the runner subsystem: thread pool, sweep determinism
 * (results must not depend on --jobs or on cache temperature), the
 * content-addressed memo cache, and the
 * sharing of one simulation between jobs that build the same
 * machine on the same inputs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include "base/hash.hh"
#include "compiler/compile.hh"
#include "core/system.hh"
#include "figures/figures.hh"
#include "runner/memo.hh"
#include "runner/pool.hh"
#include "runner/sweep.hh"
#include "scalar/interpreter.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "sir/parser.hh"
#include "trace/observer.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;

namespace {

/** Canonical serialization of one run for byte-level comparison. */
std::string
runJson(const FabricRun &run)
{
    Hasher mem;
    mem.vec(run.memory);
    sim::Report r;
    r.add("cycles", run.cycles())
        .add("energy_pj", run.energy.totalPj())
        .add("edp", run.edp)
        .add("wirelength", run.mapping().totalWireLength)
        .add("mem_hash", hashHex(mem.digest()));
    return r.toJson();
}

/** A small (kernel × variant) grid exercising threaded + spatial
 *  kernels. */
void
buildGrid(runner::Sweep &sweep)
{
    std::vector<runner::KernelPtr> kernels;
    kernels.push_back(
        runner::share(workloads::makeSpmv(16, 0.8, figures::kSeed)));
    kernels.push_back(runner::share(
        workloads::makeSpMSpVd(16, 0.8, figures::kSeed + 1)));
    std::vector<RunConfig> configs;
    for (ArchVariant v :
         {ArchVariant::RipTide, ArchVariant::Pipestitch}) {
        RunConfig cfg;
        cfg.variant = v;
        configs.push_back(cfg);
    }
    sweep.addGrid(kernels, configs);
}

std::vector<std::string>
sweepJsons(runner::Runner &runner)
{
    runner::Sweep sweep(runner);
    buildGrid(sweep);
    std::vector<std::string> out;
    for (const FabricRun &run : sweep.run())
        out.push_back(runJson(run));
    return out;
}

/** The Program digest a job's config builds for @p kernel. */
uint64_t
machineOf(const runner::KernelPtr &kernel, const RunConfig &cfg)
{
    return prepareKernel(*kernel, cfg)->program->digest();
}

/** Field-by-field equality of two runs of one job. */
void
expectSameRun(const FabricRun &want, const FabricRun &got,
              const std::string &tag)
{
    EXPECT_TRUE(sim::statsEqual(want.sim.stats, got.sim.stats)) << tag;
    EXPECT_EQ(want.sim.deadlocked, got.sim.deadlocked) << tag;
    EXPECT_EQ(want.sim.diagnostic, got.sim.diagnostic) << tag;
    EXPECT_EQ(want.memory, got.memory) << tag;
    EXPECT_EQ(want.energy.totalPj(), got.energy.totalPj()) << tag;
    EXPECT_EQ(want.edp, got.edp) << tag;
    EXPECT_EQ(want.boundCycles, got.boundCycles) << tag;
}

/** Counts fires, to show an observed job really simulated. */
struct FireCounter final : trace::SimObserver
{
    int64_t fires = 0;
    void onFire(int64_t, dfg::NodeId) override { fires++; }
};

} // namespace

TEST(ThreadPool, RunsJobsAndPreservesFutureOrder)
{
    runner::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; i++)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; i++)
        EXPECT_EQ(futs[i].get(), i * i);
    EXPECT_GE(runner::defaultJobs(), 1);
}

TEST(ThreadPool, DestroyDrainsJobsQueuedBeyondWorkers)
{
    constexpr int kJobs = 64;
    std::atomic<int> ran{0};
    std::vector<std::future<int>> futs;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    {
        runner::ThreadPool pool(2);
        // Park both workers so every job below is still sitting in
        // the queue when the destructor starts.
        std::future<void> parkA = pool.submit([open] { open.wait(); });
        std::future<void> parkB = pool.submit([open] { open.wait(); });
        for (int i = 0; i < kJobs; i++) {
            futs.push_back(pool.submit([i, &ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
                return i * 3;
            }));
        }
        gate.set_value();
        // The destructor races the drain: every queued job must
        // still run, and every future must resolve (a dropped job
        // would surface here as std::future_error broken_promise).
    }
    EXPECT_EQ(ran.load(), kJobs);
    for (int i = 0; i < kJobs; i++)
        EXPECT_EQ(futs[i].get(), i * 3);
}

TEST(MemoCache, KeysSeparateIngredients)
{
    auto k1 = workloads::makeSpmv(16, 0.8, figures::kSeed);
    auto k2 = workloads::makeSpmv(16, 0.8, figures::kSeed + 1);
    // Same program text + live-ins => same program key even from a
    // distinct instance...
    auto k1b = workloads::makeSpmv(16, 0.8, figures::kSeed);
    EXPECT_EQ(runner::MemoCache::programKey(k1),
              runner::MemoCache::programKey(k1b));
    // ...but the kernel key also covers the memory image, which the
    // sparsity seed changes.
    EXPECT_NE(runner::MemoCache::kernelKey(k1),
              runner::MemoCache::kernelKey(k2));
    compiler::CompileOptions a, b;
    b.variant = ArchVariant::RipTide;
    EXPECT_NE(runner::MemoCache::compileKey(k1, a),
              runner::MemoCache::compileKey(k1, b));
}

namespace {

/** The first Load (or Store) statement in @p stmts, depth first. */
template <typename S>
S *
firstMemStmt(sir::StmtList &stmts, sir::Stmt::Kind kind)
{
    for (auto &stmt : stmts) {
        if (stmt->kind() == kind)
            return static_cast<S *>(stmt.get());
        if (stmt->kind() == sir::Stmt::Kind::For) {
            auto &loop = static_cast<sir::ForStmt &>(*stmt);
            if (S *s = firstMemStmt<S>(loop.body, kind))
                return s;
        }
    }
    return nullptr;
}

} // namespace

TEST(MemoCache, ProgramKeyIsStructural)
{
    auto spmv = [] {
        return workloads::makeSpmv(16, 0.8, figures::kSeed);
    };
    auto k = spmv();
    workloads::KernelInstance copy;
    copy.prog = sir::cloneProgram(k.prog);
    copy.liveIns = k.liveIns;
    EXPECT_EQ(runner::MemoCache::programKey(k),
              runner::MemoCache::programKey(copy));

    // The printer omits Load/Store offsets; the key must not.
    auto load = spmv();
    auto *ld = firstMemStmt<sir::LoadStmt>(load.prog.body,
                                           sir::Stmt::Kind::Load);
    ASSERT_NE(ld, nullptr);
    ld->offset += 1;
    EXPECT_NE(runner::MemoCache::programKey(k),
              runner::MemoCache::programKey(load));

    auto store = spmv();
    auto *st = firstMemStmt<sir::StoreStmt>(store.prog.body,
                                            sir::Stmt::Kind::Store);
    ASSERT_NE(st, nullptr);
    st->offset += 1;
    EXPECT_NE(runner::MemoCache::programKey(k),
              runner::MemoCache::programKey(store));

    auto renamed = spmv();
    ASSERT_FALSE(renamed.prog.arrays.empty());
    renamed.prog.arrays[0].name += "_renamed";
    EXPECT_NE(runner::MemoCache::programKey(k),
              runner::MemoCache::programKey(renamed));
}

TEST(Runner, DedupsIdenticalRuns)
{
    runner::RunnerOptions opts;
    opts.jobs = 2;
    runner::Runner runner(opts);
    auto kernel = runner::share(
        workloads::makeSpmv(16, 0.8, figures::kSeed));
    RunConfig cfg;
    auto f1 = runner.enqueue(kernel, cfg);
    auto f2 = runner.enqueue(kernel, cfg);
    EXPECT_EQ(runner.dedupHits(), 1);
    EXPECT_EQ(runJson(f1.get()), runJson(f2.get()));
    // A different config is a different run.
    cfg.variant = ArchVariant::RipTide;
    runner.enqueue(kernel, cfg);
    EXPECT_EQ(runner.dedupHits(), 1);
}

TEST(Runner, SharesOneSimulationPerMachine)
{
    auto kernel =
        runner::share(workloads::makeDmm(8, figures::kSeed));
    const ArchVariant variants[] = {
        ArchVariant::Pipestitch, ArchVariant::PipeCFiN,
        ArchVariant::RipTide, ArchVariant::PipeSB};
    std::vector<RunConfig> configs;
    for (ArchVariant v : variants) {
        RunConfig cfg;
        cfg.variant = v;
        configs.push_back(cfg);
    }
    // Small DMM has no threaded loop: CF-in-NoC Pipestitch is
    // PipeCFiN, and PipeSB is RipTide, machine for machine.
    EXPECT_EQ(machineOf(kernel, configs[0]),
              machineOf(kernel, configs[1]));
    EXPECT_EQ(machineOf(kernel, configs[2]),
              machineOf(kernel, configs[3]));
    EXPECT_NE(machineOf(kernel, configs[0]),
              machineOf(kernel, configs[2]));

    auto runAll = [&](bool memoize, int64_t wantShared) {
        runner::RunnerOptions opts;
        opts.jobs = 2;
        opts.memoize = memoize;
        runner::Runner runner(opts);
        std::vector<std::shared_future<FabricRun>> futs;
        for (const RunConfig &cfg : configs)
            futs.push_back(runner.enqueue(kernel, cfg));
        std::vector<FabricRun> runs;
        for (auto &f : futs)
            runs.push_back(f.get());
        EXPECT_EQ(runner.simDedupHits(), wantShared);
        EXPECT_EQ(runner.dedupHits(), 0);
        return runs;
    };
    std::vector<FabricRun> shared = runAll(true, 2);
    std::vector<FabricRun> cold = runAll(false, 0);
    for (size_t i = 0; i < configs.size(); i++) {
        expectSameRun(cold[i], shared[i],
                      compiler::archVariantName(variants[i]));
    }
    // One simulation, two fabrics: each job prices the shared stats
    // with its own variant's area.
    EXPECT_NE(shared[2].energy.totalPj(), shared[3].energy.totalPj());
}

TEST(Runner, SharesMachinesNotCoincidentOutcomes)
{
    // The smoke grid's Dither runs identically at depth 8 and 16,
    // but the two are different machines.
    auto kernel = runner::share(
        workloads::makeDither(16, 8, figures::kSeed + 2));
    RunConfig d8;
    d8.sim.bufferDepth = 8;
    RunConfig d16 = d8;
    d16.sim.bufferDepth = 16;
    EXPECT_NE(machineOf(kernel, d8), machineOf(kernel, d16));

    runner::RunnerOptions opts;
    opts.jobs = 1;
    runner::Runner runner(opts);
    FabricRun r8 = runner.run(kernel, d8);
    FabricRun r16 = runner.run(kernel, d16);
    EXPECT_TRUE(sim::statsEqual(r8.sim.stats, r16.sim.stats));
    EXPECT_EQ(r8.memory, r16.memory);
    EXPECT_EQ(runner.simDedupHits(), 0);
}

TEST(Runner, NeverSharesAcrossInputsOrObservedRuns)
{
    auto a = runner::share(workloads::makeDmm(8, figures::kSeed));
    auto b =
        runner::share(workloads::makeDmm(8, figures::kSeed + 7));
    ASSERT_NE(a->memory, b->memory);
    RunConfig pipe;
    RunConfig cfin;
    cfin.variant = ArchVariant::PipeCFiN;
    ASSERT_EQ(machineOf(a, pipe), machineOf(b, cfin));

    runner::RunnerOptions opts;
    opts.jobs = 2;
    runner::Runner runner(opts);
    FabricRun ra = runner.run(a, pipe);

    // Same machine, different input memory.
    FabricRun rb = runner.run(b, cfin);
    EXPECT_EQ(runner.simDedupHits(), 0);
    EXPECT_NE(ra.memory, rb.memory);

    // Same machine and input, but observed: the observer must see
    // a simulation of its own.
    FireCounter counter;
    RunConfig observed = cfin;
    observed.sim.observer = &counter;
    FabricRun ro = runner.run(a, observed);
    EXPECT_EQ(runner.simDedupHits(), 0);
    EXPECT_GT(counter.fires, 0);
    expectSameRun(runner.run(a, cfin), ro, "observed");
    EXPECT_EQ(runner.simDedupHits(), 1);

    // Traced: the fire trace must be printed again.
    RunConfig traced = pipe;
    traced.sim.trace = true;
    testing::internal::CaptureStderr();
    FabricRun rt = runner.run(a, traced);
    std::string trace = testing::internal::GetCapturedStderr();
    EXPECT_NE(trace.find("fire"), std::string::npos);
    EXPECT_EQ(runner.simDedupHits(), 1);
    expectSameRun(ra, rt, "traced");
}

TEST(Sweep, SharedSimulationsIndependentOfJobCount)
{
    // Every variant of DMM and SpMV: two shared machines each.
    auto buildShared = [](runner::Sweep &sweep) {
        auto kernels = workloads::smallKernels(figures::kSeed);
        std::vector<runner::KernelPtr> ks;
        ks.push_back(runner::share(std::move(kernels[0])));
        ks.push_back(runner::share(std::move(kernels[1])));
        std::vector<RunConfig> configs;
        for (ArchVariant v :
             {ArchVariant::RipTide, ArchVariant::Pipestitch,
              ArchVariant::PipeSB, ArchVariant::PipeCFiN,
              ArchVariant::PipeCFoP}) {
            RunConfig cfg;
            cfg.variant = v;
            configs.push_back(cfg);
        }
        sweep.addGrid(ks, configs);
    };
    auto jsonsAt = [&](int jobs, bool memoize, int64_t wantShared) {
        runner::RunnerOptions opts;
        opts.jobs = jobs;
        opts.memoize = memoize;
        runner::Runner runner(opts);
        runner::Sweep sweep(runner);
        buildShared(sweep);
        std::vector<std::string> out;
        for (const FabricRun &run : sweep.run())
            out.push_back(runJson(run));
        EXPECT_EQ(runner.simDedupHits(), wantShared) << jobs;
        return out;
    };
    std::vector<std::string> cold = jsonsAt(1, false, 0);
    ASSERT_EQ(cold.size(), 10u);
    EXPECT_EQ(cold, jsonsAt(1, true, 4));
    EXPECT_EQ(cold, jsonsAt(4, true, 4));
}

TEST(Sweep, ResultsIndependentOfJobCount)
{
    std::vector<std::string> serial, parallel;
    {
        runner::RunnerOptions opts;
        opts.jobs = 1;
        runner::Runner runner(opts);
        serial = sweepJsons(runner);
    }
    {
        runner::RunnerOptions opts;
        opts.jobs = 8;
        runner::Runner runner(opts);
        parallel = sweepJsons(runner);
    }
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++)
        EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
}

TEST(Sweep, ResultsIndependentOfCacheTemperature)
{
    std::vector<std::string> cold, warm, noMemo;
    {
        runner::RunnerOptions opts;
        opts.jobs = 4;
        runner::Runner runner(opts);
        cold = sweepJsons(runner);
        auto stats = runner.cache().stats();
        EXPECT_GT(stats.mapComputes, 0);
        // Second sweep on the same runner: every stage memoized,
        // every run deduplicated.
        warm = sweepJsons(runner);
        EXPECT_EQ(runner.cache().stats().mapComputes,
                  stats.mapComputes);
        EXPECT_GE(runner.dedupHits(), 4);
    }
    {
        // Memoization, run dedup and simulation sharing off: every
        // stage recomputes, and the results must not move.
        runner::RunnerOptions opts;
        opts.jobs = 4;
        opts.memoize = false;
        runner::Runner runner(opts);
        noMemo = sweepJsons(runner);
        EXPECT_EQ(runner.cache().stats().mapHits, 0);
        EXPECT_EQ(runner.dedupHits(), 0);
    }
    ASSERT_EQ(cold.size(), 4u);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cold, noMemo);
}

namespace {

/**
 * A serial loop-carried dependence chain (kernels/loop_chain.sir):
 * the recurrence bound is tight on it, which makes it the seed for
 * bound-pruning tests — its certified floor really does exceed a
 * faster design's runtime.
 */
runner::KernelPtr
makeLoopChainKernel()
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
    sir::ParseResult parsed = sir::parseSir(kSrc, "<loop_chain>");
    workloads::KernelInstance kernel;
    kernel.name = parsed.program.name;
    kernel.prog = std::move(parsed.program);
    kernel.liveIns = {16, 3}; // n, scale — declaration order
    kernel.memory = scalar::makeMemory(kernel.prog);
    const auto &x = kernel.prog.array(parsed.arrays.at("x"));
    for (int i = 0; i < 16; i++)
        kernel.memory[static_cast<size_t>(x.base) + i] = i + 1;
    return runner::share(std::move(kernel));
}

} // namespace

TEST(Sweep, RunPrunedSkipsCandidatesBelowTheCertifiedFloor)
{
    runner::RunnerOptions opts;
    opts.jobs = 1;
    runner::Runner runner(opts);
    runner::Sweep sweep(runner);

    auto chain = makeLoopChainKernel();
    auto fast =
        runner::share(workloads::makeSpmv(4, 0.8, figures::kSeed));
    RunConfig base;

    // Candidate 0 registers the chain graph's fire counts and an
    // incumbent; candidate 1 beats it; candidate 2 recompiles the
    // chain graph (memo hit), whose certified recurrence floor now
    // exceeds the incumbent — it must be pruned without running.
    sweep.addCandidate(chain, base);
    sweep.addCandidate(fast, base);
    RunConfig reseeded = base;
    reseeded.mapperSeed = 7;
    sweep.addCandidate(chain, reseeded);
    ASSERT_EQ(sweep.candidateCount(), 3u);

    std::vector<runner::PrunedRun> res = sweep.runPruned();
    ASSERT_EQ(res.size(), 3u);

    EXPECT_FALSE(res[0].pruned);
    EXPECT_GT(res[0].run.cycles(), 0);
    EXPECT_GT(res[0].boundCycles, 0);
    EXPECT_FALSE(res[1].pruned);
    EXPECT_LT(res[1].run.cycles(), res[0].run.cycles());

    EXPECT_TRUE(res[2].pruned);
    EXPECT_EQ(res[2].run.cycles(), 0) << "pruned points must not run";
    // The floor that justified the prune meets or beats the
    // incumbent, and the bound is sound: candidate 0 actually ran
    // this graph and could not beat its own floor.
    EXPECT_GE(res[2].boundCycles, res[1].run.cycles());
    EXPECT_LE(res[2].boundCycles, res[0].run.cycles());
}

TEST(Sweep, RunPrunedMatchesUnprunedResults)
{
    // Pruning must never change what the surviving points compute:
    // a candidate that runs returns the same run a plain sweep
    // would (boundPruneCycles trims the mapper portfolio, which is
    // result-bearing, so compare against a sweep with the same
    // floor applied — and cycles, which placement cannot change on
    // a single-tile fabric, against a default run).
    auto chain = makeLoopChainKernel();
    RunConfig base;
    runner::RunnerOptions opts;
    opts.jobs = 1;
    runner::Runner runner(opts);

    runner::Sweep sweep(runner);
    sweep.addCandidate(chain, base);
    std::vector<runner::PrunedRun> res = sweep.runPruned();
    ASSERT_EQ(res.size(), 1u);
    ASSERT_FALSE(res[0].pruned);

    FabricRun direct = runOnFabric(*chain, base);
    EXPECT_EQ(res[0].run.cycles(), direct.cycles());
    EXPECT_EQ(res[0].boundCycles, direct.boundCycles);
    EXPECT_EQ(res[0].run.memory, direct.memory);
}

TEST(Figures, SmokeRenderIndependentOfJobsAndCache)
{
    figures::FigureOptions fopts;
    fopts.smoke = true;
    auto renderAll = [&](figures::FigureSet &set) {
        std::string all;
        for (const auto &fig : figures::allFigures())
            all += fig.render(set);
        return all;
    };
    auto renderFresh = [&](int jobs, bool memoize) {
        runner::RunnerOptions opts;
        opts.jobs = jobs;
        opts.memoize = memoize;
        runner::Runner runner(opts);
        figures::FigureSet set(runner, fopts);
        return renderAll(set);
    };
    std::string serial = renderFresh(1, true);
    std::string parallelCold, parallelWarm;
    {
        runner::RunnerOptions opts;
        opts.jobs = 8;
        runner::Runner runner(opts);
        figures::FigureSet set(runner, fopts);
        parallelCold = renderAll(set);
        parallelWarm = renderAll(set);
    }
    std::string noMemo = renderFresh(8, false);
    EXPECT_EQ(serial, parallelCold);
    EXPECT_EQ(serial, parallelWarm);
    EXPECT_EQ(serial, noMemo);
}

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
#include "sim/report.hh"
#include "sim/stats.hh"
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

/** Enqueue every kernel under every config, then read the futures
 *  back in submission order. */
std::vector<FabricRun>
runGrid(runner::Runner &runner,
        const std::vector<runner::KernelPtr> &kernels,
        const std::vector<RunConfig> &configs)
{
    std::vector<std::shared_future<FabricRun>> futures;
    for (const auto &kernel : kernels)
        for (const auto &config : configs)
            futures.push_back(runner.enqueue(kernel, config));
    std::vector<FabricRun> runs;
    for (const auto &future : futures)
        runs.push_back(future.get());
    return runs;
}

/** A small (kernel × variant) grid exercising threaded + spatial
 *  kernels. */
std::vector<std::string>
sweepJsons(runner::Runner &runner)
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
    std::vector<std::string> out;
    for (const FabricRun &run : runGrid(runner, kernels, configs))
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
    RunConfig a, b;
    b.variant = ArchVariant::RipTide;
    EXPECT_NE(runner::MemoCache::preparedKey(k1, a),
              runner::MemoCache::preparedKey(k1, b));
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
    FabricRun r8 = runner.enqueue(kernel, d8).get();
    FabricRun r16 = runner.enqueue(kernel, d16).get();
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
    FabricRun ra = runner.enqueue(a, pipe).get();

    // Same machine, different input memory.
    FabricRun rb = runner.enqueue(b, cfin).get();
    EXPECT_EQ(runner.simDedupHits(), 0);
    EXPECT_NE(ra.memory, rb.memory);

    // Same machine and input, but observed: the observer must see
    // a simulation of its own.
    FireCounter counter;
    RunConfig observed = cfin;
    observed.sim.observer = &counter;
    FabricRun ro = runner.enqueue(a, observed).get();
    EXPECT_EQ(runner.simDedupHits(), 0);
    EXPECT_GT(counter.fires, 0);
    expectSameRun(runner.enqueue(a, cfin).get(), ro, "observed");
    EXPECT_EQ(runner.simDedupHits(), 1);

    // Traced: the fire trace must be printed again.
    RunConfig traced = pipe;
    traced.sim.trace = true;
    testing::internal::CaptureStderr();
    FabricRun rt = runner.enqueue(a, traced).get();
    std::string trace = testing::internal::GetCapturedStderr();
    EXPECT_NE(trace.find("fire"), std::string::npos);
    EXPECT_EQ(runner.simDedupHits(), 1);
    expectSameRun(ra, rt, "traced");
}

TEST(Sweep, SharedSimulationsIndependentOfJobCount)
{
    // Every variant of DMM and SpMV: two shared machines each.
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
    auto jsonsAt = [&](int jobs, bool memoize, int64_t wantShared) {
        runner::RunnerOptions opts;
        opts.jobs = jobs;
        opts.memoize = memoize;
        runner::Runner runner(opts);
        std::vector<std::string> out;
        for (const FabricRun &run : runGrid(runner, ks, configs))
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

/**
 * @file
 * Fine-grained dispatch/SyncPlane semantics (Secs. 4.4-4.7):
 * bubble flow control, group atomicity under skewed arrivals,
 * out-of-order thread termination, and SyncPlane accounting.
 */

#include <gtest/gtest.h>

#include "compiler/compile.hh"
#include "core/system.hh"
#include "sir/builder.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sir::Builder;
using sir::Opcode;
using sir::Reg;

namespace {

/**
 * Threads with wildly imbalanced trip counts: thread i runs
 * `work[i]` inner iterations. Lets us stress ordering and
 * out-of-order termination.
 */
workloads::KernelInstance
imbalancedThreads(const std::vector<sir::Word> &work)
{
    Builder b("imbalanced");
    auto w = b.array("work", static_cast<int64_t>(work.size()));
    auto done = b.array("done", static_cast<int64_t>(work.size()));
    auto order = b.array("order", static_cast<int64_t>(work.size()));
    auto slot = b.array("slot", 1);
    Reg n = b.liveIn("n");
    b.forEach0(n, [&](Reg i) {
        Reg k = b.reg("k");
        b.loadIdxInto(k, w, i);
        Reg steps = b.reg("steps");
        b.assignConst(steps, 0);
        b.whileLoop([&] { return b.gti(k, 0); },
                    [&] {
                        b.computeInto(k, Opcode::Sub, k, b.let(1));
                        b.computeInto(steps, Opcode::Add, steps,
                                      b.let(1));
                    });
        b.storeIdx(done, i, steps);
    });
    (void)order;
    (void)slot;

    workloads::KernelInstance kernel;
    kernel.name = "imbalanced";
    kernel.prog = b.finish();
    kernel.liveIns = {static_cast<sir::Word>(work.size())};
    kernel.memory = scalar::makeMemory(kernel.prog);
    for (size_t i = 0; i < work.size(); i++)
        kernel.memory[i] = work[i];
    return kernel;
}

} // namespace

TEST(Dispatch, ImbalancedThreadsStayCorrect)
{
    // Short and long threads interleaved: ordering logic must keep
    // each thread's tokens paired even as short threads finish
    // while long ones still loop.
    std::vector<sir::Word> work = {9, 1, 7, 0, 12, 2, 5, 1};
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto run = runOnFabric(kernel, cfg); // golden-checked internally
    for (size_t i = 0; i < work.size(); i++) {
        EXPECT_EQ(run.memory[kernel.prog.array(1).base +
                             static_cast<int64_t>(i)],
                  work[i]);
    }
    EXPECT_GT(run.sim.stats.dispatchSpawns, 0);
    EXPECT_GT(run.sim.stats.dispatchConts, 0);
}

TEST(Dispatch, ZeroTripThreadsAreFine)
{
    // Every thread exits immediately: spawn sets flow straight to
    // the exit steers.
    std::vector<sir::Word> work(8, 0);
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto run = runOnFabric(kernel, cfg);
    EXPECT_EQ(run.sim.stats.dispatchConts, 0);
}

TEST(Dispatch, SingleThread)
{
    std::vector<sir::Word> work = {5};
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto run = runOnFabric(kernel, cfg);
    EXPECT_EQ(run.memory[kernel.prog.array(1).base], 5);
}

TEST(Dispatch, SurvivesMinimalBuffers)
{
    // Bubble flow control (spawn needs two free output slots) must
    // prevent deadlock even at depth 2 — the minimum that can hold
    // a continuation alongside a spawn.
    std::vector<sir::Word> work = {3, 8, 1, 6, 2, 9, 4, 7};
    auto kernel = imbalancedThreads(work);
    for (int depth : {2, 3, 4}) {
        RunConfig cfg;
        cfg.variant = ArchVariant::Pipestitch;
        cfg.sim.bufferDepth = depth;
        auto run = runOnFabric(kernel, cfg);
        EXPECT_GT(run.cycles(), 0) << "depth " << depth;
    }
}

TEST(Dispatch, ThreadsOverlapInFlight)
{
    // With all threads running the same loop, Pipestitch's cycle
    // count must approach one dispatch set per cycle (iterations +
    // spawn/drain), i.e. the II-ratio speedup over RipTide's
    // serialized outer loop. Here inner II = 2, so the ceiling is
    // ~2x; require we get most of it.
    const int threads = 16, iters = 16;
    std::vector<sir::Word> work(threads, iters);
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto run = runOnFabric(kernel, cfg);
    RunConfig rip;
    rip.variant = ArchVariant::RipTide;
    auto ripRun = runOnFabric(kernel, rip);
    // Near the dispatch-throughput bound: (threads+1) * iters sets.
    int64_t sets = (threads + 1) * iters;
    EXPECT_LT(run.cycles(), sets + 40)
        << "threads did not pipeline through the dispatch gates";
    EXPECT_LT(run.cycles() * 17, ripRun.cycles() * 10)
        << "expected ~2x (II ratio) from thread pipelining";
}

TEST(Dispatch, SyncPlaneActivityTracked)
{
    std::vector<sir::Word> work = {4, 4, 4, 4};
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto run = runOnFabric(kernel, cfg);
    EXPECT_GT(run.sim.stats.syncPlaneCycles, 0);
    EXPECT_LE(run.sim.stats.syncPlaneCycles, run.cycles());

    // RipTide has no dispatch groups, hence no SyncPlane activity.
    RunConfig rip;
    rip.variant = ArchVariant::RipTide;
    auto ripRun = runOnFabric(kernel, rip);
    EXPECT_EQ(ripRun.sim.stats.syncPlaneCycles, 0);
}

TEST(Dispatch, SpawnCountMatchesThreadsTimesGates)
{
    std::vector<sir::Word> work = {2, 2, 2, 2, 2};
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    auto run = runOnFabric(kernel, cfg);
    int gates = 0;
    for (const auto &n : run.compiled().graph.nodes)
        gates += n.kind == dfg::NodeKind::Dispatch;
    ASSERT_GT(gates, 0);
    EXPECT_EQ(run.sim.stats.dispatchSpawns,
              static_cast<int64_t>(work.size()) * gates);
}

TEST(Dispatch, OrderInvariantCheckedByDefault)
{
    // The debug-tag machinery must actually be exercised on a
    // threaded run (tokens with distinct tags flow through the
    // loop); this is a meta-test that our oracle is alive.
    std::vector<sir::Word> work = {6, 3, 9, 1};
    auto kernel = imbalancedThreads(work);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.sim.checkThreadOrder = true;
    auto run = runOnFabric(kernel, cfg);
    EXPECT_FALSE(run.sim.deadlocked);
}

/**
 * @file
 * Unit tests for simulator components: token FIFOs (single-consumer
 * and multicast-window modes), the banked memory system, and the
 * report renderers.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/memsys.hh"
#include "sim/report.hh"
#include "sim/token.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using namespace pipestitch::sim;

TEST(TokenFifo, FifoOrderSingleConsumer)
{
    TokenFifo f(3);
    EXPECT_TRUE(f.empty());
    f.push({1});
    f.push({2});
    f.push({3});
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop().value, 1);
    EXPECT_EQ(f.pop().value, 2);
    f.push({4});
    EXPECT_EQ(f.pop().value, 3);
    EXPECT_EQ(f.pop().value, 4);
    EXPECT_TRUE(f.empty());
}

TEST(TokenFifo, MulticastRetiresOnLastEndpoint)
{
    TokenFifo f(4);
    f.initEndpoints(2);
    f.push({10});
    f.push({20});
    ASSERT_TRUE(f.availFor(0));
    ASSERT_TRUE(f.availFor(1));
    EXPECT_EQ(f.peekFor(0).value, 10);
    f.takeFor(0);
    // Entry 10 must survive until endpoint 1 takes it.
    EXPECT_EQ(f.size(), 2);
    EXPECT_EQ(f.peekFor(1).value, 10);
    EXPECT_EQ(f.peekFor(0).value, 20); // window read past the head
    f.takeFor(1);
    EXPECT_EQ(f.size(), 1); // 10 retired
    f.takeFor(0);
    EXPECT_FALSE(f.availFor(0)); // consumed everything buffered
    EXPECT_TRUE(f.availFor(1));
}

TEST(TokenFifo, HeadOnlyViewBlocksRunaheadConsumer)
{
    TokenFifo f(4);
    f.initEndpoints(2);
    f.push({1});
    f.push({2});
    EXPECT_TRUE(f.availHeadFor(0));
    f.takeFor(0);
    // Endpoint 0 already took the head: head-only view stalls even
    // though the window view could read entry 2.
    EXPECT_FALSE(f.availHeadFor(0));
    EXPECT_TRUE(f.availFor(0));
    EXPECT_TRUE(f.availHeadFor(1));
    f.takeFor(1);
    EXPECT_TRUE(f.availHeadFor(0)); // head advanced
}

/** Push depth tokens, pop half, push again across the wrap point,
 *  then drain — exercises the ring arithmetic at @p depth. */
static void
exerciseRingAt(int depth)
{
    TokenFifo f(depth);
    EXPECT_EQ(f.capacity(), depth);
    for (int i = 0; i < depth; i++)
        f.push({i});
    EXPECT_TRUE(f.full());
    for (int i = 0; i < depth / 2; i++)
        EXPECT_EQ(f.pop().value, static_cast<Word>(i));
    for (int i = 0; i < depth / 2; i++)
        f.push({depth + i});
    for (int i = depth / 2; i < depth; i++)
        EXPECT_EQ(f.pop().value, static_cast<Word>(i));
    for (int i = 0; i < depth / 2; i++)
        EXPECT_EQ(f.pop().value, static_cast<Word>(depth + i));
    EXPECT_TRUE(f.empty());
}

TEST(TokenFifo, InlineHeapBoundary)
{
    // Depths around the paper's largest (16) behave identically, and
    // an empty FIFO resized either way serves its new depth.
    for (int depth : {15, 16, 17})
        exerciseRingAt(depth);
    TokenFifo f(17);
    f.push({1});
    EXPECT_EQ(f.pop().value, 1);
    f.setDepth(16);
    EXPECT_EQ(f.capacity(), 16);
    exerciseRingAt(16);
    f.setDepth(33);
    EXPECT_EQ(f.capacity(), 33);
}

TEST(TokenFifoDeathTest, SetDepthOnNonEmptyFifoRejected)
{
    TokenFifo f(4);
    f.push({1});
    EXPECT_DEATH(f.setDepth(8), "non-empty token fifo");
}

TEST(TokenFifo, BornStampsTravel)
{
    TokenFifo f(2);
    Token t{42, NoTag, 7};
    f.push(t);
    EXPECT_EQ(f.head().born, 7);
}

TEST(MemSystem, BankInterleaving)
{
    scalar::MemImage mem(64, 0);
    MemSystem sys(mem, 16, 2);
    EXPECT_EQ(sys.bankOf(0), 0);
    EXPECT_EQ(sys.bankOf(15), 15);
    EXPECT_EQ(sys.bankOf(16), 0);
    EXPECT_EQ(sys.bankOf(33), 1);
}

TEST(MemSystem, PortArbitrationPerCycle)
{
    scalar::MemImage mem(64, 0);
    MemSystem sys(mem, 4, 2);
    sys.beginCycle();
    EXPECT_TRUE(sys.bankFree(0));
    sys.claimBank(0);
    EXPECT_FALSE(sys.bankFree(0));
    EXPECT_FALSE(sys.bankFree(4)); // same bank
    EXPECT_TRUE(sys.bankFree(1));
    sys.beginCycle();
    EXPECT_TRUE(sys.bankFree(0)); // new cycle, port free again
}

TEST(MemSystem, LoadLatencyAndValueCapture)
{
    scalar::MemImage mem(8, 0);
    mem[3] = 99;
    MemSystem sys(mem, 2, 3);
    sys.issueLoad(7, 3, NoTag, 10);
    mem[3] = -1; // overwrite after issue: load captured the value
    EXPECT_TRUE(sys.takeCompletions(12).empty());
    auto done = sys.takeCompletions(13);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].node, 7);
    EXPECT_EQ(done[0].data.value, 99);
    EXPECT_TRUE(sys.idle());
}

TEST(MemSystem, StoresCommitImmediately)
{
    scalar::MemImage mem(8, 0);
    MemSystem sys(mem, 2, 2);
    sys.store(5, 123);
    EXPECT_EQ(mem[5], 123);
}

TEST(MemSystem, OutOfBoundsFaultsTheRun)
{
    // The memory system neither reads nor writes outside the image...
    scalar::MemImage mem(8, 0);
    MemSystem sys(mem, 2, 2);
    EXPECT_TRUE(sys.inBounds(7));
    EXPECT_FALSE(sys.inBounds(8));
    EXPECT_FALSE(sys.inBounds(-1));
    sys.store(8, 1);
    EXPECT_EQ(mem, scalar::MemImage(8, 0));
    EXPECT_EQ(sys.issueLoad(0, -1, NoTag, 0).data.value, 0);

    // ...and a kernel that indexes past its arrays ends its run with
    // a fault result, the same under both schedulers, instead of
    // aborting the process.
    setQuiet(true);
    auto kernel = workloads::makeSpmv(8, 0.5, 3);
    Word xBase = -1;
    for (const auto &arr : kernel.prog.arrays) {
        if (arr.name == "colidx")
            kernel.memory[static_cast<size_t>(arr.base)] = 1 << 20;
        if (arr.name == "x")
            xBase = static_cast<Word>(arr.base);
    }
    ASSERT_GE(xBase, 0);
    std::vector<FabricRun> runs;
    for (auto sched : {SimConfig::Scheduler::DenseScan,
                       SimConfig::Scheduler::ReadyList}) {
        RunConfig cfg;
        cfg.quiet = true;
        cfg.sim.scheduler = sched;
        std::string err;
        FabricRun run = runOnFabric(kernel, cfg, &err);
        EXPECT_NE(err.find("memory fault"), std::string::npos) << err;
        EXPECT_TRUE(run.sim.deadlocked);
        EXPECT_FALSE(run.sim.watchdogExpired);
        ASSERT_TRUE(run.sim.fault.any());
        EXPECT_EQ(run.sim.fault.addr, xBase + (1 << 20));
        EXPECT_EQ(run.compiled().graph.at(run.sim.fault.node).kind,
                  dfg::NodeKind::Load);
        EXPECT_EQ(run.sim.stats.cycles, run.sim.fault.cycle + 1)
            << "the run stops at the end of the faulting cycle";
        EXPECT_EQ(run.sim.diagnostic,
                  describeFault(run.compiled().graph, run.sim.fault,
                                run.memory.size()));
        runs.push_back(std::move(run));
    }
    EXPECT_EQ(runs[0].sim.fault, runs[1].sim.fault);
    EXPECT_EQ(runs[0].sim.diagnostic, runs[1].sim.diagnostic);
    EXPECT_TRUE(statsEqual(runs[0].sim.stats, runs[1].sim.stats));
    EXPECT_EQ(runs[0].memory, runs[1].memory);
}

TEST(Report, OperatorTableAndHeatMap)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.8, 2);
    RunConfig cfg;
    auto run = runOnFabric(kernel, cfg);
    std::string table =
        operatorReport(run.compiled().graph, run.sim.stats, 8);
    EXPECT_NE(table.find("Fires"), std::string::npos);
    EXPECT_NE(table.find("stream"), std::string::npos);
    // Capped at 8 rows + header + separator.
    EXPECT_LE(std::count(table.begin(), table.end(), '\n'), 10);

    fabric::Fabric fab;
    std::string map = utilizationMap(run.compiled().graph, fab,
                                     run.mapping(), run.sim.stats);
    EXPECT_NE(map.find("utilization"), std::string::npos);
    // One row per fabric row.
    EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 9);
}

TEST(Stats, IpcDefinitionMatchesPaper)
{
    SimStats s;
    s.cycles = 100;
    s.classFires = {50, 10, 30, 20, 5};
    s.nocCfFires = 40; // router CF is not a PE fire
    EXPECT_DOUBLE_EQ(s.ipc(), 1.15);
    EXPECT_EQ(s.totalPeFires(), 115);
}

TEST(Stats, ReportMentionsKeyCounters)
{
    SimStats s;
    s.cycles = 7;
    s.memLoads = 3;
    Report r = reportFor(s);
    std::string line = r.toString();
    EXPECT_NE(line.find("cycles=7"), std::string::npos);
    EXPECT_NE(line.find("loads=3"), std::string::npos);
    EXPECT_TRUE(r.has("cycles"));
    EXPECT_EQ(r.get("cycles"), "7");
}

TEST(Stats, ReportEmitsValidJsonShape)
{
    SimStats s;
    s.cycles = 42;
    s.memStores = 5;
    std::string json = reportFor(s).toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"cycles\":42"), std::string::npos);
    EXPECT_NE(json.find("\"stores\":5"), std::string::npos);
}

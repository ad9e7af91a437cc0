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
 *
 * A Program also owns its idle fast engines: every run borrows one
 * and hands it back. A borrowed engine must carry nothing of its
 * previous run into the next — however that run ended — and
 * concurrent runs must each get their own.
 */

#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "compiler/compile.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"
#include "sim/program.hh"
#include "sim/simulator.hh"
#include "trace/chrome_trace.hh"
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
    EXPECT_EQ(want.fault, got.fault) << tag;
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

namespace {

/** One way for a run to end other than a clean retire, and a run to
 *  follow it on the same ExecutionState. */
struct DirtyCase
{
    const char *name;
    std::shared_ptr<const sim::Program> program;
    scalar::MemImage dirtyMem;
    sim::RunOptions dirtyOpts;
    std::function<bool(const sim::SimResult &)> endedAsIntended;
    scalar::MemImage nextMem;
};

/** An Add whose second operand is its own output: it can never
 *  fire, so the fabric quiesces with a token in flight. */
std::shared_ptr<const dfg::Graph>
starvedGraph()
{
    auto g = std::make_shared<dfg::Graph>("starved");
    dfg::Node trig;
    trig.kind = dfg::NodeKind::Trigger;
    trig.name = "start";
    dfg::NodeId t = g->add(trig);
    dfg::Node add;
    add.kind = dfg::NodeKind::Arith;
    add.name = "stuck";
    add.op = sir::Opcode::Add;
    add.inputs.resize(2);
    add.inputs[0] = dfg::Operand::wire({t, 0});
    dfg::NodeId a = g->add(add);
    g->connect({a, 0}, a, 1);
    dfg::Node store;
    store.kind = dfg::NodeKind::Store;
    store.name = "st";
    store.inputs = {dfg::Operand::imm_(0), dfg::Operand::wire({a, 0})};
    g->add(store);
    g->finalize();
    return g;
}

/**
 * A threaded loop whose threads tear: a dispatch gate spawns one
 * thread per index 0..3, and an Add pairs each thread's index with
 * the output of a steer that drops thread 0's token. Its first
 * firing meets tokens of threads 0 and 1 — a thread-order
 * violation the debug tags catch.
 */
std::shared_ptr<const dfg::Graph>
tearingGraph()
{
    auto g = std::make_shared<dfg::Graph>("tearing");
    g->numLoops = 1;
    g->loopParent = {-1};
    g->loopThreaded = {true};
    auto mk = [](dfg::NodeKind kind, const char *name, int loop) {
        dfg::Node n;
        n.kind = kind;
        n.name = name;
        n.loopId = loop;
        return n;
    };
    dfg::NodeId t = g->add(mk(dfg::NodeKind::Trigger, "start", -1));
    dfg::Node stream = mk(dfg::NodeKind::Stream, "i", -1);
    stream.inputs = {dfg::Operand::imm_(0), dfg::Operand::imm_(4),
                     dfg::Operand::wire({t, 0})};
    dfg::NodeId s = g->add(stream);
    dfg::Node gate = mk(dfg::NodeKind::Dispatch, "gate", 0);
    gate.inputs.resize(2);
    gate.inputs[dfg::port_idx::DispatchSpawn] =
        dfg::Operand::wire({s, dfg::port_idx::StreamIdxOut});
    dfg::NodeId d = g->add(gate);
    dfg::Node steer = mk(dfg::NodeKind::Steer, "nonzero", 0);
    steer.inputs = {dfg::Operand::wire({d, 0}),
                    dfg::Operand::wire({d, 0})};
    dfg::NodeId f = g->add(steer);
    dfg::Node add = mk(dfg::NodeKind::Arith, "pair", 0);
    add.op = sir::Opcode::Add;
    add.inputs = {dfg::Operand::wire({d, 0}),
                  dfg::Operand::wire({f, 0})};
    dfg::NodeId a = g->add(add);
    dfg::Node store = mk(dfg::NodeKind::Store, "st", 0);
    store.inputs = {dfg::Operand::imm_(0), dfg::Operand::wire({a, 0})};
    g->add(store);
    g->finalize();
    return g;
}

std::vector<DirtyCase>
dirtyCases(sim::SimConfig::Scheduler sched,
           trace::ChromeTraceSink &chrome)
{
    std::vector<DirtyCase> cases;
    auto spmv = workloads::makeSpmv(8, 0.5, 17);
    auto spmvProgram = build(spmv, sched).program;
    const scalar::MemImage clean = imageForRun(spmv, 1);

    DirtyCase watchdog{"watchdog", spmvProgram, imageForRun(spmv, 0),
                       {}, nullptr, clean};
    watchdog.dirtyOpts.maxCycles = 20;
    watchdog.endedAsIntended = [](const sim::SimResult &r) {
        return r.watchdogExpired;
    };
    cases.push_back(watchdog);

    DirtyCase fault{"fault", spmvProgram, imageForRun(spmv, 0), {},
                    nullptr, clean};
    for (const auto &arr : spmv.prog.arrays) {
        if (arr.name == "colidx")
            fault.dirtyMem[static_cast<size_t>(arr.base + 1)] = 1 << 20;
    }
    fault.endedAsIntended = [](const sim::SimResult &r) {
        return r.fault.any();
    };
    cases.push_back(fault);

    DirtyCase observed{"observed", spmvProgram, imageForRun(spmv, 0),
                       {}, nullptr, clean};
    observed.dirtyOpts.observer = &chrome;
    observed.endedAsIntended = [&chrome](const sim::SimResult &r) {
        return !r.deadlocked && chrome.spanCount() > 0;
    };
    cases.push_back(observed);

    sim::SimConfig handCfg;
    handCfg.scheduler = sched;
    handCfg.maxCycles = 100000;
    cases.push_back({"thread-order",
                     std::make_shared<const sim::Program>(
                         tearingGraph(), handCfg),
                     scalar::MemImage(4, 0),
                     {},
                     [](const sim::SimResult &r) {
                         return r.diagnostic.find("thread-order") !=
                                std::string::npos;
                     },
                     scalar::MemImage(4, 0)});
    cases.push_back({"deadlock",
                     std::make_shared<const sim::Program>(
                         starvedGraph(), handCfg),
                     scalar::MemImage(4, 0),
                     {},
                     [](const sim::SimResult &r) {
                         return r.deadlocked && !r.watchdogExpired &&
                                !r.fault.any();
                     },
                     scalar::MemImage(4, 0)});
    return cases;
}

} // namespace

TEST(EngineReuse, RunAfterAnAbnormalEndMatchesAFreshEngine)
{
    for (auto sched : {sim::SimConfig::Scheduler::DenseScan,
                       sim::SimConfig::Scheduler::ReadyList}) {
        trace::ChromeTraceSink chrome;
        for (DirtyCase &c : dirtyCases(sched, chrome)) {
            const std::string tag =
                std::string(c.name) +
                (sched == sim::SimConfig::Scheduler::ReadyList
                     ? " ready"
                     : " reference");
            sim::ExecutionState es(c.program);
            sim::SimResult dirty = es.run(c.dirtyMem, c.dirtyOpts);
            ASSERT_TRUE(c.endedAsIntended(dirty))
                << tag << ": " << dirty.diagnostic;

            scalar::MemImage gotMem = c.nextMem;
            sim::SimResult got = es.run(gotMem);

            // The same machine on a Program of its own: a fresh
            // engine.
            sim::ExecutionState fresh(std::make_shared<const sim::Program>(
                c.program->graphPtr(), c.program->config()));
            scalar::MemImage wantMem = c.nextMem;
            sim::SimResult want = fresh.run(wantMem);
            EXPECT_TRUE(sim::statsEqual(want.stats, got.stats)) << tag;
            expectSameResult(want, got, wantMem, gotMem, tag);

            // Both runs went through one engine, handed back each
            // time (the oracle borrows none).
            EXPECT_EQ(c.program->idleEngines(),
                      sched == sim::SimConfig::Scheduler::ReadyList
                          ? 1u
                          : 0u)
                << tag;
        }
    }
}

TEST(EngineReuse, ConcurrentRunsOfOneProgramMatchSequentialRuns)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    constexpr int kTotal = kThreads * kPerThread;
    auto kernel = workloads::makeSpmv(8, 0.5, 19);

    // Sequential reference on a Program of its own: one engine,
    // reused by every run.
    Built ref = build(kernel, sim::SimConfig::Scheduler::ReadyList);
    std::vector<sim::SimResult> want(kTotal);
    std::vector<scalar::MemImage> wantMem(kTotal);
    for (int i = 0; i < kTotal; i++) {
        wantMem[static_cast<size_t>(i)] = imageForRun(kernel, i);
        sim::ExecutionState es(ref.program);
        want[static_cast<size_t>(i)] =
            es.run(wantMem[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(ref.program->idleEngines(), 1u);

    // kThreads threads on one Program at once, each alternating
    // between a long-lived ExecutionState and one-run ones, so
    // engines pass between threads through the idle list.
    Built b = build(kernel, sim::SimConfig::Scheduler::ReadyList);
    std::vector<sim::SimResult> got(kTotal);
    std::vector<scalar::MemImage> gotMem(kTotal);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            sim::ExecutionState mine(b.program);
            start.arrive_and_wait();
            for (int k = 0; k < kPerThread; k++) {
                const size_t i =
                    static_cast<size_t>(t * kPerThread + k);
                gotMem[i] = imageForRun(kernel, static_cast<int>(i));
                if (k % 2 == 0) {
                    got[i] = mine.run(gotMem[i]);
                } else {
                    sim::ExecutionState once(b.program);
                    got[i] = once.run(gotMem[i]);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kTotal; i++) {
        const size_t k = static_cast<size_t>(i);
        expectSameResult(want[k], got[k], wantMem[k], gotMem[k],
                         "run " + std::to_string(i));
    }
    // At most one engine per run that was in flight at once.
    EXPECT_GE(b.program->idleEngines(), 1u);
    EXPECT_LE(b.program->idleEngines(),
              static_cast<size_t>(kThreads));
}

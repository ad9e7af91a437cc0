/**
 * @file
 * Observability-layer tests (src/trace/).
 *
 * The load-bearing claims, each enforced here:
 *   - the dense-scan and ready-list schedulers emit *identical*
 *     event streams through SimObserver (order included), so a
 *     trace is scheduler-independent;
 *   - event counts reconcile exactly with SimStats;
 *   - attaching an observer never perturbs the simulation itself;
 *   - the Chrome-trace sink writes syntactically valid JSON whose
 *     span/instant counts reconcile with SimStats;
 *   - the stall-timeline sink's totals and per-interval buckets
 *     reconcile with SimStats;
 *   - the stderr text trace (RunOptions::trace) is the same under
 *     both schedulers and lists every counted fire and stall.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>

#include "base/logging.hh"
#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "sim/simulator.hh"
#include "trace/chrome_trace.hh"
#include "trace/observer.hh"
#include "trace/recording.hh"
#include "trace/stall_timeline.hh"
#include "workloads/kernels.hh"

#include "shipped_kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sim::SimConfig;
using trace::RecordingObserver;
using Word = sir::Word;

namespace {

workloads::KernelInstance
spmvKernel()
{
    return shipped::loadSirKernel("spmv.sir", {{"n", 4}},
                         {{"rowptr", {0, 2, 3, 5, 6}},
                          {"colidx", {0, 2, 1, 0, 3, 2}},
                          {"val", {5, 1, 7, 2, 4, 3}},
                          {"x", {1, 2, 3, 4}}});
}

/** Simulate @p kernel with @p observer attached (may be null). */
sim::SimResult
runWith(const workloads::KernelInstance &kernel,
        SimConfig::Scheduler sched, trace::SimObserver *observer,
        scalar::MemImage &memOut,
        ArchVariant variant = ArchVariant::Pipestitch)
{
    compiler::CompileOptions opts;
    opts.variant = variant;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        opts);
    auto cfg = res.simConfig;
    cfg.scheduler = sched;
    cfg.maxCycles = 500000;
    cfg.observer = observer;
    memOut = kernel.memory;
    memOut.resize(static_cast<size_t>(kernel.prog.memWords));
    return sim::simulate(res.graph, memOut, cfg);
}

void
expectSameKeyStats(const sim::SimStats &a, const sim::SimStats &b,
                   const std::string &tag)
{
#define PS_EQ(field) EXPECT_EQ(a.field, b.field) << tag << " " #field
    PS_EQ(cycles);
    PS_EQ(nodeFires);
    PS_EQ(memLoads);
    PS_EQ(memStores);
    PS_EQ(dispatchSpawns);
    PS_EQ(dispatchConts);
    PS_EQ(syncPlaneCycles);
    PS_EQ(stallNoInput);
    PS_EQ(stallNoSpace);
    PS_EQ(bankConflictStalls);
#undef PS_EQ
}

/**
 * Minimal JSON syntax checker (no semantics, no numbers beyond the
 * grammar) so the ctest suite can validate emitted documents
 * without an external JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i == s.size();
    }

  private:
    const std::string &s;
    size_t i = 0;

    void
    skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                s[i] == '\r'))
            i++;
    }

    bool
    lit(const char *word)
    {
        size_t n = std::strlen(word);
        if (s.compare(i, n, word) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        i++;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                i++;
                if (i >= s.size())
                    return false;
                if (s[i] == 'u') {
                    if (i + 4 >= s.size())
                        return false;
                    i += 4;
                }
            }
            i++;
        }
        if (i >= s.size())
            return false;
        i++; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            i++;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            i++;
        return i > start;
    }

    bool
    value()
    {
        skipWs();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{': {
            i++;
            skipWs();
            if (i < s.size() && s[i] == '}') {
                i++;
                return true;
            }
            while (true) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (i >= s.size() || s[i] != ':')
                    return false;
                i++;
                if (!value())
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    i++;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != '}')
                return false;
            i++;
            return true;
          }
          case '[': {
            i++;
            skipWs();
            if (i < s.size() && s[i] == ']') {
                i++;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    i++;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != ']')
                return false;
            i++;
            return true;
          }
          case '"': return string();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }
};

/** spmv plus every small workload kernel (threaded ones included):
 *  the corpus all stream-identity tests run over. */
std::vector<workloads::KernelInstance>
corpus()
{
    setQuiet(true);
    std::vector<workloads::KernelInstance> kernels;
    kernels.push_back(spmvKernel());
    for (auto &k : workloads::smallKernels(1))
        kernels.push_back(std::move(k));
    return kernels;
}

int64_t
sumFires(const sim::SimStats &s)
{
    int64_t total = 0;
    for (int64_t f : s.nodeFires)
        total += f;
    return total;
}

} // namespace

TEST(TraceParity, SchedulersEmitIdenticalEventStreams)
{
    // Destination (Pipestitch) and source (RipTide) buffering.
    for (auto variant :
         {ArchVariant::Pipestitch, ArchVariant::RipTide}) {
        for (const auto &kernel : corpus()) {
            RecordingObserver dense, ready;
            scalar::MemImage denseMem, readyMem;
            auto denseRes = runWith(kernel,
                                    SimConfig::Scheduler::DenseScan,
                                    &dense, denseMem, variant);
            auto readyRes = runWith(kernel,
                                    SimConfig::Scheduler::ReadyList,
                                    &ready, readyMem, variant);
            expectSameKeyStats(denseRes.stats, readyRes.stats,
                               kernel.name);
            EXPECT_TRUE(sim::statsEqual(denseRes.stats, readyRes.stats))
                << kernel.name;
            EXPECT_EQ(denseMem, readyMem) << kernel.name;
            EXPECT_TRUE(dense.simEnded);
            EXPECT_TRUE(ready.simEnded);

            // The ordered stream must match event for event.
            ASSERT_EQ(dense.events.size(), ready.events.size())
                << kernel.name;
            for (size_t i = 0; i < dense.events.size(); i++) {
                if (!(dense.events[i] == ready.events[i])) {
                    FAIL() << kernel.name << " event " << i
                           << " diverges: dense "
                           << dense.describe(dense.events[i])
                           << " vs ready "
                           << ready.describe(ready.events[i]);
                }
            }
            // SyncPlane activity is cycle-granular (see recording.hh);
            // the cycle lists must still agree exactly.
            EXPECT_EQ(dense.syncPlaneCycles, ready.syncPlaneCycles)
                << kernel.name;
        }
    }
}

TEST(TraceParity, EventCountsReconcileWithStats)
{
    for (const auto &kernel : corpus()) {
        RecordingObserver rec;
        scalar::MemImage mem;
        auto res = runWith(kernel, SimConfig::Scheduler::ReadyList,
                           &rec, mem);
        ASSERT_FALSE(res.deadlocked) << kernel.name;
        const auto &s = res.stats;
        using Kind = RecordingObserver::Kind;
        EXPECT_EQ(rec.count(Kind::Fire), sumFires(s))
            << kernel.name;
        EXPECT_EQ(rec.count(Kind::Mem), s.memLoads + s.memStores)
            << kernel.name;
        EXPECT_EQ(rec.count(Kind::Dispatch),
                  s.dispatchSpawns + s.dispatchConts)
            << kernel.name;
        EXPECT_EQ(rec.count(Kind::Stall),
                  s.stallNoInput + s.stallNoSpace +
                      s.bankConflictStalls)
            << kernel.name;
        EXPECT_EQ(static_cast<int64_t>(rec.syncPlaneCycles.size()),
                  s.syncPlaneCycles)
            << kernel.name;
    }
}

TEST(TraceParity, ObserverDoesNotPerturbSimulation)
{
    for (auto sched : {SimConfig::Scheduler::DenseScan,
                       SimConfig::Scheduler::ReadyList}) {
        auto kernel = spmvKernel();
        scalar::MemImage bareMem, obsMem;
        auto bare = runWith(kernel, sched, nullptr, bareMem);
        RecordingObserver rec;
        auto observed = runWith(kernel, sched, &rec, obsMem);
        expectSameKeyStats(bare.stats, observed.stats, "perturb");
        EXPECT_EQ(bareMem, obsMem);
        EXPECT_GT(rec.events.size(), 0u);
    }
}

TEST(TraceSinks, ChromeTraceJsonParsesAndReconciles)
{
    auto kernel = spmvKernel();
    trace::ChromeTraceSink sink;
    scalar::MemImage mem;
    auto res = runWith(kernel, SimConfig::Scheduler::ReadyList,
                       &sink, mem);
    ASSERT_FALSE(res.deadlocked);

    EXPECT_EQ(sink.spanCount(), sumFires(res.stats));
    EXPECT_EQ(sink.instantCount(),
              res.stats.dispatchSpawns + res.stats.dispatchConts +
                  res.stats.memLoads + res.stats.memStores);

    std::ostringstream out;
    sink.write(out);
    std::string json = out.str();
    EXPECT_TRUE(JsonChecker(json).valid())
        << "not valid JSON:\n"
        << json.substr(0, 400);
    // Spot-check the Trace Event Format essentials.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TraceSinks, StallTimelineReconciles)
{
    auto kernel = spmvKernel();
    trace::StallTimelineSink sink(8); // small interval: many buckets
    scalar::MemImage mem;
    auto res = runWith(kernel, SimConfig::Scheduler::ReadyList,
                       &sink, mem);
    ASSERT_FALSE(res.deadlocked);

    const auto &s = res.stats;
    EXPECT_EQ(sink.totalFires(), sumFires(s));
    EXPECT_EQ(sink.totalStalls(trace::StallReason::NoInput),
              s.stallNoInput);
    EXPECT_EQ(sink.totalStalls(trace::StallReason::NoSpace),
              s.stallNoSpace);
    EXPECT_EQ(sink.totalStalls(trace::StallReason::BankConflict),
              s.bankConflictStalls);

    // Bucket-by-bucket sums must equal the totals (nothing lost in
    // interval bookkeeping).
    int64_t fires = 0, stalls = 0;
    for (size_t n = 0; n < s.nodeFires.size(); n++) {
        for (int b = 0; b < sink.numIntervals(); b++) {
            const auto &bk =
                sink.at(static_cast<dfg::NodeId>(n), b);
            fires += bk.fires;
            stalls += bk.noInput + bk.noSpace + bk.bankConflict;
        }
    }
    EXPECT_EQ(fires, sink.totalFires());
    EXPECT_EQ(stalls,
              s.stallNoInput + s.stallNoSpace +
                  s.bankConflictStalls);

    std::ostringstream out;
    sink.writeJson(out);
    EXPECT_TRUE(JsonChecker(out.str()).valid());
    EXPECT_FALSE(sink.toString().empty());
}

TEST(TraceSinks, SinkOutputsMatchAcrossEngines)
{
    // The rendered Chrome trace and stall timeline are functions of
    // the event stream, so the fast engine must reproduce the
    // DenseScan oracle's files byte for byte.
    for (auto variant :
         {ArchVariant::Pipestitch, ArchVariant::RipTide}) {
        for (const auto &kernel : corpus()) {
            std::string chromeJson[2], stallJson[2];
            int k = 0;
            for (auto sched : {SimConfig::Scheduler::DenseScan,
                               SimConfig::Scheduler::ReadyList}) {
                trace::ChromeTraceSink chrome;
                trace::StallTimelineSink stalls(8);
                trace::ObserverList list;
                list.add(&chrome);
                list.add(&stalls);
                scalar::MemImage mem;
                runWith(kernel, sched, &list, mem, variant);
                std::ostringstream c, t;
                chrome.write(c);
                stalls.writeJson(t);
                chromeJson[k] = c.str();
                stallJson[k] = t.str();
                k++;
            }
            EXPECT_EQ(chromeJson[0], chromeJson[1]) << kernel.name;
            EXPECT_EQ(stallJson[0], stallJson[1]) << kernel.name;
        }
    }
}

TEST(TraceSinks, ObserverListFansOutToAllSinks)
{
    auto kernel = spmvKernel();
    RecordingObserver a, b;
    trace::ObserverList list;
    EXPECT_TRUE(list.empty());
    list.add(&a);
    list.add(&b);
    EXPECT_FALSE(list.empty());

    scalar::MemImage mem;
    runWith(kernel, SimConfig::Scheduler::ReadyList, &list, mem);
    ASSERT_GT(a.events.size(), 0u);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.syncPlaneCycles, b.syncPlaneCycles);
    EXPECT_TRUE(a.simEnded);
    EXPECT_TRUE(b.simEnded);
}

namespace {

/** Count the lines of @p text that contain @p what. */
int64_t
countLines(const std::string &text, const char *what)
{
    int64_t n = 0;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        n += line.find(what) != std::string::npos;
    return n;
}

} // namespace

TEST(TraceSinks, TextTraceMatchesAcrossEnginesAndCountsEveryFire)
{
    setQuiet(true);
    struct Case
    {
        std::string tag;
        workloads::KernelInstance kernel;
        int unroll;
        bool timeMultiplex;
    };
    std::vector<Case> cases;
    cases.push_back({"spmv", spmvKernel(), 1, false});
    cases.push_back(
        {"dither/tm", workloads::makeDither(16, 8, 2), 2, true});
    for (const auto &c : cases) {
        compiler::CompileOptions opts;
        opts.unrollFactor = c.unroll;
        auto res = compiler::compileProgram(c.kernel.prog,
                                            c.kernel.liveIns, opts);
        auto cfg = res.simConfig;
        cfg.maxCycles = 500000;
        cfg.trace = true;
        if (c.timeMultiplex) {
            auto groups = compiler::planTimeMultiplexing(
                res.graph, fabric::FabricConfig{});
            ASSERT_FALSE(groups.empty()) << c.tag;
            for (const auto &group : groups)
                cfg.shareGroups.emplace_back(group.begin(),
                                             group.end());
        }
        std::string text[2];
        sim::SimResult result[2];
        int k = 0;
        for (auto sched : {SimConfig::Scheduler::DenseScan,
                           SimConfig::Scheduler::ReadyList}) {
            cfg.scheduler = sched;
            scalar::MemImage mem = c.kernel.memory;
            mem.resize(static_cast<size_t>(c.kernel.prog.memWords));
            testing::internal::CaptureStderr();
            result[k] = sim::simulate(res.graph, mem, cfg);
            text[k] = testing::internal::GetCapturedStderr();
            k++;
        }
        ASSERT_FALSE(result[1].deadlocked) << c.tag;
        EXPECT_TRUE(sim::statsEqual(result[0].stats, result[1].stats))
            << c.tag;
        EXPECT_EQ(text[0], text[1]) << c.tag;
        const auto &s = result[1].stats;
        EXPECT_EQ(countLines(text[1], "] fire "), sumFires(s)) << c.tag;
        EXPECT_EQ(countLines(text[1], "] stall "),
                  s.stallNoInput + s.stallNoSpace +
                      s.bankConflictStalls)
            << c.tag;
    }
}

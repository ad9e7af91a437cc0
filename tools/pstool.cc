/**
 * @file
 * pstool — the command-line driver for the Pipestitch toolchain.
 *
 * Every command is one kCommands entry and every flag one kFlags
 * entry; one loop reads argv against the two, and `pstool help`
 * prints the usage generated from them. A bad value, an unknown flag
 * or a flag the command does not read exits 2 with one line naming
 * the flag. The fabric defaults to the paper's single 8×8 grid;
 * `--fabric=` (docs/fabric.md) retargets any command that maps or
 * simulates.
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>
#include <variant>

#include "analysis/placement.hh"
#include "analysis/throughput.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "compiler/timemux.hh"
#include "compiler/unroll.hh"
#include "core/batch.hh"
#include "core/system.hh"
#include "dfg/dot.hh"
#include "figures/figures.hh"
#include "mapper/tiled.hh"
#include "runner/serve.hh"
#include "trace/json.hh"
#include "workloads/dnn.hh"
#include "workloads/kernels.hh"
#include "runner/sweep.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sir/parser.hh"
#include "sir/printer.hh"
#include "trace/chrome_trace.hh"
#include "trace/observer.hh"
#include "trace/stall_timeline.hh"

#ifndef PSTOOL_BUILD_TYPE
#define PSTOOL_BUILD_TYPE "unknown"
#endif

using namespace pipestitch;

namespace {

/** Everything a command line sets; each command reads its share. */
struct Options
{
    std::string file;
    compiler::ArchVariant variant =
        compiler::ArchVariant::Pipestitch;
    /** From --fabric= and the --tiles= shorthand, in argv order. */
    fabric::Topology topo;
    int depth = 4;
    int unroll = 1;
    bool timeMultiplex = false;
    bool json = false;
    workloads::NamedWords liveIns;
    workloads::NamedArrays inits;
    std::vector<std::string> dumps;
    bool dot = false;
    bool report = false;
    bool trace = false;
    bool noMap = false;
    bool crossCheck = false;
    std::string out; ///< empty: the command's default file
    std::string stallsOut;
    int interval = 256;
    int seeds = 4;
    int jobs = -1; ///< -1: 1 for map, every hardware thread otherwise
    int64_t seed = 1;
    int iterations = 20000;
    bool smoke = false;
    bool noMemo = false;
    std::string outDir;
    std::vector<std::string> only;
    int queue = runner::ServeOptions{}.maxQueue;
    int bench = 0; ///< 0: serve stdin instead of the load generator
    int benchUnique = runner::ServeBenchOptions{}.unique;
    std::string benchOut = "BENCH_serve.json";
    int shards = 8;
    int n = 64;
    double sparsity = 0.2;
    int reps = 2;
};

/** A flag whose value needs more than a range check: false with
 *  @p error on a bad value. */
using Reader = bool (*)(const std::string &value, Options &opts,
                        std::string &error);

/**
 * The field a flag sets; its type is the flag's kind: a switch
 * (bool), an integer or a real in [lo, hi], a string, a list
 * (comma-separated strings, appended), or name=value (one integer
 * for NamedWords, a comma-separated list of them for NamedArrays).
 */
using Field =
    std::variant<bool Options::*, int Options::*, int64_t Options::*,
                 double Options::*, std::string Options::*,
                 std::vector<std::string> Options::*,
                 workloads::NamedWords Options::*,
                 workloads::NamedArrays Options::*, Reader>;

struct Flag
{
    const char *name;
    /** How the value is written after `--name`: "=N" for
     *  `--name=N`, " arr" for the next argument; "" for a switch. */
    const char *arg;
    Field field;
    const char *help;
    /** Accepted range of a number (unused when lo == hi). */
    int64_t lo = 0;
    int64_t hi = 0;
};

constexpr int64_t kIntMax = std::numeric_limits<int>::max();
constexpr int64_t kWordMin = std::numeric_limits<sir::Word>::min();
constexpr int64_t kWordMax = std::numeric_limits<sir::Word>::max();

const Flag kFlags[] = {
    {"variant", "=V",
     [](const std::string &v, Options &o, std::string &error) {
         error = "expected riptide, pipestitch, pipesb, pipecfin or "
                 "pipecfop";
         return compiler::parseArchVariant(v, o.variant);
     },
     "riptide|pipestitch|pipesb|pipecfin|pipecfop"},
    {"fabric", "=S",
     [](const std::string &v, Options &o, std::string &error) {
         return fabric::parseFabricSpec(v, o.topo, &error);
     },
     "WxH[,tiles=TXxTY][,cap=N][,lat=N][,mix=a:m:c:me:s]"},
    {"tiles", "=TXxTY",
     [](const std::string &v, Options &o, std::string &error) {
         return fabric::parseDims(v, "tiles", o.topo.tilesX,
                                  o.topo.tilesY, &error);
     },
     "tile arrangement shorthand"},
    {"depth", "=N", &Options::depth, "buffer depth", 1, kIntMax},
    {"unroll", "=N", &Options::unroll,
     "spatial unroll: a power of two up to the PE count", 1, kIntMax},
    {"tm", "", &Options::timeMultiplex, "time-multiplex cold operators"},
    {"livein", " name=value", &Options::liveIns, "bind a live-in",
     kWordMin, kWordMax},
    {"init", " arr=v0,v1,...", &Options::inits, "initialize an array",
     kWordMin, kWordMax},
    {"dump", " arr", &Options::dumps, "print an array after the run"},
    {"json", "", &Options::json, "machine-readable primary output"},
    {"dot", "", &Options::dot, "print the graph as GraphViz"},
    {"report", "", &Options::report, "per-PE utilization and operators"},
    {"trace", "", &Options::trace, "unmapped run, cycle trace on stderr"},
    {"no-map", "", &Options::noMap, "skip mapping and placement rules"},
    {"cross-check", "", &Options::crossCheck,
     "also simulate; fail if the simulator disagrees"},
    {"out", "=F", &Options::out, "output file"},
    {"stalls", "=F", &Options::stallsOut, "stall-timeline JSON file"},
    {"interval", "=N", &Options::interval, "stall bucket width, cycles",
     1, kIntMax},
    {"seeds", "=N", &Options::seeds, "portfolio restarts", 1, kIntMax},
    {"jobs", "=N", &Options::jobs, "threads, 0: all hardware", 0, 256},
    {"seed", "=N", &Options::seed, "base RNG seed", 0, INT64_MAX},
    {"iters", "=N", &Options::iterations, "anneal budget", 1, kIntMax},
    {"smoke", "", &Options::smoke, "tiny inputs, for CI"},
    {"no-memo", "", &Options::noMemo, "recompute, share nothing"},
    {"out-dir", "=D", &Options::outDir, "also write D/<id>.out"},
    {"only", "=id,id", &Options::only, "render only these figures"},
    {"queue", "=N", &Options::queue, "requests queued or running", 1,
     kIntMax},
    {"bench", "=N", &Options::bench, "N generated requests, not stdin",
     1, 1000000},
    {"bench-unique", "=N", &Options::benchUnique,
     "distinct generated requests", 1, 1000000},
    {"bench-out", "=F", &Options::benchOut,
     "bench record (BENCH_serve.json)"},
    {"shards", "=N", &Options::shards, "SpMV shards", 1, 1024},
    {"n", "=N", &Options::n, "SpMV matrix size", 1, 1024},
    {"sparsity", "=X", &Options::sparsity, "SpMV sparsity", 0, 1},
    {"reps", "=N", &Options::reps, "timed runs, best of", 1, 1000},
};

using ParseResult = sir::ParseResult;

/** The RunConfig every command that prepares a kernel starts from:
 *  variant, depth, unroll, time multiplexing and fabric. */
RunConfig
runConfig(const Options &opts)
{
    RunConfig cfg;
    cfg.variant = opts.variant;
    cfg.sim.bufferDepth = opts.depth;
    cfg.unrollFactor = opts.unroll;
    cfg.allowTimeMultiplex = opts.timeMultiplex;
    cfg.fabric = opts.topo.tile; // per tile; the arrangement alongside
    cfg.tilesX = opts.topo.tilesX;
    cfg.tilesY = opts.topo.tilesY;
    cfg.interTileLatency = opts.topo.interTileLatency;
    cfg.interTileCapacity = opts.topo.interTileCapacity;
    return cfg;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Bind --livein/--init to the parsed kernel; an unknown name or an
 *  over-long --init is fatal (exit 1). */
workloads::KernelInstance
buildKernel(const Options &opts, const ParseResult &parsed,
            bool warnUnbound = true)
{
    workloads::KernelInstance kernel;
    std::vector<std::string> unbound;
    std::string err;
    if (!workloads::bindKernel(parsed, opts.liveIns, opts.inits, kernel,
                               err, warnUnbound ? &unbound : nullptr))
        fatal("%s", err.c_str());
    for (const auto &name : unbound)
        warn("live-in '%s' not bound; using 0", name.c_str());
    return kernel;
}

/** A benchmark record: written to @p path and echoed on stdout. */
void
writeRecord(const std::string &path, const std::string &json)
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot write '%s'", path.c_str());
    f << json << "\n";
    std::printf("%s\n", json.c_str());
}

void
dumpArrays(const Options &opts, const ParseResult &parsed,
           const scalar::MemImage &mem)
{
    for (const auto &name : opts.dumps) {
        auto it = parsed.arrays.find(name);
        if (it == parsed.arrays.end())
            fatal("--dump: no array '%s'", name.c_str());
        const auto &arr = parsed.program.array(it->second);
        std::printf("%s =", name.c_str());
        for (int64_t i = 0; i < arr.words; i++) {
            std::printf(" %d",
                        mem[static_cast<size_t>(arr.base + i)]);
        }
        std::printf("\n");
    }
}

/**
 * Report a failed run and return its exit status: one JSON object
 * under --json, else "kernel: error" on stderr. A memory fault (the
 * kernel indexed past its arrays) is the input's doing; it gets its
 * own status, its location and exit status 3.
 */
int
reportError(const Options &opts, const std::string &kernel,
            const std::string &err, const sim::MemFault &fault = {})
{
    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel)
            .add("status", fault.any() ? "fault" : "error")
            .add("error", err);
        if (fault.any()) {
            r.add("fault_node", fault.node)
                .add("fault_address", fault.addr)
                .add("fault_cycle", fault.cycle);
        }
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::fprintf(stderr, "%s: %s\n", kernel.c_str(), err.c_str());
    }
    return fault.any() ? 3 : 1;
}

int
cmdCompile(const Options &opts, const ParseResult &parsed)
{
    // Live-ins default to 0 for a structure-only compile.
    auto kernel = buildKernel(opts, parsed, /*warnUnbound=*/false);
    std::string err;
    if (!compiler::checkUnrollFactor(opts.unroll, opts.topo, err))
        return reportError(opts, kernel.name, err);
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);
    if (opts.dot) {
        std::printf("%s", dfg::toDot(res.graph).c_str());
        return 0;
    }
    std::printf("program: %s (%s)\n", parsed.program.name.c_str(),
                compiler::archVariantName(opts.variant));
    std::printf("threaded: %s", res.threaded ? "yes (loops" : "no");
    if (res.threaded) {
        for (int l : res.threadedLoops)
            std::printf(" L%d[II=%d]", l,
                        res.loopII[static_cast<size_t>(l)]);
        std::printf(")");
    }
    std::printf("\noperators: %d", res.graph.size());
    auto counts = res.graph.peClassCounts();
    // Fit check against the whole requested fabric (all tiles).
    fabric::FabricConfig fc = opts.topo.globalConfig();
    bool fits = true;
    static const char *names[] = {"arith", "mult", "cf", "mem",
                                  "stream"};
    std::printf("\nPE demand:");
    for (size_t c = 0; c < counts.size(); c++) {
        std::printf(" %s=%d/%d", names[c], counts[c],
                    fc.peMix[c]);
        fits &= counts[c] <= fc.peMix[c];
    }
    std::printf("\nfits %dx%d fabric: %s\n", fc.width, fc.height,
                fits ? "yes" : "no");
    return 0;
}

int
cmdRun(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg = runConfig(opts);
    if (opts.trace) {
        // Trace implies an unmapped functional run to keep output
        // readable; the stderr dump flows straight through the
        // unified sim config.
        cfg.map = false;
        cfg.sim.trace = true;
    }
    std::string err;
    FabricRun run = runOnFabric(kernel, cfg, &err);
    if (!err.empty())
        return reportError(opts, kernel.name, err, run.sim.fault);

    if (opts.json) {
        const auto &st = run.sim.stats;
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("variant",
                 compiler::archVariantName(opts.variant))
            .add("cycles", run.cycles())
            .add("seconds", run.seconds)
            .add("energy_pj", run.energy.totalPj())
            .add("edp_pj_s", run.edp)
            .add("ipc", st.ipc())
            .add("threads", st.dispatchSpawns)
            .add("pe_fires", st.totalPeFires())
            .add("noc_cf_fires", st.nocCfFires)
            .add("mem_loads", st.memLoads)
            .add("mem_stores", st.memStores)
            .add("buffer_writes", st.bufferWrites)
            .add("buffer_reads", st.bufferReads)
            .add("bank_conflicts", st.bankConflictStalls)
            .add("mux_switches", st.muxSwitches)
            .add("threaded", run.compiled().threaded)
            .add("operators", run.compiled().graph.size())
            .add("avg_hops", run.mapping().avgHops);
        if (cfg.tiled()) {
            r.add("tiles_x", cfg.tilesX)
                .add("tiles_y", cfg.tilesY)
                .add("inter_tile_tokens", st.interTileTokens);
        }
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::printf("%s on %s: %lld cycles @%.1f MHz, %.1f pJ, "
                    "IPC %.2f, %lld threads\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    static_cast<long long>(run.cycles()),
                    cfg.fabric.clockMHz, run.energy.totalPj(),
                    run.sim.stats.ipc(),
                    static_cast<long long>(
                        run.sim.stats.dispatchSpawns));
        std::printf("%s\n",
                    sim::reportFor(run.sim.stats)
                        .toString()
                        .c_str());
    }
    if (opts.report) {
        fabric::Fabric fab(opts.topo);
        std::printf("\n%s\n%s",
                    sim::utilizationMap(run.compiled().graph, fab,
                                        run.mapping(), run.sim.stats)
                        .c_str(),
                    sim::operatorReport(run.compiled().graph,
                                        run.sim.stats)
                        .c_str());
    }
    dumpArrays(opts, parsed, run.memory);
    return 0;
}

/**
 * One timed engine sample: a warmup run, then best-of-@p reps on a
 * fresh memory image each time. bench-sim and its --suite mode share
 * this harness so their numbers are comparable by construction.
 */
struct SimTiming
{
    double ms = 0;
    sim::SimResult result;
    scalar::MemImage memory;
};

SimTiming
timeSim(const dfg::Graph &graph,
        const workloads::KernelInstance &kernel,
        const sim::SimConfig &cfg, int reps)
{
    SimTiming t;
    for (int rep = 0; rep < reps + 1; rep++) {
        auto mem = kernel.memory;
        mem.resize(static_cast<size_t>(kernel.prog.memWords));
        auto t0 = std::chrono::steady_clock::now();
        auto r = sim::simulate(graph, mem, cfg);
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        t.result = std::move(r);
        t.memory = std::move(mem);
        if (rep > 0 && (t.ms == 0 || ms < t.ms))
            t.ms = ms;
    }
    return t;
}

/** Fast engine and DenseScan oracle timed on one configuration. */
struct EnginePair
{
    SimTiming dense, fast;
    bool identical = false;
    double speedup() const { return fast.ms > 0 ? dense.ms / fast.ms : 0; }
};

EnginePair
timeEngines(const dfg::Graph &graph,
            const workloads::KernelInstance &kernel,
            sim::SimConfig cfg, int reps)
{
    EnginePair p;
    cfg.scheduler = sim::SimConfig::Scheduler::DenseScan;
    p.dense = timeSim(graph, kernel, cfg, reps);
    cfg.scheduler = sim::SimConfig::Scheduler::ReadyList;
    p.fast = timeSim(graph, kernel, cfg, reps);
    // The engine contract: every stats field, the termination
    // status, the diagnostic and the memory image match the oracle.
    const sim::SimResult &a = p.dense.result;
    const sim::SimResult &b = p.fast.result;
    p.identical = sim::statsEqual(a.stats, b.stats) &&
                  a.deadlocked == b.deadlocked &&
                  a.watchdogExpired == b.watchdogExpired &&
                  a.fault == b.fault &&
                  a.diagnostic == b.diagnostic &&
                  p.dense.memory == p.fast.memory;
    return p;
}

int
cmdBenchSim(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg = runConfig(opts);
    // Placement changes the simulated machine only through a tiled
    // fabric's inter-tile channels, and unmapped single-grid
    // configurations may exceed the fabric.
    cfg.map = cfg.tiled();
    std::string err;
    PreparedPtr prepared = prepareKernel(kernel, cfg, &err);
    if (!prepared)
        return reportError(opts, kernel.name, err);
    const sim::Program &program = *prepared->program;
    EnginePair p = timeEngines(program.graph(), kernel, program.config(),
                               /*reps=*/3);
    if (!p.identical)
        fatal("fast engine diverges from the DenseScan oracle on %s",
              kernel.name.c_str());
    const sim::SimResult &run = p.fast.result;

    // The same analyzer/simulator cross-check executeOnFabric
    // applies (both engines at once, by identity).
    CrossCheck check =
        crossCheck(prepared->analysis, prepared->bound, run);
    if (!check.disagreement.empty())
        fatal("%s: %s", kernel.name.c_str(),
              check.disagreement.c_str());

    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("nodes", program.graph().size())
            .add("share_groups",
                 static_cast<int64_t>(
                     program.config().shareGroups.size()))
            .add("cycles", run.stats.cycles)
            .add("bound_cycles", check.boundEval.certifiedCycles)
            .add("dense_ms", p.dense.ms)
            .add("ready_ms", p.fast.ms)
            .add("speedup", p.speedup())
            .add("identical", true);
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::printf("%s: %d operators, %lld cycles\n"
                    "  dense-scan  %9.3f ms\n"
                    "  fast        %9.3f ms  (%.2fx speedup, "
                    "bit-identical)\n",
                    kernel.name.c_str(), program.graph().size(),
                    static_cast<long long>(run.stats.cycles),
                    p.dense.ms, p.fast.ms, p.speedup());
    }
    return 0;
}

/** `git describe --always --dirty` of the working directory, or
 *  "unknown" outside a git checkout. */
std::string
gitDescribe()
{
    std::string out;
    if (FILE *p = popen("git describe --always --dirty 2>/dev/null",
                        "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof buf, p))
            out += buf;
        if (pclose(p) != 0)
            out.clear();
    }
    while (!out.empty() && std::isspace(static_cast<unsigned char>(
                               out.back())))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

/**
 * `pstool bench-sim --suite` — the simulator benchmark record. Times
 * the fast engine against the DenseScan oracle on paper-scale
 * kernels, under Pipestitch (destination) and RipTide (source)
 * buffering, checks bit-identity on every row, and writes
 * BENCH_sim_sched.json. Exit is nonzero on any divergence.
 */
int
cmdBenchSimSuite(const Options &opts, const ParseResult &)
{
    const int reps = opts.smoke ? 1 : opts.reps;
    setQuiet(true);

    struct Case
    {
        std::string name;
        workloads::KernelInstance kernel;
        int unroll;
    };
    // Paper-scale means fabric-scale: the _uN suffix is the spatial
    // unroll factor that fills the fabric the way Table 1's mapped
    // kernels do. The DNN's widest layer (784×512 at 97% weight
    // sparsity) is the largest workload in the paper's evaluation.
    std::vector<Case> cases;
    if (opts.smoke) {
        cases.push_back(
            {"spmv_u8", workloads::makeSpmv(64, 0.90, 2), 8});
        cases.push_back(
            {"dither_u8", workloads::makeDither(16, 16, 3), 8});
        // The nested-dispatch graphs, where dormancy and the
        // SyncPlane decision do most of their work.
        cases.push_back(
            {"spmspmd_u8", workloads::makeSpMSpMd(16, 0.8, 4), 8});
        workloads::DnnConfig dc;
        dc.dims = {128, 64, 32, 16, 10};
        auto dnn = workloads::buildDnn(dc);
        cases.push_back(
            {"dnn_layer0_u8",
             workloads::makeSpMSpVdFrom(dnn.weights[0], dnn.input,
                                        "dnn_layer0"),
             8});
    } else {
        cases.push_back(
            {"spmv_u8", workloads::makeSpmv(512, 0.90, 2), 8});
        cases.push_back(
            {"dither_u8", workloads::makeDither(128, 128, 3), 8});
        cases.push_back(
            {"spmspmd_u8", workloads::makeSpMSpMd(64, 0.89, 4), 8});
        cases.push_back(
            {"spmspmd_u32", workloads::makeSpMSpMd(64, 0.89, 4),
             32});
        auto dnn = workloads::buildDnn();
        cases.push_back(
            {"dnn_layer0_u8",
             workloads::makeSpMSpVdFrom(dnn.weights[0], dnn.input,
                                        "dnn_layer0"),
             8});
    }
    bool allIdentical = true;
    std::ostringstream out;
    trace::JsonWriter w(out);
    w.beginObject();
    w.key("schema_version").value(sim::kJsonSchemaVersion);
    w.key("benchmark").value("sim_engine");
    w.key("host_threads")
        .value(static_cast<int64_t>(
            std::thread::hardware_concurrency()));
    w.key("build_type").value(PSTOOL_BUILD_TYPE);
    w.key("git_describe").value(gitDescribe());
    w.key("reps").value(reps);
    w.key("kernels");
    w.beginArray();
    for (const Case &c : cases) {
        for (auto variant : {compiler::ArchVariant::Pipestitch,
                             compiler::ArchVariant::RipTide}) {
            compiler::CompileOptions copts;
            copts.variant = variant;
            copts.unrollFactor = c.unroll;
            auto res = compiler::compileProgram(
                c.kernel.prog, c.kernel.liveIns, copts);
            auto cfg = res.simConfig;
            cfg.maxCycles = 8000000;
            EnginePair p = timeEngines(res.graph, c.kernel, cfg, reps);
            allIdentical &= p.identical;
            const char *vname = compiler::archVariantName(variant);
            w.beginObject();
            w.key("kernel").value(c.name);
            w.key("variant").value(vname);
            w.key("unroll").value(c.unroll);
            w.key("nodes").value(res.graph.size());
            w.key("cycles").value(p.fast.result.stats.cycles);
            w.key("dense_ms").value(p.dense.ms);
            w.key("ready_ms").value(p.fast.ms);
            w.key("speedup").value(p.speedup());
            w.key("identical").value(p.identical);
            w.endObject();
            std::fprintf(stderr,
                         "bench-sim %-13s %-10s dense=%9.3f ms  "
                         "fast=%9.3f ms  %.2fx  %s\n",
                         c.name.c_str(), vname, p.dense.ms, p.fast.ms,
                         p.speedup(),
                         p.identical ? "bit-identical" : "DIVERGED");
        }
    }
    w.endArray();
    w.key("all_identical").value(allIdentical);
    w.endObject();

    writeRecord(opts.out.empty() ? "BENCH_sim_sched.json" : opts.out,
                out.str());
    return allIdentical ? 0 : 1;
}

int
cmdTrace(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg = runConfig(opts);
    cfg.map = cfg.tiled(); // as bench-sim
    // Unanalyzed, so that a graph the analyzer rejects — a
    // deadlocking one above all — can still be traced.
    cfg.analyze = false;
    std::string err;
    PreparedPtr prepared = prepareKernel(kernel, cfg, &err);
    if (!prepared)
        return reportError(opts, kernel.name, err);

    trace::ChromeTraceSink chrome;
    trace::StallTimelineSink stalls(opts.interval);
    trace::ObserverList sinks;
    sinks.add(&chrome);
    sinks.add(&stalls);
    cfg.sim.observer = &sinks;
    const sim::SimResult r =
        simulateOnFabric(*prepared, kernel, cfg).sim;
    if (r.deadlocked) {
        // Still write the trace — it is exactly what you want for
        // diagnosing the deadlock — but fail the invocation.
        warn("simulation did not retire cleanly: %s",
             r.diagnostic.c_str());
    }

    // Reconcile the event stream against SimStats before trusting
    // the trace (tested in tests/test_trace.cc, re-checked on every
    // invocation because it is cheap and load-bearing).
    int64_t totalFires = 0;
    for (int64_t f : r.stats.nodeFires)
        totalFires += f;
    int64_t expectInstants = r.stats.dispatchSpawns +
                             r.stats.dispatchConts +
                             r.stats.memLoads + r.stats.memStores;
    if (chrome.spanCount() != totalFires ||
        chrome.instantCount() != expectInstants) {
        fatal("trace diverges from SimStats: %lld spans vs %lld "
              "fires, %lld instants vs %lld dispatch+mem events",
              static_cast<long long>(chrome.spanCount()),
              static_cast<long long>(totalFires),
              static_cast<long long>(chrome.instantCount()),
              static_cast<long long>(expectInstants));
    }

    std::string outFile = opts.out.empty()
                              ? kernel.name + ".trace.json"
                              : opts.out;
    {
        std::ofstream f(outFile);
        if (!f)
            fatal("cannot write '%s'", outFile.c_str());
        chrome.write(f);
    }
    if (!opts.stallsOut.empty()) {
        std::ofstream f(opts.stallsOut);
        if (!f)
            fatal("cannot write '%s'", opts.stallsOut.c_str());
        stalls.writeJson(f);
    }

    // A watchdog expiry is not a deadlock: the fabric was still
    // making progress when maxCycles elapsed. Report (and exit)
    // distinctly so callers never mistake a slow kernel for a
    // certified deadlock.
    const char *status = !r.deadlocked        ? "ok"
                         : r.fault.any()     ? "fault"
                         : r.watchdogExpired ? "watchdog"
                                             : "deadlock";
    sim::Report report = sim::reportFor(r.stats);
    report.add("trace_file", outFile)
        .add("spans", chrome.spanCount())
        .add("instants", chrome.instantCount())
        .add("status", status)
        .add("deadlocked",
             r.deadlocked && !r.watchdogExpired && !r.fault.any())
        .add("watchdog_expired", r.watchdogExpired);
    if (opts.json) {
        report.add("schema_version", sim::kJsonSchemaVersion);
        std::printf("%s\n", report.toJson().c_str());
    } else {
        std::printf("%s\n", report.toString().c_str());
        std::printf("wrote %s (%lld spans, %lld instants); open "
                    "in chrome://tracing or ui.perfetto.dev\n\n",
                    outFile.c_str(),
                    static_cast<long long>(chrome.spanCount()),
                    static_cast<long long>(chrome.instantCount()));
        std::printf("%s", stalls.toString().c_str());
    }
    // 0 = clean, 1 = quiesced deadlock, 3 = memory fault,
    // 4 = watchdog expiry.
    if (!r.deadlocked)
        return 0;
    if (r.fault.any())
        return 3;
    return r.watchdogExpired ? 4 : 1;
}

/**
 * `pstool lint` — the static analyzer as a standalone gate. Prepares
 * the kernel as `pstool run` does (unmapped under --no-map), runs
 * the graph passes (PS-S/D/B/T rules) and, when placed, the
 * placement rules (PS-P), and prints every diagnostic plus the
 * verdict summary. With --cross-check it also simulates the prepared
 * machine and applies crossCheck: a graph the analyzer certified
 * deadlock-free must retire cleanly, above the certified bound, or
 * the invocation fails with a disagreement diagnosis. Exit status is
 * 0 only when the report is clean (and, when cross-checking, the
 * models agree).
 */
int
cmdLint(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg = runConfig(opts);
    cfg.map = !opts.noMap;
    // Unanalyzed, so that every diagnostic is reported below whatever
    // the verdict.
    cfg.analyze = false;
    std::string err;
    PreparedPtr prepared = prepareKernel(kernel, cfg, &err);
    if (!prepared)
        return reportError(opts, kernel.name, err);
    const dfg::Graph &graph = prepared->compiled->graph;

    analysis::AnalysisOptions aopts;
    aopts.bufferDepth = opts.depth;
    analysis::AnalysisReport report =
        analysis::analyzeGraph(graph, aopts);
    if (prepared->mapped) {
        analysis::PlacementLintOptions popts;
        popts.shareGroups = prepared->simCfg.shareGroups;
        analysis::lintPlacement(graph, fabric::Fabric(prepared->topo),
                                prepared->mapping, report, popts);
    }

    bool simDeadlocked = false;
    bool simWatchdog = false;
    bool simFault = false;
    bool disagree = false;
    int64_t boundCycles = 0;
    int64_t simCycles = 0;
    bool boundHolds = true;
    if (opts.crossCheck) {
        // The machine `pstool run` simulates: time-multiplexed,
        // mapped and tiled as prepared.
        const sim::SimResult r =
            simulateOnFabric(*prepared, kernel, cfg).sim;
        CrossCheck check = crossCheck(
            report, analysis::computeBound(*prepared->program), r);
        simWatchdog = r.watchdogExpired;
        simFault = r.fault.any();
        simDeadlocked = r.deadlocked && !simWatchdog && !simFault;
        disagree = !check.disagreement.empty();
        boundCycles = check.boundEval.certifiedCycles;
        simCycles = r.stats.cycles;
        boundHolds = check.boundEval.holds(simCycles);
        if (disagree && !opts.json) {
            std::fprintf(stderr, "cross-check: %s\n",
                         check.disagreement.c_str());
        }
    }

    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("variant", compiler::archVariantName(opts.variant))
            .add("operators", graph.size())
            .add("crossChecked", opts.crossCheck)
            .add("simDeadlocked", simDeadlocked)
            .add("simWatchdogExpired", simWatchdog)
            .add("simFault", simFault)
            .add("boundCycles", boundCycles)
            .add("boundHolds", boundHolds)
            .add("agree", !disagree);
        std::string json = r.toJson();
        json.insert(json.size() - 1,
                    ",\"analysis\":" + report.toJson(graph));
        std::printf("%s\n", json.c_str());
    } else {
        std::printf("%s on %s: %d operator(s)\n%s\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    graph.size(), report.toString(graph).c_str());
        if (opts.crossCheck) {
            std::printf("cross-check: simulator %s; %s\n",
                        simDeadlocked ? "deadlocked"
                        : simWatchdog ? "hit the cycle watchdog"
                        : simFault    ? "hit a memory fault"
                                      : "retired cleanly",
                        disagree ? "DISAGREES with the analyzer"
                                 : "agrees with the analyzer");
            if (!simDeadlocked && !simWatchdog && !simFault) {
                std::printf("cross-check: certified bound %lld <= "
                            "simulated %lld cycles: %s\n",
                            static_cast<long long>(boundCycles),
                            static_cast<long long>(simCycles),
                            boundHolds ? "holds" : "VIOLATED");
            }
        }
    }
    return (report.ok() && !disagree) ? 0 : 1;
}

/**
 * `pstool bound` — the static throughput-bound analysis (the PS-T
 * rule family's quantitative half) as a standalone report. Runs the
 * kernel through the standard prepare+execute pipeline, so the bound
 * is built and evaluated exactly the way executeOnFabric
 * cross-checks it on every analyzed run, then renders every bound
 * term with its evaluated cycle floor and names the binding
 * constraint plus the hint for lifting it. Tightness is
 * bound/simulated: 1.0 means the bound explains every simulated
 * cycle. Exit is nonzero when the run fails — including when the
 * simulation beats the certified bound, which executeOnFabric
 * reports as an analyzer/simulator disagreement.
 */
int
cmdBound(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg = runConfig(opts);
    std::string err;
    FabricRun run = runOnFabric(kernel, cfg, &err);
    if (!err.empty())
        return reportError(opts, kernel.name, err);

    const sim::BoundReport &bound = run.bound();
    const sim::BoundReport::Evaluation &ev = run.boundEval;
    const int64_t simCycles = run.cycles();
    const double tightness =
        simCycles > 0 ? static_cast<double>(ev.certifiedCycles) /
                            static_cast<double>(simCycles)
                      : 0.0;
    const sim::BoundTerm *bind =
        ev.binding >= 0
            ? &bound.terms[static_cast<size_t>(ev.binding)]
            : nullptr;

    if (opts.json) {
        std::ostringstream out;
        trace::JsonWriter w(out);
        w.beginObject();
        w.key("schema_version").value(sim::kJsonSchemaVersion);
        w.key("kernel").value(kernel.name);
        w.key("variant")
            .value(compiler::archVariantName(opts.variant));
        w.key("bound_cycles").value(ev.certifiedCycles);
        w.key("advisory_cycles").value(ev.advisoryCycles);
        w.key("sim_cycles").value(simCycles);
        w.key("tightness").value(tightness);
        w.key("holds").value(ev.holds(simCycles));
        if (bind) {
            w.key("binding");
            w.beginObject();
            w.key("kind").value(sim::boundTermKindName(bind->kind));
            w.key("node").value(
                ev.perTerm[static_cast<size_t>(ev.binding)].node);
            w.key("detail").value(bind->detail);
            w.key("hint").value(bind->hint);
            w.endObject();
        }
        w.key("terms");
        w.beginArray();
        for (size_t i = 0; i < bound.terms.size(); i++) {
            const sim::BoundTerm &t = bound.terms[i];
            w.beginObject();
            w.key("kind").value(sim::boundTermKindName(t.kind));
            w.key("certified").value(t.certified);
            w.key("cycles").value(ev.perTerm[i].cycles);
            w.key("node").value(ev.perTerm[i].node);
            w.key("binding")
                .value(static_cast<int>(i) == ev.binding);
            w.key("detail").value(t.detail);
            w.key("hint").value(t.hint);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::printf("%s\n", out.str().c_str());
    } else {
        std::printf("%s on %s: certified bound %lld cycles, "
                    "simulated %lld (tightness %.0f%%)\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    static_cast<long long>(ev.certifiedCycles),
                    static_cast<long long>(simCycles),
                    tightness * 100);
        if (bind) {
            std::printf("binding constraint (%s): %s\n  hint: %s\n",
                        sim::boundTermKindName(bind->kind),
                        bind->detail.c_str(), bind->hint.c_str());
        }
        for (size_t i = 0; i < bound.terms.size(); i++) {
            const sim::BoundTerm &t = bound.terms[i];
            std::printf("  %c %-11s %8lld%s  %s\n",
                        static_cast<int>(i) == ev.binding ? '*'
                                                          : ' ',
                        sim::boundTermKindName(t.kind),
                        static_cast<long long>(ev.perTerm[i].cycles),
                        t.certified ? "" : " (advisory)",
                        t.detail.c_str());
        }
    }
    return 0;
}

/**
 * `pstool map` — the portfolio mapper as a standalone gate. Compiles
 * the kernel, maps it with the requested portfolio width (and, on a
 * tiled fabric, tile thread count), and reports placement quality
 * plus wall-clock. The emitted
 * mapping is re-checked with the placement lint (PS-P rules) before
 * the command reports success, so a clean exit certifies both "it
 * maps" and "the placement is legal". On failure the structured
 * error names the implicated nodes.
 */
int
cmdMap(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    fabric::Fabric fab(opts.topo);
    std::string err;
    if (!compiler::checkUnrollFactor(opts.unroll, opts.topo, err))
        return reportError(opts, kernel.name, err);
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    copts.bufferDepth = opts.depth;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);

    compiler::ShareGroups shareGroups;
    if (opts.timeMultiplex) {
        shareGroups =
            compiler::planTimeMultiplexing(res.graph, fab.config());
    }

    const int jobs = opts.jobs < 0 ? 1 : opts.jobs;
    mapper::MapperOptions mopts;
    mopts.rngSeed = static_cast<uint64_t>(opts.seed);
    mopts.portfolioSeeds = opts.seeds;
    mopts.jobs = jobs;
    mopts.annealIterations = opts.iterations;
    mopts.shareGroups = shareGroups;

    const bool tiled = !opts.topo.singleTile();
    int64_t cutEdges = 0;
    int interTileLoadMax = 0;
    int partitionAttempts = 0;
    auto t0 = std::chrono::steady_clock::now();
    mapper::Mapping mapping;
    if (tiled) {
        mapper::TiledMapping tm =
            mapper::mapGraphTiled(res.graph, opts.topo, mopts);
        mapping = std::move(tm.merged);
        cutEdges = tm.cutEdges;
        interTileLoadMax = tm.interTileLoadMax;
        partitionAttempts = tm.attempts;
    } else {
        mapping = mapper::mapGraph(res.graph, fab, mopts);
    }
    double mapMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    bool lintClean = false;
    std::string lintText;
    if (mapping.success) {
        analysis::AnalysisReport report;
        analysis::PlacementLintOptions popts;
        popts.shareGroups = shareGroups;
        analysis::lintPlacement(res.graph, fab, mapping, report,
                                popts);
        lintClean = report.ok();
        if (!lintClean)
            lintText = report.toString(res.graph);
    }

    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("variant", compiler::archVariantName(opts.variant))
            .add("operators", res.graph.size())
            .add("seeds", opts.seeds)
            .add("jobs", jobs)
            .add("success", mapping.success)
            .add("lint_clean", lintClean)
            .add("cost", mapping.cost)
            .add("wirelength", mapping.totalWireLength)
            .add("overflow", mapping.congestionOverflow)
            .add("max_link_load", mapping.maxLinkLoad)
            .add("avg_hops", mapping.avgHops)
            .add("winning_seed", mapping.winningSeed)
            .add("early_exits", mapping.seedsEarlyExited)
            .add("map_ms", mapMs);
        if (tiled) {
            r.add("tiles_x", opts.topo.tilesX)
                .add("tiles_y", opts.topo.tilesY)
                .add("cut_edges", cutEdges)
                .add("inter_tile_load_max", interTileLoadMax)
                .add("inter_tile_capacity",
                     opts.topo.interTileCapacity)
                .add("partition_attempts", partitionAttempts);
        }
        if (!mapping.success)
            r.add("error", mapping.error)
                .add("failed_nodes",
                     static_cast<int64_t>(
                         mapping.failedNodes.size()));
        std::printf("%s\n", r.toJson().c_str());
    } else if (mapping.success) {
        std::printf(
            "%s on %s: %d operator(s), %d seed(s) x %d job(s)\n"
            "  cost %.1f (wirelength %lld, overflow %lld), max "
            "link load %d/%d\n"
            "  avg hops %.3f, winning seed %d, %d early exit(s), "
            "%.2f ms\n"
            "  placement lint: %s\n",
            kernel.name.c_str(),
            compiler::archVariantName(opts.variant),
            res.graph.size(), opts.seeds, jobs, mapping.cost,
            static_cast<long long>(mapping.totalWireLength),
            static_cast<long long>(mapping.congestionOverflow),
            mapping.maxLinkLoad, fab.config().linkCapacity,
            mapping.avgHops,
            mapping.winningSeed, mapping.seedsEarlyExited, mapMs,
            lintClean ? "clean" : "DIRTY");
        if (tiled) {
            std::printf(
                "  tiles %dx%d: %lld cut edge(s), boundary load "
                "%d/%d, %d partition attempt(s)\n",
                opts.topo.tilesX, opts.topo.tilesY,
                static_cast<long long>(cutEdges), interTileLoadMax,
                opts.topo.interTileCapacity, partitionAttempts);
        }
        if (!lintClean)
            std::printf("%s\n", lintText.c_str());
    } else {
        std::printf("%s does not map onto the fabric: %s\n",
                    kernel.name.c_str(), mapping.error.c_str());
        if (!mapping.failedNodes.empty()) {
            std::printf("implicated nodes:");
            for (dfg::NodeId id : mapping.failedNodes)
                std::printf(" %d", id);
            std::printf("\n");
        }
    }
    return (mapping.success && lintClean) ? 0 : 1;
}

/**
 * `pstool figures` — the whole evaluation in one process. Every
 * figure renders from src/figures on a shared runner::Runner, so
 * simulations common to several figures run once, mapper placements
 * memoize in memory, and independent runs execute concurrently
 * (--jobs). `--only=id,id` renders a subset; a figure's text is
 * byte-identical for every job count, subset and `--no-memo`.
 */
int
cmdFigures(const Options &opts, const ParseResult &)
{
    runner::RunnerOptions ropts;
    ropts.jobs = opts.jobs;
    ropts.memoize = !opts.noMemo;
    figures::FigureOptions fopts;
    fopts.smoke = opts.smoke;
    const std::vector<std::string> &only = opts.only;
    for (const auto &id : only) {
        if (!figures::findFigure(id))
            fatal("unknown figure '%s'", id.c_str());
    }
    if (!opts.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        if (ec)
            fatal("cannot create '%s': %s", opts.outDir.c_str(),
                  ec.message().c_str());
    }

    setQuiet(true);
    runner::Runner runner(ropts);
    figures::FigureSet set(runner, fopts);

    auto t0 = std::chrono::steady_clock::now();
    if (only.empty()) {
        // Rendering everything: enqueue the full grid up front so
        // the pool is saturated from the start.
        set.prefetch();
    }
    int rendered = 0;
    for (const auto &fig : figures::allFigures()) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), fig.id) ==
                only.end()) {
            continue;
        }
        std::string text = fig.render(set);
        if (!opts.json) {
            if (rendered > 0)
                std::printf("\n");
            std::fputs(text.c_str(), stdout);
        }
        if (!opts.outDir.empty()) {
            std::string path = opts.outDir + "/" + fig.id + ".out";
            std::ofstream f(path);
            if (!f)
                fatal("cannot write '%s'", path.c_str());
            f << text;
        }
        rendered++;
    }
    double wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    auto stats = runner.cache().stats();
    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("figures", rendered)
            .add("jobs", runner.pool().threadCount())
            .add("smoke", fopts.smoke)
            .add("wall_ms", wallMs)
            .add("compile_hits", stats.compileHits)
            .add("compile_computes", stats.compileComputes)
            .add("map_hits", stats.mapHits)
            .add("map_computes", stats.mapComputes)
            .add("prepared_hits", stats.preparedHits)
            .add("prepared_computes", stats.preparedComputes)
            .add("run_dedup_hits", runner.dedupHits())
            .add("sim_dedup_hits", runner.simDedupHits());
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::fprintf(
            stderr,
            "\nrendered %d figure(s) in %.1f s with %d job(s); "
            "compile %lld hit/%lld computed, mapping %lld hit/"
            "%lld computed, %lld duplicate runs shared, %lld "
            "simulations shared\n",
            rendered, wallMs / 1e3, runner.pool().threadCount(),
            static_cast<long long>(stats.compileHits),
            static_cast<long long>(stats.compileComputes),
            static_cast<long long>(stats.mapHits),
            static_cast<long long>(stats.mapComputes),
            static_cast<long long>(runner.dedupHits()),
            static_cast<long long>(runner.simDedupHits()));
    }
    return 0;
}

/**
 * `pstool bench-tiles` — the multi-tile scaling benchmark. Builds
 * @c --shards data-parallel SpMV shards (one CSR structure, fresh
 * dense vectors), then runs the batch through 1×1, 1×2, and 2×2
 * arrangements of the base tile via core runBatch: one mapping
 * prepared once, every tile executing its shard queue on its own
 * thread with a warmed ExecutionState. Emits the scaling curve as
 * JSON (schema_version, per-arrangement total/makespan cycles and
 * modeled speedup) to --out and stdout. `modeled_speedup` of an
 * arrangement is exactly its throughput gain over the single tile,
 * since per-shard cycles are arrangement-invariant.
 */
int
cmdBenchTiles(const Options &opts, const ParseResult &)
{
    setQuiet(true);
    auto shardSet =
        workloads::makeSpmvShards(opts.n, opts.sparsity,
                                  static_cast<uint64_t>(opts.seed),
                                  opts.shards);

    struct Arrangement
    {
        int tx;
        int ty;
    };
    static constexpr Arrangement kArrangements[] = {
        {1, 1}, {1, 2}, {2, 2}};

    std::ostringstream out;
    trace::JsonWriter w(out);
    w.beginObject();
    w.key("schema_version").value(sim::kJsonSchemaVersion);
    w.key("kernel").value(shardSet.front().name);
    w.key("shards").value(opts.shards);
    w.key("tile_width").value(opts.topo.tile.width);
    w.key("tile_height").value(opts.topo.tile.height);
    w.key("inter_tile_latency").value(opts.topo.interTileLatency);
    w.key("configs");
    w.beginArray();
    for (const Arrangement &a : kArrangements) {
        RunConfig cfg = runConfig(opts); // bench-tiles reads only --fabric
        cfg.tilesX = a.tx;
        cfg.tilesY = a.ty;
        cfg.quiet = true;
        std::string err;
        BatchRun batch = runBatch(shardSet, cfg, &err);
        if (!batch.success) {
            std::fprintf(stderr, "bench-tiles %dx%d: %s\n", a.tx,
                         a.ty, err.c_str());
            return 1;
        }
        w.beginObject();
        w.key("tiles_x").value(a.tx);
        w.key("tiles_y").value(a.ty);
        w.key("tiles").value(batch.tiles);
        w.key("total_cycles").value(batch.totalCycles);
        w.key("makespan_cycles").value(batch.makespanCycles);
        w.key("modeled_speedup").value(batch.modeledSpeedup);
        w.key("seconds").value(batch.seconds);
        w.key("wall_s").value(batch.wallSeconds);
        w.endObject();
        std::fprintf(stderr,
                     "bench-tiles %dx%d: %lld shard(s), makespan "
                     "%lld cycles, %.2fx\n",
                     a.tx, a.ty, static_cast<long long>(opts.shards),
                     static_cast<long long>(batch.makespanCycles),
                     batch.modeledSpeedup);
    }
    w.endArray();
    w.endObject();

    writeRecord(opts.out.empty() ? "BENCH_tiles.json" : opts.out,
                out.str());
    return 0;
}

/**
 * `pstool serve` — a resident simulation service (runner/serve.hh):
 * one JSON request per stdin line, one JSON response per stdout
 * line, executed concurrently on a bounded thread-pool queue with
 * content dedup onto the shared MemoCache. `--bench=N` runs the
 * built-in load generator instead (`--bench-unique=N` distinct
 * request contents, default 32) and writes the throughput/latency
 * record to --bench-out (default BENCH_serve.json).
 */
int
cmdServe(const Options &opts, const ParseResult &)
{
    const runner::ServeOptions sopts{opts.jobs, opts.queue, opts.topo};
    if (opts.bench > 0) {
        writeRecord(opts.benchOut,
                    runner::runServeBench(
                        sopts, {opts.bench, opts.benchUnique}));
        return 0;
    }
    runner::ServeServer server(sopts);
    int rc = runner::serveLoop(server, std::cin, std::cout);
    runner::ServeStats st = server.stats();
    std::fprintf(
        stderr,
        "serve: %lld received, %lld executed, %lld dedup hits, "
        "%lld rejected, %lld bad, peak queue %lld, "
        "%lld parse hits, %lld parse misses\n",
        static_cast<long long>(st.received),
        static_cast<long long>(st.completed),
        static_cast<long long>(st.dedupHits),
        static_cast<long long>(st.rejected),
        static_cast<long long>(st.badRequests),
        static_cast<long long>(st.peakQueued),
        static_cast<long long>(st.parseHits),
        static_cast<long long>(st.parseMisses));
    return rc;
}

int
cmdScalar(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    ScalarRun run = runOnScalar(kernel);
    std::printf("%s on %s: %.0f cycles, %.1f pJ, %lld instrs\n",
                kernel.name.c_str(),
                scalar::riptideScalarProfile().name.c_str(),
                run.cycles, run.energy.totalPj(),
                static_cast<long long>(run.counts.total()));
    dumpArrays(opts, parsed, run.memory);
    return 0;
}

struct Command
{
    /** argv[1], or argv[1] and argv[2] ("bench-sim --suite", so
     *  listed before "bench-sim"). */
    const char *name;
    bool takesFile;
    /** The flags the handler reads, by name. */
    const char *flags;
    const char *help;
    int (*handler)(const Options &, const ParseResult &);
};

/** The flags of every command that prepares a kernel. */
#define PREPARE_FLAGS "variant depth unroll tm fabric tiles livein init json "

const Command kCommands[] = {
    {"compile", true, "variant unroll fabric tiles livein init dot",
     "compile and report threading/II/operator-count/fabric fit",
     cmdCompile},
    {"run", true, PREPARE_FLAGS "report trace dump",
     "compile, map, simulate, verify against the interpreter", cmdRun},
    {"scalar", true, "livein init dump",
     "run the sequential interpreter only", cmdScalar},
    {"bench-sim --suite", false, "smoke reps out",
     "fast engine vs dense-scan oracle on paper-scale kernels, "
     "bit-identity checked (default BENCH_sim_sched.json)",
     cmdBenchSimSuite},
    {"bench-sim", true, PREPARE_FLAGS,
     "time the fast engine against the dense-scan oracle; exits "
     "nonzero unless the runs are bit-identical",
     cmdBenchSim},
    {"trace", true, PREPARE_FLAGS "out stalls interval",
     "simulate under observation; write Chrome-trace JSON and stall "
     "attribution",
     cmdTrace},
    {"lint", true, PREPARE_FLAGS "no-map cross-check",
     "run the static analyzer (deadlock/balance/placement rules); "
     "nonzero exit on any error diagnostic",
     cmdLint},
    {"bound", true, PREPARE_FLAGS,
     "the certified throughput bound against the simulated run, its "
     "terms and fix hint; nonzero exit if the simulation beats it",
     cmdBound},
    {"map", true, PREPARE_FLAGS "seeds jobs seed iters",
     "run the portfolio mapper alone; report placement quality and "
     "wall-clock, nonzero exit on failure or dirty placement lint",
     cmdMap},
    {"figures", false, "jobs smoke no-memo out-dir only json",
     "reproduce every paper figure in one process", cmdFigures},
    {"serve", false, "jobs queue fabric bench bench-unique bench-out",
     "resident simulation daemon: JSON requests on stdin, responses "
     "on stdout (docs/serve.md)",
     cmdServe},
    {"bench-tiles", false, "shards n sparsity seed fabric out",
     "batched SpMV shards on 1x1/1x2/2x2 tiles; writes the scaling "
     "curve (default BENCH_tiles.json)",
     cmdBenchTiles},
};

/** The words of a space-separated table string. */
std::vector<std::string>
words(const char *text)
{
    std::istringstream in(text);
    std::vector<std::string> out;
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** " [lo, hi]" for a number flag, else "". */
std::string
range(const Flag &f)
{
    return f.lo == f.hi ? ""
                        : csprintf(" [%lld, %lld]",
                                   static_cast<long long>(f.lo),
                                   static_cast<long long>(f.hi));
}

const Flag *
findFlag(const std::string &name)
{
    for (const Flag &f : kFlags) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

/** @p tokens appended to @p out, space-separated and broken into
 *  lines before column 76, continuation lines indented by @p indent. */
void
appendWrapped(std::string &out, const std::vector<std::string> &tokens,
              size_t indent)
{
    size_t column = out.size() - out.rfind('\n') - 1;
    for (const std::string &t : tokens) {
        if (column + 1 + t.size() > 76 && column > indent) {
            out += "\n" + std::string(indent, ' ');
            column = indent;
        } else if (column > 0 && out.back() != ' ') {
            out += ' ';
            column++;
        }
        out += t;
        column += t.size();
    }
}

[[noreturn]] void
usage()
{
    std::string text = "usage: pstool <command> [<file.sir>] [options]"
                       "\n\ncommands:\n";
    for (const Command &c : kCommands) {
        std::vector<std::string> synopsis;
        if (c.takesFile)
            synopsis.push_back("<file.sir>");
        for (const std::string &name : words(c.flags))
            synopsis.push_back("[--" + name + findFlag(name)->arg + "]");
        text += std::string("  ") + c.name;
        appendWrapped(text, synopsis, 6);
        text += "\n      ";
        appendWrapped(text, words(c.help), 6);
        text += "\n";
    }
    text += "\noptions:\n";
    for (const Flag &f : kFlags) {
        text += csprintf("  %-22s%s%s\n",
                         (std::string("--") + f.name + f.arg).c_str(),
                         f.help, range(f).c_str());
    }
    std::fputs(text.c_str(), stderr);
    std::exit(2);
}

/** A command-line error: one line on stderr, exit status 2. */
[[noreturn]] void
badArgs(const Command &c, const std::string &msg)
{
    std::fprintf(stderr, "pstool %s: %s\n", c.name, msg.c_str());
    std::exit(2);
}

/** Comma-separated items, as std::getline splits them. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream ss(text);
    for (std::string item; std::getline(ss, item, ',');)
        items.push_back(item);
    return items;
}

/** Store @p value into the field @p f sets. A number must parse
 *  whole and lie in [f.lo, f.hi]. */
bool
setFlag(const Flag &f, const std::string &value, Options &opts,
        std::string &error)
{
    auto number = [&](const std::string &text, auto &out) {
        using T = std::remove_reference_t<decltype(out)>;
        int64_t v = 0;
        if constexpr (std::is_floating_point_v<T>)
            return parseReal(text, static_cast<double>(f.lo),
                             static_cast<double>(f.hi), out);
        if (!parseInteger(text, f.lo, f.hi, v))
            return false;
        out = static_cast<T>(v);
        return true;
    };
    return std::visit(
        [&](auto field) {
            if constexpr (std::is_same_v<decltype(field), Reader>) {
                return field(value, opts, error);
            } else {
                auto &dst = opts.*field;
                using T = std::remove_reference_t<decltype(dst)>;
                if constexpr (std::is_same_v<T, bool>) {
                    dst = true;
                } else if constexpr (std::is_arithmetic_v<T>) {
                    return number(value, dst);
                } else if constexpr (std::is_same_v<T, std::string>) {
                    dst = value;
                } else if constexpr (std::is_same_v<
                                         T, std::vector<std::string>>) {
                    for (std::string &item : splitList(value))
                        dst.push_back(std::move(item));
                } else { // name=value: one integer or a list of them
                    const size_t eq = value.find('=');
                    typename T::value_type named{value.substr(0, eq), {}};
                    if (eq == 0 || eq == std::string::npos)
                        return false;
                    const std::string rest = value.substr(eq + 1);
                    if constexpr (std::is_same_v<T,
                                                 workloads::NamedWords>) {
                        if (!number(rest, named.second))
                            return false;
                    } else {
                        for (const std::string &item : splitList(rest)) {
                            if (!number(item, named.second.emplace_back()))
                                return false;
                        }
                    }
                    dst.push_back(std::move(named));
                }
                return true;
            }
        },
        f.field);
}

/** The first kCommands entry whose words match argv[1..]; @p next
 *  is set to the argument after them. */
const Command *
findCommand(int argc, char **argv, int &next)
{
    for (const Command &c : kCommands) {
        bool match = true;
        next = 1;
        for (const std::string &w : words(c.name))
            match = match && next < argc && w == argv[next++];
        if (match)
            return &c;
    }
    return nullptr;
}

/** Read argv[@p first..] against @p c's flags; any error exits 2. */
Options
parseArgs(const Command &c, int first, int argc, char **argv)
{
    Options opts;
    const std::vector<std::string> reads = words(c.flags);
    for (int i = first; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!c.takesFile || !opts.file.empty())
                badArgs(c, "unexpected argument '" + arg + "'");
            opts.file = arg;
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        const Flag *f = findFlag(name);
        if (!f || std::find(reads.begin(), reads.end(), name) == reads.end())
            badArgs(c, "takes no --" + name);
        // "=N" is written --name=N, " arr" as the next argument.
        const std::string spelling = std::string("--") + name + f->arg;
        const bool next = f->arg[0] == ' ';
        if ((eq != std::string::npos) != (f->arg[0] == '=') ||
            (next && i + 1 >= argc))
            badArgs(c, "expected " + spelling);
        const std::string value =
            next ? argv[++i] : arg.substr(std::min(eq + 1, arg.size()));
        std::string error;
        if (!setFlag(*f, value, opts, error)) {
            if (error.empty())
                error = "expected " + spelling + range(*f);
            badArgs(c, csprintf("--%s%c%s: %s", name.c_str(), f->arg[0],
                                value.c_str(), error.c_str()));
        }
    }
    if (c.takesFile && opts.file.empty())
        badArgs(c, "expected a .sir file");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    int next = 0;
    const Command *c = findCommand(argc, argv, next);
    if (!c)
        usage();
    Options opts = parseArgs(*c, next, argc, argv);
    ParseResult parsed;
    if (c->takesFile)
        parsed = sir::parseSir(readFile(opts.file), opts.file);
    return c->handler(opts, parsed);
}

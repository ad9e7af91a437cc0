/**
 * @file
 * pstool — the command-line driver for the Pipestitch toolchain.
 *
 * Subcommands are self-registering entries in kCommands (name →
 * handler + help); `pstool help` prints the generated synopsis.
 * The global `--json` flag switches every command's primary output
 * to machine-readable JSON.
 *
 *   pstool compile <file.sir>   compile and report fit/threading
 *   pstool run <file.sir>       compile, map, simulate, verify
 *   pstool scalar <file.sir>    sequential interpreter only
 *   pstool bench-sim <file.sir> time the fast engine against the
 *                               dense-scan oracle (bit-identity
 *                               checked)
 *   pstool bench-sim --suite    the same on paper-scale kernels;
 *                               writes BENCH_sim_sched.json
 *   pstool trace <file.sir>     simulate under observation; write a
 *                               Chrome-trace JSON (chrome://tracing
 *                               or https://ui.perfetto.dev) and a
 *                               stall-attribution breakdown
 *   pstool lint <file.sir>      static analysis only: deadlock,
 *                               token-balance, and placement rules
 *                               (docs/static-analysis.md); with
 *                               --cross-check also simulates and
 *                               fails on analyzer/simulator
 *                               disagreement (deadlock verdict and
 *                               the certified throughput bound)
 *   pstool bound <file.sir>     certified static throughput bound
 *                               (PS-T analysis) vs the simulated
 *                               cycle count: every bound term, the
 *                               binding constraint, and its fix
 *                               hint; nonzero exit when the
 *                               simulation beats the bound
 *   pstool map <file.sir>       run the portfolio mapper alone and
 *                               report placement quality (cost,
 *                               wirelength, congestion, winning
 *                               seed) plus wall-clock; nonzero exit
 *                               if the kernel does not map or the
 *                               emitted placement fails lint
 *   pstool figures              reproduce every paper figure in one
 *                               process, concurrently (takes no
 *                               .sir file; see --jobs/--smoke/
 *                               --no-memo/--out-dir/--only)
 *   pstool bench-tiles          batched data-parallel SpMV shards
 *                               across tile arrangements; writes the
 *                               scaling curve to BENCH_tiles.json
 *
 * Variants: riptide, pipestitch (default), pipesb, pipecfin,
 * pipecfop. The fabric defaults to the paper's single 8×8 grid;
 * `--fabric=WxH[,tiles=TXxTY,...]` (docs/fabric.md) retargets any
 * subcommand that maps or simulates.
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "analysis/placement.hh"
#include "analysis/throughput.hh"
#include "base/logging.hh"
#include "compiler/timemux.hh"
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

struct Options
{
    std::string command;
    std::string file;
    compiler::ArchVariant variant =
        compiler::ArchVariant::Pipestitch;
    int depth = 4;
    int unroll = 1;
    bool dot = false;
    bool report = false;
    bool trace = false;
    bool timeMultiplex = false;
    bool json = false;
    bool noMap = false;     ///< lint: skip mapping + placement rules
    bool crossCheck = false; ///< lint: simulate and compare verdicts
    int seeds = 4;            ///< map: portfolio restarts
    int jobs = 1;             ///< map: tile worker threads (tiled fabrics)
    uint64_t seed = 1;        ///< map: base RNG seed
    int iterations = 20000;   ///< map: total anneal budget
    /** Fabric topology from --fabric=WxH[,tiles=TXxTY,...] and the
     *  --tiles=TXxTY shorthand; defaults to the single 8×8 grid. */
    fabric::Topology topo;
    std::string out;          ///< trace: output file
    std::string stallsOut;    ///< trace: stall-timeline JSON file
    int interval = 256;       ///< trace: stall bucket width
    workloads::NamedWords liveIns;
    workloads::NamedArrays inits;
    std::vector<std::string> dumps;
};

using ParseResult = sir::ParseResult;

struct Command
{
    const char *name;
    const char *synopsis; ///< command-specific options
    const char *help;     ///< one-line description
    int (*handler)(const Options &, const ParseResult &);
};

int cmdCompile(const Options &, const ParseResult &);
int cmdRun(const Options &, const ParseResult &);
int cmdScalar(const Options &, const ParseResult &);
int cmdBenchSim(const Options &, const ParseResult &);
int cmdTrace(const Options &, const ParseResult &);
int cmdLint(const Options &, const ParseResult &);
int cmdBound(const Options &, const ParseResult &);
int cmdMap(const Options &, const ParseResult &);

constexpr Command kCommands[] = {
    {"compile", "[--variant=V --unroll=N --dot]",
     "compile and report threading/II/operator-count/fabric fit",
     cmdCompile},
    {"run",
     "[--variant=V --depth=N --unroll=N --tm --report --trace "
     "--fabric=S --tiles=TXxTY]",
     "compile, map, simulate, verify against the interpreter",
     cmdRun},
    {"scalar", "", "run the sequential interpreter only",
     cmdScalar},
    {"bench-sim",
     "[--variant=V --depth=N --unroll=N --tm --fabric=S "
     "--tiles=TXxTY]",
     "time the fast engine against the dense-scan oracle; exits "
     "nonzero unless the runs are bit-identical",
     cmdBenchSim},
    {"trace",
     "[--variant=V --depth=N --unroll=N --tm --fabric=S "
     "--tiles=TXxTY --out=F --stalls=F --interval=N]",
     "simulate under observation; write Chrome-trace JSON and "
     "stall attribution",
     cmdTrace},
    {"lint",
     "[--variant=V --depth=N --unroll=N --tm --no-map "
     "--cross-check --fabric=S --tiles=TXxTY]",
     "run the static analyzer (deadlock/balance/placement rules); "
     "nonzero exit on any error diagnostic",
     cmdLint},
    {"bound",
     "[--variant=V --depth=N --unroll=N --tm --fabric=S "
     "--tiles=TXxTY]",
     "report the certified static throughput bound against the "
     "simulated run: every term, the binding constraint, and its "
     "fix hint; nonzero exit if the simulation beats the bound",
     cmdBound},
    {"map",
     "[--variant=V --unroll=N --tm --seeds=N --jobs=N --seed=N "
     "--iters=N --fabric=S --tiles=TXxTY]",
     "run the portfolio mapper alone; report placement quality and "
     "wall-clock, nonzero exit on failure or dirty placement lint",
     cmdMap},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: pstool <command> <file.sir> "
                         "[options]\n\ncommands:\n");
    for (const Command &c : kCommands) {
        std::fprintf(stderr, "  %-10s %s\n             %s %s\n",
                     c.name, c.help, c.synopsis,
                     *c.synopsis ? "" : "(no extra options)");
    }
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "figures",
        "reproduce every paper figure in one process "
        "(takes no .sir file)",
        "[--jobs=N --smoke --no-memo --out-dir=D "
        "--only=id,id --json]");
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "serve",
        "resident simulation daemon: newline-delimited JSON "
        "requests on stdin, responses on stdout (no .sir file; "
        "see docs/serve.md)",
        "[--jobs=N --queue=N --fabric=S --bench=N "
        "--bench-unique=N --bench-out=F]");
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "bench-tiles",
        "batched SpMV shards across 1x1/1x2/2x2 tile arrangements "
        "(no .sir file); writes the scaling curve JSON",
        "[--shards=N --n=N --seed=N --fabric=S "
        "--out=BENCH_tiles.json]");
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "bench-sim --suite",
        "fast engine vs dense-scan oracle on paper-scale kernels, "
        "Pipestitch and RipTide (no .sir file); bit-identity "
        "checked on every row",
        "[--smoke --reps=N --out=BENCH_sim_sched.json]");
    std::fprintf(
        stderr,
        "\ncommon options:\n"
        "  --variant=riptide|pipestitch|pipesb|pipecfin|pipecfop\n"
        "  --fabric=WxH[,tiles=TXxTY][,cap=N][,lat=N]"
        "[,mix=a:m:c:me:s]\n"
        "                          fabric topology (docs/fabric.md)\n"
        "  --tiles=TXxTY           tile arrangement shorthand\n"
        "  --json                  machine-readable primary output\n"
        "  --livein name=value     bind a kernel parameter\n"
        "  --init arr=v0,v1,...    initialize array contents\n"
        "  --dump arr              print an array after the run\n");
    std::exit(2);
}

/**
 * The one shared CLI → fabric::Topology path: `--fabric=` takes the
 * full spec grammar (`WxH[,tiles=TXxTY][,cap=N][,lat=N][,mix=...]`,
 * see fabric::parseFabricSpec), `--tiles=` is the shorthand that
 * only changes the tile arrangement. Validation — including the
 * peMix-sum-matches-grid check — happens in Topology::validate, so
 * every subcommand rejects a bad fabric with the same structured
 * error.
 */
void
parseFabricArg(const std::string &spec, fabric::Topology &topo)
{
    std::string err;
    if (!fabric::parseFabricSpec(spec, topo, &err)) {
        std::fprintf(stderr, "--fabric=%s: %s\n", spec.c_str(),
                     err.c_str());
        std::exit(2);
    }
}

void
parseTilesArg(const std::string &spec, fabric::Topology &topo)
{
    int tx = 0, ty = 0;
    char junk;
    if (std::sscanf(spec.c_str(), "%dx%d%c", &tx, &ty, &junk) != 2 ||
        tx < 1 || ty < 1) {
        std::fprintf(stderr,
                     "--tiles=%s: expected TXxTY (e.g. 2x2)\n",
                     spec.c_str());
        std::exit(2);
    }
    topo.tilesX = tx;
    topo.tilesY = ty;
}

/** Copy the CLI topology into a RunConfig (fabric = per-tile grid,
 *  tile arrangement + inter-tile link model alongside). */
void
applyFabric(const fabric::Topology &topo, RunConfig &cfg)
{
    cfg.fabric = topo.tile;
    cfg.tilesX = topo.tilesX;
    cfg.tilesY = topo.tilesY;
    cfg.interTileLatency = topo.interTileLatency;
    cfg.interTileCapacity = topo.interTileCapacity;
}

/** The RunConfig every command that prepares the kernel starts
 *  from: variant, depth, unroll, time multiplexing and fabric. */
RunConfig
runConfig(const Options &opts)
{
    RunConfig cfg;
    cfg.variant = opts.variant;
    cfg.sim.bufferDepth = opts.depth;
    cfg.unrollFactor = opts.unroll;
    cfg.allowTimeMultiplex = opts.timeMultiplex;
    applyFabric(opts.topo, cfg);
    return cfg;
}

/** `--depth=N`: a buffer depth of at least 1, else a usage error
 *  (the simulator treats depth < 1 as an internal invariant). */
int
parseDepthArg(const std::string &spec)
{
    char *end = nullptr;
    long depth = std::strtol(spec.c_str(), &end, 10);
    if (spec.empty() || *end != '\0' || depth < 1 ||
        depth > std::numeric_limits<int>::max()) {
        std::fprintf(stderr,
                     "--depth=%s: expected an integer >= 1\n",
                     spec.c_str());
        std::exit(2);
    }
    return static_cast<int>(depth);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 3)
        usage();
    Options opts;
    opts.command = argv[1];
    opts.file = argv[2];
    for (int i = 3; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--variant=", 0) == 0) {
            if (!compiler::parseArchVariant(value("--variant="),
                                            opts.variant))
                fatal("unknown variant '%s'",
                      value("--variant=").c_str());
        } else if (arg.rfind("--depth=", 0) == 0) {
            opts.depth = parseDepthArg(value("--depth="));
        } else if (arg.rfind("--unroll=", 0) == 0) {
            opts.unroll = std::atoi(value("--unroll=").c_str());
        } else if (arg.rfind("--out=", 0) == 0) {
            opts.out = value("--out=");
        } else if (arg.rfind("--stalls=", 0) == 0) {
            opts.stallsOut = value("--stalls=");
        } else if (arg.rfind("--interval=", 0) == 0) {
            opts.interval =
                std::atoi(value("--interval=").c_str());
        } else if (arg.rfind("--seeds=", 0) == 0) {
            opts.seeds = std::atoi(value("--seeds=").c_str());
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = std::atoi(value("--jobs=").c_str());
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = static_cast<uint64_t>(
                std::atoll(value("--seed=").c_str()));
        } else if (arg.rfind("--iters=", 0) == 0) {
            opts.iterations =
                std::atoi(value("--iters=").c_str());
        } else if (arg.rfind("--fabric=", 0) == 0) {
            parseFabricArg(value("--fabric="), opts.topo);
        } else if (arg.rfind("--tiles=", 0) == 0) {
            parseTilesArg(value("--tiles="), opts.topo);
        } else if (arg == "--tm") {
            opts.timeMultiplex = true;
        } else if (arg == "--no-map") {
            opts.noMap = true;
        } else if (arg == "--cross-check") {
            opts.crossCheck = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--dot") {
            opts.dot = true;
        } else if (arg == "--report") {
            opts.report = true;
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (arg == "--livein" && i + 1 < argc) {
            std::string spec = argv[++i];
            size_t eq = spec.find('=');
            if (eq == std::string::npos)
                usage();
            opts.liveIns.emplace_back(
                spec.substr(0, eq),
                static_cast<sir::Word>(
                    std::atoll(spec.c_str() + eq + 1)));
        } else if (arg == "--init" && i + 1 < argc) {
            std::string spec = argv[++i];
            size_t eq = spec.find('=');
            if (eq == std::string::npos)
                usage();
            std::vector<sir::Word> values;
            std::stringstream ss(spec.substr(eq + 1));
            std::string item;
            while (std::getline(ss, item, ','))
                values.push_back(static_cast<sir::Word>(
                    std::atoll(item.c_str())));
            opts.inits.emplace_back(spec.substr(0, eq),
                                    std::move(values));
        } else if (arg == "--dump" && i + 1 < argc) {
            opts.dumps.push_back(argv[++i]);
        } else {
            usage();
        }
    }
    return opts;
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
cmdBenchSimSuite(int argc, char **argv)
{
    bool smoke = false;
    int reps = 2;
    std::string outFile = "BENCH_sim_sched.json";
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--suite") {
            continue;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--reps=", 0) == 0) {
            reps = std::atoi(arg.c_str() + 7);
        } else if (arg.rfind("--out=", 0) == 0) {
            outFile = arg.substr(6);
        } else {
            usage();
        }
    }
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
    if (smoke) {
        cases.push_back(
            {"spmv_u8", workloads::makeSpmv(64, 0.90, 2), 8});
        cases.push_back(
            {"dither_u8", workloads::makeDither(16, 16, 3), 8});
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
    if (smoke)
        reps = 1;

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

    std::ofstream f(outFile);
    if (!f)
        fatal("cannot write '%s'", outFile.c_str());
    f << out.str() << "\n";
    std::printf("%s\n", out.str().c_str());
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
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    copts.bufferDepth = opts.depth;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);

    fabric::Fabric fab(opts.topo);
    compiler::ShareGroups shareGroups;
    if (opts.timeMultiplex) {
        shareGroups =
            compiler::planTimeMultiplexing(res.graph, fab.config());
    }

    mapper::MapperOptions mopts;
    mopts.rngSeed = opts.seed;
    mopts.portfolioSeeds = opts.seeds;
    mopts.jobs = opts.jobs;
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
            .add("jobs", opts.jobs)
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
            res.graph.size(), opts.seeds, opts.jobs, mapping.cost,
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
cmdFigures(int argc, char **argv)
{
    runner::RunnerOptions ropts;
    figures::FigureOptions fopts;
    std::string outDir;
    std::vector<std::string> only;
    bool json = false;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            ropts.jobs = std::atoi(arg.c_str() + 7);
        } else if (arg == "--smoke") {
            fopts.smoke = true;
        } else if (arg.rfind("--out-dir=", 0) == 0) {
            outDir = arg.substr(10);
        } else if (arg.rfind("--only=", 0) == 0) {
            std::stringstream ss(arg.substr(7));
            std::string id;
            while (std::getline(ss, id, ','))
                only.push_back(id);
        } else if (arg == "--no-memo") {
            ropts.memoize = false;
        } else if (arg == "--json") {
            json = true;
        } else {
            usage();
        }
    }
    for (const auto &id : only) {
        if (!figures::findFigure(id))
            fatal("unknown figure '%s'", id.c_str());
    }
    if (!outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(outDir, ec);
        if (ec)
            fatal("cannot create '%s': %s", outDir.c_str(),
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
        if (!json) {
            if (rendered > 0)
                std::printf("\n");
            std::fputs(text.c_str(), stdout);
        }
        if (!outDir.empty()) {
            std::string path = outDir + "/" + fig.id + ".out";
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
    if (json) {
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
cmdBenchTiles(int argc, char **argv)
{
    fabric::Topology base;
    int shards = 8;
    int size = 64;
    double sparsity = 0.2;
    uint64_t seed = 1;
    std::string outFile = "BENCH_tiles.json";
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--fabric=", 0) == 0) {
            parseFabricArg(arg.substr(9), base);
        } else if (arg.rfind("--shards=", 0) == 0) {
            shards = std::atoi(arg.c_str() + 9);
        } else if (arg.rfind("--n=", 0) == 0) {
            size = std::atoi(arg.c_str() + 4);
        } else if (arg.rfind("--sparsity=", 0) == 0) {
            sparsity = std::atof(arg.c_str() + 11);
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = static_cast<uint64_t>(
                std::atoll(arg.c_str() + 7));
        } else if (arg.rfind("--out=", 0) == 0) {
            outFile = arg.substr(6);
        } else {
            usage();
        }
    }
    if (shards < 1)
        fatal("bench-tiles: --shards must be >= 1");

    setQuiet(true);
    auto shardSet =
        workloads::makeSpmvShards(size, sparsity, seed, shards);

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
    w.key("shards").value(shards);
    w.key("tile_width").value(base.tile.width);
    w.key("tile_height").value(base.tile.height);
    w.key("inter_tile_latency").value(base.interTileLatency);
    w.key("configs");
    w.beginArray();
    for (const Arrangement &a : kArrangements) {
        fabric::Topology topo = base;
        topo.tilesX = a.tx;
        topo.tilesY = a.ty;
        RunConfig cfg;
        applyFabric(topo, cfg);
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
                     a.tx, a.ty, static_cast<long long>(shards),
                     static_cast<long long>(batch.makespanCycles),
                     batch.modeledSpeedup);
    }
    w.endArray();
    w.endObject();

    std::ofstream f(outFile);
    if (!f)
        fatal("cannot write '%s'", outFile.c_str());
    f << out.str() << "\n";
    std::printf("%s\n", out.str().c_str());
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
cmdServe(int argc, char **argv)
{
    runner::ServeOptions sopts;
    runner::ServeBenchOptions bench;
    bench.requests = 0;
    std::string benchOut = "BENCH_serve.json";
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            sopts.jobs = std::atoi(arg.c_str() + 7);
        } else if (arg.rfind("--queue=", 0) == 0) {
            sopts.maxQueue = std::atoi(arg.c_str() + 8);
        } else if (arg.rfind("--fabric=", 0) == 0) {
            parseFabricArg(arg.substr(9), sopts.topology);
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench.requests = std::atoi(arg.c_str() + 8);
        } else if (arg.rfind("--bench-unique=", 0) == 0) {
            bench.unique = std::atoi(arg.c_str() + 15);
        } else if (arg.rfind("--bench-out=", 0) == 0) {
            benchOut = arg.substr(12);
        } else {
            usage();
        }
    }
    if (bench.requests > 0) {
        std::string json = runner::runServeBench(sopts, bench);
        std::ofstream f(benchOut);
        if (!f)
            fatal("cannot write '%s'", benchOut.c_str());
        f << json << "\n";
        std::printf("%s\n", json.c_str());
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

} // namespace

int
main(int argc, char **argv)
{
    // `figures`, `serve`, `bench-tiles`, and `bench-sim --suite`
    // take no .sir file; dispatch before parseArgs.
    if (argc >= 2 && std::string(argv[1]) == "figures")
        return cmdFigures(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "serve")
        return cmdServe(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "bench-tiles")
        return cmdBenchTiles(argc, argv);
    if (argc >= 3 && std::string(argv[1]) == "bench-sim" &&
        std::string(argv[2]) == "--suite")
        return cmdBenchSimSuite(argc, argv);
    Options opts = parseArgs(argc, argv);
    auto parsed = sir::parseSir(readFile(opts.file), opts.file);
    for (const Command &c : kCommands) {
        if (opts.command == c.name)
            return c.handler(opts, parsed);
    }
    usage();
}

#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "core/system.hh"
#include "replay.hh"
#include "runner/serve.hh"
#include "runner/sweep.hh"
#include "scalar/interpreter.hh"
#include "sir/parser.hh"
#include "trace/json.hh"
#include "trace/json_parse.hh"
#include "workloads/dnn.hh"
#include "workloads/kernels.hh"

namespace psbench {

using namespace pipestitch;
using compiler::ArchVariant;

bool
sameResult(const OpResult &a, const OpResult &b)
{
    return a.cycles == b.cycles && a.energyPj == b.energyPj &&
           a.memHash == b.memHash && a.hasStats == b.hasStats &&
           (!a.hasStats || sim::statsEqual(a.stats, b.stats));
}

namespace {

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

uint64_t
hashWords(const std::vector<sir::Word> &words)
{
    Hasher h;
    h.vec(words);
    return h.digest();
}

OpResult
resultOf(const FabricRun &run)
{
    OpResult r;
    r.cycles = run.cycles();
    r.energyPj = run.energy.totalPj();
    r.memHash = hashWords(run.memory);
    r.hasStats = true;
    r.stats = run.sim.stats;
    return r;
}

OpResult
resultOf(const workloads::DnnInference &inf)
{
    OpResult r;
    r.cycles = static_cast<int64_t>(inf.cycles);
    r.energyPj = inf.energy.totalPj();
    r.memHash = hashWords(inf.logits);
    return r;
}

/** Record one fabric run's outcome under the failure rules. */
void
addRun(PassResult &pass, const FabricRun &run, const std::string &err,
       const std::string &what)
{
    pass.results.push_back(resultOf(run));
    if (!err.empty())
        pass.opFailed(what + ": " + err);
    else if (run.sim.deadlocked)
        pass.opFailed(what + ": deadlocked");
}

} // namespace

void
PassClock::start()
{
    wall0 = nowNs();
    cpu0 = processCpuS();
}

void
PassClock::stop()
{
    wallS = static_cast<double>(nowNs() - wall0) / 1e9;
    cpuS = processCpuS() - cpu0;
}

namespace {
std::function<void()> interlude;
} // namespace

void
setInterlude(std::function<void()> work)
{
    interlude = std::move(work);
}

OpTimer::OpTimer() : wall0(nowNs()), cpu0(processCpuS()) {}

void
OpTimer::stop(PassResult &pass) const
{
    pass.latencyMs.push_back(static_cast<double>(nowNs() - wall0) / 1e6);
    pass.opCpuS.push_back(processCpuS() - cpu0);
    if (interlude)
        interlude();
}

void
PassResult::opFailed(const std::string &why)
{
    results.back().ok = false;
    if (errors.size() < 8)
        errors.push_back(why);
}

void
PassResult::checkFailed(const std::string &why)
{
    workloadOk = false;
    errors.push_back(why);
}

namespace {

// ---------------------------------------------------------------------
// paper-sweep: the FigureSet::prefetch() grid on one Runner worker.

class PaperSweep final : public Workload
{
  public:
    PaperSweep(uint64_t seed, bool smoke) : seed(seed), smoke(smoke)
    {
        const ArchVariant variants[] = {
            ArchVariant::RipTide, ArchVariant::Pipestitch,
            ArchVariant::PipeSB, ArchVariant::PipeCFiN,
            ArchVariant::PipeCFoP};
        for (int k = 0; k < 6; k++) {
            for (ArchVariant v : variants)
                points.push_back({k, v, 4});
        }
        // Dither, SpSlice, SpMSpVd, SpMSpMd (FigureSet::isThreadedKernel).
        for (int k = 2; k < 6; k++) {
            points.push_back({k, ArchVariant::Pipestitch, 8});
            points.push_back({k, ArchVariant::Pipestitch, 16});
        }
        points.push_back({-1, ArchVariant::RipTide, 4});
        points.push_back({-1, ArchVariant::Pipestitch, 4});
    }

    void
    release() override
    {
        runner.reset();
        kernels.clear();
        dnn.reset();
    }

    void
    setup() override
    {
        auto built = smoke ? workloads::smallKernels(seed)
                           : workloads::paperKernels(seed);
        for (auto &k : built)
            kernels.push_back(runner::share(std::move(k)));
        workloads::DnnConfig dc;
        if (smoke)
            dc.dims = {128, 64, 32, 16, 10};
        dc.seed = seed;
        dnn = workloads::buildDnn(dc);
        runner::RunnerOptions ro;
        ro.jobs = 1;
        runner = std::make_unique<runner::Runner>(ro);
    }

    PassResult
    run() override
    {
        PassResult pass;
        pass.clock.start();
        for (const Point &p : points) {
            OpTimer timer;
            if (p.kernel < 0) {
                // One pool job per inference, as FigureSet::dnnFabric.
                RunConfig cfg = dnnConfig(p.variant);
                cfg.cache = &runner->cache();
                const workloads::DnnModel *m = &*dnn;
                auto inf = runner
                               ->submit([m, cfg] {
                                   return workloads::runDnnOnFabric(*m,
                                                                    cfg);
                               })
                               .get();
                timer.stop(pass);
                pass.results.push_back(resultOf(inf));
            } else {
                auto fut = runner->enqueue(
                    kernels[static_cast<size_t>(p.kernel)],
                    runConfig(p));
                fut.wait();
                timer.stop(pass);
                addRun(pass, fut.get(), "", label(p));
            }
        }
        pass.clock.stop();
        pass.memo = runner->cache().stats();
        pass.dedupHits = runner->dedupHits();
        return pass;
    }

    PassResult
    runTraced(Tracer &t) override
    {
        PassResult pass;
        runner::MemoCache cache;
        std::map<uint64_t, OpResult> done; // Runner::enqueue's dedup
        pass.clock.start();
        for (const Point &p : points) {
            std::string err;
            if (p.kernel < 0) {
                RunConfig cfg = dnnConfig(p.variant);
                cfg.cache = &cache;
                workloads::DnnInference inf;
                OpTimer timer;
                {
                    t.beginOp();
                    SpanScope op(t, "op", Layer::None);
                    inf = replayDnn(t, *dnn, cfg, &err);
                }
                timer.stop(pass);
                pass.results.push_back(resultOf(inf));
                if (!err.empty())
                    pass.opFailed(label(p) + ": " + err);
                continue;
            }
            const auto &kernel = kernels[static_cast<size_t>(p.kernel)];
            RunConfig cfg = runConfig(p);
            cfg.cache = &cache;
            cfg.quiet = true;
            FabricRun run;
            const OpResult *dup = nullptr;
            uint64_t key = 0;
            OpTimer timer;
            {
                t.beginOp();
                SpanScope op(t, "op", Layer::None);
                {
                    SpanScope s(t, "runner.enqueue", Layer::Runner);
                    key = runner::MemoCache::runKey(*kernel, cfg);
                    auto it = done.find(key);
                    if (it != done.end())
                        dup = &it->second;
                }
                if (!dup)
                    run = replayRun(t, *kernel, cfg, &err);
            }
            timer.stop(pass);
            if (dup) {
                pass.results.push_back(*dup);
                continue;
            }
            addRun(pass, run, err, label(p));
            done.emplace(key, pass.results.back());
        }
        pass.clock.stop();
        return pass;
    }

  private:
    struct Point
    {
        int kernel; ///< index into kernels; -1 = DNN inference
        ArchVariant variant;
        int depth;
    };

    static RunConfig
    runConfig(const Point &p)
    {
        RunConfig cfg;
        cfg.variant = p.variant;
        cfg.sim.bufferDepth = p.depth;
        return cfg;
    }

    /** FigureSet::runConfig: the Runner's cache, quiet runs. */
    static RunConfig
    dnnConfig(ArchVariant v)
    {
        RunConfig cfg;
        cfg.variant = v;
        cfg.quiet = true;
        return cfg;
    }

    std::string
    label(const Point &p) const
    {
        std::string k = p.kernel < 0
                            ? std::string("dnn")
                            : kernels[static_cast<size_t>(p.kernel)]->name;
        return csprintf("%s/%s/d%d", k.c_str(),
                        compiler::archVariantName(p.variant), p.depth);
    }

    uint64_t seed;
    bool smoke;
    std::vector<Point> points;
    std::vector<runner::KernelPtr> kernels;
    std::optional<workloads::DnnModel> dnn;
    std::unique_ptr<runner::Runner> runner;
};

// ---------------------------------------------------------------------
// sim-large: big unrolled graphs, unmapped, one thread.

class SimLarge final : public Workload
{
  public:
    SimLarge(uint64_t seed, bool smoke) : seed(seed), smoke(smoke) {}

    void
    release() override
    {
        ops.clear();
    }

    void
    setup() override
    {
        // One input per operation (seed, seed + 1, ...), so the total
        // work varies less from seed to seed than with shared inputs.
        auto spmspmd = [&](uint64_t s) {
            return runner::share(
                smoke ? workloads::makeSpMSpMd(16, 0.8, s)
                      : workloads::makeSpMSpMd(64, 0.89, s));
        };
        workloads::DnnConfig dc;
        if (smoke)
            dc.dims = {128, 64, 32, 16, 10};
        dc.seed = seed + 3;
        auto model = workloads::buildDnn(dc);
        auto layer0 = runner::share(workloads::makeSpMSpVdFrom(
            model.weights[0], model.input, "dnn_layer0"));
        auto dither = runner::share(
            smoke ? workloads::makeDither(16, 8, seed + 4)
                  : workloads::makeDither(128, 128, seed + 4));
        ops = {{spmspmd(seed), ArchVariant::Pipestitch, 8},
               {spmspmd(seed + 1), ArchVariant::RipTide, 8},
               {spmspmd(seed + 2), ArchVariant::Pipestitch, 32},
               {layer0, ArchVariant::Pipestitch, 8},
               {dither, ArchVariant::Pipestitch, 8}};
    }

    PassResult
    run() override
    {
        PassResult pass;
        pass.clock.start();
        for (const Op &op : ops) {
            OpTimer timer;
            std::string err;
            FabricRun run = runOnFabric(*op.kernel, config(op), &err);
            timer.stop(pass);
            addRun(pass, run, err, label(op));
        }
        pass.clock.stop();
        return pass;
    }

    PassResult
    runTraced(Tracer &t) override
    {
        PassResult pass;
        pass.clock.start();
        for (const Op &op : ops) {
            std::string err;
            FabricRun run;
            OpTimer timer;
            {
                t.beginOp();
                SpanScope span(t, "op", Layer::None);
                run = replayRun(t, *op.kernel, config(op), &err);
            }
            timer.stop(pass);
            addRun(pass, run, err, label(op));
        }
        pass.clock.stop();
        return pass;
    }

  private:
    struct Op
    {
        runner::KernelPtr kernel;
        ArchVariant variant;
        int unroll;
    };

    static RunConfig
    config(const Op &op)
    {
        RunConfig cfg;
        cfg.variant = op.variant;
        cfg.unrollFactor = op.unroll;
        cfg.map = false;
        cfg.quiet = true;
        return cfg;
    }

    static std::string
    label(const Op &op)
    {
        return csprintf("%s/%s/u%d", op.kernel->name.c_str(),
                        compiler::archVariantName(op.variant), op.unroll);
    }

    uint64_t seed;
    bool smoke;
    std::vector<Op> ops;
};

// ---------------------------------------------------------------------
// explore-cold: a design-space grid, each point prepared cold.

/** Fabric axis of the explore-cold grid. */
enum class FabricKind { Grid8, Grid16, Tiles2x2 };

struct ExplorePoint
{
    int kernel; ///< index into the six Table 1 kernels
    int unroll;
    FabricKind fabric;
    bool timeMux;
};

RunConfig
exploreConfig(const ExplorePoint &p)
{
    RunConfig cfg;
    cfg.unrollFactor = p.unroll;
    cfg.allowTimeMultiplex = p.timeMux;
    cfg.quiet = true;
    switch (p.fabric) {
      case FabricKind::Grid8:
        break;
      case FabricKind::Grid16:
        cfg.fabric.width = 16;
        cfg.fabric.height = 16;
        cfg.fabric.peMix = fabric::scaleMixFor(16, 16);
        break;
      case FabricKind::Tiles2x2:
        cfg.tilesX = 2;
        cfg.tilesY = 2;
        break;
    }
    return cfg;
}

const char *
fabricTag(FabricKind f)
{
    switch (f) {
      case FabricKind::Grid8: return "8x8";
      case FabricKind::Grid16: return "16x16";
      case FabricKind::Tiles2x2: return "2x2x8x8";
    }
    return "?";
}

/** The Table 1 kernels on small inputs, so the mapper, not the
 *  simulator, dominates each point. */
std::vector<workloads::KernelInstance>
exploreKernels(uint64_t seed)
{
    std::vector<workloads::KernelInstance> out;
    out.push_back(workloads::makeDmm(8, seed));
    out.push_back(workloads::makeSpmv(16, 0.8, seed + 1));
    out.push_back(workloads::makeDither(16, 8, seed + 2));
    out.push_back(workloads::makeSpSlice(16, 0.8, seed + 3));
    out.push_back(workloads::makeSpMSpVd(16, 0.8, seed + 4));
    out.push_back(workloads::makeSpMSpMd(8, 0.8, seed + 5));
    return out;
}

std::vector<ExplorePoint>
exploreCandidates()
{
    std::vector<ExplorePoint> out;
    for (int k = 0; k < 6; k++) {
        for (int unroll : {1, 2, 4, 8}) {
            for (FabricKind f : {FabricKind::Grid8, FabricKind::Grid16,
                                 FabricKind::Tiles2x2}) {
                for (bool tm : {false, true})
                    out.push_back({k, unroll, f, tm});
            }
        }
    }
    return out;
}

class ExploreCold final : public Workload
{
  public:
    ExploreCold(uint64_t seed, bool smoke) : seed(seed), smoke(smoke) {}

    void
    release() override
    {
        kernels.clear();
        points.clear();
    }

    void
    setup() override
    {
        kernels = exploreKernels(seed);
        points = explorePoints();
        if (smoke)
            points.resize(std::min<size_t>(points.size(), 6));
    }

    PassResult
    run() override
    {
        PassResult pass;
        pass.clock.start();
        for (const ExplorePoint &p : points) {
            const auto &kernel = kernels[static_cast<size_t>(p.kernel)];
            RunConfig cfg = exploreConfig(p);
            std::string err;
            FabricRun run;
            OpTimer timer;
            if (PreparedPtr prep = prepareKernel(kernel, cfg, &err))
                run = executeOnFabric(*prep, kernel, cfg, &err);
            timer.stop(pass);
            addRun(pass, run, err, label(p));
        }
        pass.clock.stop();
        return pass;
    }

    PassResult
    runTraced(Tracer &t) override
    {
        PassResult pass;
        pass.clock.start();
        for (const ExplorePoint &p : points) {
            const auto &kernel = kernels[static_cast<size_t>(p.kernel)];
            RunConfig cfg = exploreConfig(p);
            std::string err;
            FabricRun run;
            OpTimer timer;
            {
                t.beginOp();
                SpanScope op(t, "op", Layer::None);
                run = replayRun(t, kernel, cfg, &err);
            }
            timer.stop(pass);
            addRun(pass, run, err, label(p));
        }
        pass.clock.stop();
        return pass;
    }

  private:
    std::string
    label(const ExplorePoint &p) const
    {
        return csprintf("%s/u%d/%s/tm%d",
                        kernels[static_cast<size_t>(p.kernel)].name.c_str(),
                        p.unroll, fabricTag(p.fabric), p.timeMux ? 1 : 0);
    }

    static std::vector<ExplorePoint> explorePoints();

    uint64_t seed;
    bool smoke;
    std::vector<workloads::KernelInstance> kernels;
    std::vector<ExplorePoint> points;
};

/**
 * The candidates that map (`psbench --list-explore-points`), fixed
 * when the workload was defined: 89 of 144, the same for every seed
 * tried (the graphs do not depend on the input values). Rows are the
 * six kernels, columns unroll 1, 2, 4, 8; bit 2 * fabric + timeMux
 * marks a point. A later toolchain that stops mapping one of them
 * fails that operation.
 */
constexpr uint8_t kExploreMaps[6][4] = {
    {0x3f, 0x3e, 0x3c, 0x08}, // DMM
    {0x3f, 0x3f, 0x0c, 0x3c}, // SpMV
    {0x3f, 0x3e, 0x3c, 0x08}, // Dither
    {0x3f, 0x3c, 0x3c, 0x00}, // SpSlice
    {0x3f, 0x3c, 0x3c, 0x00}, // SpMSpVd
    {0x3f, 0x3c, 0x08, 0x00}, // SpMSpMd
};

std::vector<ExplorePoint>
ExploreCold::explorePoints()
{
    std::vector<ExplorePoint> out;
    for (const ExplorePoint &p : exploreCandidates()) {
        // Unroll 1, 2, 4, 8 is column 0, 1, 2, 3.
        int col = std::countr_zero(static_cast<unsigned>(p.unroll));
        int bit = 2 * static_cast<int>(p.fabric) + (p.timeMux ? 1 : 0);
        if (kExploreMaps[p.kernel][col] & (1 << bit))
            out.push_back(p);
    }
    return out;
}

// ---------------------------------------------------------------------
// serve-distinct: an in-process ServeServer under a closed loop of
// distinct requests.

/** Kernel shapes served, at fixed sizes (so each shape×config shares
 *  one prepared Program) and with seeded random inputs. */
struct ServeShape
{
    const char *name;
    const char *sir;
};

const ServeShape kServeShapes[] = {
    {"vector_scale", "program vector_scale\n"
                     "array x 32\n"
                     "array y 32\n"
                     "livein n\n"
                     "\n"
                     "foreach i = 0 .. n:\n"
                     "  v = load x[i]\n"
                     "  s = mul v 3\n"
                     "  r = add s 7\n"
                     "  store y[i] = r\n"
                     "end\n"},
    {"prefix_count", "program prefix_count\n"
                     "array seeds 16\n"
                     "array steps 16\n"
                     "livein n\n"
                     "livein threshold\n"
                     "\n"
                     "foreach i = 0 .. n:\n"
                     "  v = load seeds[i]\n"
                     "  c = const 0\n"
                     "  while:\n"
                     "    big = gt v threshold\n"
                     "  cond big\n"
                     "  do:\n"
                     "    half = shr v 1\n"
                     "    v = add half 0\n"
                     "    c = add c 1\n"
                     "  end\n"
                     "  store steps[i] = c\n"
                     "end\n"},
    {"histogram", "program histogram\n"
                  "array data 64\n"
                  "array hist 8\n"
                  "livein n\n"
                  "\n"
                  "for i = 0 .. n:\n"
                  "  v = load data[i]\n"
                  "  bucket = and v 7\n"
                  "  old = load hist[bucket]\n"
                  "  upd = add old 1\n"
                  "  store hist[bucket] = upd\n"
                  "end\n"},
    {"spmv", "program spmv\n"
             "array rowptr 9\n"
             "array colidx 32\n"
             "array val 32\n"
             "array x 8\n"
             "array y 8\n"
             "livein n\n"
             "\n"
             "foreach i = 0 .. n:\n"
             "  start = load rowptr[i]\n"
             "  stop1 = add i 1\n"
             "  stop = load rowptr[stop1]\n"
             "  acc = const 0\n"
             "  for k = start .. stop:\n"
             "    c = load colidx[k]\n"
             "    v = load val[k]\n"
             "    xv = load x[c]\n"
             "    prod = mul v xv\n"
             "    acc = add acc prod\n"
             "  end\n"
             "  store y[i] = acc\n"
             "end\n"},
};

constexpr int kServeShapeCount = 4;
/** shape × {pipestitch, riptide} × depth {4, 8}. */
constexpr int kServeCombos = kServeShapeCount * 2 * 2;
/** A closed loop of two clients on two server workers: with the main
 *  thread and the server's intake thread that is one busy thread per
 *  CPU of a 4-vCPU host. Four of each spread the tail latency by about
 *  a fifth from run to run, with where the scheduler put the threads. */
constexpr int kServeInFlight = 2;
constexpr int kServeJobs = 2;

void
writeArray(trace::JsonWriter &w, const char *name,
           const std::vector<int64_t> &vals)
{
    w.key(name).beginArray();
    for (int64_t v : vals)
        w.value(v);
    w.endArray();
}

/** Request @p index: combo index % kServeCombos, inputs from @p rng. */
std::string
serveRequest(int index, Rng &rng)
{
    int combo = index % kServeCombos;
    int shape = combo / 4;
    const char *variant = (combo / 2) % 2 ? "riptide" : "pipestitch";
    int depth = combo % 2 ? 8 : 4;

    std::ostringstream os;
    trace::JsonWriter w(os);
    w.beginObject();
    w.key("id").value(csprintf("r%d", index));
    w.key("sir").value(kServeShapes[shape].sir);
    w.key("variant").value(variant);
    w.key("depth").value(depth);
    w.key("liveins").beginObject();
    auto random = [&](int n, int64_t lo, int64_t hi) {
        std::vector<int64_t> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = rng.nextRange(lo, hi);
        return v;
    };
    switch (shape) {
      case 0:
        w.key("n").value(32);
        w.endObject();
        w.key("init").beginObject();
        writeArray(w, "x", random(32, -1000, 1000));
        break;
      case 1:
        w.key("n").value(16);
        w.key("threshold").value(2);
        w.endObject();
        w.key("init").beginObject();
        writeArray(w, "seeds", random(16, 1, 4095));
        break;
      case 2:
        w.key("n").value(64);
        w.endObject();
        w.key("init").beginObject();
        writeArray(w, "data", random(64, 0, 1 << 20));
        break;
      default: {
        w.key("n").value(8);
        w.endObject();
        w.key("init").beginObject();
        std::vector<int64_t> rowptr{0}, colidx, val;
        for (int r = 0; r < 8; r++) {
            int nnz = static_cast<int>(rng.nextRange(0, 4));
            for (int k = 0; k < nnz; k++) {
                colidx.push_back(rng.nextRange(0, 7));
                val.push_back(rng.nextRange(-8, 8));
            }
            rowptr.push_back(static_cast<int64_t>(colidx.size()));
        }
        writeArray(w, "rowptr", rowptr);
        writeArray(w, "colidx", colidx);
        writeArray(w, "val", val);
        writeArray(w, "x", random(8, -8, 8));
        break;
      }
    }
    w.endObject();
    w.endObject();
    return os.str();
}

/** An `ok` response's reported results; energy as the JSON carries
 *  it (9 significant digits). */
bool
parseResponse(const std::string &payload, OpResult &out,
              std::string &error)
{
    trace::JsonValue v;
    if (!trace::parseJson(payload, v, &error))
        return false;
    const auto *status = v.find("status");
    if (!status || status->asString() != "ok") {
        const auto *e = v.find("error");
        error = "status " + (status ? status->asString() : "?") +
                (e ? ": " + e->asString() : "");
        return false;
    }
    out.cycles = v.find("cycles")->asInt();
    out.energyPj = v.find("energy_pj")->asDouble();
    out.memHash = std::strtoull(v.find("mem_hash")->asString().c_str(),
                                nullptr, 16);
    return true;
}

double
asReported(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::strtod(buf, nullptr);
}

bool
variantFromName(const std::string &name, ArchVariant &out)
{
    if (name == "pipestitch")
        out = ArchVariant::Pipestitch;
    else if (name == "riptide")
        out = ArchVariant::RipTide;
    else
        return false;
    return true;
}

class ServeDistinct final : public Workload
{
  public:
    ServeDistinct(uint64_t seed, bool smoke)
        : seed(seed), requestsPerPass(smoke ? 64 : 1000),
          jobs(std::min(kServeJobs,
                        static_cast<int>(std::max(
                            1u, std::thread::hardware_concurrency()))))
    {
    }

    bool concurrent() const override { return true; }

    void
    release() override
    {
        server.reset();
        warmup.clear();
        requests.clear();
    }

    void
    setup() override
    {
        Rng rng(seed);
        for (int i = 0; i < kServeCombos; i++)
            warmup.push_back(serveRequest(i, rng));
        for (int i = 0; i < requestsPerPass; i++)
            requests.push_back(serveRequest(i, rng));

        runner::ServeOptions so;
        so.jobs = jobs;
        server = std::make_unique<runner::ServeServer>(so);
        // Warm the prepared layer: one request per kernel×config.
        std::vector<runner::ServeServer::Response> warm;
        for (const auto &line : warmup)
            warm.push_back(server->submit(line));
        warmupOk = true;
        for (const auto &r : warm) {
            OpResult ignored;
            std::string err;
            warmupOk &= parseResponse(r.payload.get(), ignored, err);
        }
    }

    PassResult
    run() override
    {
        PassResult pass;
        const size_t n = requests.size();
        std::vector<runner::ServeServer::Response> responses(n);
        std::vector<int64_t> submitNs(n, 0);
        std::deque<size_t> inflight;
        size_t next = 0;
        auto refill = [&] {
            while (next < n && inflight.size() < kServeInFlight) {
                submitNs[next] = nowNs();
                responses[next] = server->submit(requests[next]);
                inflight.push_back(next++);
            }
        };

        pass.clock.start();
        refill();
        while (!inflight.empty()) {
            responses[inflight.front()].payload.wait();
            std::erase_if(inflight, [&](size_t i) {
                return responses[i].payload.wait_for(
                           std::chrono::seconds(0)) ==
                       std::future_status::ready;
            });
            refill();
        }
        pass.clock.stop();

        for (size_t i = 0; i < n; i++) {
            OpResult r;
            std::string err;
            bool ok = parseResponse(responses[i].payload.get(), r, err);
            pass.results.push_back(r);
            if (!ok)
                pass.opFailed(csprintf("request %zu: %s", i, err.c_str()));
            int64_t done =
                responses[i].doneNs->load(std::memory_order_relaxed);
            pass.latencyMs.push_back(
                static_cast<double>(done - submitNs[i]) / 1e6);
        }

        runner::ServeStats st = server->stats();
        pass.memo = server->cache().stats();
        pass.dedupHits = st.dedupHits;
        if (!warmupOk)
            pass.checkFailed("a warm-up request failed");
        if (st.dedupHits != 0) {
            pass.checkFailed(csprintf("%lld dedup hits on distinct requests",
                                      static_cast<long long>(st.dedupHits)));
        }
        if (pass.memo.preparedComputes != kServeCombos) {
            pass.checkFailed(csprintf(
                "%lld prepared computes for %d kernel x config combos",
                static_cast<long long>(pass.memo.preparedComputes),
                kServeCombos));
        }
        return pass;
    }

    PassResult
    runTraced(Tracer &t) override
    {
        PassResult pass;
        // The server's prepared layer. One replay thread per server
        // worker; each warms its share of it untraced, as setup()
        // warms the server's (which also gets the thread's first
        // allocations out of the way), then takes the next request as
        // it finishes one, like the closed loop, recording into its
        // own tracer.
        runner::MemoCache cache;
        const size_t n = requests.size();
        std::vector<OpResult> results(n);
        std::vector<std::string> errors(n);
        Dedup seen;
        std::atomic<size_t> next{0};
        const int32_t firstOp = t.lastOp() + 1;
        std::vector<Tracer> tracers;
        for (int k = 0; k < jobs; k++)
            tracers.emplace_back(k);
        std::latch warmed(jobs), go(1);
        {
            std::vector<std::thread> threads;
            for (int k = 0; k < jobs; k++) {
                threads.emplace_back([&, k] {
                    Tracer untraced;
                    for (size_t w = static_cast<size_t>(k);
                         w < warmup.size(); w += static_cast<size_t>(jobs)) {
                        std::string err;
                        replayRequest(untraced, cache, warmup[w], err);
                    }
                    warmed.count_down();
                    go.wait();
                    Tracer &wt = tracers[static_cast<size_t>(k)];
                    for (size_t i = next++; i < n; i = next++) {
                        wt.beginOp(firstOp + static_cast<int32_t>(i));
                        SpanScope op(wt, "op", Layer::None);
                        results[i] = replayRequest(wt, cache, requests[i],
                                                   errors[i], &seen);
                    }
                });
            }
            warmed.wait();
            pass.clock.start();
            go.count_down();
            for (auto &th : threads)
                th.join();
            pass.clock.stop();
        }
        for (const Tracer &wt : tracers)
            t.absorb(wt);
        for (size_t i = 0; i < n; i++) {
            pass.results.push_back(std::move(results[i]));
            if (!errors[i].empty())
                pass.opFailed(
                    csprintf("request %zu: %s", i, errors[i].c_str()));
        }
        return pass;
    }

  private:
    /**
     * One request through the layers ServeServer::submit and its
     * worker call: JSON request parse, SIR parse, memory binding,
     * content dedup, prepared lookup (or the prepare stages),
     * execution, and the response's memory hash.
     */
    /** ServeServer::submit's content dedup, shared by the replay
     *  threads. */
    struct Dedup
    {
        std::mutex mu;
        std::set<uint64_t> keys;

        bool
        insert(uint64_t key)
        {
            std::lock_guard<std::mutex> lock(mu);
            return keys.insert(key).second;
        }
    };

    static OpResult
    replayRequest(Tracer &t, runner::MemoCache &cache,
                  const std::string &line, std::string &err,
                  Dedup *seen = nullptr)
    {
        OpResult out;
        trace::JsonValue v;
        RunConfig cfg;
        cfg.quiet = true;
        cfg.cache = &cache;
        {
            SpanScope s(t, "runner.parse_request", Layer::Runner);
            if (!trace::parseJson(line, v, &err))
                return out;
            if (!variantFromName(v.find("variant")->asString(),
                                 cfg.variant)) {
                err = "unknown variant";
                return out;
            }
            cfg.sim.bufferDepth =
                static_cast<int>(v.find("depth")->asInt(4));
        }
        sir::ParseResult parsed;
        {
            SpanScope s(t, "sir.parse", Layer::Sir);
            ScopedQuiet quiet(true);
            parsed = sir::parseSir(v.find("sir")->str, "<request>");
        }
        t.counts.parses++;
        workloads::KernelInstance kernel;
        {
            SpanScope s(t, "runner.bind_request", Layer::Runner);
            kernel.name = parsed.program.name;
            kernel.prog = std::move(parsed.program);
            const auto *liveins = v.find("liveins");
            for (sir::Reg r : kernel.prog.liveIns) {
                const auto *x = liveins->find(
                    kernel.prog.regNames[static_cast<size_t>(r)]);
                kernel.liveIns.push_back(
                    x ? static_cast<sir::Word>(x->asInt()) : 0);
            }
            kernel.memory = scalar::makeMemory(kernel.prog);
            for (const auto &[name, vals] : v.find("init")->members) {
                const auto &arr =
                    kernel.prog.array(parsed.arrays.at(name));
                for (size_t i = 0; i < vals.elems.size(); i++) {
                    kernel.memory[static_cast<size_t>(arr.base) + i] =
                        static_cast<sir::Word>(vals.elems[i].asInt());
                }
            }
            // The request is consumed; free it inside the span.
            v = trace::JsonValue();
            parsed = sir::ParseResult();
        }
        if (seen) {
            SpanScope s(t, "runner.dedup", Layer::Runner);
            if (!seen->insert(runner::MemoCache::runKey(kernel, cfg))) {
                err = "duplicate request";
                return out;
            }
        }
        FabricRun run = replayRun(t, kernel, cfg, &err);
        if (!err.empty())
            return out;
        {
            SpanScope s(t, "runner.render", Layer::Runner);
            out.cycles = run.cycles();
            out.energyPj = asReported(run.energy.totalPj());
            out.memHash = hashWords(run.memory);
            run = FabricRun();
            kernel = workloads::KernelInstance();
        }
        return out;
    }

    uint64_t seed;
    int requestsPerPass;
    int jobs; ///< server workers and replay threads: min(2, nproc)
    std::vector<std::string> warmup;
    std::vector<std::string> requests;
    std::unique_ptr<runner::ServeServer> server;
    bool warmupOk = false;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-sweep", "sim-large", "explore-cold", "serve-distinct"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, bool smoke)
{
    if (name == "paper-sweep")
        return std::make_unique<PaperSweep>(seed, smoke);
    if (name == "sim-large")
        return std::make_unique<SimLarge>(seed, smoke);
    if (name == "explore-cold")
        return std::make_unique<ExploreCold>(seed, smoke);
    if (name == "serve-distinct")
        return std::make_unique<ServeDistinct>(seed, smoke);
    return nullptr;
}

void
listExplorePoints(uint64_t seed)
{
    auto kernels = exploreKernels(seed);
    int kept = 0;
    for (const ExplorePoint &p : exploreCandidates()) {
        const auto &kernel = kernels[static_cast<size_t>(p.kernel)];
        RunConfig cfg = exploreConfig(p);
        std::string err;
        bool ok = false;
        int64_t t0 = nowNs();
        try {
            // planTimeMultiplexing fatal()s on graphs it cannot fold,
            // even under prepareKernel's error out-param.
            ScopedFatalTrap trap;
            if (PreparedPtr prep = prepareKernel(kernel, cfg, &err)) {
                FabricRun run = executeOnFabric(*prep, kernel, cfg, &err);
                ok = err.empty();
            }
        } catch (const FatalError &e) {
            err = e.what();
        }
        double ms = static_cast<double>(nowNs() - t0) / 1e6;
        if (ok) {
            kept++;
            std::printf("    {%d, %d, FabricKind::%s, %s}, // %s %.1f ms\n",
                        p.kernel, p.unroll,
                        p.fabric == FabricKind::Grid8    ? "Grid8"
                        : p.fabric == FabricKind::Grid16 ? "Grid16"
                                                         : "Tiles2x2",
                        p.timeMux ? "true" : "false", kernel.name.c_str(),
                        ms);
        } else {
            std::fprintf(stderr, "skip %s u%d %s tm%d: %.80s\n",
                         kernel.name.c_str(), p.unroll,
                         fabricTag(p.fabric), p.timeMux ? 1 : 0,
                         err.c_str());
        }
    }
    std::fprintf(stderr, "%d points map\n", kept);
}

} // namespace psbench

/**
 * @file
 * psbench — the toolchain benchmark.
 *
 *   psbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--smoke] [--trace-out FILE]
 *           [--git-describe STR] [--source-digest STR]
 *   psbench --list-explore-points [--seed N]
 *
 * Runs passes of one workload for about S seconds. Each pass is
 * preceded by a fresh setup (inputs from the seed, a new Runner or
 * ServeServer), timed as `setup_s`. With --trace 0 every pass is
 * untraced and the end-to-end metrics are printed; with --trace 1
 * untraced and traced passes alternate and the per-layer metrics are
 * printed. Every pass must reproduce the first untraced pass's
 * results exactly. Host times are reported at a reference host speed
 * (calibrationS); the record keeps the raw ones.
 *
 * stdout: one full record line (schema_version, host, build, every
 * metric, per-pass samples), then the result line
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "trace/json.hh"
#include "workloads.hh"

#ifndef PSBENCH_BUILD_TYPE
#define PSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace psbench;

constexpr int kSchemaVersion = 2;
/** Untraced runs take the best of at least this many passes. */
constexpr int kMinRounds = 2;
/** Sequential workloads also time a setup (of a second instance of
 *  the workload) between operations, at most this often. */
constexpr int64_t kInterludeGapNs = 250'000'000;

/**
 * Host speed. What else shares the machine slows each CPU by up to a
 * half, in spells of a second to minutes, and every host time with it.
 * So host times are reported at a reference speed, scaled by
 * kCalibrationRefS / (a fixed integer loop's time next to them): the
 * loop runs right before every setup, so a setup, a sequential
 * operation (the last loop taken when it ended) and a concurrent pass
 * (its setup's loop) each have one. Per-layer times, from spans pooled
 * over the traced passes, use the 10th percentile of all the run's
 * loop times. The loop uses nothing of the toolchain: a toolchain
 * change moves the scaled times as much as the raw ones.
 */
constexpr uint64_t kCalibrationIters = 1 << 20;
/** The loop's 10th-percentile time on the 4-vCPU Xeon host the bounds
 *  in BENCHMARK.json were set on. */
constexpr double kCalibrationRefS = 0.0045;

volatile uint64_t calibrationSink;

/** One timing of the calibration loop (xorshift with a data-dependent
 *  branch and a division: serial, branchy integer work, as the
 *  simulator's). */
double
calibrationS()
{
    const int64_t t0 = nowNs();
    uint64_t x = 88172645463325252ull, acc = 0;
    for (uint64_t k = 0; k < kCalibrationIters; k++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x & 3) ? x % 7 : x >> 3;
    }
    calibrationSink = acc;
    return static_cast<double>(nowNs() - t0) / 1e9;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool listPoints = false;
    std::string traceOut;
    std::string gitDescribe;
    std::string sourceDigest;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: psbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n"
                 "               [--trace-out FILE] "
                 "[--git-describe STR] [--source-digest STR]\n"
                 "       psbench --list-explore-points [--seed N]\n"
                 "workloads:");
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(next().c_str());
        else if (a == "--trace")
            o.trace = next() != "0";
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--list-explore-points")
            o.listPoints = true;
        else if (a == "--trace-out")
            o.traceOut = next();
        else if (a == "--git-describe")
            o.gitDescribe = next();
        else if (a == "--source-digest")
            o.sourceDigest = next();
        else
            usage();
    }
    return o;
}

int
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile: p99 of 1000 samples leaves 10 above. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A pass's simulated totals; every pass must repeat them. */
struct ModelTotals
{
    int64_t cycles = 0;
    double energyUj = 0;

    explicit ModelTotals(const std::vector<OpResult> &results)
    {
        double pj = 0;
        for (const OpResult &r : results) {
            cycles += r.cycles;
            pj += r.energyPj;
        }
        energyUj = pj / 1e6;
    }
    bool
    operator==(const ModelTotals &o) const
    {
        return cycles == o.cycles && energyUj == o.energyUj;
    }
};

/** Host time of a run's passes, estimated robustly. */
struct HostFigures
{
    double wallS = 0, cpuS = 0, p50Ms = 0, p99Ms = 0;
    /** Sequential workloads: percentiles over the operations' best
     *  times (for the record; they jump between seeds as a different
     *  kernel lands in the middle). */
    double opP50Ms = 0, opP99Ms = 0;
};

/** Each operation's smallest value of @p field across the passes. */
std::vector<double>
bestPerOp(const std::vector<PassResult> &passes,
          std::vector<double> PassResult::*field)
{
    std::vector<double> best = passes.front().*field;
    for (const PassResult &p : passes) {
        for (size_t i = 0; i < best.size(); i++)
            best[i] = std::min(best[i], (p.*field)[i]);
    }
    return best;
}

/**
 * Host noise only ever adds time (other tenants, CPUs withheld from
 * the machine for seconds at a time), so figures are taken at the
 * fast end of the run's passes. Sequential workloads: one pass's time
 * is the sum of its operations' times, each operation at its best; a
 * pass is one batch, the thing a user waits for, so every latency
 * percentile is that pass time. Concurrent workloads (overlapping
 * requests, many short passes, the same requests in every pass): wall
 * and CPU time at their 10th percentile over the passes, which a rare
 * lucky pass cannot move; each request's latency likewise at its 10th
 * percentile over the passes, and p50 / p99 over the requests, so a
 * request preempted in one pass does not set the tail.
 */
HostFigures
hostFigures(const std::vector<PassResult> &passes, bool concurrent)
{
    HostFigures f;
    if (concurrent) {
        std::vector<double> wall, cpu;
        std::vector<std::vector<double>> perRequest;
        for (const PassResult &p : passes) {
            wall.push_back(p.clock.wallS);
            cpu.push_back(p.clock.cpuS);
            perRequest.resize(std::max(perRequest.size(),
                                       p.latencyMs.size()));
            for (size_t i = 0; i < p.latencyMs.size(); i++)
                perRequest[i].push_back(p.latencyMs[i]);
        }
        f.wallS = percentile(wall, 10);
        f.cpuS = percentile(cpu, 10);
        if (!perRequest.empty()) {
            std::vector<double> latency;
            for (const auto &samples : perRequest)
                latency.push_back(percentile(samples, 10));
            f.p50Ms = percentile(latency, 50);
            f.p99Ms = percentile(latency, 99);
        }
        return f;
    }
    std::vector<double> wallMs = bestPerOp(passes, &PassResult::latencyMs);
    for (double ms : wallMs)
        f.wallS += ms / 1e3;
    for (double cpu : bestPerOp(passes, &PassResult::opCpuS))
        f.cpuS += cpu;
    f.p50Ms = f.p99Ms = f.wallS * 1e3;
    f.opP50Ms = percentile(wallMs, 50);
    f.opP99Ms = percentile(wallMs, 99);
    return f;
}

/** @p passes with their host times at the reference speed: operation
 *  i's scaled by the calibration @p calibration[pass][i] (the last one
 *  for later operations; the only one for a concurrent pass). */
std::vector<PassResult>
atReferenceSpeed(std::vector<PassResult> passes,
                 const std::vector<std::vector<double>> &calibration)
{
    for (size_t p = 0; p < passes.size(); p++) {
        const std::vector<double> &c = calibration[p];
        auto factor = [&](size_t i) {
            return kCalibrationRefS / c[std::min(i, c.size() - 1)];
        };
        PassResult &pass = passes[p];
        for (size_t i = 0; i < pass.latencyMs.size(); i++)
            pass.latencyMs[i] *= factor(i);
        for (size_t i = 0; i < pass.opCpuS.size(); i++)
            pass.opCpuS[i] *= factor(i);
        pass.clock.wallS *= factor(0);
        pass.clock.cpuS *= factor(0);
    }
    return passes;
}

/** @p setupS and @p host are at the reference speed. */
std::vector<Metric>
endToEnd(double setupS, const HostFigures &host, double peakRss,
         const std::vector<OpResult> &results)
{
    const ModelTotals model(results);
    const double cycles = static_cast<double>(model.cycles);
    const double ops = static_cast<double>(results.size());
    return {
        {"setup_s", setupS, "s"},
        {"wall_s", host.wallS, "s"},
        {"cpu_s", host.cpuS, "s"},
        {"sim_cycles_per_s", cycles / host.wallS, "1/s"},
        {"rps", ops / host.wallS, "1/s"},
        {"latency_p50_ms", host.p50Ms, "ms"},
        {"peak_rss_mb", peakRss, "MB"},
        {"model_cycles", cycles, "cycles"},
        {"model_energy_uj", model.energyUj, "uJ"},
    };
}

/** Host times are multiplied by @p scale, as in endToEnd. */
std::vector<Metric>
perLayer(const SpanSummary &sum, const LayerCounts &c, int tracedPasses,
         const PassResult &untraced, double tracedWallS,
         double untracedWallS, double scale)
{
    const double n = tracedPasses;
    auto ms = [&](const char *name) { return sum.nameMs(name) / n * scale; };
    auto layer = [&](Layer l) {
        return sum.layerMs[static_cast<int>(l)] / n * scale;
    };
    tracedWallS *= scale;
    untracedWallS *= scale;
    auto per = [&](int64_t count) { return static_cast<double>(count) / n; };
    const auto &m = untraced.memo;
    int64_t compileLookups = m.compileHits + m.compileComputes;
    int64_t mapHits = m.mapHits + m.mapDiskHits;
    int64_t mapLookups = mapHits + m.mapComputes;
    int64_t preparedLookups = m.preparedHits + m.preparedComputes;
    double runMs = ms("sim.run");
    return {
        {"sim.run_ms", runMs, "ms"},
        {"sim.ns_per_fire",
         c.simFires ? runMs * 1e6 / per(c.simFires) : 0, "ns"},
        {"sim.cycles_per_s",
         runMs > 0 ? per(c.simCycles) / (runMs / 1e3) : 0, "1/s"},
        {"sim.runs", per(c.simRuns), "count"},
        {"sim.fires", per(c.simFires), "count"},
        {"sim.cycles", per(c.simCycles), "cycles"},
        {"sim.state_build_ms", ms("sim.state"), "ms"},
        {"sim.program_build_ms", ms("sim.program"), "ms"},
        {"sim.self_ms", layer(Layer::Sim), "ms"},
        {"mapper.map_ms", ms("mapper.map"), "ms"},
        {"mapper.maps", per(c.maps), "count"},
        {"mapper.cost", c.mapCost / n, "cost"},
        {"mapper.cut_edges", per(c.cutEdges), "count"},
        {"mapper.self_ms", layer(Layer::Mapper), "ms"},
        {"compiler.compile_ms", ms("compiler.compile"), "ms"},
        {"compiler.timemux_ms", ms("compiler.timemux"), "ms"},
        {"compiler.compiles", per(c.compiles), "count"},
        {"compiler.dfg_nodes", per(c.dfgNodes), "count"},
        {"compiler.self_ms", layer(Layer::Compiler), "ms"},
        {"analysis.analyze_ms", ms("analysis.analyze"), "ms"},
        {"analysis.lint_ms", ms("analysis.lint"), "ms"},
        {"analysis.bound_ms", ms("analysis.bound"), "ms"},
        {"analysis.self_ms", layer(Layer::Analysis), "ms"},
        {"sir.parse_ms", ms("sir.parse"), "ms"},
        {"sir.parses", per(c.parses), "count"},
        {"scalar.golden_ms", ms("scalar.golden"), "ms"},
        {"scalar.goldens", per(c.goldens), "count"},
        {"energy.model_ms", layer(Layer::Energy), "ms"},
        {"runner.self_ms", layer(Layer::Runner), "ms"},
        {"runner.compile_hit_rate",
         pct(static_cast<double>(m.compileHits),
             static_cast<double>(compileLookups)),
         "%"},
        {"runner.compile_lookups", static_cast<double>(compileLookups),
         "count"},
        {"runner.map_hit_rate",
         pct(static_cast<double>(mapHits), static_cast<double>(mapLookups)),
         "%"},
        {"runner.map_lookups", static_cast<double>(mapLookups), "count"},
        {"runner.prepared_hit_rate",
         pct(static_cast<double>(m.preparedHits),
             static_cast<double>(preparedLookups)),
         "%"},
        {"runner.prepared_lookups", static_cast<double>(preparedLookups),
         "count"},
        {"runner.dedup_hits", static_cast<double>(untraced.dedupHits),
         "count"},
        {"trace.overhead_pct", pct(tracedWallS - untracedWallS,
                                   untracedWallS),
         "%"},
        {"trace.traced_wall_s", tracedWallS, "s"},
        {"trace.untraced_wall_s", untracedWallS, "s"},
        {"trace.op_ms", sum.opMs / n * scale, "ms"},
        {"trace.coverage_pct", pct(sum.coveredMs, sum.opMs), "%"},
        {"trace.coverage_min_pct", 100.0 * sum.minCoverage, "%"},
    };
}

void
writeMetricsObject(std::ostream &os, const std::vector<Metric> &metrics)
{
    os << "{";
    for (size_t i = 0; i < metrics.size(); i++) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    pipestitch::setQuiet(true);
    if (opt.listPoints) {
        listExplorePoints(opt.seed);
        return 0;
    }
    auto workload = makeWorkload(opt.workload, opt.seed, opt.smoke);
    if (!workload)
        usage();
    // Set up between the operations of a pass of `workload`.
    auto probe = makeWorkload(opt.workload, opt.seed, opt.smoke);

    // Per setup: host time, and the same at the reference speed.
    std::vector<double> setupS, setupRefS, calibrationSamples;
    auto timedSetup = [&](Workload &w) {
        w.release();
        const double calibration = calibrationS();
        calibrationSamples.push_back(calibration);
        int64_t t0 = nowNs();
        w.setup();
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        setupRefS.push_back(setupS.back() * kCalibrationRefS / calibration);
    };
    // Per untraced pass: the calibration next to each operation (the
    // last one taken when it ended), or, when operations overlap, the
    // one next to the pass (its setup's).
    std::vector<std::vector<double>> passCalibration;
    int64_t lastInterlude = nowNs();
    auto interlude = [&] {
        if (nowNs() - lastInterlude >= kInterludeGapNs) {
            timedSetup(*probe);
            probe->release();
            lastInterlude = nowNs();
        }
        passCalibration.back().push_back(calibrationSamples.back());
    };

    std::vector<PassResult> untraced, traced;
    std::vector<OpResult> reference;
    Tracer tracer;
    int64_t attempted = 0, failed = 0;
    bool workloadOk = true;
    std::vector<std::string> errors;
    // Simulated totals of the first untraced and first traced pass.
    std::optional<ModelTotals> untracedModel, tracedModel;
    // Every pass must reproduce the first untraced pass exactly, per
    // operation and in its totals.
    auto account = [&](PassResult &pass, bool isTraced) {
        if (reference.empty())
            reference = pass.results;
        ModelTotals totals(pass.results);
        auto &first = isTraced ? tracedModel : untracedModel;
        if (!first)
            first = totals;
        if (!(totals == ModelTotals(reference))) {
            workloadOk = false;
            errors.push_back(
                "simulated totals differ from the first untraced pass");
        }
        for (size_t i = 0; i < pass.results.size(); i++) {
            const OpResult &r = pass.results[i];
            bool same = i < reference.size() && sameResult(r, reference[i]);
            attempted++;
            if (!r.ok || !same) {
                failed++;
                if (r.ok && errors.size() < 8)
                    errors.push_back(pipestitch::csprintf(
                        "operation %zu differs from the first pass", i));
            }
        }
        if (pass.results.size() != reference.size()) {
            workloadOk = false;
            errors.push_back("pass has a different operation count");
        }
        workloadOk &= pass.workloadOk;
        for (auto &e : pass.errors) {
            if (errors.size() < 16)
                errors.push_back(e);
        }
        // Only the figures are kept; results are checked.
        pass.results.clear();
    };

    // Rounds (a setup and an untraced pass, plus a setup and a traced
    // pass under --trace 1) until the next round would overrun
    // --seconds, and at least kMinRounds without tracing. `setup_s` is
    // the median over every setup: the rounds' own and, for sequential
    // workloads, those between the untraced passes' operations, so its
    // samples spread over the run, nearly all on a heap a pass has
    // warmed (as in a long-lived process).
    const int64_t start = nowNs();
    double longestRound = 0;
    // Peak resident memory after the first round: a fixed amount of
    // work, whatever the number of rounds that fit.
    double peakRss = 0;
    for (int round = 0;; round++) {
        int64_t roundStart = nowNs();
        timedSetup(*workload);
        passCalibration.emplace_back();
        setInterlude(interlude);
        PassResult pass = workload->run();
        setInterlude(nullptr);
        if (passCalibration.back().empty())
            passCalibration.back().push_back(calibrationSamples.back());
        std::fprintf(stderr, "psbench %s pass %d: wall %.3f s cpu %.3f s\n",
                     opt.workload.c_str(), round, pass.clock.wallS,
                     pass.clock.cpuS);
        account(pass, false);
        untraced.push_back(std::move(pass));
        if (opt.trace) {
            timedSetup(*workload);
            PassResult tpass = workload->runTraced(tracer);
            std::fprintf(stderr, "psbench %s traced pass %d: wall %.3f s\n",
                         opt.workload.c_str(), round, tpass.clock.wallS);
            account(tpass, true);
            traced.push_back(std::move(tpass));
        }
        if (round == 0)
            peakRss = peakRssMb();
        longestRound = std::max(
            longestRound, static_cast<double>(nowNs() - roundStart) / 1e9);
        double elapsed = static_cast<double>(nowNs() - start) / 1e9;
        bool enough = opt.trace || opt.smoke || round + 1 >= kMinRounds;
        if (enough && elapsed + longestRound > opt.seconds)
            break;
    }
    // Releasing the last setup is not part of any measurement.
    workload->release();

    const bool concurrent = workload->concurrent();
    HostFigures host = hostFigures(untraced, concurrent);
    HostFigures hostRef =
        hostFigures(atReferenceSpeed(untraced, passCalibration), concurrent);
    const double calibration = percentile(calibrationSamples, 10);
    const double scale = kCalibrationRefS / calibration;
    std::vector<Metric> e2e =
        endToEnd(median(setupRefS), hostRef, peakRss, reference);
    std::vector<Metric> layers;
    if (opt.trace) {
        layers = perLayer(summarize(tracer.spans(), reference.size()),
                          tracer.counts,
                          static_cast<int>(traced.size()), untraced.back(),
                          hostFigures(traced, concurrent).wallS, host.wallS,
                          scale);
        if (!opt.traceOut.empty()) {
            std::ofstream f(opt.traceOut);
            if (f)
                writeTraceEvents(tracer.spans(), opt.workload, f);
            else
                std::fprintf(stderr, "psbench: cannot write %s\n",
                             opt.traceOut.c_str());
        }
    }
    const bool correct = failed == 0 && workloadOk;
    for (const auto &e : errors)
        std::fprintf(stderr, "psbench: FAIL %s\n", e.c_str());

    // The full record: provenance, every metric, per-pass samples.
    std::ostringstream rec;
    {
        using pipestitch::trace::JsonWriter;
        JsonWriter w(rec);
        w.beginObject();
        w.key("schema_version").value(kSchemaVersion);
        w.key("benchmark").value("psbench");
        w.key("workload").value(opt.workload);
        w.key("seed").value(static_cast<int64_t>(opt.seed));
        w.key("smoke").value(opt.smoke);
        w.key("trace").value(opt.trace);
        w.key("host_threads").value(hostThreads());
        w.key("build_type").value(PSBENCH_BUILD_TYPE);
        w.key("git_describe").value(opt.gitDescribe);
        w.key("source_digest").value(opt.sourceDigest);
        w.key("passes").value(static_cast<int64_t>(untraced.size()));
        w.key("traced_passes").value(static_cast<int64_t>(traced.size()));
        w.key("ops_per_pass")
            .value(static_cast<int64_t>(reference.size()));
        w.key("latency_samples_per_pass")
            .value(concurrent ? static_cast<int64_t>(
                                    untraced.front().latencyMs.size())
                              : 1);
        if (!concurrent) {
            w.key("op_latency_p50_ms").value(host.opP50Ms);
            w.key("op_latency_p99_ms").value(host.opP99Ms);
        }
        w.key("calibration_s").value(calibration);
        w.key("calibration_ref_s").value(kCalibrationRefS);
        w.key("host_scale").value(scale);
        w.key("calibration_s_samples").beginArray();
        for (double v : calibrationSamples)
            w.value(v);
        w.endArray();
        // Not a bounded metric: on serve-distinct the slowest requests
        // (the longest simulations) slow by a third in the host's busy
        // spells, where the median request slows by a few percent.
        w.key("latency_p99_ms").value(hostRef.p99Ms);
        w.key("raw_setup_s").value(median(setupS));
        w.key("raw_wall_s").value(host.wallS);
        w.key("setup_s_samples").beginArray();
        for (double v : setupS)
            w.value(v);
        w.endArray();
        w.key("model_cycles_untraced").value(untracedModel->cycles);
        w.key("model_energy_uj_untraced").value(untracedModel->energyUj);
        if (tracedModel) {
            w.key("model_cycles_traced").value(tracedModel->cycles);
            w.key("model_energy_uj_traced").value(tracedModel->energyUj);
        }
        w.key("ops").value(attempted);
        w.key("ops_failed").value(failed);
        w.key("correct").value(correct);
        w.key("wall_s_per_pass").beginArray();
        for (const auto &p : untraced)
            w.value(p.clock.wallS);
        w.endArray();
        w.key("errors").beginArray();
        for (const auto &e : errors)
            w.value(e);
        w.endArray();
        w.key("metrics").beginObject();
        for (const auto *set : {&e2e, &layers}) {
            for (const Metric &m : *set) {
                w.key(m.name).beginObject();
                w.key("value").value(m.value);
                w.key("unit").value(m.unit);
                w.endObject();
            }
        }
        w.endObject();
        w.endObject();
    }
    std::printf("%s\n", rec.str().c_str());

    std::ostringstream last;
    last << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": ";
    writeMetricsObject(last, opt.trace ? layers : e2e);
    last << "}";
    std::printf("%s\n", last.str().c_str());
    return 0;
}

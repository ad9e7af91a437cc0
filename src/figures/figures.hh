/**
 * @file
 * The paper's figures and tables as a library.
 *
 * Every evaluation figure (Figs. 1–21 and Table 1) is a pure render
 * function: it enqueues its simulations on a shared runner::Runner,
 * collects them in submission order, and returns the finished text.
 * `pstool figures` renders them (all, or a subset with `--only`),
 * and because collection order is submission order, a figure's
 * text is independent of worker count, of which other figures share
 * the run, and of cache state.
 *
 * A FigureSet is the shared context for one suite invocation: the
 * Table 1 kernel set, the DNN model, and memoized DNN inference
 * futures. Figures sharing a data point (e.g. Pipestitch at depth 4
 * appears in Figs. 13, 14, 15, 17, 18, 19) get one simulation via
 * the runner's run-level dedup. Render functions must be called
 * from the thread that owns the runner (they enqueue; see
 * runner/sweep.hh).
 */

#ifndef PIPESTITCH_FIGURES_FIGURES_HH
#define PIPESTITCH_FIGURES_FIGURES_HH

#include <cmath>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hh"
#include "runner/sweep.hh"
#include "workloads/dnn.hh"

namespace pipestitch::figures {

/** Deterministic seed shared by every figure. */
constexpr uint64_t kSeed = 1;

inline double
geomean(const std::vector<double> &values)
{
    ps_assert(!values.empty(), "geomean of nothing");
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

struct FigureOptions
{
    /** Shrink kernels and the DNN for fast CI runs. */
    bool smoke = false;
};

class FigureSet
{
  public:
    explicit FigureSet(runner::Runner &runner,
                       const FigureOptions &options = {});

    runner::Runner &runner() { return owner; }
    const FigureOptions &options() const { return opts; }

    /** The six Table 1 kernels (smaller instances when smoke). */
    const std::vector<runner::KernelPtr> &kernels();

    /** Dither, SpSlice, SpMSpVd, SpMSpMd. */
    static bool isThreadedKernel(size_t index) { return index >= 2; }

    /** Enqueue one fabric run (the bench::run configuration). */
    std::shared_future<FabricRun>
    run(const runner::KernelPtr &kernel,
        compiler::ArchVariant variant, int bufferDepth = 4);

    /** Compile-only, on the pool, through the memo cache. */
    std::shared_future<compiler::CompileResult>
    compile(const runner::KernelPtr &kernel,
            compiler::ArchVariant variant);

    const workloads::DnnModel &dnn();

    /** One DNN inference on a CGRA variant; memoized per
     *  (variant, depth) so every figure shares one execution. */
    std::shared_future<workloads::DnnInference>
    dnnFabric(compiler::ArchVariant variant, int bufferDepth = 4);

    /** One DNN inference on a scalar profile; memoized by name. */
    const workloads::DnnInference &
    dnnScalar(const scalar::ScalarProfile &profile);

    /**
     * Enqueue the whole standard grid up front (every kernel on
     * every variant, the depth sweep, both DNN variants) so the
     * full suite runs at maximum concurrency instead of
     * figure-by-figure.
     */
    void prefetch();

  private:
    RunConfig runConfig(compiler::ArchVariant variant,
                        int bufferDepth) const;

    runner::Runner &owner;
    FigureOptions opts;
    std::vector<runner::KernelPtr> ks;
    std::optional<workloads::DnnModel> model;
    std::map<std::pair<int, int>,
             std::shared_future<workloads::DnnInference>>
        dnnRuns;
    std::map<std::string, workloads::DnnInference> dnnScalarRuns;
};

/** One renderable figure. */
struct Figure
{
    const char *id;    ///< e.g. "fig13"
    const char *title; ///< one line for listings
    std::string (*render)(FigureSet &);
};

/** All figures in paper order. */
const std::vector<Figure> &allFigures();

/** Lookup by id; null if unknown. */
const Figure *findFigure(const std::string &id);

} // namespace pipestitch::figures

#endif // PIPESTITCH_FIGURES_FIGURES_HH

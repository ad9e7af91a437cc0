/**
 * @file
 * Concurrent execution of (kernel × variant × config) grids.
 *
 * Runner owns a ThreadPool and a MemoCache and executes runOnFabric
 * jobs on worker threads; every job shares the cache, so a compile
 * or mapping computed for one job is a hit for all later ones. Two
 * further layers of sharing sit on top, both governed by
 * RunnerOptions::memoize and both skipped for observed or traced
 * runs:
 *  - exact-duplicate jobs (same kernel content, same RunConfig)
 *    collapse to one FabricRun via a shared_future — the figure
 *    suite re-runs many identical (kernel, variant) points across
 *    figures;
 *  - distinct jobs whose configs build the same simulated machine
 *    (equal sim::Program::digest(), e.g. DMM on RipTide and on
 *    PipeSB) on the same initial memory image and watchdog share one
 *    simulation (simulateOnFabric). Each job still runs its own
 *    finish step (finishOnFabric): deadlock and bound cross-checks,
 *    golden verify, and the energy of its own variant.
 *
 * Sweep is the grid layer: add jobs one at a time or as a
 * kernels×configs cross product, then run() them concurrently.
 * Results come back in submission order regardless of completion
 * order, so output is deterministic for any --jobs value.
 *
 * Enqueue jobs only from outside the pool (enqueue() is not
 * reentrant from a worker): a job that blocked on a nested future
 * could deadlock a fully-busy pool. Compound workloads (e.g. the
 * DNN) should be submitted as one job that calls runOnFabric
 * internally — they still share the stage cache. Simulation sharing
 * cannot deadlock: a job claims a simulation before running it, so
 * a job that waits for a shared simulation waits only on one that
 * another worker is already running.
 */

#ifndef PIPESTITCH_RUNNER_SWEEP_HH
#define PIPESTITCH_RUNNER_SWEEP_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.hh"
#include "runner/memo.hh"
#include "runner/pool.hh"

namespace pipestitch::runner {

/**
 * Kernels are shared read-only between the submitting thread and
 * the workers (KernelInstance is move-only — its SIR statements are
 * unique_ptrs — and copying megabyte memory images per job would be
 * wasteful anyway).
 */
using KernelPtr = std::shared_ptr<const workloads::KernelInstance>;

/** Wrap a freshly built kernel for submission. */
inline KernelPtr
share(workloads::KernelInstance &&kernel)
{
    return std::make_shared<const workloads::KernelInstance>(
        std::move(kernel));
}

struct RunnerOptions
{
    /** Worker threads; <= 0 means hardware concurrency. */
    int jobs = 0;

    /** Master switch for stage memoization, run dedup and
     *  simulation sharing. */
    bool memoize = true;

    /** Silence warn()/inform() inside pooled runs (keeps parallel
     *  output readable; direct runOnFabric calls are unaffected). */
    bool quietRuns = true;
};

class Runner
{
  public:
    explicit Runner(const RunnerOptions &options = RunnerOptions{});

    ThreadPool &pool() { return workers; }
    MemoCache &cache() { return memo; }
    const RunnerOptions &options() const { return opts; }

    /**
     * Queue one runOnFabric job. @p config is captured by value with
     * the runner's cache and quiet policy applied. Duplicate jobs
     * share one execution. Call from outside the pool only.
     */
    std::shared_future<FabricRun> enqueue(KernelPtr kernel,
                                          const RunConfig &config);

    /** Convenience: enqueue and wait. */
    FabricRun run(KernelPtr kernel, const RunConfig &config);

    /** Submit an arbitrary job to the pool (see ThreadPool). */
    template <typename F>
    auto
    submit(F &&fn)
    {
        return workers.submit(std::forward<F>(fn));
    }

    /** Exact-duplicate jobs served from an earlier enqueue. */
    int64_t dedupHits() const;

    /** Jobs whose simulation was served by another job's run of the
     *  same machine on the same input memory. */
    int64_t simDedupHits() const;

  private:
    using SimOutcomePtr = std::shared_ptr<const SimOutcome>;
    /** (Program digest, MemoCache::kernelKey, watchdog). */
    using SimKey = std::tuple<uint64_t, uint64_t, int64_t>;

    /** Simulate @p prepared unless another job already claimed the
     *  same key; then wait for that job's outcome. Runs on a worker:
     *  a key is claimed only by a running job, so a waiter never
     *  waits on a queued one. */
    SimOutcomePtr simulateShared(const SimKey &key,
                                 const PreparedKernel &prepared,
                                 const workloads::KernelInstance &kernel,
                                 const RunConfig &config);

    RunnerOptions opts;
    MemoCache memo;

    // Touched by running jobs, so declared before `workers`: the
    // pool drains its queue on destruction.
    mutable std::mutex simsMu;
    std::map<SimKey, std::shared_future<SimOutcomePtr>> sims;
    int64_t nSimDedupHits = 0;

    ThreadPool workers;

    mutable std::mutex inflightMu;
    std::map<uint64_t, std::shared_future<FabricRun>> inflight;
    int64_t nDedupHits = 0;
};

/** One grid point plus its future result. */
struct SweepJob
{
    KernelPtr kernel;
    RunConfig config;
    std::shared_future<FabricRun> result;
};

/** One point of a bound-pruned exploration (Sweep::runPruned). */
struct PrunedRun
{
    /** True when the candidate was skipped because its certified
     *  static bound already met or exceeded the incumbent's
     *  simulated cycles; `run` is then default-constructed. */
    bool pruned = false;

    /** The certified cycle floor the decision used: the candidate's
     *  pre-run bound when one could be evaluated (same compiled
     *  graph as the reference), otherwise the run's own
     *  FabricRun::boundCycles (0 with analysis off). */
    int64_t boundCycles = 0;

    FabricRun run;
};

class Sweep
{
  public:
    explicit Sweep(Runner &runner) : owner(runner) {}

    /** Add one point; returns its submission index. */
    size_t add(KernelPtr kernel, const RunConfig &config);

    /** Cross product: every kernel under every config. */
    void addGrid(const std::vector<KernelPtr> &kernels,
                 const std::vector<RunConfig> &configs);

    size_t size() const { return jobs.size(); }
    const SweepJob &job(size_t i) const { return jobs[i]; }

    /** Wait for all points; results in submission order. */
    std::vector<FabricRun> run();

    /** Record a candidate for runPruned() without enqueuing it
     *  (add() submits eagerly; pruning decides lazily). Returns the
     *  candidate's index. */
    size_t addCandidate(KernelPtr kernel, const RunConfig &config);

    size_t candidateCount() const { return candidates.size(); }

    /**
     * Bound-guided design-space exploration over the recorded
     * candidates — the lower-bound pruning consumer of the PS-T
     * throughput analysis (docs/static-analysis.md).
     *
     * Candidates are alternatives for one workload (variants,
     * unroll factors, buffer depths...). Each is compiled (a memo
     * hit when cached) and, when an earlier completed run shares
     * its graph, its certified bound is instantiated with that
     * run's fire counts — fire counts are a property of the graph
     * and its inputs, not of placement, buffering, or scheduler,
     * so the reuse is exact. A candidate whose certified floor
     * already meets or exceeds the incumbent's simulated cycles
     * cannot win and is skipped — e.g. an unrolled incumbent's
     * runtime certifies the plain graph's recurrence floor is too
     * slow. Everything else runs fully (with the floor forwarded
     * as RunConfig::boundPruneCycles so the mapper trims its
     * portfolio) and may become the incumbent. Candidates whose
     * graph has not been seen always run.
     *
     * Runs serially on the calling thread — pruning is inherently
     * sequential (each decision needs the incumbent so far). Results
     * are in submission order. Call from outside the pool.
     */
    std::vector<PrunedRun> runPruned();

  private:
    Runner &owner;
    std::vector<SweepJob> jobs;
    std::vector<std::pair<KernelPtr, RunConfig>> candidates;
};

} // namespace pipestitch::runner

#endif // PIPESTITCH_RUNNER_SWEEP_HH

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
 * A grid of runs is a list of enqueue() futures read back in
 * submission order: results then come out in that order whatever
 * the completion order, so output is deterministic for any --jobs
 * value.
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

} // namespace pipestitch::runner

#endif // PIPESTITCH_RUNNER_SWEEP_HH

#include "runner/sweep.hh"

#include "sim/program.hh"

namespace pipestitch::runner {

Runner::Runner(const RunnerOptions &options)
    : opts(options), workers(options.jobs)
{
}

std::shared_future<FabricRun>
Runner::enqueue(KernelPtr kernel, const RunConfig &config)
{
    RunConfig cfg = config;
    if (opts.memoize)
        cfg.cache = &memo;
    // Pooled runs are always quiet, so parallel output stays
    // readable; direct runOnFabric calls are unaffected.
    cfg.quiet = true;

    // Observed or traced runs exist for their side effects — never
    // collapse them onto another job's execution or simulation.
    // Stage memoization still applies.
    bool dedupable = opts.memoize && !cfg.sim.observer &&
                     !cfg.sim.trace;
    uint64_t kernelKey = dedupable ? MemoCache::kernelKey(*kernel) : 0;
    uint64_t key = dedupable ? MemoCache::runKey(kernelKey, cfg) : 0;
    if (dedupable) {
        std::lock_guard<std::mutex> lock(inflightMu);
        auto it = inflight.find(key);
        if (it != inflight.end()) {
            nDedupHits++;
            return it->second;
        }
    }

    std::shared_future<FabricRun> fut =
        workers
            .submit([this, kernel = std::move(kernel), cfg, dedupable,
                     kernelKey] {
                if (!dedupable)
                    return runOnFabric(*kernel, cfg);
                PreparedPtr prepared = prepareKernel(*kernel, cfg);
                SimKey simKey{prepared->program->digest(), kernelKey,
                              cfg.sim.maxCycles};
                return finishOnFabric(
                    *prepared, *kernel, cfg,
                    *simulateShared(simKey, *prepared, *kernel, cfg));
            })
            .share();
    if (dedupable) {
        std::lock_guard<std::mutex> lock(inflightMu);
        inflight.emplace(key, fut);
    }
    return fut;
}

int64_t
Runner::dedupHits() const
{
    std::lock_guard<std::mutex> lock(inflightMu);
    return nDedupHits;
}

Runner::SimOutcomePtr
Runner::simulateShared(const SimKey &key,
                       const PreparedKernel &prepared,
                       const workloads::KernelInstance &kernel,
                       const RunConfig &config)
{
    std::promise<SimOutcomePtr> claim;
    {
        std::unique_lock<std::mutex> lock(simsMu);
        auto it = sims.find(key);
        if (it != sims.end()) {
            nSimDedupHits++;
            std::shared_future<SimOutcomePtr> running = it->second;
            lock.unlock();
            return running.get();
        }
        sims.emplace(key, claim.get_future().share());
    }
    try {
        auto outcome = std::make_shared<const SimOutcome>(
            simulateOnFabric(prepared, kernel, config));
        claim.set_value(outcome);
        return outcome;
    } catch (...) {
        claim.set_exception(std::current_exception());
        throw;
    }
}

int64_t
Runner::simDedupHits() const
{
    std::lock_guard<std::mutex> lock(simsMu);
    return nSimDedupHits;
}

} // namespace pipestitch::runner

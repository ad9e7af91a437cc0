#include "runner/sweep.hh"

#include "analysis/throughput.hh"
#include "dfg/analysis.hh"
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
    if (opts.quietRuns)
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

FabricRun
Runner::run(KernelPtr kernel, const RunConfig &config)
{
    return enqueue(std::move(kernel), config).get();
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

size_t
Sweep::add(KernelPtr kernel, const RunConfig &config)
{
    SweepJob job;
    job.kernel = kernel;
    job.config = config;
    job.result = owner.enqueue(std::move(kernel), config);
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
}

void
Sweep::addGrid(const std::vector<KernelPtr> &kernels,
               const std::vector<RunConfig> &configs)
{
    for (const auto &kernel : kernels)
        for (const auto &config : configs)
            add(kernel, config);
}

std::vector<FabricRun>
Sweep::run()
{
    std::vector<FabricRun> results;
    results.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        results.push_back(job.result.get());
    return results;
}

size_t
Sweep::addCandidate(KernelPtr kernel, const RunConfig &config)
{
    candidates.emplace_back(std::move(kernel), config);
    return candidates.size() - 1;
}

std::vector<PrunedRun>
Sweep::runPruned()
{
    std::vector<PrunedRun> results;
    results.reserve(candidates.size());

    // The incumbent (fewest simulated cycles so far) and, per
    // compiled-graph fingerprint, the fire counts of one completed
    // run. The two are deliberately decoupled: fire counts are a
    // property of the graph and its inputs — not of placement,
    // buffering, banking, or scheduler — so any completed run of
    // the same graph instantiates a later candidate's bound
    // exactly, while the cycles to beat may come from a different
    // (faster) graph entirely. That cross-graph comparison is the
    // whole point: an unrolled incumbent's runtime can certify that
    // the plain graph's recurrence floor is already too slow.
    int64_t bestCycles = 0;
    struct FireRef
    {
        const workloads::KernelInstance *kernel;
        sim::SimStats stats;
    };
    std::map<uint64_t, FireRef> firesByGraph;

    for (const auto &[kernel, config] : candidates) {
        PrunedRun point;

        if (bestCycles > 0) {
            // Compile through the runner's memo (a hit whenever an
            // earlier candidate compiled the same options) and look
            // for a fire-count reference with the same graph. The
            // kernel-identity guard keeps a fingerprint collision
            // across kernels (different inputs, different fires)
            // from poisoning the evaluation.
            compiler::CompileOptions copts;
            copts.variant = config.variant;
            copts.threading = config.threading;
            copts.useStreams = config.useStreams;
            copts.bufferDepth = config.sim.bufferDepth;
            copts.unrollFactor = config.unrollFactor;
            compiler::CompileResult res;
            MemoCache *memo =
                owner.options().memoize ? &owner.cache() : nullptr;
            if (!memo || !memo->lookupCompile(*kernel, copts, res)) {
                res = compiler::compileProgram(kernel->prog,
                                               kernel->liveIns, copts);
                if (memo)
                    memo->storeCompile(*kernel, copts, res);
            }
            auto ref =
                firesByGraph.find(dfg::graphFingerprint(res.graph));
            if (ref != firesByGraph.end() &&
                ref->second.kernel == kernel.get()) {
                // Evaluate the certified floor under this
                // candidate's buffering/banking config.
                std::shared_ptr<const dfg::Graph> hold(
                    std::shared_ptr<const dfg::Graph>(), &res.graph);
                sim::SimConfig scfg = res.simConfig;
                scfg.bufferDepth = config.sim.bufferDepth;
                scfg.memBanks = config.fabric.memBanks;
                sim::Program prog(hold, scfg);
                sim::BoundReport::Evaluation ev =
                    analysis::computeBound(prog).evaluate(
                        ref->second.stats);
                point.boundCycles = ev.certifiedCycles;
                if (ev.certifiedCycles >= bestCycles) {
                    point.pruned = true;
                    results.push_back(std::move(point));
                    continue;
                }
            }
        }

        RunConfig cfg = config;
        if (point.boundCycles > 0)
            cfg.boundPruneCycles = point.boundCycles;
        point.run = owner.run(kernel, cfg);
        if (point.boundCycles == 0)
            point.boundCycles = point.run.boundCycles;

        const bool completed = !point.run.sim.deadlocked &&
                               !point.run.sim.watchdogExpired;
        if (completed) {
            firesByGraph.emplace(
                dfg::graphFingerprint(point.run.compiled().graph),
                FireRef{kernel.get(), point.run.sim.stats});
            if (bestCycles == 0 || point.run.cycles() < bestCycles)
                bestCycles = point.run.cycles();
        }
        results.push_back(std::move(point));
    }
    return results;
}

} // namespace pipestitch::runner

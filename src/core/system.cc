#include "core/system.hh"

#include "analysis/placement.hh"
#include "analysis/throughput.hh"
#include "base/logging.hh"
#include "compiler/timemux.hh"
#include "compiler/unroll.hh"
#include "mapper/tiled.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"

namespace pipestitch {

namespace {

/** Report a pipeline failure: fatal() for batch callers (error ==
 *  null), collected for resident callers (the serve daemon must not
 *  exit the process on a bad request). */
void
reportFailure(std::string *error, std::string msg)
{
    if (!error)
        fatal("%s", msg.c_str());
    if (error->empty())
        *error = std::move(msg);
}

} // namespace

PreparedPtr
prepareKernel(const workloads::KernelInstance &kernel,
              const RunConfig &config, std::string *error)
{
    ScopedQuiet scopedQuiet(config.quiet);
    std::string unrollError;
    if (!compiler::checkUnrollFactor(config.unrollFactor,
                                     config.topology(), unrollError)) {
        reportFailure(error, csprintf("kernel %s: %s",
                                      kernel.name.c_str(),
                                      unrollError.c_str()));
        return nullptr;
    }
    // Checked before anything sizes a structure by the tile grid.
    if (config.tiled()) {
        std::string terr;
        if (!config.topology().validate(&terr)) {
            reportFailure(
                error,
                csprintf("kernel %s: invalid tiled topology: %s",
                         kernel.name.c_str(), terr.c_str()));
            return nullptr;
        }
    }
    if (config.cache) {
        if (auto hit = config.cache->lookupPrepared(kernel, config))
            return hit;
    }

    auto prep = std::make_shared<PreparedKernel>();

    compiler::CompileOptions copts;
    copts.variant = config.variant;
    copts.threading = config.threading;
    copts.useStreams = config.useStreams;
    copts.bufferDepth = config.sim.bufferDepth;
    copts.unrollFactor = config.unrollFactor;
    prep->compiled = std::make_shared<const compiler::CompileResult>(
        compiler::compileProgram(kernel.prog, kernel.liveIns, copts));
    const dfg::Graph &graph = prep->compiled->graph;

    if (config.analyze) {
        analysis::AnalysisOptions aopts;
        aopts.bufferDepth = config.sim.bufferDepth;
        prep->analysis = analysis::analyzeGraph(graph, aopts);
        if (!prep->analysis.ok()) {
            reportFailure(
                error,
                csprintf("kernel %s fails static analysis on %s:\n%s",
                         kernel.name.c_str(),
                         compiler::archVariantName(config.variant),
                         prep->analysis.toString(graph).c_str()));
            return nullptr;
        }
    }

    prep->tiled = config.tiled();
    prep->topo = config.topology();
    if (prep->tiled) {
        if (!config.map) {
            reportFailure(
                error,
                csprintf("kernel %s: tiled fabrics require mapping "
                         "(the tile partition drives the inter-tile "
                         "channel model)",
                         kernel.name.c_str()));
            return nullptr;
        }
        if (prep->compiled->simConfig.buffering ==
            sim::SimConfig::Buffering::Source) {
            reportFailure(
                error,
                csprintf("kernel %s: tiled fabrics model inter-tile "
                         "edges as destination-buffered channels; "
                         "the %s variant's source buffering is not "
                         "supported across tiles",
                         kernel.name.c_str(),
                         compiler::archVariantName(config.variant)));
            return nullptr;
        }
    }

    // The lint/area fabric: the whole tile grid when tiled (so the
    // placement rules see boundary links and PS-P06 applies), the
    // plain grid otherwise.
    fabric::Fabric fab = prep->tiled ? fabric::Fabric(prep->topo)
                                     : fabric::Fabric(config.fabric);
    compiler::ShareGroups shareGroups;
    if (config.allowTimeMultiplex) {
        auto planned = compiler::tryPlanTimeMultiplexing(
            graph, prep->tiled ? prep->topo.globalConfig()
                               : config.fabric);
        if (!planned) {
            reportFailure(
                error,
                csprintf("kernel %s: %s", kernel.name.c_str(),
                         compiler::timeMultiplexFailure(graph)
                             .c_str()));
            return nullptr;
        }
        shareGroups = std::move(*planned);
    }
    if (config.map) {
        mapper::MapperOptions mopts;
        mopts.rngSeed = config.mapperSeed;
        mopts.portfolioSeeds = config.mapperSeeds;
        mopts.shareGroups = shareGroups;
        if (prep->tiled) {
            // Tiled placements bypass the mapping memo, whose key
            // is per-grid. Whole-artifact prepared caching still
            // covers them.
            mapper::TiledMapping tm =
                mapper::mapGraphTiled(graph, prep->topo, mopts);
            prep->mapping = std::move(tm.merged);
            prep->tileOf = std::move(tm.tileOf);
            prep->cutEdges = tm.cutEdges;
            prep->interTileLoadMax = tm.interTileLoadMax;
        } else if (!config.cache ||
                   !config.cache->lookupMapping(
                       graph, config.fabric, mopts, prep->mapping)) {
            prep->mapping = mapper::mapGraph(graph, fab, mopts);
            if (config.cache)
                config.cache->storeMapping(graph, config.fabric,
                                           mopts, prep->mapping);
        }
        if (!prep->mapping.success) {
            reportFailure(
                error,
                csprintf(
                    "kernel %s does not map onto the fabric (%s): %s",
                    kernel.name.c_str(),
                    compiler::archVariantName(config.variant),
                    prep->mapping.error.c_str()));
            return nullptr;
        }
        prep->mapped = true;
        prep->avgHops = prep->mapping.avgHops;
        if (config.analyze) {
            analysis::PlacementLintOptions popts;
            popts.shareGroups = shareGroups;
            analysis::lintPlacement(graph, fab, prep->mapping,
                                    prep->analysis, popts);
            if (!prep->analysis.ok()) {
                reportFailure(
                    error,
                    csprintf(
                        "kernel %s fails placement lint on %s:\n%s",
                        kernel.name.c_str(),
                        compiler::archVariantName(config.variant),
                        prep->analysis.toString(graph).c_str()));
                return nullptr;
            }
        }
    }

    // The user's sim config drives the run; only the derived fields
    // come from elsewhere (variant microarchitecture, fabric
    // banking, time-multiplexing plan). Per-run observability is
    // stripped — it rides in at execute time.
    auto simCfg = config.sim;
    simCfg.buffering = prep->compiled->simConfig.buffering;
    simCfg.memBypass = prep->compiled->simConfig.memBypass;
    simCfg.memBanks = prep->tiled
                          ? prep->topo.globalConfig().memBanks
                          : config.fabric.memBanks;
    simCfg.edgeLatencies.clear();
    if (prep->tiled) {
        // Every cross-tile wire edge becomes a latency-N channel in
        // the simulator, priced at the topology's boundary latency.
        // The trigger (tile -1) injects from the scalar core, not
        // over the inter-tile NoC.
        for (dfg::NodeId id = 0; id < graph.size(); id++) {
            const dfg::Node &n = graph.at(id);
            int ct = prep->tileOf[static_cast<size_t>(id)];
            for (int i = 0; i < n.numInputs(); i++) {
                const auto &in = n.inputs[static_cast<size_t>(i)];
                if (!in.isWire())
                    continue;
                int pt =
                    prep->tileOf[static_cast<size_t>(in.port.node)];
                if (pt >= 0 && ct >= 0 && pt != ct) {
                    simCfg.edgeLatencies.push_back(
                        {id, i, config.interTileLatency});
                }
            }
        }
    }
    simCfg.shareGroups.clear();
    for (const auto &group : shareGroups) {
        simCfg.shareGroups.emplace_back(group.begin(), group.end());
    }
    simCfg.observer = nullptr;
    simCfg.trace = false;
    prep->simCfg = simCfg;

    // The Program's graph pointer shares ownership with the
    // CompileResult (not the PreparedKernel, which would be a
    // reference cycle).
    std::shared_ptr<const dfg::Graph> graphPtr(prep->compiled,
                                               &prep->compiled->graph);
    prep->program = std::make_shared<const sim::Program>(
        std::move(graphPtr), simCfg);

    if (config.analyze) {
        // Static throughput bound over the built Program (so
        // inter-tile channels are priced); the route term is
        // advisory provisioning info on top.
        prep->bound = analysis::computeBound(*prep->program);
        if (prep->mapped) {
            analysis::addRouteBound(prep->bound, graph, fab,
                                    prep->mapping);
        }
    }

    auto areaVariant =
        config.variant == compiler::ArchVariant::RipTide
            ? fabric::AreaVariant::RipTide
            : fabric::AreaVariant::Pipestitch;
    prep->area =
        fabric::computeArea(fab, areaVariant, config.sim.bufferDepth);

    PreparedPtr out = std::move(prep);
    if (config.cache)
        config.cache->storePrepared(kernel, config, out);
    return out;
}

SimOutcome
simulateOnFabric(const PreparedKernel &prepared,
                 const workloads::KernelInstance &kernel,
                 const RunConfig &config)
{
    ScopedQuiet scopedQuiet(config.quiet);
    SimOutcome out;
    out.memory = kernel.memory;
    out.memory.resize(std::max(
        out.memory.size(),
        static_cast<size_t>(kernel.prog.memWords)));

    sim::RunOptions ropts;
    ropts.observer = config.sim.observer;
    ropts.trace = config.sim.trace;
    ropts.maxCycles = config.sim.maxCycles;
    sim::ExecutionState exec(prepared.program);
    out.sim = exec.run(out.memory, ropts);
    return out;
}

CrossCheck
crossCheck(const analysis::AnalysisReport &analysis,
           const sim::BoundReport &bound, const sim::SimResult &sim)
{
    CrossCheck out;
    if (sim.deadlocked) {
        // Every quiescence deadlock of a certified graph contradicts
        // the analyzer (its errors fail the prepare).
        if (analysis.deadlockFree && !sim.watchdogExpired &&
            !sim.fault.any()) {
            out.disagreement =
                "static analyzer certified the graph deadlock-free "
                "but the simulator deadlocked — analyzer and "
                "simulator disagree:\n" +
                sim.diagnostic;
        }
        return out;
    }
    // The bound's terms are provable cycle floors, so a run that
    // beats it means the two disagree about the timing model.
    out.boundEval = bound.evaluate(sim.stats);
    if (!out.boundEval.holds(sim.stats.cycles)) {
        const int binding = out.boundEval.binding;
        out.disagreement = csprintf(
            "simulated %lld cycles beats the certified static bound "
            "of %lld cycles (binding term: %s) — analyzer and "
            "simulator disagree",
            static_cast<long long>(sim.stats.cycles),
            static_cast<long long>(out.boundEval.certifiedCycles),
            binding >= 0
                ? sim::boundTermKindName(
                      bound.terms[static_cast<size_t>(binding)].kind)
                : "?");
    }
    return out;
}

FabricRun
finishOnFabric(const PreparedKernel &prepared,
               const workloads::KernelInstance &kernel,
               const RunConfig &config, SimOutcome outcome,
               std::string *error)
{
    ScopedQuiet scopedQuiet(config.quiet);
    FabricRun run;
    run.prepared = prepared.shared_from_this();
    run.sim = std::move(outcome.sim);
    run.memory = std::move(outcome.memory);
    if (run.sim.fault.any()) {
        // An out-of-bounds access is the input's fault (say, a trip
        // count past the arrays), not a disagreement between the
        // analyzer and the simulator.
        reportFailure(
            error,
            csprintf("kernel %s on %s: %s", kernel.name.c_str(),
                     compiler::archVariantName(config.variant),
                     run.sim.diagnostic.c_str()));
        return run;
    }
    std::string disagreement;
    if (config.analyze) {
        CrossCheck check =
            crossCheck(prepared.analysis, prepared.bound, run.sim);
        run.boundCycles = check.boundEval.certifiedCycles;
        run.boundEval = check.boundEval;
        disagreement = std::move(check.disagreement);
        if (!disagreement.empty()) {
            reportFailure(
                error,
                csprintf("kernel %s on %s: %s", kernel.name.c_str(),
                         compiler::archVariantName(config.variant),
                         disagreement.c_str()));
        }
    }
    if (run.sim.deadlocked) {
        reportFailure(
            error,
            csprintf("kernel %s %s on %s:\n%s", kernel.name.c_str(),
                     run.sim.watchdogExpired
                         ? "exceeded its cycle watchdog"
                         : "deadlocked",
                     compiler::archVariantName(config.variant),
                     run.sim.diagnostic.c_str()));
        return run;
    }
    if (!disagreement.empty())
        return run;

    if (config.verifyAgainstGolden) {
        scalar::MemImage golden = kernel.memory;
        golden.resize(run.memory.size());
        scalar::interpret(kernel.prog, golden, kernel.liveIns);
        if (golden != run.memory) {
            reportFailure(
                error,
                csprintf(
                    "kernel %s on %s diverged from the golden model",
                    kernel.name.c_str(),
                    compiler::archVariantName(config.variant)));
            return run;
        }
    }

    run.area = prepared.area;
    const int nodes = prepared.compiled->graph.size();
    run.energy =
        prepared.mapped
            ? energy::fabricEnergyMapped(run.sim.stats, run.area,
                                         prepared.mapping, nodes)
            : energy::fabricEnergy(run.sim.stats, run.area,
                                   prepared.avgHops, nodes);
    run.seconds = energy::secondsFor(run.sim.stats.cycles,
                                     config.fabric.clockMHz);
    run.edp = energy::edp(run.energy, run.seconds);
    return run;
}

const compiler::CompileResult &
FabricRun::compiled() const
{
    static const compiler::CompileResult empty;
    return prepared ? *prepared->compiled : empty;
}

const mapper::Mapping &
FabricRun::mapping() const
{
    static const mapper::Mapping empty;
    return prepared ? prepared->mapping : empty;
}

const analysis::AnalysisReport &
FabricRun::analysis() const
{
    static const analysis::AnalysisReport empty;
    return prepared ? prepared->analysis : empty;
}

const sim::BoundReport &
FabricRun::bound() const
{
    static const sim::BoundReport empty;
    return prepared ? prepared->bound : empty;
}

FabricRun
executeOnFabric(const PreparedKernel &prepared,
                const workloads::KernelInstance &kernel,
                const RunConfig &config, std::string *error)
{
    return finishOnFabric(prepared, kernel, config,
                          simulateOnFabric(prepared, kernel, config),
                          error);
}

FabricRun
runOnFabric(const workloads::KernelInstance &kernel,
            const RunConfig &config, std::string *error)
{
    PreparedPtr prepared = prepareKernel(kernel, config, error);
    if (!prepared)
        return FabricRun{};
    return executeOnFabric(*prepared, kernel, config, error);
}

ScalarRun
runOnScalar(const workloads::KernelInstance &kernel,
            const scalar::ScalarProfile &profile)
{
    ScalarRun run;
    run.memory = kernel.memory;
    run.memory.resize(std::max(
        run.memory.size(),
        static_cast<size_t>(kernel.prog.memWords)));
    auto result =
        scalar::interpret(kernel.prog, run.memory, kernel.liveIns);
    run.counts = result.counts;
    run.cycles = profile.cycles(run.counts);
    run.seconds = profile.seconds(run.counts);
    run.energy = energy::scalarEnergy(run.counts, profile);
    run.edp = energy::edp(run.energy, run.seconds);
    return run;
}

} // namespace pipestitch

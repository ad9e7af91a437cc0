#include "replay.hh"

#include "analysis/placement.hh"
#include "analysis/throughput.hh"
#include "base/logging.hh"
#include "compiler/timemux.hh"
#include "mapper/tiled.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"
#include "workloads/kernels.hh"

namespace psbench {

using namespace pipestitch;

namespace {

void
fail(std::string *error, std::string msg)
{
    if (error->empty())
        *error = std::move(msg);
}

PreparedPtr
replayPrepare(Tracer &t, const workloads::KernelInstance &kernel,
              const RunConfig &config, std::string *error)
{
    ScopedQuiet scopedQuiet(config.quiet);
    if (config.cache) {
        SpanScope s(t, "runner.lookup_prepared", Layer::Runner);
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
    compiler::CompileResult compiled;
    bool hit = false;
    if (config.cache) {
        SpanScope s(t, "runner.lookup_compile", Layer::Runner);
        hit = config.cache->lookupCompile(kernel, copts, compiled);
    }
    if (!hit) {
        {
            SpanScope s(t, "compiler.compile", Layer::Compiler);
            compiled = compiler::compileProgram(kernel.prog,
                                                kernel.liveIns, copts);
        }
        t.counts.compiles++;
        t.counts.dfgNodes += compiled.graph.size();
        if (config.cache) {
            SpanScope s(t, "runner.store_compile", Layer::Runner);
            config.cache->storeCompile(kernel, copts, compiled);
        }
    }
    prep->compiled = std::make_shared<const compiler::CompileResult>(
        std::move(compiled));
    const dfg::Graph &graph = prep->compiled->graph;

    if (config.analyze) {
        analysis::AnalysisOptions aopts;
        aopts.bufferDepth = config.sim.bufferDepth;
        {
            SpanScope s(t, "analysis.analyze", Layer::Analysis);
            prep->analysis = analysis::analyzeGraph(graph, aopts);
        }
        if (!prep->analysis.ok()) {
            fail(error, "kernel " + kernel.name +
                            " fails static analysis");
            return nullptr;
        }
    }

    prep->tiled = config.tiled();
    prep->topo = config.topology();
    if (prep->tiled) {
        std::string terr;
        if (!prep->topo.validate(&terr) || !config.map ||
            prep->compiled->simConfig.buffering ==
                sim::SimConfig::Buffering::Source) {
            fail(error, "kernel " + kernel.name +
                            ": unsupported tiled configuration");
            return nullptr;
        }
    }

    std::optional<fabric::Fabric> fab;
    {
        SpanScope s(t, "mapper.fabric", Layer::Mapper);
        if (prep->tiled)
            fab.emplace(prep->topo);
        else
            fab.emplace(config.fabric);
    }
    compiler::ShareGroups shareGroups;
    if (config.allowTimeMultiplex) {
        SpanScope s(t, "compiler.timemux", Layer::Compiler);
        shareGroups = compiler::planTimeMultiplexing(
            graph, prep->tiled ? prep->topo.globalConfig()
                               : config.fabric);
    }
    if (config.map) {
        mapper::MapperOptions mopts;
        mopts.rngSeed = config.mapperSeed;
        mopts.portfolioSeeds = config.mapperSeeds;
        mopts.jobs = config.mapperJobs;
        mopts.boundPruneCycles = config.boundPruneCycles;
        mopts.shareGroups = shareGroups;
        if (prep->tiled) {
            mapper::TiledMapping tm;
            {
                SpanScope s(t, "mapper.map", Layer::Mapper);
                tm = mapper::mapGraphTiled(graph, prep->topo, mopts);
            }
            t.counts.maps++;
            t.counts.mapCost += tm.merged.cost;
            t.counts.cutEdges += tm.cutEdges;
            prep->mapping = std::move(tm.merged);
            prep->tileOf = std::move(tm.tileOf);
            prep->cutEdges = tm.cutEdges;
            prep->interTileLoadMax = tm.interTileLoadMax;
        } else {
            bool mapHit = false;
            if (config.cache) {
                SpanScope s(t, "runner.lookup_mapping", Layer::Runner);
                mapHit = config.cache->lookupMapping(
                    graph, config.fabric, mopts, prep->mapping);
            }
            if (!mapHit) {
                {
                    SpanScope s(t, "mapper.map", Layer::Mapper);
                    prep->mapping = mapper::mapGraph(graph, *fab, mopts);
                }
                t.counts.maps++;
                t.counts.mapCost += prep->mapping.cost;
                if (config.cache) {
                    SpanScope s(t, "runner.store_mapping",
                                Layer::Runner);
                    config.cache->storeMapping(graph, config.fabric,
                                               mopts, prep->mapping);
                }
            }
        }
        if (!prep->mapping.success) {
            fail(error, "kernel " + kernel.name +
                            " does not map: " + prep->mapping.error);
            return nullptr;
        }
        prep->mapped = true;
        prep->avgHops = prep->mapping.avgHops;
        if (config.analyze) {
            analysis::PlacementLintOptions popts;
            popts.shareGroups = shareGroups;
            {
                SpanScope s(t, "analysis.lint", Layer::Analysis);
                analysis::lintPlacement(graph, *fab, prep->mapping,
                                        prep->analysis, popts);
            }
            if (!prep->analysis.ok()) {
                fail(error, "kernel " + kernel.name +
                                " fails placement lint");
                return nullptr;
            }
        }
    }

    {
        // Deriving the simulator config is part of building the
        // Program it configures.
        SpanScope s(t, "sim.program", Layer::Sim);
        auto simCfg = config.sim;
        simCfg.buffering = prep->compiled->simConfig.buffering;
        simCfg.memBypass = prep->compiled->simConfig.memBypass;
        simCfg.memBanks = prep->tiled
                              ? prep->topo.globalConfig().memBanks
                              : config.fabric.memBanks;
        simCfg.edgeLatencies.clear();
        if (prep->tiled) {
            for (dfg::NodeId id = 0; id < graph.size(); id++) {
                const dfg::Node &n = graph.at(id);
                int ct = prep->tileOf[static_cast<size_t>(id)];
                for (int i = 0; i < n.numInputs(); i++) {
                    const auto &in = n.inputs[static_cast<size_t>(i)];
                    if (!in.isWire())
                        continue;
                    int pt = prep->tileOf[static_cast<size_t>(
                        in.port.node)];
                    if (pt >= 0 && ct >= 0 && pt != ct) {
                        simCfg.edgeLatencies.push_back(
                            {id, i, config.interTileLatency});
                    }
                }
            }
        }
        simCfg.shareGroups.clear();
        for (const auto &group : shareGroups)
            simCfg.shareGroups.emplace_back(group.begin(), group.end());
        simCfg.observer = nullptr;
        simCfg.trace = false;
        prep->simCfg = simCfg;

        std::shared_ptr<const dfg::Graph> graphPtr(
            prep->compiled, &prep->compiled->graph);
        prep->program = std::make_shared<const sim::Program>(
            std::move(graphPtr), simCfg);
    }

    if (config.analyze) {
        SpanScope s(t, "analysis.bound", Layer::Analysis);
        prep->bound = analysis::computeBound(*prep->program);
        if (prep->mapped)
            analysis::addRouteBound(prep->bound, graph, *fab,
                                    prep->mapping);
    }

    {
        SpanScope s(t, "energy.area", Layer::Energy);
        auto areaVariant =
            config.variant == compiler::ArchVariant::RipTide
                ? fabric::AreaVariant::RipTide
                : fabric::AreaVariant::Pipestitch;
        prep->area = fabric::computeArea(*fab, areaVariant,
                                         config.sim.bufferDepth);
    }

    PreparedPtr out = std::move(prep);
    if (config.cache) {
        SpanScope s(t, "runner.store_prepared", Layer::Runner);
        config.cache->storePrepared(kernel, config, out);
    }
    return out;
}

FabricRun
replayExecute(Tracer &t, const PreparedKernel &prepared,
              const workloads::KernelInstance &kernel,
              const RunConfig &config, std::string *error)
{
    ScopedQuiet scopedQuiet(config.quiet);
    FabricRun run;
    std::optional<sim::ExecutionState> exec;
    {
        SpanScope s(t, "sim.state", Layer::Sim);
        run.memory = kernel.memory;
        run.memory.resize(std::max(
            run.memory.size(),
            static_cast<size_t>(kernel.prog.memWords)));
        exec.emplace(prepared.program);
    }
    sim::RunOptions ropts;
    ropts.observer = config.sim.observer;
    ropts.trace = config.sim.trace;
    ropts.maxCycles = config.sim.maxCycles;
    {
        SpanScope s(t, "sim.run", Layer::Sim);
        run.sim = exec->run(run.memory, ropts);
    }
    {
        // Tearing the state down is part of what a run costs.
        SpanScope s(t, "sim.state", Layer::Sim);
        exec.reset();
    }
    t.counts.simRuns++;
    t.counts.simFires += run.sim.stats.totalPeFires();
    t.counts.simCycles += run.sim.stats.cycles;
    if (run.sim.deadlocked) {
        fail(error, "kernel " + kernel.name +
                        (run.sim.watchdogExpired
                             ? " exceeded its cycle watchdog"
                             : " deadlocked"));
        return run;
    }

    if (config.analyze) {
        sim::BoundReport::Evaluation ev;
        {
            SpanScope s(t, "analysis.bound", Layer::Analysis);
            ev = prepared.bound.evaluate(run.sim.stats);
        }
        run.boundCycles = ev.certifiedCycles;
        if (!ev.holds(run.sim.stats.cycles)) {
            fail(error, "kernel " + kernel.name +
                            " beats its certified bound");
            return run;
        }
    }

    if (config.verifyAgainstGolden) {
        SpanScope s(t, "scalar.golden", Layer::Scalar);
        scalar::MemImage golden = kernel.memory;
        golden.resize(run.memory.size());
        scalar::interpret(kernel.prog, golden, kernel.liveIns);
        t.counts.goldens++;
        if (golden != run.memory) {
            fail(error, "kernel " + kernel.name +
                            " diverged from the golden model");
            return run;
        }
    }

    {
        SpanScope s(t, "energy.model", Layer::Energy);
        run.area = prepared.area;
        int nodes = prepared.compiled->graph.size();
        run.energy =
            prepared.mapped
                ? energy::fabricEnergyMapped(run.sim.stats, run.area,
                                             prepared.mapping, nodes)
                : energy::fabricEnergy(run.sim.stats, run.area,
                                       prepared.avgHops, nodes);
        run.seconds = energy::secondsFor(run.sim.stats.cycles,
                                         config.fabric.clockMHz);
        run.edp = energy::edp(run.energy, run.seconds);
    }
    return run;
}

} // namespace

FabricRun
replayRun(Tracer &t, const workloads::KernelInstance &kernel,
          const RunConfig &config, std::string *error)
{
    PreparedPtr prepared = replayPrepare(t, kernel, config, error);
    if (!prepared)
        return FabricRun{};
    return replayExecute(t, *prepared, kernel, config, error);
}

namespace {

// The layouts workloads::runDnnOnFabric reads back (workloads/dnn.cc).

std::vector<sir::Word>
denseOut(const sir::Program &prog, const scalar::MemImage &mem, int rows)
{
    const auto &arr = prog.arrays.back();
    std::vector<sir::Word> out(static_cast<size_t>(rows));
    for (int i = 0; i < rows; i++)
        out[static_cast<size_t>(i)] =
            mem[static_cast<size_t>(arr.base + i)];
    return out;
}

workloads::SparseVec
sparseOut(const sir::Program &prog, const scalar::MemImage &mem,
          int length)
{
    int64_t sidx = 0, sval = 0, cnt = 0;
    for (const auto &a : prog.arrays) {
        if (a.name == "sidx")
            sidx = a.base;
        if (a.name == "sval")
            sval = a.base;
        if (a.name == "count")
            cnt = a.base;
    }
    workloads::SparseVec v;
    v.length = length;
    sir::Word n = mem[static_cast<size_t>(cnt)];
    for (sir::Word i = 0; i < n; i++) {
        v.idx.push_back(mem[static_cast<size_t>(sidx + i)]);
        v.val.push_back(mem[static_cast<size_t>(sval + i)]);
    }
    return v;
}

void
accumulate(workloads::DnnInference &total, const FabricRun &run)
{
    total.cycles += static_cast<double>(run.cycles());
    total.seconds += run.seconds;
    total.energy.cgraPj += run.energy.cgraPj;
    total.energy.memPj += run.energy.memPj;
    total.energy.scalarPj += run.energy.scalarPj;
    total.energy.otherPj += run.energy.otherPj;
}

} // namespace

workloads::DnnInference
replayDnn(Tracer &t, const workloads::DnnModel &model,
          const RunConfig &cfg, std::string *error)
{
    workloads::DnnInference total;
    total.system = compiler::archVariantName(cfg.variant);

    workloads::SparseVec act = model.input;
    const size_t layers = model.weights.size();
    for (size_t l = 0; l < layers; l++) {
        const workloads::Csr &w = model.weights[l];
        auto layerKernel = workloads::makeSpMSpVdFrom(
            w, act, csprintf("dnn_layer%zu", l));
        FabricRun run = replayRun(t, layerKernel, cfg, error);
        if (!error->empty())
            return total;
        accumulate(total, run);
        auto dense = denseOut(layerKernel.prog, run.memory, w.rows);
        if (l + 1 == layers) {
            total.logits = dense;
            break;
        }
        auto sparsifyKernel = workloads::makeSparsify(dense);
        FabricRun srun = replayRun(t, sparsifyKernel, cfg, error);
        if (!error->empty())
            return total;
        accumulate(total, srun);
        act = sparseOut(sparsifyKernel.prog, srun.memory, w.rows);
    }
    return total;
}

} // namespace psbench

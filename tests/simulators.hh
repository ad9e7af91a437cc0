/**
 * @file
 * The two simulators the bit-identity tests compare: the DenseScan
 * reference (sim/dense_scan.hh) and the fast engine every
 * sim::ExecutionState runs. Shared by every test that holds them
 * bit-identical.
 */

#ifndef PIPESTITCH_TESTS_SIMULATORS_HH
#define PIPESTITCH_TESTS_SIMULATORS_HH

#include <algorithm>
#include <memory>

#include "core/system.hh"
#include "sim/dense_scan.hh"
#include "sim/execution.hh"

namespace pipestitch::simtest {

enum class Engine { Dense, Fast };

constexpr Engine kEngines[] = {Engine::Dense, Engine::Fast};

inline const char *
engineName(Engine engine)
{
    return engine == Engine::Dense ? "dense" : "fast";
}

/** Run @p program once on @p engine, on a DenseScan or an
 *  ExecutionState built for the call. */
inline sim::SimResult
runOn(Engine engine, std::shared_ptr<const sim::Program> program,
      sim::MemImage &mem, const sim::RunOptions &opts = {})
{
    if (engine == Engine::Dense)
        return sim::DenseScan(std::move(program)).run(mem, opts);
    return sim::ExecutionState(std::move(program)).run(mem, opts);
}

/**
 * Simulate @p graph against @p mem on @p engine, as sim::simulate()
 * does: build the Program from @p cfg and take the per-run fields
 * (observer, trace, maxCycles) from it. @p graph must outlive the
 * call.
 */
inline sim::SimResult
simulateOn(Engine engine, const dfg::Graph &graph, sim::MemImage &mem,
           const sim::SimConfig &cfg)
{
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &graph);
    return runOn(engine,
                 std::make_shared<const sim::Program>(std::move(hold),
                                                      cfg),
                 mem,
                 sim::RunOptions{cfg.observer, cfg.trace,
                                 cfg.maxCycles});
}

/** The DenseScan reference's run of @p prepared's Program from the
 *  image executeOnFabric starts from: @p kernel's memory, grown to
 *  its memWords. Leaves the final image in @p mem. */
inline sim::SimResult
runDenseOnPrepared(const PreparedKernel &prepared,
                   const workloads::KernelInstance &kernel,
                   sim::MemImage &mem)
{
    mem = kernel.memory;
    mem.resize(std::max(mem.size(),
                        static_cast<size_t>(kernel.prog.memWords)));
    return sim::DenseScan(prepared.program).run(mem);
}

} // namespace pipestitch::simtest

#endif // PIPESTITCH_TESTS_SIMULATORS_HH

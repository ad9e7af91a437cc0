#include "sim/simulator.hh"

#include "base/logging.hh"
#include "sim/execution.hh"
#include "sim/program.hh"

namespace pipestitch::sim {

std::string
describeFault(const dfg::Graph &graph, const MemFault &fault,
              size_t memWords)
{
    const dfg::Node &node = graph.at(fault.node);
    return csprintf("memory fault at node %d (%s %s): word address %d "
                    "outside the %zu-word memory image (cycle %lld)",
                    fault.node, nodeKindName(node.kind),
                    node.name.c_str(), fault.addr, memWords,
                    static_cast<long long>(fault.cycle));
}

SimResult
simulate(const dfg::Graph &graph, MemImage &mem,
         const SimConfig &config)
{
    // One-shot path: build the immutable Program and run a single
    // ExecutionState over it. The graph outlives this call, so a
    // non-owning aliasing pointer is enough. Long-lived callers
    // (figures sweeps, pstool serve) build the Program once and
    // share it across executions instead.
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &graph);
    auto program =
        std::make_shared<const Program>(std::move(hold), config);
    ExecutionState exec(std::move(program));
    return exec.run(mem, RunOptions{config.observer, config.trace,
                                    config.maxCycles});
}

} // namespace pipestitch::sim

#include "sim/execution.hh"

#include "sim/engine.hh"
#include "trace/observer.hh"

namespace pipestitch::sim {

ExecutionState::ExecutionState(std::shared_ptr<const Program> program)
    : prog(std::move(program))
{
}

SimResult
ExecutionState::run(MemImage &mem, const RunOptions &opts)
{
    return detail::runObserved(
        *prog, opts, [&](const SimConfig &cfg) {
            std::unique_ptr<FastEngine> engine = prog->borrowEngine();
            SimResult result = engine->run(mem, cfg);
            prog->returnEngine(std::move(engine));
            return result;
        });
}

namespace detail {

SimResult
runObserved(const Program &prog, const RunOptions &opts,
            const std::function<SimResult(const SimConfig &)> &body)
{
    SimConfig cfg = prog.cfg;
    cfg.observer = opts.observer;
    cfg.trace = opts.trace;
    if (opts.maxCycles > 0)
        cfg.maxCycles = opts.maxCycles;
    // The text trace is one more observer, after the caller's.
    trace::TextTraceSink text;
    trace::ObserverList chained;
    if (opts.trace) {
        if (opts.observer)
            chained.add(opts.observer);
        chained.add(&text);
        cfg.observer = &chained;
    }

    if (cfg.observer)
        cfg.observer->onSimBegin(prog.graph(), cfg);
    SimResult result = body(cfg);
    if (cfg.observer)
        cfg.observer->onSimEnd(result);
    return result;
}

} // namespace detail

} // namespace pipestitch::sim

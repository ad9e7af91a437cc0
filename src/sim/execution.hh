/**
 * @file
 * sim::ExecutionState — one run over a shared, immutable
 * sim::Program.
 *
 * The contract (see docs/simulator.md):
 *
 *  - an ExecutionState holds a shared_ptr to its Program and never
 *    writes through it;
 *  - everything mutable lives in the fast engine a run borrows from
 *    the Program (sim/engine.hh holds its per-run slabs, the memory
 *    system bound to the caller's MemImage for the duration of
 *    run(), and the stats);
 *  - run() may be called repeatedly on one ExecutionState, but a
 *    single ExecutionState must not be used from two threads at
 *    once. Concurrency = one ExecutionState per thread, all sharing
 *    one Program. Constructing one is cheap: the engine's slabs
 *    belong to the Program's idle list, not to the state.
 *
 * simulate() builds a Program and runs one ExecutionState. The
 * DenseScan reference (sim/dense_scan.hh) runs a Program on its own
 * plain loop.
 */

#ifndef PIPESTITCH_SIM_EXECUTION_HH
#define PIPESTITCH_SIM_EXECUTION_HH

#include <functional>
#include <memory>

#include "sim/program.hh"

namespace pipestitch::sim {

/** Per-run knobs stripped from the Program's SimConfig. */
struct RunOptions
{
    /** Observability hooks; not owned, must outlive the run. */
    trace::SimObserver *observer = nullptr;
    /** Print every fire and counted stall to stderr, through a
     *  trace::TextTraceSink chained after `observer`. */
    bool trace = false;
    /** Watchdog override; 0 = the Program config's maxCycles. */
    int64_t maxCycles = 0;
};

class ExecutionState
{
  public:
    explicit ExecutionState(std::shared_ptr<const Program> program);

    /**
     * Execute the program against @p mem until the fabric drains, on
     * a sim::FastEngine borrowed from the Program for the call.
     * @p mem is mutated in place and referenced only for the
     * duration of the call.
     */
    SimResult run(MemImage &mem, const RunOptions &opts = {});

  private:
    std::shared_ptr<const Program> prog;
};

namespace detail {

/**
 * The run bracket ExecutionState and DenseScan share: the per-run
 * config (@p prog's plus @p opts' observer, trace and watchdog), the
 * text trace chained after the caller's observer, and
 * onSimBegin/onSimEnd around @p body, which simulates under that
 * config.
 */
SimResult
runObserved(const Program &prog, const RunOptions &opts,
            const std::function<SimResult(const SimConfig &)> &body);

} // namespace detail

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_EXECUTION_HH

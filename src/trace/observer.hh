/**
 * @file
 * SimObserver — the simulator's observability hook API.
 *
 * An observer is attached through `SimConfig::observer` and receives
 * a callback on every architecturally meaningful simulator event:
 * operator fires, stall verdicts, memory accesses, dispatch-group
 * decisions (spawn/continuation), and SyncPlane evaluations. The
 * hooks are designed so that:
 *
 *  - with no observer attached the simulator pays exactly one
 *    pointer test per would-be callback (verified to be within
 *    noise by bench/micro_benchmarks BM_SimulateObserver);
 *  - the DenseScan oracle and the fast engine emit *identical*
 *    event streams (the fast engine runs a full per-node stall
 *    census while observed, and fires are committed in the same
 *    per-round ascending-id order by both; enforced by
 *    tests/test_trace.cc).
 *
 * Concrete sinks live next to this header: ChromeTraceSink (trace
 * viewer JSON), StallTimelineSink (per-node per-interval stall
 * attribution), RecordingObserver (test replay), and TextTraceSink
 * below (the stderr text trace). Multiple sinks attach through
 * ObserverList.
 */

#ifndef PIPESTITCH_TRACE_OBSERVER_HH
#define PIPESTITCH_TRACE_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "dfg/graph.hh"
#include "sim/stats.hh"
#include "sim/token.hh"

namespace pipestitch::sim {
struct SimConfig;
struct SimResult;
} // namespace pipestitch::sim

namespace pipestitch::trace {

/** Why an observed node did not fire in a cycle (matching the
 *  simulator's stall census; only *counted* stalls are reported,
 *  i.e. the node had work pending or lost a bank arbitration). */
enum class StallReason { NoInput, NoSpace, BankConflict };

const char *stallReasonName(StallReason reason);

class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    /** The simulation is about to start. @p graph and @p cfg outlive
     *  the run; sinks may keep references for name lookups. */
    virtual void
    onSimBegin(const dfg::Graph &graph, const sim::SimConfig &cfg)
    {
        (void)graph;
        (void)cfg;
    }

    /** Node @p node fired at @p cycle (PE, trigger, or router CF). */
    virtual void
    onFire(int64_t cycle, dfg::NodeId node)
    {
        (void)cycle;
        (void)node;
    }

    /** Node @p node was counted as stalled at @p cycle. */
    virtual void
    onStall(int64_t cycle, dfg::NodeId node, StallReason reason)
    {
        (void)cycle;
        (void)node;
        (void)reason;
    }

    /** Memory PE @p node accessed @p addr (bank @p bank). Loads
     *  complete `SimConfig::memLatency` cycles later. */
    virtual void
    onMemAccess(int64_t cycle, dfg::NodeId node, bool isLoad,
                sim::Word addr, int bank)
    {
        (void)cycle;
        (void)node;
        (void)isLoad;
        (void)addr;
        (void)bank;
    }

    /** Dispatch gate @p node forwarded a token: a freshly spawned
     *  thread (@p spawn, tag = the new thread id) or a continuation
     *  of the running thread @p threadTag. */
    virtual void
    onDispatch(int64_t cycle, dfg::NodeId node, bool spawn,
               int32_t threadTag)
    {
        (void)cycle;
        (void)node;
        (void)spawn;
        (void)threadTag;
    }

    /** The SyncPlane evaluated at least one dispatch group this
     *  cycle (at most one callback per cycle). The round within the
     *  cycle at which this fires is scheduler-dependent; treat it as
     *  cycle-granular, not stream-ordered. */
    virtual void
    onSyncPlane(int64_t cycle)
    {
        (void)cycle;
    }

    /** The run retired (or deadlocked / tripped the watchdog). */
    virtual void
    onSimEnd(const sim::SimResult &result)
    {
        (void)result;
    }
};

/** Fan-out observer: forwards every hook to each registered child
 *  in registration order. Children are not owned. */
class ObserverList final : public SimObserver
{
  public:
    void add(SimObserver *obs) { children.push_back(obs); }
    bool empty() const { return children.empty(); }

    void
    onSimBegin(const dfg::Graph &graph,
               const sim::SimConfig &cfg) override
    {
        for (auto *c : children)
            c->onSimBegin(graph, cfg);
    }

    void
    onFire(int64_t cycle, dfg::NodeId node) override
    {
        for (auto *c : children)
            c->onFire(cycle, node);
    }

    void
    onStall(int64_t cycle, dfg::NodeId node,
            StallReason reason) override
    {
        for (auto *c : children)
            c->onStall(cycle, node, reason);
    }

    void
    onMemAccess(int64_t cycle, dfg::NodeId node, bool isLoad,
                sim::Word addr, int bank) override
    {
        for (auto *c : children)
            c->onMemAccess(cycle, node, isLoad, addr, bank);
    }

    void
    onDispatch(int64_t cycle, dfg::NodeId node, bool spawn,
               int32_t threadTag) override
    {
        for (auto *c : children)
            c->onDispatch(cycle, node, spawn, threadTag);
    }

    void
    onSyncPlane(int64_t cycle) override
    {
        for (auto *c : children)
            c->onSyncPlane(cycle);
    }

    void
    onSimEnd(const sim::SimResult &result) override
    {
        for (auto *c : children)
            c->onSimEnd(result);
    }

  private:
    std::vector<SimObserver *> children;
};

/**
 * The text trace behind `RunOptions::trace` (`pstool run --trace`):
 * one stderr line per fire and per counted stall, as it happens.
 * ExecutionState::run attaches one when the option is set.
 */
class TextTraceSink final : public SimObserver
{
  public:
    void
    onSimBegin(const dfg::Graph &g, const sim::SimConfig &) override
    {
        graph = &g;
    }

    void onFire(int64_t cycle, dfg::NodeId node) override;
    void onStall(int64_t cycle, dfg::NodeId node,
                 StallReason reason) override;

  private:
    const dfg::Graph *graph = nullptr;
};

} // namespace pipestitch::trace

#endif // PIPESTITCH_TRACE_OBSERVER_HH

/**
 * @file
 * Chrome trace-event exporter: records fires, dispatch decisions,
 * and memory accesses, then serializes them in the Trace Event
 * Format readable by chrome://tracing and https://ui.perfetto.dev.
 *
 * Layout: one track (tid) per node, named "n<id> <kind> <name>";
 * fires are duration events ("ph":"X", one cycle long, loads
 * stretched to the memory latency), spawns/continuations and
 * stores are instant events ("ph":"i"). Timestamps are cycles
 * (1 cycle = 1 "us" in the viewer's units).
 *
 * Event counts reconcile exactly with SimStats:
 *   spanCount()    == sum(nodeFires)
 *   instantCount() == dispatchSpawns + dispatchConts
 *                     + memLoads + memStores
 * (dispatch/memory instants ride on top of the same firings'
 * spans; tests/test_trace.cc enforces the reconciliation).
 */

#ifndef PIPESTITCH_TRACE_CHROME_TRACE_HH
#define PIPESTITCH_TRACE_CHROME_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/observer.hh"

namespace pipestitch::trace {

class ChromeTraceSink final : public SimObserver
{
  public:
    void onSimBegin(const dfg::Graph &graph,
                    const sim::SimConfig &cfg) override;
    void onFire(int64_t cycle, dfg::NodeId node) override;
    void onMemAccess(int64_t cycle, dfg::NodeId node, bool isLoad,
                     sim::Word addr, int bank) override;
    void onDispatch(int64_t cycle, dfg::NodeId node, bool spawn,
                    int32_t threadTag) override;
    void onSimEnd(const sim::SimResult &result) override;

    /** Serialize everything recorded so far as one JSON document. */
    void write(std::ostream &out) const;

    /** Number of duration ("X") events recorded. */
    int64_t spanCount() const
    {
        return static_cast<int64_t>(fires.size());
    }

    /** Number of instant ("i") events recorded. */
    int64_t instantCount() const
    {
        return static_cast<int64_t>(instants.size());
    }

  private:
    struct Fire
    {
        int64_t cycle;
        dfg::NodeId node;
    };

    struct Instant
    {
        enum class Kind { Spawn, Cont, Load, Store };
        int64_t cycle;
        dfg::NodeId node;
        Kind kind;
        int64_t arg; ///< thread tag or address
        int bank = -1;
    };

    /** Snapshot of what write() needs per node, taken at
     *  onSimBegin so the sink stays valid after the graph dies. */
    struct NodeLabel
    {
        std::string kind;
        std::string name;
        bool isLoad = false;
        bool cfInNoc = false;
    };

    std::string program;
    std::vector<NodeLabel> nodes;
    int64_t finalCycles = 0;
    std::vector<Fire> fires;
    std::vector<Instant> instants;
};

} // namespace pipestitch::trace

#endif // PIPESTITCH_TRACE_CHROME_TRACE_HH

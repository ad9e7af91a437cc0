/**
 * @file
 * RecordingObserver — captures the full event stream in memory for
 * replay-style assertions (used by tests/test_trace.cc to prove the
 * fast engine and the DenseScan reference are observationally
 * identical, and that event counts reconcile with SimStats).
 *
 * SyncPlane callbacks are kept in a separate per-cycle list: their
 * position *within* a cycle's stream depends on which fixpoint
 * round first evaluated a group, which differs between the two
 * simulators; the set of cycles does not.
 */

#ifndef PIPESTITCH_TRACE_RECORDING_HH
#define PIPESTITCH_TRACE_RECORDING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "trace/observer.hh"

namespace pipestitch::trace {

class RecordingObserver final : public SimObserver
{
  public:
    enum class Kind { Fire, Stall, Mem, Dispatch };

    struct Event
    {
        Kind kind;
        int64_t cycle;
        dfg::NodeId node;
        /** Stall: reason. Mem: isLoad. Dispatch: spawn. */
        int a = 0;
        /** Mem: address. Dispatch: thread tag. */
        int64_t b = 0;

        bool
        operator==(const Event &o) const
        {
            return kind == o.kind && cycle == o.cycle &&
                   node == o.node && a == o.a && b == o.b;
        }
    };

    std::vector<Event> events;
    std::vector<int64_t> syncPlaneCycles;
    bool simEnded = false;

    void
    onSimBegin(const dfg::Graph &, const sim::SimConfig &) override
    {
        events.clear();
        syncPlaneCycles.clear();
        simEnded = false;
    }

    void
    onFire(int64_t cycle, dfg::NodeId node) override
    {
        events.push_back({Kind::Fire, cycle, node, 0, 0});
    }

    void
    onStall(int64_t cycle, dfg::NodeId node,
            StallReason reason) override
    {
        events.push_back(
            {Kind::Stall, cycle, node, static_cast<int>(reason), 0});
    }

    void
    onMemAccess(int64_t cycle, dfg::NodeId node, bool isLoad,
                sim::Word addr, int) override
    {
        events.push_back({Kind::Mem, cycle, node, isLoad ? 1 : 0,
                          static_cast<int64_t>(addr)});
    }

    void
    onDispatch(int64_t cycle, dfg::NodeId node, bool spawn,
               int32_t threadTag) override
    {
        events.push_back({Kind::Dispatch, cycle, node,
                          spawn ? 1 : 0, threadTag});
    }

    void
    onSyncPlane(int64_t cycle) override
    {
        syncPlaneCycles.push_back(cycle);
    }

    void
    onSimEnd(const sim::SimResult &) override
    {
        simEnded = true;
    }

    int64_t
    count(Kind kind) const
    {
        int64_t n = 0;
        for (const Event &e : events)
            n += e.kind == kind ? 1 : 0;
        return n;
    }

    std::string
    describe(const Event &e) const
    {
        const char *k = e.kind == Kind::Fire       ? "fire"
                        : e.kind == Kind::Stall    ? "stall"
                        : e.kind == Kind::Mem      ? "mem"
                                                   : "dispatch";
        return csprintf("[%lld] %s n%d a=%d b=%lld",
                        static_cast<long long>(e.cycle), k, e.node,
                        e.a, static_cast<long long>(e.b));
    }
};

} // namespace pipestitch::trace

#endif // PIPESTITCH_TRACE_RECORDING_HH

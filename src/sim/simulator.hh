/**
 * @file
 * Cycle-level simulator for RipTide/Pipestitch dataflow graphs.
 *
 * The simulator executes the token-level microarchitectural rules of
 * the paper directly:
 *
 *  - ordered dataflow: every edge is a FIFO; nodes fire on in-order
 *    head tokens and stall on backpressure;
 *  - destination (input) buffering [Pipestitch] or source (output)
 *    buffering with multicast hold [RipTide / the PipeSB ablation]
 *    (Sec. 4.7, Fig. 12);
 *  - output buffers with bypass on memory and control-flow PEs
 *    (Sec. 4.7);
 *  - dispatch groups synchronized through the SyncPlane with bubble
 *    flow control: a full continuation set is preferred; a spawn set
 *    requires two free output slots at every gate (Fig. 10);
 *  - control flow mapped into NoC routers evaluates combinationally
 *    (adds no pipeline latency);
 *  - banked memory with per-bank port arbitration and fixed load
 *    latency.
 *
 * Tokens carry debug-only thread tags that let the simulator verify
 * the ordered-threading invariant; the architecture itself is
 * tagless.
 */

#ifndef PIPESTITCH_SIM_SIMULATOR_HH
#define PIPESTITCH_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "dfg/graph.hh"
#include "sim/memsys.hh"
#include "sim/stats.hh"
#include "sim/token.hh"

namespace pipestitch::trace {
class SimObserver;
} // namespace pipestitch::trace

namespace pipestitch::sim {

/** Microarchitecture configuration for one simulation. */
struct SimConfig
{
    enum class Buffering {
        Source,      ///< RipTide / PipeSB: buffers at producer outputs
        Destination, ///< Pipestitch: buffers at consumer inputs
    };

    Buffering buffering = Buffering::Destination;

    enum class Scheduler {
        /**
         * Re-evaluate every node in every fixpoint round — the
         * plain O(nodes × rounds) reference oracle
         * (sim/execution.cc). Kept for golden-stats verification and
         * as the bench baseline.
         */
        DenseScan,
        /**
         * The fast engine (sim/engine.hh): structure-of-arrays token
         * state and one worklist bitmap, so only nodes woken by
         * token delivery, buffer-space frees, memory completions or
         * dispatch-group decisions are re-evaluated, and stalled
         * nodes no event touched are billed without re-evaluation.
         * Runs every configuration, observed runs included, and is
         * cycle-exact with DenseScan (enforced by
         * tests/test_golden_stats.cc and
         * tests/test_fuzz_equivalence.cc).
         */
        ReadyList,
    };

    Scheduler scheduler = Scheduler::ReadyList;

    /** Token-buffer depth (the paper uses 4; Fig. 20 sweeps 4/8/16). */
    int bufferDepth = 4;

    int memBanks = 16;

    /** Cycles from load issue to data availability at the memory PE. */
    int memLatency = 2;

    /** Bypass memory/CF output buffers when downstream is free. */
    bool memBypass = true;

    /** Watchdog bound; exceeding it reports deadlock. */
    int64_t maxCycles = 100'000'000;

    /** Verify the thread-ordering invariant with debug tags. */
    bool checkThreadOrder = true;

    /**
     * Ablation (paper Fig. 9a): let each dispatch gate greedily
     * accept whichever token set it has, with no SyncPlane
     * synchronization. With multi-input threads this violates
     * ordering — the run is expected to corrupt token pairing,
     * which the debug tags catch. For demonstrating why the
     * SyncPlane exists; never enable for real runs.
     */
    bool greedyDispatch = false;

    /** Print every fire and counted stall to stderr (cycle, node,
     *  kind, name; trace::TextTraceSink). */
    bool trace = false;

    /**
     * Observability hooks (see trace/observer.hh); not owned, must
     * outlive the simulation. Null (the default) costs nothing on
     * the hot paths beyond a pointer test. While an observer is
     * attached the fast engine runs a full per-node stall census,
     * as DenseScan does, so both schedulers report identical event
     * streams.
     */
    trace::SimObserver *observer = nullptr;

    /**
     * Time-multiplexing groups (Sec. 6 extension): each inner vector
     * lists node ids sharing one PE; at most one member fires per
     * cycle, and alternating residents costs configuration-switch
     * energy. Residents keep their own architectural state (buffers,
     * gate FSMs); only the functional unit is shared.
     */
    std::vector<std::vector<int>> shareGroups;

    /**
     * Extra latency on one consumer edge: tokens bound for input
     * @c input of node @c node spend @c latency cycles in an
     * inter-tile FIFO channel before landing in the destination
     * buffer. Used by tiled fabrics (fabric::Topology) to model the
     * inter-tile NoC; the channel also bounds in-flight tokens at
     * max(latency, 1), giving boundary links real backpressure.
     * Only supported under destination buffering.
     */
    struct EdgeLatency
    {
        int node = 0;    ///< consumer node id
        int input = 0;   ///< consumer input index
        int latency = 0; ///< cycles in the channel (>= 1)
    };

    std::vector<EdgeLatency> edgeLatencies;
};

/**
 * An out-of-bounds memory access: a Load or Store whose word address
 * (base offset applied) lies outside the memory image. The access
 * itself does nothing (a load reads 0, a store writes nothing) and
 * the run stops at the end of that cycle, under either scheduler.
 */
struct MemFault
{
    int node = -1;      ///< the Load/Store node; -1 = no fault
    Word addr = 0;      ///< word address it tried to access
    int64_t cycle = -1; ///< cycle of the access

    bool any() const { return node >= 0; }
    bool operator==(const MemFault &) const = default;
};

struct SimResult
{
    SimStats stats;
    /** The run did not retire cleanly: a quiesced deadlock, or one
     *  of the causes flagged below (watchdog expiry, memory fault)
     *  or named in `diagnostic` (thread-order violation, token
     *  leak). */
    bool deadlocked = false;
    /**
     * The run ended because `maxCycles` elapsed while the fabric was
     * still making progress — a non-terminating (or merely slow)
     * execution, not a quiesced deadlock. Static deadlock
     * certification (analysis/analyzer.hh) says nothing about
     * termination, so cross-checks must exempt this case.
     */
    bool watchdogExpired = false;
    /**
     * The first out-of-bounds access, when it was the first failure
     * of the run (then `deadlocked` is set and `diagnostic` describes
     * it). A kernel indexing past its arrays — say, a live-in trip
     * count larger than the arrays — is a bad input, not a deadlock;
     * the deadlock cross-checks exempt it.
     */
    MemFault fault;
    /** Non-empty on deadlock / invariant trouble. */
    std::string diagnostic;
};

/** The diagnostic both schedulers report for @p fault, an access
 *  outside an image of @p memWords words. */
std::string describeFault(const dfg::Graph &graph,
                          const MemFault &fault, size_t memWords);

/**
 * Simulate @p graph against @p mem until the fabric drains.
 *
 * @p mem is mutated in place (compare with the scalar
 * interpreter's image for functional verification); an access
 * outside it ends the run with a SimResult::fault.
 */
SimResult simulate(const dfg::Graph &graph, MemImage &mem,
                   const SimConfig &config);

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_SIMULATOR_HH

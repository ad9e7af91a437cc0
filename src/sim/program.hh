/**
 * @file
 * sim::Program — the immutable compiled simulation artifact.
 *
 * A Program captures everything about a finalized dataflow graph and
 * a microarchitecture configuration that does not change between
 * runs: resolved input wiring, the NoC topological order,
 * dispatch-group and share-group membership, thread-region scoping,
 * the per-node token-buffer layout, and the fast engine's flat
 * tables (per-node attributes, flat port numbering, the consumer-edge
 * CSR, channel slabs). Building it once is what lets a run allocate
 * only its per-run slabs.
 *
 * The contract (see docs/simulator.md):
 *
 *  - a Program's tables are immutable after construction — every
 *    one is written exactly once, in the constructor;
 *  - any number of `ExecutionState`s (execution.hh) may share one
 *    Program concurrently from different threads;
 *  - all mutable run state (token buffers, gate FSMs, memory image,
 *    stats, scheduler worklists, observer) lives in a run's
 *    ExecutionState or in the fast engine it borrows;
 *  - the Program owns its idle fast engines (sim/engine.hh): a run
 *    borrows one, building it only when none is idle, and hands it
 *    back when it ends. So an engine lives exactly as long as its
 *    Program, concurrent runs each hold their own, and a Program
 *    run N times in sequence builds one engine, not N.
 *
 * This mirrors the plan/execute split of image-pipeline graph
 * executors: plan once (sizes, cursors, layouts), execute many times
 * with per-execution state.
 */

#ifndef PIPESTITCH_SIM_PROGRAM_HH
#define PIPESTITCH_SIM_PROGRAM_HH

#include <memory>
#include <mutex>
#include <vector>

#include "dfg/graph.hh"
#include "sim/simulator.hh"

namespace pipestitch::sim {

/** Resolved wiring of one input port. */
struct InputRef
{
    bool isImm = false;
    Word imm = 0;
    dfg::NodeId prod = dfg::NoNode;
    int prodPort = 0;
    int endpoint = 0; ///< index into producer port's consumer list
    bool wired() const { return prod != dfg::NoNode; }
};

class FastEngine;

class Program
{
  public:
    /**
     * Build the immutable artifact for @p graph under @p config.
     * @p graph must be finalized and must outlive the Program (pass
     * an owning pointer, or a non-owning aliasing pointer when the
     * caller guarantees the lifetime, as `simulate()` does).
     *
     * The per-run fields of @p config (`observer`, `trace`) are
     * stripped — they belong to ExecutionState::run() — so Programs
     * built from configs differing only in observability compare
     * and behave identically.
     */
    Program(std::shared_ptr<const dfg::Graph> graph,
            const SimConfig &config);
    ~Program();

    const dfg::Graph &graph() const { return *graphHold; }
    const std::shared_ptr<const dfg::Graph> &graphPtr() const
    {
        return graphHold;
    }
    const SimConfig &config() const { return cfg; }

    /**
     * Content digest of the simulated machine: the graph's
     * dfg::graphFingerprint plus every result-bearing SimConfig
     * field (buffering, bufferDepth, memBanks, memLatency,
     * memBypass, maxCycles, checkThreadOrder, greedyDispatch,
     * scheduler, shareGroups, edgeLatencies). Observability
     * (`observer`, `trace`) is not part of it. Two Programs with
     * equal digests run any initial memory image to the same
     * SimResult and final image, which is what lets runner::Runner
     * simulate each distinct machine once.
     */
    uint64_t digest() const { return contentDigest; }

    /** Fast engines idle between runs (sim/engine.hh). */
    size_t idleEngines() const;

    /** Per-node token-buffer layout (0 = no FIFOs on that side). */
    struct NodePlan
    {
        int insDepth = 0;
        int outsDepth = 0;
    };

    // ----------------------------------------------------------------
    // Immutable tables. Public for the engines' hot paths; written
    // only by the constructor. Always access through `const Program&`.
    // ----------------------------------------------------------------
    SimConfig cfg;    ///< observer/trace stripped
    bool sourceMode;  ///< buffering == Source

    std::vector<std::vector<InputRef>> inputRefs; // [node][in]
    std::vector<NodePlan> plan;                   // [node]
    std::vector<int> threadRegionOf; ///< nearest threaded loop (-1)

    std::vector<dfg::NodeId> nocTopo;
    std::vector<int> topoIndex; ///< position in nocTopo (-1 = PE)
    std::vector<uint8_t> nocNode;

    std::vector<std::vector<dfg::NodeId>> dispatchGroups; // by loopId
    std::vector<int> gateLoop;  ///< dispatch gate -> loopId (-1)
    std::vector<int> gateLoops; ///< loops with dispatch gates, asc

    // Time-multiplexing: node -> share group (-1 = exclusive PE).
    std::vector<int> shareGroupOf;
    /** PE members of every share group, ascending: the fast engine
     *  arbitrates (and bills) them in every fixpoint round. */
    std::vector<dfg::NodeId> shareMembers;

    std::vector<dfg::NodeId> allSeqNodes; ///< PE nodes, ascending id

    int triggersTotal = 0;

    // Per-node attributes, structure-of-arrays (fast engine).
    std::vector<uint8_t> kindOf;        ///< dfg::NodeKind
    std::vector<sir::Opcode> opcodeOf;  ///< Arith opcode
    std::vector<uint8_t> operandsOf;    ///< Arith operand count
    std::vector<Word> immOf;
    std::vector<uint8_t> steerIfTrue;
    std::vector<Word> streamStepOf;
    std::vector<int32_t> loopOf;
    std::vector<uint8_t> peClassOf;
    std::vector<uint8_t> isMemOf;
    std::vector<uint8_t> hasOutBufs; ///< plan.outsDepth > 0

    // Flat port numbering. Input port `in` of node n is
    // insBase[n]+in; buffered output port p of n is outsBase[n]+p
    // (nodes without output FIFOs own no slots). Output FIFO o holds
    // outSlab[o+1]-outSlab[o] tokens starting at outSlab[o].
    std::vector<int32_t> insBase;  ///< [n+1]
    std::vector<int32_t> outsBase; ///< [n+1]
    std::vector<int32_t> outSlab;  ///< [O+1]
    enum : uint8_t { PortUnwired = 0, PortWired, PortImm };
    std::vector<uint8_t> portMode;     ///< [P]
    std::vector<Word> portImm;         ///< [P]
    std::vector<int32_t> portProd;     ///< [P] producer (wired)
    std::vector<int32_t> portEdge;     ///< [P] edge feeding it (wired)
    std::vector<int32_t> portSrc; ///< [P] producer's CSR port (wired)
    std::vector<uint8_t> portNocOwner; ///< [P] consumer is router CF

    // Consumer edges flattened into CSR arrays: the edges of output
    // port p of node n are
    //   [consBase[portBase[n]+p] .. consBase[portBase[n]+p+1])
    // and each names its consumer, the consumer's flat input port,
    // its inter-tile channel (-1 = none), and whether a token
    // crossing it leaves a threaded region (its debug tag is shed).
    std::vector<int> portBase;
    std::vector<int> consBase;
    std::vector<dfg::NodeId> edgeNode;
    std::vector<int32_t> edgeIp;
    std::vector<int32_t> edgeChan;
    std::vector<uint8_t> edgeShed;

    /**
     * Inter-tile FIFO channel on one consumer edge (from
     * SimConfig::edgeLatencies): tokens spend `latency` cycles in
     * the channel before landing in the consumer's input buffer, and
     * the producer backpressures on channel occupancy (capacity =
     * max(latency, 1)) instead of the destination FIFO.
     */
    struct Channel
    {
        dfg::NodeId src = dfg::NoNode;
        int srcPort = 0;
        dfg::NodeId dst = dfg::NoNode;
        int dstIn = 0;
        int latency = 1;
        int capacity = 1;
    };

    std::vector<Channel> channels;
    std::vector<std::vector<int>> chanIdOf; ///< [node][in] (-1 = none)
    std::vector<int32_t> chanSlab; ///< [C+1] ring slab offsets
    bool hasChannels = false;

  private:
    friend class ExecutionState;

    /** An idle engine for one run, or a new one when none is. */
    std::unique_ptr<FastEngine> borrowEngine() const;
    /** Hand @p engine, borrowed from this Program, back. */
    void returnEngine(std::unique_ptr<FastEngine> engine) const;

    std::shared_ptr<const dfg::Graph> graphHold;
    uint64_t contentDigest = 0;

    mutable std::mutex enginesMu;
    mutable std::vector<std::unique_ptr<FastEngine>> idle;
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_PROGRAM_HH

/**
 * @file
 * Execution statistics collected by the simulator: everything the
 * evaluation figures need (cycles, fires, IPC, buffer/NoC/memory
 * event counts for the energy model, stall breakdowns).
 */

#ifndef PIPESTITCH_SIM_STATS_HH
#define PIPESTITCH_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.hh"

namespace pipestitch::sim {

struct SimStats
{
    int64_t cycles = 0;

    /** Fire count per node. */
    std::vector<int64_t> nodeFires;

    /** Tokens consumed per (node, input port): one NoC traversal
     *  each, over the route the mapping assigned to that edge. */
    std::vector<std::vector<int64_t>> portReads;

    /** Fire counts per PE class (dfg::PeClass order), PE-mapped only. */
    std::vector<int64_t> classFires = std::vector<int64_t>(5, 0);

    /** Fires of CF operators evaluated in NoC routers. */
    int64_t nocCfFires = 0;

    // Event counts for the energy model.
    int64_t bufferWrites = 0;
    int64_t bufferReads = 0;
    int64_t nocTraversals = 0; ///< producer→consumer token deliveries
    int64_t memLoads = 0;
    int64_t memStores = 0;
    int64_t steerDrops = 0;
    int64_t syncPlaneCycles = 0; ///< cycles any dispatch group evaluated
    int64_t dispatchSpawns = 0;  ///< threads launched
    int64_t dispatchConts = 0;
    int64_t shareConflicts = 0;  ///< fires deferred by PE sharing
    int64_t muxSwitches = 0;     ///< shared-PE resident alternations
    int64_t interTileTokens = 0; ///< tokens through inter-tile links

    // Stall census over sequential nodes: cycles in which a node had
    // at least one pending input token but did not fire.
    int64_t stallNoInput = 0;   ///< waiting on a missing operand
    int64_t stallNoSpace = 0;   ///< downstream backpressure
    int64_t bankConflictStalls = 0; ///< memory bank conflict

    /**
     * Total PE fires / cycles (the paper's IPC definition, Sec. 5.7:
     * "total number of times all PEs fired ... divided by the total
     * number of cycles"). CF-in-NoC fires are not PE fires.
     */
    double ipc() const;

    /** Total PE fires. */
    int64_t totalPeFires() const;
};

/**
 * Field-by-field equality over every counter. The fast engine's
 * contract (docs/simulator.md) is bit-identity with the DenseScan
 * reference, so "equal" means every field, not just cycles.
 */
bool statsEqual(const SimStats &a, const SimStats &b);

/** Inner- vs outer-loop per-unit IPC split (Fig. 18). */
struct LoopIpc
{
    double innerIpc = 0;    ///< inner-loop PE fires / cycles
    double outerIpc = 0;
    double innerPerUnit = 0; ///< innerIpc / #inner-loop PEs
    double outerPerUnit = 0;
    int innerPes = 0;
    int outerPes = 0;
};

/**
 * Split PE fires into innermost-loop vs. other ("outer") nodes and
 * normalize by PE counts, per the Fig. 18 definition.
 */
LoopIpc computeLoopIpc(const dfg::Graph &graph, const SimStats &stats);

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_STATS_HH

/**
 * @file
 * Mapping DFGs onto the fabric: class-constrained placement plus
 * dimension-ordered routing with link-capacity checking.
 *
 * The paper uses RipTide's SAT-based mapper; we substitute a
 * portfolio of simulated anneals over a congestion-aware wirelength
 * objective with a post-route capacity check (see DESIGN.md
 * "Substitutions"). The evaluation only depends on the mapping
 * through (a) "does the kernel fit", (b) operator counts (Fig. 21),
 * and (c) NoC hop counts feeding the energy model — all of which
 * this mapper provides.
 *
 * The anneal maintains per-node cached partial costs and applies
 * O(degree) deltas per move; `portfolioSeeds` independently-seeded
 * anneals (one greedy start, the rest random) run in lockstep chunks
 * on the calling thread and share a best-cost bound for early exit.
 * The winner is chosen by (lowest cost, lowest seed index), then
 * polished by steepest descent with iterated-local-search kicks, and
 * targeted restarts repair any link overload (docs/mapper.md).
 */

#ifndef PIPESTITCH_MAPPER_MAPPER_HH
#define PIPESTITCH_MAPPER_MAPPER_HH

#include <span>
#include <string>
#include <vector>

#include "dfg/graph.hh"
#include "fabric/fabric.hh"

namespace pipestitch::mapper {

/** Weight of the link-overload term in the anneal objective. */
constexpr double kCongestionWeight = 8.0;

struct MapperOptions
{
    /** Base RNG seed; every stochastic choice derives from it. */
    uint64_t rngSeed = 1;

    /** Total anneal budget, split evenly across the portfolio. */
    int annealIterations = 20000;

    /** Number of independently-seeded anneal restarts. */
    int portfolioSeeds = 4;

    /** Read by nothing in src/: mapGraph and mapGraphTiled both run
     *  on the calling thread (threads made tiled maps slower;
     *  docs/mapper.md). Kept so the frozen perfbench replay, which
     *  sets it, compiles. Never part of cache keys. */
    int jobs = 1;

    /** Fraction of each anneal's schedule (the cooling tail) that
     *  includes the congestion term; the hotter head optimizes pure
     *  wirelength, which is cheaper per move. */
    double congestionPhase = 0.3;

    /** Max targeted restarts (perturbing only nodes on overloaded
     *  links) before giving up with a structured error. */
    int maxTargetedRestarts = 4;

    /** Cross-check every incremental delta against a from-scratch
     *  recompute (slow; for tests). Never part of cache keys. */
    bool verifyIncremental = false;

    /** Time-multiplexing groups: members share one PE (the first
     *  member is the placement representative). */
    std::vector<std::vector<dfg::NodeId>> shareGroups;

    /** Read by nothing in src/. Kept so the frozen perfbench replay,
     *  which copies RunConfig::boundPruneCycles here, compiles. */
    int64_t boundPruneCycles = 0;
};

struct Mapping
{
    bool success = false;
    std::string error;

    /** On failure: the nodes implicated (oversubscribed class or
     *  endpoints of over-capacity links). Empty on success. */
    std::vector<dfg::NodeId> failedNodes;

    /** Node → PE index; -1 for CF-in-NoC nodes and the trigger. */
    std::vector<int> peOf;

    /** CF-in-NoC node → hosting router (PE-grid index); -1 else. */
    std::vector<int> routerOf;

    /** Per (consumer node, input port): route length in mesh hops. */
    std::vector<std::vector<int>> hopsOf;

    int64_t totalWireLength = 0;
    double avgHops = 0;
    int maxLinkLoad = 0;

    /** Anneal objective of the emitted placement:
     *  wirelength + kCongestionWeight * total link overload. */
    double cost = 0;

    /** Total routed wires above link capacity (0 on success). */
    int64_t congestionOverflow = 0;

    /** Portfolio member that produced the placement (-1 = the
     *  greedy-init incumbent). */
    int winningSeed = -1;

    /** Portfolio members that early-exited because the shared
     *  best-cost bound proved they could not catch the incumbent
     *  in their remaining temperature budget. */
    int seedsEarlyExited = 0;

    /** Fabric position (grid index) used for a node's traffic. */
    int positionOf(dfg::NodeId id) const;
};

Mapping mapGraph(const dfg::Graph &graph,
                 const fabric::Fabric &fabric,
                 const MapperOptions &options = MapperOptions{});

namespace detail {

/**
 * The anneal's nearest-first move tables for one move class. For
 * each slot of @p slots (grid indices, strictly ascending), appends
 * to @p pool the other slots ordered by (Manhattan distance to it,
 * index): slots.size() - 1 entries per slot, in @p slots order.
 * @p coordOf maps a grid index to its coordinates.
 *
 * Counting-sorts each list by distance, O(P) per slot. The order
 * is a bit-identity contract: move sampling maps an RNG draw to a
 * list position, so any change to it changes placements
 * (docs/mapper.md, "Setup").
 */
void appendNearestFirst(std::span<const int> slots,
                        std::span<const fabric::Coord> coordOf,
                        std::vector<int> &pool);

} // namespace detail

} // namespace pipestitch::mapper

#endif // PIPESTITCH_MAPPER_MAPPER_HH

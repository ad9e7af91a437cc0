/**
 * @file
 * Time-multiplexing — the paper's second future-work direction
 * (Sec. 6): "selectively time-multiplex low-utilization operations
 * on PEs, freeing PEs for other work. Time-multiplexing trades
 * performance for energy by increasing switching activity."
 *
 * The planner groups the *coldest* operators of an over-subscribed
 * PE class (outer-loop operators fire once per inner-loop execution
 * and mostly idle) so that each group shares one PE. The simulator
 * enforces one fire per group per cycle, and the energy model
 * charges a configuration-switch cost whenever the PE alternates
 * between residents.
 */

#ifndef PIPESTITCH_COMPILER_TIMEMUX_HH
#define PIPESTITCH_COMPILER_TIMEMUX_HH

#include <optional>
#include <string>
#include <vector>

#include "dfg/graph.hh"
#include "fabric/fabric.hh"

namespace pipestitch::compiler {

/** Groups of node ids sharing one PE (each group same PE class). */
using ShareGroups = std::vector<std::vector<dfg::NodeId>>;

/**
 * Plan sharing groups so @p graph 's PE demand fits @p config.
 * Only operators *not* in an innermost loop are eligible (hot
 * inner-loop operators would serialize the pipeline). Returns empty
 * groups if the kernel already fits; fatal()s if it cannot fit even
 * with all eligible operators folded.
 */
ShareGroups planTimeMultiplexing(const dfg::Graph &graph,
                                 const fabric::FabricConfig &config);

/** As above, but returns nullopt instead of fatal()ing when the
 *  kernel cannot fit even with all eligible operators folded. */
std::optional<ShareGroups>
tryPlanTimeMultiplexing(const dfg::Graph &graph,
                        const fabric::FabricConfig &config);

/** Why tryPlanTimeMultiplexing() gave up on @p graph: the message
 *  names the per-class PE demand. */
std::string timeMultiplexFailure(const dfg::Graph &graph);

} // namespace pipestitch::compiler

#endif // PIPESTITCH_COMPILER_TIMEMUX_HH

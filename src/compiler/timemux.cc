#include "compiler/timemux.hh"

#include <algorithm>

#include "base/logging.hh"

namespace pipestitch::compiler {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
using dfg::PeClass;

std::optional<ShareGroups>
tryPlanTimeMultiplexing(const Graph &graph,
                        const fabric::FabricConfig &config)
{
    // Demand per class, PE-mapped nodes only.
    auto counts = graph.peClassCounts();

    ShareGroups groups;
    for (size_t c = 0; c < counts.size(); c++) {
        int supply = config.peMix[c];
        int demand = counts[c];
        if (demand <= supply)
            continue;

        // Cold candidates, coldest first: shallower loops fire less
        // often; dispatch gates must keep their own PE (they reason
        // about their private output buffer).
        std::vector<NodeId> cold;
        for (NodeId id = 0; id < graph.size(); id++) {
            const Node &node = graph.at(id);
            if (node.cfInNoc || node.kind == NodeKind::Trigger)
                continue;
            if (static_cast<size_t>(node.peClass()) != c)
                continue;
            if (node.innerLoop ||
                node.kind == NodeKind::Dispatch)
                continue;
            cold.push_back(id);
        }
        std::sort(cold.begin(), cold.end(),
                  [&](NodeId a, NodeId b) {
                      return graph.at(a).loopDepth <
                             graph.at(b).loopDepth;
                  });

        // Fold the coldest nodes until the class fits: a group of k
        // nodes frees k-1 PEs. Groups are capped at 8 residents to
        // bound the worst-case serialization of one PE.
        constexpr int kMaxResidents = 8;
        int toFree = demand - supply;
        size_t next = 0;
        while (toFree > 0) {
            if (cold.size() - next < 2)
                return std::nullopt;
            std::vector<NodeId> group = {cold[next],
                                         cold[next + 1]};
            next += 2;
            toFree--;
            while (toFree > 0 &&
                   static_cast<int>(group.size()) < kMaxResidents &&
                   next < cold.size()) {
                group.push_back(cold[next++]);
                toFree--;
            }
            groups.push_back(std::move(group));
        }
    }
    return groups;
}

std::string
timeMultiplexFailure(const Graph &graph)
{
    auto counts = graph.peClassCounts();
    return csprintf("time-multiplexing cannot fit the kernel "
                    "(%d/%d/%d/%d/%d PEs demanded) onto the fabric; "
                    "too few cold operators to fold",
                    counts[0], counts[1], counts[2], counts[3],
                    counts[4]);
}

ShareGroups
planTimeMultiplexing(const Graph &graph,
                     const fabric::FabricConfig &config)
{
    auto groups = tryPlanTimeMultiplexing(graph, config);
    if (!groups)
        fatal("%s", timeMultiplexFailure(graph).c_str());
    return *groups;
}

} // namespace pipestitch::compiler

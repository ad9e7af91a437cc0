/**
 * @file
 * Control-flow placement (Sec. 4.8, Figs. 19/21).
 *
 * RipTide reuses NoC routers to execute control-flow operators
 * "for free" (no PE, no pipeline stage). Pipestitch keeps that
 * option but adds rules: dispatch needs an output buffer and must
 * map to a PE; CF directly downstream of a bypassing memory op must
 * map to a PE to avoid a combinational loop between the bypass mux
 * and CF-in-NoC; and no cycle may consist purely of in-NoC
 * operators.
 */

#include "compiler/compile.hh"

#include <array>
#include <cstdint>
#include <unordered_map>

#include "base/logging.hh"

namespace pipestitch::compiler {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;

namespace {

/** Demote one node per all-NoC cycle until none remain. */
void
breakNocCycles(Graph &graph)
{
    for (;;) {
        // DFS over cfInNoc subgraph looking for a cycle.
        const int n = graph.size();
        std::vector<int> state(static_cast<size_t>(n), 0);
        NodeId offender = dfg::NoNode;

        std::vector<std::pair<NodeId, int>> dfs;
        for (NodeId start = 0; start < n && offender == dfg::NoNode;
             start++) {
            if (!graph.at(start).cfInNoc ||
                state[static_cast<size_t>(start)] != 0) {
                continue;
            }
            dfs.clear();
            dfs.emplace_back(start, 0);
            state[static_cast<size_t>(start)] = 1;
            while (!dfs.empty() && offender == dfg::NoNode) {
                NodeId id = dfs.back().first;
                int edge = dfs.back().second;
                const Node &node = graph.at(id);
                bool descended = false;
                while (edge < node.numInputs()) {
                    const auto &in =
                        node.inputs[static_cast<size_t>(edge)];
                    edge++;
                    if (!in.isWire() ||
                        !graph.at(in.port.node).cfInNoc) {
                        continue;
                    }
                    int s = state[static_cast<size_t>(in.port.node)];
                    if (s == 1) {
                        offender = id;
                        break;
                    }
                    if (s == 0) {
                        dfs.back().second = edge;
                        state[static_cast<size_t>(in.port.node)] = 1;
                        dfs.emplace_back(in.port.node, 0);
                        descended = true;
                        break;
                    }
                }
                if (offender != dfg::NoNode)
                    break;
                if (!descended) {
                    state[static_cast<size_t>(id)] = 2;
                    dfs.pop_back();
                }
            }
        }
        if (offender == dfg::NoNode)
            return;
        graph.at(offender).cfInNoc = false;
    }
}

/** The most inputs a stateless operator has (Select, Merge). */
constexpr size_t kCseMaxInputs = 3;

/**
 * Identity of a stateless operator: kind, opcode, polarity and
 * immediate, then one word per operand slot. Two nodes with equal
 * keys fire identically on the same inputs.
 */
struct CseKey
{
    uint64_t head = 0;
    std::array<uint64_t, kCseMaxInputs> inputs{};

    bool operator==(const CseKey &other) const = default;
};

struct CseKeyHash
{
    size_t
    operator()(const CseKey &key) const
    {
        uint64_t h = key.head;
        for (uint64_t w : key.inputs)
            h = (h ^ w) * 0x9e3779b97f4a7c15ull + (h >> 29);
        return static_cast<size_t>(h ^ (h >> 32));
    }
};

/** The key of @p node. An operand word tags its kind in the top two
 *  bits: absent (0), wire (1: node id and output index) or immediate
 *  (2: the value). */
CseKey
cseKey(const Node &node)
{
    ps_assert(node.inputs.size() <= kCseMaxInputs,
              "stateless node has %zu inputs", node.inputs.size());
    CseKey key;
    key.head = static_cast<uint64_t>(node.kind) |
               static_cast<uint64_t>(node.op) << 8 |
               uint64_t{node.steerIfTrue} << 16 |
               static_cast<uint64_t>(node.inputs.size()) << 20 |
               static_cast<uint64_t>(static_cast<uint32_t>(node.imm))
                   << 32;
    for (size_t i = 0; i < node.inputs.size(); i++) {
        const auto &in = node.inputs[i];
        if (in.isWire()) {
            ps_assert(in.port.index >= 0 && in.port.index < 256,
                      "output index %d out of range", in.port.index);
            key.inputs[i] =
                uint64_t{1} << 62 |
                static_cast<uint64_t>(
                    static_cast<uint32_t>(in.port.node))
                    << 8 |
                static_cast<uint64_t>(in.port.index);
        } else if (in.isImm()) {
            key.inputs[i] =
                uint64_t{2} << 62 |
                static_cast<uint64_t>(static_cast<uint32_t>(in.imm));
        }
    }
    return key;
}

} // namespace

int
eliminateCommonSubexpressions(Graph &graph)
{
    // The scan and the rewiring read operands only; the consumer
    // lists are rebuilt by eliminateDeadNodes() after each change.
    if (!graph.isFinalized())
        graph.finalize();
    int removedTotal = 0;
    std::unordered_map<CseKey, NodeId, CseKeyHash> seen;
    for (;;) {
        seen.clear();
        std::vector<NodeId> replacement(
            static_cast<size_t>(graph.size()), dfg::NoNode);
        bool changed = false;
        for (NodeId id = 0; id < graph.size(); id++) {
            const Node &node = graph.at(id);
            switch (node.kind) {
              case NodeKind::Const:
              case NodeKind::Arith:
              case NodeKind::Steer:
              case NodeKind::Merge:
                break;
              default:
                continue; // stateful or side-effecting
            }
            // The first occurrence in id order survives.
            auto [it, inserted] = seen.emplace(cseKey(node), id);
            if (!inserted) {
                replacement[static_cast<size_t>(id)] = it->second;
                changed = true;
            }
        }
        if (!changed)
            break;
        for (auto &node : graph.nodes) {
            for (auto &in : node.inputs) {
                if (!in.isWire())
                    continue;
                NodeId r =
                    replacement[static_cast<size_t>(in.port.node)];
                if (r != dfg::NoNode)
                    in.port.node = r;
            }
        }
        removedTotal += graph.eliminateDeadNodes();
    }
    return removedTotal;
}

void
placeControlFlow(Graph &graph, bool placeInNoc, bool memBypass)
{
    for (NodeId id = 0; id < graph.size(); id++) {
        Node &node = graph.at(id);
        if (!node.isControlFlow()) {
            node.cfInNoc = false;
            continue;
        }
        bool noc = placeInNoc;
        // Dispatch reasons about its own output buffer (Sec. 4.7);
        // it must live on a PE.
        if (node.kind == NodeKind::Dispatch)
            noc = false;
        // CF fed by a bypassing memory unit would close a
        // combinational loop through the bypass mux (Sec. 4.8).
        if (noc && memBypass) {
            for (const auto &in : node.inputs) {
                if (in.isWire() &&
                    graph.at(in.port.node).isMemory()) {
                    noc = false;
                }
            }
        }
        node.cfInNoc = noc;
    }
    if (placeInNoc)
        breakNocCycles(graph);
}

} // namespace pipestitch::compiler

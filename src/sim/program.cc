#include "sim/program.hh"

#include <algorithm>

#include "base/hash.hh"
#include "base/logging.hh"
#include "dfg/analysis.hh"
#include "sim/engine.hh"

namespace pipestitch::sim {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
using dfg::Operand;

namespace {

/** Destination-buffered mode: only CF-on-PE and memory PEs carry
 *  output buffers (Sec. 4.7); everything else delivers directly. */
bool
nodeHasOutBufs(const Node &node)
{
    return node.isControlFlow() || node.isMemory();
}

/** Program::digest(): the graph plus every SimConfig field that can
 *  change a run's outcome. Add a field here when SimConfig gains
 *  one. */
uint64_t
machineDigest(const Graph &g, const SimConfig &cfg)
{
    Hasher h;
    h.u64(dfg::graphFingerprint(g))
        .i32(static_cast<int32_t>(cfg.buffering))
        .i32(cfg.bufferDepth)
        .i32(cfg.memBanks)
        .b(cfg.memBypass)
        .i64(cfg.maxCycles)
        .b(cfg.checkThreadOrder)
        .b(cfg.greedyDispatch);
    h.u64(cfg.shareGroups.size());
    for (const auto &group : cfg.shareGroups)
        h.vec(group);
    h.u64(cfg.edgeLatencies.size());
    for (const auto &e : cfg.edgeLatencies)
        h.i32(e.node).i32(e.input).i32(e.latency);
    return h.digest();
}

} // namespace

Program::Program(std::shared_ptr<const dfg::Graph> graph,
                 const SimConfig &config)
    : cfg(config), graphHold(std::move(graph))
{
    ps_assert(graphHold != nullptr, "Program needs a graph");
    const Graph &g = *graphHold;
    ps_assert(g.isFinalized(), "graph must be finalized");
    ps_assert(cfg.bufferDepth >= 1, "buffer depth must be >= 1");

    // Per-run observability belongs to RunOptions; strip
    // it so Programs are deeply immutable and freely shareable.
    cfg.observer = nullptr;
    cfg.trace = false;

    sourceMode = cfg.buffering == SimConfig::Buffering::Source;
    contentDigest = machineDigest(g, cfg);

    for (const auto &node : g.nodes) {
        if (node.kind == NodeKind::Dispatch) {
            // Bubble flow control reserves two output slots for a
            // spawn set; shallower buffers could never launch a
            // thread (Sec. 4.4).
            ps_assert(cfg.bufferDepth >= 2,
                      "threaded graphs need buffer depth >= 2");
            break;
        }
    }

    const int n = g.size();
    inputRefs.resize(static_cast<size_t>(n));
    plan.resize(static_cast<size_t>(n));
    threadRegionOf.assign(static_cast<size_t>(n), -1);
    nocNode.assign(static_cast<size_t>(n), 0);

    // Resolve input wiring and endpoint indices. Endpoint index =
    // position in the producer port's consumer list.
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        auto &refs = inputRefs[static_cast<size_t>(id)];
        refs.resize(static_cast<size_t>(node.numInputs()));
        for (int i = 0; i < node.numInputs(); i++) {
            const Operand &op = node.inputs[static_cast<size_t>(i)];
            InputRef &ref = refs[static_cast<size_t>(i)];
            if (op.isImm()) {
                ref.isImm = true;
                ref.imm = op.imm;
            } else if (op.isWire()) {
                ref.prod = op.port.node;
                ref.prodPort = op.port.index;
                const auto &cons = g.consumersOf(op.port);
                for (size_t e = 0; e < cons.size(); e++) {
                    if (cons[e].node == id && cons[e].inputIndex == i)
                        ref.endpoint = static_cast<int>(e);
                }
            }
        }
    }

    // Buffer layout plan (DenseScan materializes the FIFOs).
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        NodePlan &p = plan[static_cast<size_t>(id)];
        nocNode[static_cast<size_t>(id)] = node.cfInNoc ? 1 : 0;
        if (node.cfInNoc) {
            if (sourceMode) {
                // Flow-through relay: a shallow window consumers
                // pull from (the op itself is combinational).
                p.outsDepth = 2;
            } else {
                // Flow-through relay: tokens logically wait at the
                // upstream PE/wire interface until the router op can
                // pair them; modeled as input windows of the global
                // buffer depth, with direct delivery downstream.
                p.insDepth = cfg.bufferDepth;
            }
        } else if (sourceMode) {
            p.outsDepth = cfg.bufferDepth;
        } else {
            p.insDepth = cfg.bufferDepth;
            if (nodeHasOutBufs(node))
                p.outsDepth = cfg.bufferDepth;
        }
        // Nearest enclosing threaded loop (for debug-tag scoping).
        int l = node.loopId;
        while (l >= 0) {
            if (g.loopThreaded[static_cast<size_t>(l)]) {
                threadRegionOf[static_cast<size_t>(id)] = l;
                break;
            }
            l = g.loopParent[static_cast<size_t>(l)];
        }
    }

    nocTopo = dfg::nocCfTopoOrder(g);
    topoIndex.assign(static_cast<size_t>(n), -1);
    for (size_t i = 0; i < nocTopo.size(); i++)
        topoIndex[static_cast<size_t>(nocTopo[i])] =
            static_cast<int>(i);

    dispatchGroups.assign(static_cast<size_t>(g.numLoops), {});
    gateLoop.assign(static_cast<size_t>(n), -1);
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        if (node.kind == NodeKind::Dispatch) {
            dispatchGroups[static_cast<size_t>(node.loopId)].push_back(
                id);
            gateLoop[static_cast<size_t>(id)] = node.loopId;
        }
    }
    for (int l = 0; l < g.numLoops; l++) {
        if (!dispatchGroups[static_cast<size_t>(l)].empty())
            gateLoops.push_back(l);
    }

    shareGroupOf.assign(static_cast<size_t>(n), -1);
    for (size_t gi = 0; gi < cfg.shareGroups.size(); gi++) {
        for (int id : cfg.shareGroups[gi]) {
            ps_assert(id >= 0 && id < n, "bad share-group node");
            ps_assert(shareGroupOf[static_cast<size_t>(id)] == -1,
                      "node %d in two share groups", id);
            shareGroupOf[static_cast<size_t>(id)] =
                static_cast<int>(gi);
            if (!nocNode[static_cast<size_t>(id)])
                shareMembers.push_back(id);
        }
    }
    std::sort(shareMembers.begin(), shareMembers.end());

    for (NodeId id = 0; id < n; id++) {
        if (!nocNode[static_cast<size_t>(id)])
            allSeqNodes.push_back(id);
        if (g.at(id).kind == NodeKind::Trigger)
            triggersTotal++;
    }

    // Per-node attributes and the flat port numbering.
    kindOf.resize(static_cast<size_t>(n));
    opcodeOf.resize(static_cast<size_t>(n));
    operandsOf.resize(static_cast<size_t>(n));
    immOf.resize(static_cast<size_t>(n));
    steerIfTrue.resize(static_cast<size_t>(n));
    streamStepOf.resize(static_cast<size_t>(n));
    loopOf.resize(static_cast<size_t>(n));
    peClassOf.resize(static_cast<size_t>(n));
    isMemOf.resize(static_cast<size_t>(n));
    hasOutBufs.resize(static_cast<size_t>(n));
    insBase.assign(static_cast<size_t>(n) + 1, 0);
    outsBase.assign(static_cast<size_t>(n) + 1, 0);
    portBase.assign(static_cast<size_t>(n) + 1, 0);
    outSlab.assign(1, 0);
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        const size_t i = static_cast<size_t>(id);
        const NodePlan &p = plan[i];
        kindOf[i] = static_cast<uint8_t>(node.kind);
        opcodeOf[i] = node.op;
        operandsOf[i] = static_cast<uint8_t>(
            node.kind == NodeKind::Arith ? sir::numOperands(node.op)
                                         : 0);
        immOf[i] = node.imm;
        steerIfTrue[i] = node.steerIfTrue ? 1 : 0;
        streamStepOf[i] = node.streamStep;
        loopOf[i] = node.loopId;
        peClassOf[i] = static_cast<uint8_t>(node.peClass());
        isMemOf[i] = node.isMemory() ? 1 : 0;
        hasOutBufs[i] = p.outsDepth > 0 ? 1 : 0;
        // Input FIFOs share one depth, so the engine strides their
        // slab uniformly.
        ps_assert(node.numInputs() == 0 || p.insDepth == 0 ||
                      p.insDepth == cfg.bufferDepth,
                  "non-uniform input depth on node %d", id);
        insBase[i + 1] = insBase[i] + node.numInputs();
        portBase[i + 1] = portBase[i] + node.numOutputs();
        const int outs = p.outsDepth > 0 ? node.numOutputs() : 0;
        outsBase[i + 1] = outsBase[i] + outs;
        for (int o = 0; o < outs; o++)
            outSlab.push_back(outSlab.back() + p.outsDepth);
    }
    // Source buffering gives every output port a FIFO, so there the
    // flat output index and the CSR port index coincide.
    ps_assert(!sourceMode || outsBase == portBase,
              "source buffering without a FIFO on every output");

    const size_t P = static_cast<size_t>(insBase.back());
    portMode.assign(P, PortUnwired);
    portImm.assign(P, 0);
    portProd.assign(P, -1);
    portEdge.assign(P, -1);
    portSrc.assign(P, -1);
    portNocOwner.assign(P, 0);

    // Consumer edges, CSR by producer output port.
    consBase.assign(static_cast<size_t>(portBase.back()) + 1, 0);
    for (NodeId id = 0; id < n; id++) {
        for (int port = 0; port < g.at(id).numOutputs(); port++) {
            consBase[static_cast<size_t>(portBase[static_cast<size_t>(
                         id)] + port) + 1] =
                static_cast<int>(g.consumersOf({id, port}).size());
        }
    }
    for (size_t i = 1; i < consBase.size(); i++)
        consBase[i] += consBase[i - 1];
    for (NodeId id = 0; id < n; id++) {
        for (int port = 0; port < g.at(id).numOutputs(); port++) {
            for (const auto &c : g.consumersOf({id, port})) {
                edgeNode.push_back(c.node);
                edgeIp.push_back(
                    insBase[static_cast<size_t>(c.node)] +
                    c.inputIndex);
                edgeShed.push_back(
                    threadRegionOf[static_cast<size_t>(id)] !=
                            threadRegionOf[static_cast<size_t>(c.node)]
                        ? 1
                        : 0);
            }
        }
    }
    for (NodeId id = 0; id < n; id++) {
        const auto &refs = inputRefs[static_cast<size_t>(id)];
        for (size_t in = 0; in < refs.size(); in++) {
            const size_t ip = static_cast<size_t>(
                insBase[static_cast<size_t>(id)] + static_cast<int>(in));
            portNocOwner[ip] = nocNode[static_cast<size_t>(id)];
            if (refs[in].isImm) {
                portMode[ip] = PortImm;
                portImm[ip] = refs[in].imm;
            } else if (refs[in].wired()) {
                portMode[ip] = PortWired;
                portProd[ip] = refs[in].prod;
                portSrc[ip] =
                    portBase[static_cast<size_t>(refs[in].prod)] +
                    refs[in].prodPort;
                portEdge[ip] =
                    consBase[static_cast<size_t>(portSrc[ip])] +
                    refs[in].endpoint;
            }
        }
    }

    // Inter-tile FIFO channels (tiled fabrics). Each entry turns one
    // consumer edge into a latency-N channel; see execution.cc
    // advanceChannels().
    chanIdOf.resize(static_cast<size_t>(n));
    for (NodeId id = 0; id < n; id++) {
        chanIdOf[static_cast<size_t>(id)].assign(
            static_cast<size_t>(g.at(id).numInputs()), -1);
    }
    for (const SimConfig::EdgeLatency &el : cfg.edgeLatencies) {
        ps_assert(!sourceMode, "inter-tile channels require "
                               "destination buffering");
        ps_assert(el.node >= 0 && el.node < n,
                  "edge latency names node %d outside the graph",
                  el.node);
        const Node &node = g.at(el.node);
        ps_assert(el.input >= 0 && el.input < node.numInputs(),
                  "edge latency names input %d of node %d (has %d)",
                  el.input, el.node, node.numInputs());
        const InputRef &ref =
            inputRefs[static_cast<size_t>(el.node)]
                     [static_cast<size_t>(el.input)];
        ps_assert(ref.wired(),
                  "edge latency on unwired input %d of node %d",
                  el.input, el.node);
        ps_assert(el.latency >= 1, "edge latency must be >= 1");
        int &slot = chanIdOf[static_cast<size_t>(el.node)]
                            [static_cast<size_t>(el.input)];
        ps_assert(slot == -1, "duplicate edge latency on node %d "
                              "input %d", el.node, el.input);
        Channel ch;
        ch.src = ref.prod;
        ch.srcPort = ref.prodPort;
        ch.dst = el.node;
        ch.dstIn = el.input;
        ch.latency = el.latency;
        ch.capacity = std::max(el.latency, 1);
        slot = static_cast<int>(channels.size());
        channels.push_back(ch);
        hasChannels = true;
    }
    edgeChan.assign(edgeNode.size(), -1);
    chanSlab.assign(channels.size() + 1, 0);
    for (size_t ch = 0; ch < channels.size(); ch++) {
        const Channel &cc = channels[ch];
        edgeChan[static_cast<size_t>(
            portEdge[static_cast<size_t>(
                insBase[static_cast<size_t>(cc.dst)] + cc.dstIn)])] =
            static_cast<int32_t>(ch);
        chanSlab[ch + 1] = chanSlab[ch] + cc.capacity;
    }
}

Program::~Program() = default;

size_t
Program::idleEngines() const
{
    std::lock_guard<std::mutex> lock(enginesMu);
    return idle.size();
}

std::unique_ptr<FastEngine>
Program::borrowEngine() const
{
    {
        std::lock_guard<std::mutex> lock(enginesMu);
        if (!idle.empty()) {
            std::unique_ptr<FastEngine> engine = std::move(idle.back());
            idle.pop_back();
            return engine;
        }
    }
    return std::make_unique<FastEngine>(*this);
}

void
Program::returnEngine(std::unique_ptr<FastEngine> engine) const
{
    std::lock_guard<std::mutex> lock(enginesMu);
    idle.push_back(std::move(engine));
}

} // namespace pipestitch::sim

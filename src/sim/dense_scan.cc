#include "sim/dense_scan.hh"

#include <sstream>

#include "base/logging.hh"
#include "trace/observer.hh"

namespace pipestitch::sim {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
namespace pidx = dfg::port_idx;

DenseScan::DenseScan(std::shared_ptr<const Program> program)
    : progHold(std::move(program)), prog(*progHold),
      graph(prog.graph()), cfg(prog.cfg),
      sourceMode(prog.sourceMode)
{
}

void
DenseScan::reset()
{
    const int n = graph.size();

    rt.assign(static_cast<size_t>(n), NodeRt{});
    for (NodeId id = 0; id < n; id++) {
        const Node &node = graph.at(id);
        const Program::NodePlan &p = prog.plan[static_cast<size_t>(id)];
        NodeRt &r = rt[static_cast<size_t>(id)];
        if (p.insDepth > 0) {
            r.ins.assign(static_cast<size_t>(node.numInputs()),
                         TokenFifo(p.insDepth));
        }
        if (p.outsDepth > 0) {
            r.outs.assign(static_cast<size_t>(node.numOutputs()),
                          TokenFifo(p.outsDepth));
        }
    }
    if (sourceMode) {
        for (NodeId id = 0; id < n; id++) {
            NodeRt &r = rt[static_cast<size_t>(id)];
            for (int port = 0;
                 port < static_cast<int>(r.outs.size()); port++) {
                r.outs[static_cast<size_t>(port)].initEndpoints(
                    static_cast<int>(
                        graph.consumersOf({id, port}).size()));
            }
        }
    }

    stats = SimStats{};
    stats.nodeFires.assign(static_cast<size_t>(n), 0);
    stats.portReads.resize(static_cast<size_t>(n));
    for (NodeId id = 0; id < n; id++) {
        stats.portReads[static_cast<size_t>(id)].assign(
            static_cast<size_t>(graph.at(id).numInputs()), 0);
    }

    groupChoice.assign(static_cast<size_t>(graph.numLoops),
                       GroupChoice::None);
    shareUsed.assign(cfg.shareGroups.size(), false);
    shareLast.assign(cfg.shareGroups.size(), dfg::NoNode);

    chanTok.assign(static_cast<size_t>(prog.chanSlab.back()), Token{});
    chanReady.assign(static_cast<size_t>(prog.chanSlab.back()), 0);
    chanHead.assign(prog.channels.size(), 0);
    chanCount.assign(prog.channels.size(), 0);
    seqFiredAt.assign(static_cast<size_t>(n), -1);
    nocFiredAt.assign(static_cast<size_t>(n), -1);

    nextThreadTag = 0;
    cycle = 0;
    bornStamp = 0;
    lastSyncPlaneCycle = -1;
    active = false;
    fireList.clear();
    fault = MemFault{};
    failure.clear();
}

SimResult
DenseScan::run(MemImage &mem, const RunOptions &opts)
{
    return detail::runObserved(
        prog, opts, [&](const SimConfig &runCfg) {
            cfg = runCfg;
            obs = cfg.observer;
            reset();
            memsys.emplace(mem, cfg.memBanks, kMemLatency);
            SimResult result = runLoop();
            memsys.reset();
            return result;
        });
}

// ---------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------

bool
DenseScan::inputAvail(NodeId id, int in) const
{
    const InputRef &ref =
        prog.inputRefs[static_cast<size_t>(id)]
                      [static_cast<size_t>(in)];
    if (ref.isImm)
        return true;
    if (!ref.wired())
        return false;
    if (sourceMode) {
        const TokenFifo &f =
            rt[static_cast<size_t>(ref.prod)]
                .outs[static_cast<size_t>(ref.prodPort)];
        // Registered PEs see only the multicast head; combinational
        // router CF snoops the buffered window.
        bool ok = prog.nocNode[static_cast<size_t>(id)]
                      ? f.availFor(ref.endpoint)
                      : f.availHeadFor(ref.endpoint);
        if (!ok)
            return false;
        // A PE samples its inputs at the clock edge: it can only
        // consume tokens that were visible before this cycle began.
        // Router CF is combinational and may consume fresh tokens.
        if (!prog.nocNode[static_cast<size_t>(id)] &&
            f.peekFor(ref.endpoint).born >= cycle) {
            return false;
        }
        return true;
    }
    const TokenFifo &f =
        rt[static_cast<size_t>(id)].ins[static_cast<size_t>(in)];
    if (f.empty())
        return false;
    if (!prog.nocNode[static_cast<size_t>(id)] &&
        f.head().born >= cycle)
        return false;
    return true;
}

Token
DenseScan::peekInput(NodeId id, int in) const
{
    const InputRef &ref =
        prog.inputRefs[static_cast<size_t>(id)]
                      [static_cast<size_t>(in)];
    if (ref.isImm)
        return Token{ref.imm, NoTag};
    if (sourceMode) {
        Token t = rt[static_cast<size_t>(ref.prod)]
                      .outs[static_cast<size_t>(ref.prodPort)]
                      .peekFor(ref.endpoint);
        // Tokens crossing out of a threaded region shed their tag.
        if (prog.threadRegionOf[static_cast<size_t>(ref.prod)] !=
            prog.threadRegionOf[static_cast<size_t>(id)]) {
            t.tag = NoTag;
        }
        return t;
    }
    return rt[static_cast<size_t>(id)]
        .ins[static_cast<size_t>(in)]
        .head();
}

Token
DenseScan::consumeInput(NodeId id, int in)
{
    const InputRef &ref =
        prog.inputRefs[static_cast<size_t>(id)]
                      [static_cast<size_t>(in)];
    Token t = peekInput(id, in);
    if (ref.isImm)
        return t;
    if (sourceMode) {
        rt[static_cast<size_t>(ref.prod)]
            .outs[static_cast<size_t>(ref.prodPort)]
            .takeFor(ref.endpoint);
        stats.nocTraversals++;
        stats.bufferReads++;
    } else {
        rt[static_cast<size_t>(id)]
            .ins[static_cast<size_t>(in)]
            .pop();
        stats.bufferReads++;
    }
    stats.portReads[static_cast<size_t>(id)]
                   [static_cast<size_t>(in)]++;
    active = true;
    return t;
}

bool
DenseScan::portHasConsumers(NodeId id, int port) const
{
    return !graph.consumersOf({id, port}).empty();
}

bool
DenseScan::consumersAccept(NodeId id, int port) const
{
    for (const auto &c : graph.consumersOf({id, port})) {
        if (prog.hasChannels) {
            int ch = prog.chanIdOf[static_cast<size_t>(c.node)]
                                  [static_cast<size_t>(c.inputIndex)];
            if (ch >= 0) {
                // Channel edge: the producer backpressures on the
                // inter-tile channel, not the far-side buffer.
                if (chanCount[static_cast<size_t>(ch)] >=
                    prog.channels[static_cast<size_t>(ch)].capacity)
                    return false;
                continue;
            }
        }
        const TokenFifo &f =
            rt[static_cast<size_t>(c.node)]
                .ins[static_cast<size_t>(c.inputIndex)];
        if (f.full())
            return false;
    }
    return true;
}

bool
DenseScan::outSpace(NodeId id, int port, int need) const
{
    if (!portHasConsumers(id, port))
        return true; // nothing to emit
    const NodeRt &r = rt[static_cast<size_t>(id)];
    if (!r.outs.empty()) {
        const TokenFifo &f = r.outs[static_cast<size_t>(port)];
        int reserved = port == 0 ? r.reservedOut : 0;
        return f.freeSlots() - reserved >= need;
    }
    // Destination mode without an output buffer: multicast delivery
    // requires space at every consumer.
    return consumersAccept(id, port);
}

void
DenseScan::deliver(NodeId from, int port, const Token &token)
{
    for (const auto &c : graph.consumersOf({from, port})) {
        Token t = token;
        if (prog.threadRegionOf[static_cast<size_t>(from)] !=
            prog.threadRegionOf[static_cast<size_t>(c.node)]) {
            t.tag = NoTag;
        }
        if (prog.hasChannels) {
            int ch = prog.chanIdOf[static_cast<size_t>(c.node)]
                                  [static_cast<size_t>(c.inputIndex)];
            if (ch >= 0) {
                // Channel edge: the token enters the inter-tile
                // channel and matures `latency` cycles later
                // (advanceChannels moves it into the destination
                // buffer). The consumer is not woken yet.
                const Program::Channel &cc =
                    prog.channels[static_cast<size_t>(ch)];
                const size_t ci = static_cast<size_t>(ch);
                ps_assert(chanCount[ci] < cc.capacity,
                          "delivery into full channel (node %d)",
                          c.node);
                int pos = chanHead[ci] + chanCount[ci];
                if (pos >= cc.capacity)
                    pos -= cc.capacity;
                size_t slot =
                    static_cast<size_t>(prog.chanSlab[ci] + pos);
                chanTok[slot] = t;
                chanReady[slot] = cycle + cc.latency;
                chanCount[ci]++;
                stats.bufferWrites++;
                stats.nocTraversals++;
                stats.interTileTokens++;
                continue;
            }
        }
        TokenFifo &f = rt[static_cast<size_t>(c.node)]
                           .ins[static_cast<size_t>(c.inputIndex)];
        ps_assert(!f.full(), "delivery into full buffer (node %d)",
                  c.node);
        t.born = bornStamp;
        f.push(t);
        stats.bufferWrites++;
        stats.nocTraversals++;
    }
    active = true;
}

void
DenseScan::emit(NodeId id, int port, Token token)
{
    if (!portHasConsumers(id, port))
        return;
    NodeRt &r = rt[static_cast<size_t>(id)];
    if (sourceMode || prog.nocNode[static_cast<size_t>(id)]) {
        if (sourceMode) {
            token.born = bornStamp;
            r.outs[static_cast<size_t>(port)].push(token);
            stats.bufferWrites++;
            active = true;
        } else {
            // NoC node in destination mode: direct delivery.
            deliver(id, port, token);
        }
        return;
    }
    if (r.outs.empty()) {
        deliver(id, port, token);
        return;
    }
    // Output-buffered PE: bypass straight to consumers when the
    // buffer is empty and downstream has room (Sec. 4.7).
    const Node &node = graph.at(id);
    bool canBypass = !node.isMemory() || cfg.memBypass;
    TokenFifo &f = r.outs[static_cast<size_t>(port)];
    if (canBypass && f.empty() && consumersAccept(id, port)) {
        deliver(id, port, token);
    } else {
        ps_assert(!f.full(), "emit into full output buffer");
        token.born = bornStamp;
        f.push(token);
        stats.bufferWrites++;
        active = true;
    }
}

int32_t
DenseScan::combineTags(NodeId id,
                            std::initializer_list<int32_t> tags)
{
    int32_t tag = NoTag;
    for (int32_t t : tags) {
        if (t == NoTag)
            continue;
        if (tag == NoTag) {
            tag = t;
        } else if (tag != t && cfg.checkThreadOrder &&
                   failure.empty()) {
            failure = csprintf(
                "thread-order violation at node %d (%s %s): tokens of "
                "threads %d and %d met (cycle %lld)",
                id, nodeKindName(graph.at(id).kind),
                graph.at(id).name.c_str(), tag, t,
                static_cast<long long>(cycle));
        }
    }
    return tag;
}

void
DenseScan::checkAddr(NodeId id, Word addr)
{
    if (!memsys->inBounds(addr) && failure.empty()) {
        fault = MemFault{id, addr, cycle};
        failure = describeFault(graph, fault, memsys->words());
    }
}

// ---------------------------------------------------------------------
// Cycle phases
// ---------------------------------------------------------------------

void
DenseScan::drainOutputBuffers()
{
    bornStamp = cycle - 1; // these tokens were ready last cycle
    if (sourceMode)
        return; // consumers pull directly from output buffers
    for (NodeId id = 0; id < graph.size(); id++) {
        NodeRt &r = rt[static_cast<size_t>(id)];
        for (int port = 0;
             port < static_cast<int>(r.outs.size()); port++) {
            TokenFifo &f = r.outs[static_cast<size_t>(port)];
            if (!f.empty() && consumersAccept(id, port)) {
                Token t = f.pop();
                stats.bufferReads++;
                deliver(id, port, t);
            }
        }
    }
}

void
DenseScan::handleMemCompletions()
{
    bornStamp = cycle - 1; // data crossed the NoC during the wait
    for (const auto &load : memsys->takeCompletions(cycle)) {
        NodeRt &r = rt[static_cast<size_t>(load.node)];
        Token data = load.data;
        data.born = bornStamp;
        // A load kept alive only for its order token has no data
        // consumers; its value is dropped at the PE boundary.
        if (!portHasConsumers(load.node, pidx::LoadDataOut)) {
            active = true;
            continue;
        }
        r.reservedOut--;
        if (sourceMode) {
            r.outs[static_cast<size_t>(pidx::LoadDataOut)].push(data);
            stats.bufferWrites++;
        } else {
            TokenFifo &f =
                r.outs[static_cast<size_t>(pidx::LoadDataOut)];
            if (cfg.memBypass && f.empty() &&
                consumersAccept(load.node, pidx::LoadDataOut)) {
                deliver(load.node, pidx::LoadDataOut, data);
            } else {
                ps_assert(!f.full(), "load completion overflow");
                f.push(data);
                stats.bufferWrites++;
            }
        }
        active = true;
    }
}

void
DenseScan::advanceChannels()
{
    bornStamp = cycle - 1; // matured tokens aged in the channel
    for (size_t ch = 0; ch < chanCount.size(); ch++) {
        if (chanCount[ch] == 0)
            continue;
        const Program::Channel &cc = prog.channels[ch];
        TokenFifo &f = rt[static_cast<size_t>(cc.dst)]
                           .ins[static_cast<size_t>(cc.dstIn)];
        while (chanCount[ch] > 0 &&
               chanReady[static_cast<size_t>(prog.chanSlab[ch] +
                                             chanHead[ch])] <=
                   cycle &&
               !f.full()) {
            size_t slot = static_cast<size_t>(prog.chanSlab[ch] +
                                              chanHead[ch]);
            Token t = chanTok[slot];
            int h = chanHead[ch] + 1;
            chanHead[ch] = h >= cc.capacity ? 0 : h;
            chanCount[ch]--;
            t.born = bornStamp;
            f.push(t); // still one in-flight token: channel -> fifo
            stats.bufferWrites++;
            active = true;
        }
        if (chanCount[ch] > 0 &&
            chanReady[static_cast<size_t>(prog.chanSlab[ch] +
                                          chanHead[ch])] > cycle) {
            // Tokens still crossing the boundary keep the fabric
            // busy — this is latency, not deadlock.
            active = true;
        }
    }
}

void
DenseScan::decideDispatchGroups()
{
    // Called once per sequential round; only bill the SyncPlane
    // once per cycle.
    bool anyEval = false;
    for (int l = 0; l < graph.numLoops; l++) {
        const auto &group =
            prog.dispatchGroups[static_cast<size_t>(l)];
        groupChoice[static_cast<size_t>(l)] = GroupChoice::None;
        if (group.empty())
            continue;

        if (cfg.greedyDispatch) {
            // Fig. 9a ablation: no SyncPlane; each gate fends for
            // itself (decisions made per node in canFire).
            continue;
        }

        // Fig. 10 token-selection logic, evaluated over the
        // SyncPlane reduction of all gates in the group.
        bool anyPending = false;
        bool contAll = true, contNotFull = true;
        bool spawnAll = true, spawnTwoSlots = true;
        for (NodeId d : group) {
            const NodeRt &r = rt[static_cast<size_t>(d)];
            bool cAvail = inputAvail(d, pidx::DispatchCont);
            bool sAvail = inputAvail(d, pidx::DispatchSpawn);
            anyPending |= cAvail | sAvail;
            contAll &= cAvail;
            spawnAll &= sAvail;
            const TokenFifo &out = r.outs[0];
            if (out.freeSlots() < 1)
                contNotFull = false;
            if (out.freeSlots() < 2)
                spawnTwoSlots = false;
        }
        if (anyPending)
            anyEval = true;
        if (contAll && contNotFull) {
            groupChoice[static_cast<size_t>(l)] = GroupChoice::Cont;
        } else if (spawnAll && spawnTwoSlots) {
            groupChoice[static_cast<size_t>(l)] = GroupChoice::Spawn;
        }
    }
    if (anyEval && lastSyncPlaneCycle != cycle) {
        stats.syncPlaneCycles++;
        lastSyncPlaneCycle = cycle;
        if (obs)
            obs->onSyncPlane(cycle);
    }
}

DenseScan::Blocked
DenseScan::canFire(NodeId id)
{
    const Node &node = graph.at(id);
    NodeRt &r = rt[static_cast<size_t>(id)];

    auto need = [&](int in) { return inputAvail(id, in); };

    switch (node.kind) {
      case NodeKind::Trigger: {
        if (r.triggerFired)
            return Blocked::Idle;
        if (!outSpace(id, 0, 1))
            return Blocked::Space;
        return Blocked::No;
      }
      case NodeKind::Const: {
        if (!need(0))
            return Blocked::Input;
        return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
      }
      case NodeKind::Arith: {
        int want = sir::numOperands(node.op);
        for (int i = 0; i < want; i++) {
            if (!need(i))
                return Blocked::Input;
        }
        return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
      }
      case NodeKind::Steer: {
        if (!need(pidx::SteerDecider) || !need(pidx::SteerValue))
            return Blocked::Input;
        bool forward = (peekInput(id, pidx::SteerDecider).value != 0) ==
                       node.steerIfTrue;
        if (forward && !outSpace(id, 0, 1))
            return Blocked::Space;
        return Blocked::No;
      }
      case NodeKind::Carry: {
        if (r.fsm == NodeRt::Fsm::Init) {
            if (!need(pidx::CarryInit))
                return Blocked::Input;
            return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
        }
        if (r.fsm == NodeRt::Fsm::WaitVal) {
            if (!need(pidx::CarryCont))
                return Blocked::Input;
            return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
        }
        // Run: the decider is consumed eagerly; when the backedge
        // value is already present a true decider forwards it in the
        // same firing.
        if (!need(pidx::CarryDecider))
            return Blocked::Input;
        if (peekInput(id, pidx::CarryDecider).value != 0 &&
            need(pidx::CarryCont)) {
            return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
        }
        return Blocked::No;
      }
      case NodeKind::Invariant: {
        if (r.fsm == NodeRt::Fsm::Init) {
            if (!need(pidx::InvValue))
                return Blocked::Input;
            return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
        }
        if (!need(pidx::InvDecider))
            return Blocked::Input;
        if (peekInput(id, pidx::InvDecider).value != 0) {
            return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
        }
        return Blocked::No;
      }
      case NodeKind::Merge: {
        if (r.fsm == NodeRt::Fsm::WaitVal) {
            if (!need(r.pendingSide))
                return Blocked::Input;
            return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
        }
        if (!need(pidx::MergeDecider))
            return Blocked::Input;
        int side = peekInput(id, pidx::MergeDecider).value != 0
                       ? pidx::MergeTrue
                       : pidx::MergeFalse;
        const auto &sideOp =
            graph.at(id).inputs[static_cast<size_t>(side)];
        if (sideOp.isWire() && !need(side)) {
            // Consume the decider now, wait for the value.
            return Blocked::No;
        }
        return outSpace(id, 0, 1) ? Blocked::No : Blocked::Space;
      }
      case NodeKind::Dispatch: {
        if (cfg.greedyDispatch) {
            // Unsynchronized: take any available token, preferring
            // continuation, with only local space checks.
            bool c = inputAvail(id, pidx::DispatchCont);
            bool s2 = inputAvail(id, pidx::DispatchSpawn);
            if (!c && !s2)
                return Blocked::Input;
            return outSpace(id, 0, 1) ? Blocked::No
                                      : Blocked::Space;
        }
        return groupChoice[static_cast<size_t>(node.loopId)] ==
                       GroupChoice::None
                   ? Blocked::Input
                   : Blocked::No;
      }
      case NodeKind::Load: {
        if (!need(pidx::LoadAddr))
            return Blocked::Input;
        const auto &refs = prog.inputRefs[static_cast<size_t>(id)];
        const InputRef &ordRef =
            refs.size() > static_cast<size_t>(pidx::LoadOrder)
                ? refs[static_cast<size_t>(pidx::LoadOrder)]
                : InputRef{};
        if (ordRef.wired() && !need(pidx::LoadOrder))
            return Blocked::Input;
        // Need a reservation slot for the returning data (unless
        // nothing consumes it).
        if (!r.outs.empty() &&
            portHasConsumers(id, pidx::LoadDataOut)) {
            const TokenFifo &f =
                r.outs[static_cast<size_t>(pidx::LoadDataOut)];
            if (f.freeSlots() - r.reservedOut < 1)
                return Blocked::Space;
        }
        if (portHasConsumers(id, pidx::LoadDoneOut) &&
            !outSpace(id, pidx::LoadDoneOut, 1)) {
            return Blocked::Space;
        }
        if (!memsys->bankFree(peekInput(id, pidx::LoadAddr).value +
                              node.imm))
            return Blocked::Bank;
        return Blocked::No;
      }
      case NodeKind::Store: {
        if (!need(pidx::StoreAddr) || !need(pidx::StoreData))
            return Blocked::Input;
        const auto &refs = prog.inputRefs[static_cast<size_t>(id)];
        if (refs.size() > static_cast<size_t>(pidx::StoreOrder) &&
            refs[static_cast<size_t>(pidx::StoreOrder)].wired() &&
            !need(pidx::StoreOrder)) {
            return Blocked::Input;
        }
        if (portHasConsumers(id, pidx::StoreDoneOut) &&
            !outSpace(id, pidx::StoreDoneOut, 1)) {
            return Blocked::Space;
        }
        if (!memsys->bankFree(peekInput(id, pidx::StoreAddr).value +
                              node.imm))
            return Blocked::Bank;
        return Blocked::No;
      }
      case NodeKind::Stream: {
        if (r.fsm == NodeRt::Fsm::Init) {
            if (!need(pidx::StreamBegin) || !need(pidx::StreamEnd))
                return Blocked::Input;
            const auto &refs =
                prog.inputRefs[static_cast<size_t>(id)];
            if (refs.size() >
                    static_cast<size_t>(pidx::StreamTrigger) &&
                refs[static_cast<size_t>(pidx::StreamTrigger)]
                    .wired() &&
                !need(pidx::StreamTrigger)) {
                return Blocked::Input;
            }
            Word cur = peekInput(id, pidx::StreamBegin).value;
            Word end = peekInput(id, pidx::StreamEnd).value;
            bool continuing = cur < end;
            if (continuing &&
                !outSpace(id, pidx::StreamIdxOut, 1))
                return Blocked::Space;
            if (!outSpace(id, pidx::StreamCondOut, 1))
                return Blocked::Space;
            return Blocked::No;
        }
        bool continuing = r.streamCur < r.streamEnd;
        if (continuing && !outSpace(id, pidx::StreamIdxOut, 1))
            return Blocked::Space;
        if (!outSpace(id, pidx::StreamCondOut, 1))
            return Blocked::Space;
        return Blocked::No;
      }
    }
    panic("unknown node kind");
}

void
DenseScan::commitFire(NodeId id)
{
    const Node &node = graph.at(id);
    NodeRt &r = rt[static_cast<size_t>(id)];

    if (prog.nocNode[static_cast<size_t>(id)]) {
        stats.nocCfFires++;
    } else if (node.kind != NodeKind::Trigger) {
        stats.classFires[static_cast<size_t>(node.peClass())]++;
    }
    stats.nodeFires[static_cast<size_t>(id)]++;
    active = true;
    if (obs)
        obs->onFire(cycle, id);

    switch (node.kind) {
      case NodeKind::Trigger: {
        r.triggerFired = true;
        emit(id, 0, Token{node.imm, NoTag});
        break;
      }
      case NodeKind::Const: {
        Token t = consumeInput(id, 0);
        emit(id, 0, Token{node.imm, t.tag});
        break;
      }
      case NodeKind::Arith: {
        int want = sir::numOperands(node.op);
        Token a = consumeInput(id, 0);
        Token b = consumeInput(id, 1);
        Token c = want == 3 ? consumeInput(id, 2) : Token{};
        int32_t tag = combineTags(id, {a.tag, b.tag, c.tag});
        emit(id, 0,
             Token{sir::evalOpcode(node.op, a.value, b.value, c.value),
                   tag});
        break;
      }
      case NodeKind::Steer: {
        Token d = consumeInput(id, pidx::SteerDecider);
        Token v = consumeInput(id, pidx::SteerValue);
        int32_t tag = combineTags(id, {d.tag, v.tag});
        if ((d.value != 0) == node.steerIfTrue) {
            emit(id, 0, Token{v.value, tag});
        } else {
            stats.steerDrops++;
        }
        break;
      }
      case NodeKind::Carry: {
        if (r.fsm == NodeRt::Fsm::Init) {
            Token a = consumeInput(id, pidx::CarryInit);
            r.fsm = NodeRt::Fsm::Run;
            emit(id, 0, a);
        } else if (r.fsm == NodeRt::Fsm::WaitVal) {
            Token b = consumeInput(id, pidx::CarryCont);
            int32_t tag = combineTags(id, {r.latched.tag, b.tag});
            r.fsm = NodeRt::Fsm::Run;
            emit(id, 0, Token{b.value, tag});
        } else {
            Token d = consumeInput(id, pidx::CarryDecider);
            if (d.value == 0) {
                r.fsm = NodeRt::Fsm::Init;
            } else if (inputAvail(id, pidx::CarryCont)) {
                Token b = consumeInput(id, pidx::CarryCont);
                int32_t tag = combineTags(id, {d.tag, b.tag});
                emit(id, 0, Token{b.value, tag});
            } else {
                r.latched = d;
                r.fsm = NodeRt::Fsm::WaitVal;
            }
        }
        break;
      }
      case NodeKind::Invariant: {
        if (r.fsm == NodeRt::Fsm::Init) {
            Token a = consumeInput(id, pidx::InvValue);
            r.latched = a;
            r.fsm = NodeRt::Fsm::Run;
            emit(id, 0, a);
        } else {
            Token d = consumeInput(id, pidx::InvDecider);
            if (d.value != 0) {
                int32_t tag = combineTags(id, {d.tag, r.latched.tag});
                emit(id, 0, Token{r.latched.value, tag});
            } else {
                r.fsm = NodeRt::Fsm::Init;
                r.latched = Token{};
            }
        }
        break;
      }
      case NodeKind::Merge: {
        if (r.fsm == NodeRt::Fsm::WaitVal) {
            Token v = consumeInput(id, r.pendingSide);
            int32_t tag = combineTags(id, {r.latched.tag, v.tag});
            r.fsm = NodeRt::Fsm::Run;
            emit(id, 0, Token{v.value, tag});
            break;
        }
        Token d = consumeInput(id, pidx::MergeDecider);
        int side = d.value != 0 ? pidx::MergeTrue : pidx::MergeFalse;
        const auto &sideOp =
            graph.at(id).inputs[static_cast<size_t>(side)];
        if (sideOp.isWire() && !inputAvail(id, side)) {
            r.latched = d;
            r.pendingSide = side;
            r.fsm = NodeRt::Fsm::WaitVal;
            break;
        }
        Token v = consumeInput(id, side);
        int32_t tag = combineTags(id, {d.tag, v.tag});
        emit(id, 0, Token{v.value, tag});
        break;
      }
      case NodeKind::Dispatch: {
        GroupChoice choice =
            groupChoice[static_cast<size_t>(node.loopId)];
        if (cfg.greedyDispatch) {
            choice = inputAvail(id, pidx::DispatchCont)
                         ? GroupChoice::Cont
                         : GroupChoice::Spawn;
        }
        if (choice == GroupChoice::Cont) {
            Token t = consumeInput(id, pidx::DispatchCont);
            stats.dispatchConts++;
            if (obs)
                obs->onDispatch(cycle, id, false, t.tag);
            emit(id, 0, t);
        } else {
            Token t = consumeInput(id, pidx::DispatchSpawn);
            // All gates in the group fire this cycle and must agree
            // on the new thread's identity; nextThreadTag advances
            // once per group per cycle (see runLoop()).
            t.tag = nextThreadTag;
            stats.dispatchSpawns++;
            if (obs)
                obs->onDispatch(cycle, id, true, t.tag);
            emit(id, 0, t);
        }
        break;
      }
      case NodeKind::Load: {
        Token addr = consumeInput(id, pidx::LoadAddr);
        addr.value += node.imm; // configured base offset
        int32_t tag = addr.tag;
        const auto &refs = prog.inputRefs[static_cast<size_t>(id)];
        if (refs.size() > static_cast<size_t>(pidx::LoadOrder) &&
            refs[static_cast<size_t>(pidx::LoadOrder)].wired()) {
            Token ord = consumeInput(id, pidx::LoadOrder);
            tag = combineTags(id, {tag, ord.tag});
        }
        // The bank port was claimed when the scheduler selected
        // this node (the claim must be visible to later candidates
        // within the same round).
        checkAddr(id, addr.value);
        memsys->issueLoad(id, addr.value, tag, cycle);
        if (portHasConsumers(id, pidx::LoadDataOut))
            r.reservedOut++;
        stats.memLoads++;
        if (obs) {
            obs->onMemAccess(cycle, id, true, addr.value,
                             memsys->bankOf(addr.value));
        }
        emit(id, pidx::LoadDoneOut, Token{1, tag});
        break;
      }
      case NodeKind::Store: {
        Token addr = consumeInput(id, pidx::StoreAddr);
        addr.value += node.imm; // configured base offset
        Token data = consumeInput(id, pidx::StoreData);
        int32_t tag = combineTags(id, {addr.tag, data.tag});
        const auto &refs = prog.inputRefs[static_cast<size_t>(id)];
        if (refs.size() > static_cast<size_t>(pidx::StoreOrder) &&
            refs[static_cast<size_t>(pidx::StoreOrder)].wired()) {
            Token ord = consumeInput(id, pidx::StoreOrder);
            tag = combineTags(id, {tag, ord.tag});
        }
        // Bank port claimed at scheduler selection (see Load).
        checkAddr(id, addr.value);
        memsys->store(addr.value, data.value);
        stats.memStores++;
        if (obs) {
            obs->onMemAccess(cycle, id, false, addr.value,
                             memsys->bankOf(addr.value));
        }
        emit(id, pidx::StoreDoneOut, Token{1, tag});
        break;
      }
      case NodeKind::Stream: {
        if (r.fsm == NodeRt::Fsm::Init) {
            Token begin = consumeInput(id, pidx::StreamBegin);
            Token end = consumeInput(id, pidx::StreamEnd);
            const auto &refs =
                prog.inputRefs[static_cast<size_t>(id)];
            int32_t tag = combineTags(id, {begin.tag, end.tag});
            if (refs.size() >
                    static_cast<size_t>(pidx::StreamTrigger) &&
                refs[static_cast<size_t>(pidx::StreamTrigger)]
                    .wired()) {
                Token trig = consumeInput(id, pidx::StreamTrigger);
                tag = combineTags(id, {tag, trig.tag});
            }
            r.streamCur = begin.value;
            r.streamEnd = end.value;
            r.latched.tag = tag;
            r.fsm = NodeRt::Fsm::Run;
        }
        int32_t tag = r.latched.tag;
        if (r.streamCur < r.streamEnd) {
            emit(id, pidx::StreamIdxOut, Token{r.streamCur, tag});
            emit(id, pidx::StreamCondOut, Token{1, tag});
            r.streamCur += node.streamStep;
        } else {
            emit(id, pidx::StreamCondOut, Token{0, tag});
            r.fsm = NodeRt::Fsm::Init;
        }
        break;
      }
    }
}

void
DenseScan::evalNocNodes()
{
    // CF ops in routers are combinational: they observe tokens that
    // became visible this cycle and forward them within the cycle,
    // in dependence (topological) order. Each router op handles at
    // most one token set per cycle (enforced by nocFiredAt: the
    // routine runs both before the PE pass — modeling values that
    // settled through the NoC at the end of the previous cycle —
    // and after it, for same-cycle forwarding of fresh PE outputs).
    for (;;) {
        bool any = false;
        for (NodeId id : prog.nocTopo) {
            if (nocFiredAt[static_cast<size_t>(id)] == cycle)
                continue;
            if (canFire(id) == Blocked::No) {
                nocFiredAt[static_cast<size_t>(id)] = cycle;
                commitFire(id);
                any = true;
            }
        }
        // Sweep to a fixpoint: a router op whose consumer freed its
        // latch later in the same settle can still fire this cycle.
        if (!any)
            break;
    }
}

void
DenseScan::stallCensus()
{
    // Census for the PEs that never fired this cycle: a node counts
    // as stalled when it has tokens waiting for a missing operand,
    // lacks output space, or lost a bank arbitration.
    for (NodeId id : prog.allSeqNodes) {
        if (seqFiredAt[static_cast<size_t>(id)] == cycle)
            continue;
        Blocked why = canFire(id);
        if (why == Blocked::Input) {
            const NodeRt &r = rt[static_cast<size_t>(id)];
            bool pending = false;
            for (const auto &f : r.ins)
                pending |= !f.empty();
            if (pending) {
                stats.stallNoInput++;
                if (obs) {
                    obs->onStall(cycle, id,
                                 trace::StallReason::NoInput);
                }
            }
        } else if (why == Blocked::Space) {
            stats.stallNoSpace++;
            if (obs)
                obs->onStall(cycle, id, trace::StallReason::NoSpace);
        } else if (why == Blocked::Bank) {
            stats.bankConflictStalls++;
            if (obs) {
                obs->onStall(cycle, id,
                             trace::StallReason::BankConflict);
            }
        }
    }
}

bool
DenseScan::quiescent() const
{
    if (!memsys->idle())
        return false;
    for (int c : chanCount) {
        if (c > 0)
            return false;
    }
    for (NodeId id = 0; id < graph.size(); id++) {
        const NodeRt &r = rt[static_cast<size_t>(id)];
        const Node &node = graph.at(id);
        if (node.kind == NodeKind::Trigger && !r.triggerFired)
            return false;
        if (node.kind == NodeKind::Stream &&
            r.fsm != NodeRt::Fsm::Init)
            return false;
        for (const auto &f : r.ins) {
            if (!f.empty())
                return false;
        }
        for (const auto &f : r.outs) {
            if (!f.empty())
                return false;
        }
    }
    return true;
}

std::string
DenseScan::diagnose() const
{
    std::ostringstream out;
    int listed = 0;
    for (NodeId id = 0; id < graph.size() && listed < 40; id++) {
        const NodeRt &r = rt[static_cast<size_t>(id)];
        const Node &node = graph.at(id);
        bool interesting = r.fsm != NodeRt::Fsm::Init;
        for (const auto &f : r.ins)
            interesting |= !f.empty();
        for (const auto &f : r.outs)
            interesting |= !f.empty();
        if (!interesting)
            continue;
        listed++;
        out << "  node " << id << " (" << nodeKindName(node.kind)
            << " " << node.name << ") ins=[";
        for (const auto &f : r.ins)
            out << f.size() << " ";
        out << "] outs=[";
        for (const auto &f : r.outs)
            out << f.size() << " ";
        out << "] fsm=" << static_cast<int>(r.fsm) << "\n";
    }
    for (size_t ch = 0; ch < chanCount.size(); ch++) {
        if (chanCount[ch] == 0)
            continue;
        const Program::Channel &cc = prog.channels[ch];
        out << "  channel " << ch << " (node " << cc.src << " -> "
            << cc.dst << " in " << cc.dstIn << ") holds "
            << chanCount[ch] << " token(s)\n";
    }
    return out.str();
}

SimResult
DenseScan::runLoop()
{
    SimResult result;
    fireList.reserve(static_cast<size_t>(graph.size()));

    for (cycle = 0; cycle < cfg.maxCycles; cycle++) {
        active = false;
        memsys->beginCycle();
        shareUsed.assign(shareUsed.size(), false);

        drainOutputBuffers();
        handleMemCompletions();
        if (prog.hasChannels)
            advanceChannels();

        // Router CF settles over tokens left from the previous
        // cycle before the PEs sample their inputs.
        bornStamp = cycle - 1;
        evalNocNodes();

        // Sequential (PE) firing: iterate to a fixpoint within the
        // cycle. A PE only consumes tokens born in earlier cycles,
        // but a multicast head retired early in the cycle exposes
        // the next (older) token to consumers later in the same
        // cycle — the combinational acknowledge path. Each PE fires
        // at most once per cycle.
        bornStamp = cycle;
        for (;;) {
            decideDispatchGroups();
            fireList.clear();
            for (NodeId id : prog.allSeqNodes) {
                if (seqFiredAt[static_cast<size_t>(id)] == cycle)
                    continue;
                int sg = prog.shareGroupOf[static_cast<size_t>(id)];
                if (sg >= 0) {
                    if (shareUsed[static_cast<size_t>(sg)]) {
                        stats.shareConflicts++;
                        continue;
                    }
                    // Fairness: the current resident yields when a
                    // housemate is also ready to fire this cycle.
                    if (shareLast[static_cast<size_t>(sg)] == id) {
                        bool housemateReady = false;
                        for (int other :
                             cfg.shareGroups[static_cast<size_t>(
                                 sg)]) {
                            if (other == id ||
                                seqFiredAt[static_cast<size_t>(
                                    other)] == cycle) {
                                continue;
                            }
                            if (canFire(other) == Blocked::No) {
                                housemateReady = true;
                                break;
                            }
                        }
                        if (housemateReady) {
                            stats.shareConflicts++;
                            continue;
                        }
                    }
                }
                if (canFire(id) != Blocked::No)
                    continue;
                fireList.push_back(id);
                seqFiredAt[static_cast<size_t>(id)] = cycle;
                if (sg >= 0) {
                    shareUsed[static_cast<size_t>(sg)] = true;
                    if (shareLast[static_cast<size_t>(sg)] != id) {
                        stats.muxSwitches++;
                        shareLast[static_cast<size_t>(sg)] = id;
                    }
                }
                // Claim the bank now: the claim must be visible to
                // later candidates within the same round.
                const Node &node = graph.at(id);
                if (node.kind == NodeKind::Load) {
                    memsys->claimBank(
                        peekInput(id, pidx::LoadAddr).value +
                        node.imm);
                } else if (node.kind == NodeKind::Store) {
                    memsys->claimBank(
                        peekInput(id, pidx::StoreAddr).value +
                        node.imm);
                }
            }
            if (fireList.empty())
                break;
            bool spawned = false;
            for (NodeId id : fireList) {
                if (graph.at(id).kind == NodeKind::Dispatch &&
                    groupChoice[static_cast<size_t>(
                        graph.at(id).loopId)] ==
                        GroupChoice::Spawn) {
                    spawned = true;
                }
                commitFire(id);
            }
            if (spawned)
                nextThreadTag++;
        }

        stallCensus();

        // Pass 3: combinational CF-in-NoC evaluation.
        evalNocNodes();

        if (!failure.empty()) {
            result.stats = stats;
            result.stats.cycles = cycle + 1;
            result.deadlocked = true;
            result.fault = fault;
            result.diagnostic = failure;
            return result;
        }

        if (quiescent()) {
            stats.cycles = cycle + 1;
            result.stats = stats;
            // A carry/invariant left mid-loop with no tokens in
            // flight means the graph leaked or starved tokens — a
            // compiler or simulator bug worth surfacing.
            for (NodeId id = 0; id < graph.size(); id++) {
                const Node &node = graph.at(id);
                if ((node.kind == NodeKind::Carry ||
                     node.kind == NodeKind::Invariant) &&
                    rt[static_cast<size_t>(id)].fsm !=
                        NodeRt::Fsm::Init) {
                    result.deadlocked = true;
                    result.diagnostic = csprintf(
                        "token leak: node %d (%s %s) finished in "
                        "run state",
                        id, nodeKindName(node.kind),
                        node.name.c_str());
                    break;
                }
            }
            return result;
        }

        if (!active && memsys->idle()) {
            stats.cycles = cycle + 1;
            result.stats = stats;
            result.deadlocked = true;
            result.diagnostic =
                csprintf("deadlock at cycle %lld:\n",
                         static_cast<long long>(cycle)) +
                diagnose();
            return result;
        }
    }

    stats.cycles = cfg.maxCycles;
    result.stats = stats;
    result.deadlocked = true;
    result.watchdogExpired = true;
    result.diagnostic = "watchdog: maxCycles exceeded\n" + diagnose();
    return result;
}

} // namespace pipestitch::sim

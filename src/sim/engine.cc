#include "sim/engine.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "trace/observer.hh"

namespace pipestitch::sim {

using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
namespace pidx = dfg::port_idx;

namespace {

constexpr int64_t kAvailAlways = INT64_MIN; ///< immediate operand
constexpr int64_t kAvailNever = INT64_MAX;  ///< no visible token

constexpr uint8_t GcNone = 0;
constexpr uint8_t GcCont = 1;
constexpr uint8_t GcSpawn = 2;

// Gate FSM numbering (diagnose() prints the raw value, as the
// oracle prints ExecutionState::NodeRt::Fsm).
constexpr uint8_t FsmInit = 0;
constexpr uint8_t FsmRun = 1;
constexpr uint8_t FsmWaitVal = 2;

inline void
setBit(std::vector<uint64_t> &bits, int i)
{
    bits[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
}

inline size_t
words(size_t bits)
{
    return (bits + 63) / 64;
}

} // namespace

FastEngine::FastEngine(const Program &program)
    : prog(program), n(program.graph().size()),
      depth(program.cfg.bufferDepth), sourceMode(program.sourceMode)
{
    const size_t N = static_cast<size_t>(n);
    const size_t P = prog.portMode.size();
    const size_t L = static_cast<size_t>(prog.graph().numLoops);
    const size_t C = prog.channels.size();
    if (!sourceMode) {
        const size_t PD = P * static_cast<size_t>(depth);
        insVal.resize(PD);
        insTag.resize(PD);
        insBorn.resize(PD);
    } else {
        edgeOff.resize(prog.edgeNode.size());
    }
    insHead.resize(P);
    insCount.resize(P);
    insAvailFrom.resize(P);
    const size_t OD = static_cast<size_t>(prog.outSlab.back());
    outVal.resize(OD);
    outTag.resize(OD);
    outBorn.resize(OD);
    outHead.resize(prog.outSlab.size() - 1);
    outCount.resize(prog.outSlab.size() - 1);
    insTokens.resize(N);
    reservedOut.resize(N);
    fsm.resize(N);
    pendingSide.resize(N);
    latchVal.resize(N);
    latchTag.resize(N);
    streamCur.resize(N);
    streamEnd.resize(N);
    trigFired.resize(N);
    portReads.resize(P);
    groupChoice.resize(L);
    groupDirtyUntil.resize(L);
    groupPending.resize(L);
    groupFiredRound.resize(L);
    shareUsedAt.resize(prog.cfg.shareGroups.size());
    shareLast.resize(prog.cfg.shareGroups.size());
    lastVerdict.resize(N);
    freshB.resize(N);
    wokenB.resize(N);
    firedB.resize(N);
    nocFiredB.resize(N);
    dormantClass.resize(N);
    liveBits.resize(words(N));
    roundBits.resize(words(N));
    nextBits.resize(words(N));
    liveNocBits.resize(words(prog.nocTopo.size()));
    nocSweepBits.resize(liveNocBits.size());
    nocNextBits.resize(liveNocBits.size());
    drainBits.resize(words(N));
    chVal.resize(static_cast<size_t>(prog.chanSlab.back()));
    chTag.resize(chVal.size());
    chReady.resize(chVal.size());
    chHead.resize(C);
    chCount.resize(C);
    bankClaimedAt.resize(static_cast<size_t>(prog.cfg.memBanks));
    pendNode.resize(64);
    pendVal.resize(64);
    pendTag.resize(64);
    pendReady.resize(64);
    fireList.reserve(N);
}

void
FastEngine::resetRun()
{
    const size_t P = insAvailFrom.size();
    std::fill(insHead.begin(), insHead.end(), 0);
    std::fill(insCount.begin(), insCount.end(), 0);
    for (size_t ip = 0; ip < P; ip++) {
        insAvailFrom[ip] = prog.portMode[ip] == Program::PortImm
                               ? kAvailAlways
                               : kAvailNever;
    }
    std::fill(outHead.begin(), outHead.end(), 0);
    std::fill(outCount.begin(), outCount.end(), 0);
    std::fill(edgeOff.begin(), edgeOff.end(), 0);
    std::fill(insTokens.begin(), insTokens.end(), 0);
    std::fill(reservedOut.begin(), reservedOut.end(), 0);
    std::fill(fsm.begin(), fsm.end(), FsmInit);
    std::fill(pendingSide.begin(), pendingSide.end(), 0);
    std::fill(latchVal.begin(), latchVal.end(), 0);
    std::fill(latchTag.begin(), latchTag.end(), NoTag);
    std::fill(streamCur.begin(), streamCur.end(), 0);
    std::fill(streamEnd.begin(), streamEnd.end(), 0);
    std::fill(trigFired.begin(), trigFired.end(), 0);
    std::fill(portReads.begin(), portReads.end(), 0);
    std::fill(groupChoice.begin(), groupChoice.end(), GcNone);
    // Dirty through cycle 1 so the initial trigger wave is seen.
    std::fill(groupDirtyUntil.begin(), groupDirtyUntil.end(), 1);
    std::fill(groupPending.begin(), groupPending.end(), 0);
    std::fill(groupFiredRound.begin(), groupFiredRound.end(), 0);
    std::fill(shareUsedAt.begin(), shareUsedAt.end(), -1);
    std::fill(shareLast.begin(), shareLast.end(), dfg::NoNode);
    std::fill(lastVerdict.begin(), lastVerdict.end(), VIdle);
    std::fill(dormantClass.begin(), dormantClass.end(),
              static_cast<uint8_t>(DormNone));
    dormantInput = dormantSpace = 0;
    inPeFixpoint = false;
    nocPos = -1;

    // Everything starts live; the first census prunes inert nodes.
    std::fill(liveBits.begin(), liveBits.end(), 0);
    for (NodeId id : prog.allSeqNodes)
        setBit(liveBits, id);
    std::fill(roundBits.begin(), roundBits.end(), 0);
    std::fill(nextBits.begin(), nextBits.end(), 0);
    std::fill(liveNocBits.begin(), liveNocBits.end(), 0);
    for (size_t t = 0; t < prog.nocTopo.size(); t++)
        setBit(liveNocBits, static_cast<int>(t));
    std::fill(nocSweepBits.begin(), nocSweepBits.end(), 0);
    std::fill(nocNextBits.begin(), nocNextBits.end(), 0);
    std::fill(drainBits.begin(), drainBits.end(), 0);
    std::fill(chHead.begin(), chHead.end(), 0);
    std::fill(chCount.begin(), chCount.end(), 0);
    std::fill(bankClaimedAt.begin(), bankClaimedAt.end(), -1);
    pendHead = 0;
    pendCnt = 0;
    fireList.clear();

    tokensInFlight = 0;
    triggersPending = prog.triggersTotal;
    streamsRunning = 0;
    nextThreadTag = 0;
    cycle = 0;
    bornStamp = 0;
    lastSyncPlane = -1;
    activeFlag = false;
    fault = MemFault{};
    failure.clear();

    stats = SimStats{};
    stats.nodeFires.assign(static_cast<size_t>(n), 0);
}

// ---------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------

inline bool
FastEngine::avail(int ip) const
{
    return insAvailFrom[static_cast<size_t>(ip)] <= cycle;
}


inline FastEngine::Tok
FastEngine::peekIn(NodeId id, int in) const
{
    const size_t ip =
        static_cast<size_t>(prog.insBase[static_cast<size_t>(id)] + in);
    if (prog.portMode[ip] == Program::PortImm)
        return Tok{prog.portImm[ip], NoTag};
    if (!sourceMode) {
        size_t slot = ip * static_cast<size_t>(depth) +
                      static_cast<size_t>(insHead[ip]);
        return Tok{insVal[slot], insTag[slot]};
    }
    // Source buffering: read through this endpoint's cursor into the
    // producer's output FIFO. Tokens crossing out of a threaded
    // region shed their tag.
    const size_t e = static_cast<size_t>(prog.portEdge[ip]);
    const size_t o = static_cast<size_t>(prog.portSrc[ip]);
    const int cap = prog.outSlab[o + 1] - prog.outSlab[o];
    int pos = outHead[o] + edgeOff[e];
    if (pos >= cap)
        pos -= cap;
    const size_t slot = static_cast<size_t>(prog.outSlab[o] + pos);
    return Tok{outVal[slot], prog.edgeShed[e] ? NoTag : outTag[slot]};
}

inline bool
FastEngine::pushIn(int ip, Word value, int32_t tag, int64_t born)
{
    const size_t pi = static_cast<size_t>(ip);
    int c = insCount[pi];
    int pos = insHead[pi] + c;
    if (pos >= depth)
        pos -= depth;
    size_t slot = pi * static_cast<size_t>(depth) +
                  static_cast<size_t>(pos);
    insVal[slot] = value;
    insTag[slot] = tag;
    insBorn[slot] = born;
    insCount[pi] = c + 1;
    if (c == 0) {
        // New head: a PE samples it the cycle after its born stamp;
        // router CF consumes it immediately.
        insAvailFrom[pi] = prog.portNocOwner[pi] ? 0 : born + 1;
        return true;
    }
    return false;
}

inline void
FastEngine::refreshEdge(int e)
{
    const size_t ei = static_cast<size_t>(e);
    const size_t ip = static_cast<size_t>(prog.edgeIp[ei]);
    const size_t o = static_cast<size_t>(prog.portSrc[ip]);
    const int off = edgeOff[ei];
    const int cnt = outCount[o];
    if (prog.portNocOwner[ip]) {
        // Combinational router CF snoops the whole buffered window.
        insAvailFrom[ip] = off < cnt ? 0 : kAvailNever;
    } else if (off == 0 && cnt > 0) {
        // A registered PE sees only the multicast head (the Fig. 12a
        // hold), from the cycle after it was born.
        insAvailFrom[ip] =
            outBorn[static_cast<size_t>(prog.outSlab[o] + outHead[o])] +
            1;
    } else {
        insAvailFrom[ip] = kAvailNever;
    }
}

FastEngine::Tok
FastEngine::consumeIn(NodeId id, int in)
{
    const int ip = prog.insBase[static_cast<size_t>(id)] + in;
    const size_t pi = static_cast<size_t>(ip);
    if (prog.portMode[pi] == Program::PortImm)
        return Tok{prog.portImm[pi], NoTag};
    Tok t = peekIn(id, in);
    if (!sourceMode) {
        int h = insHead[pi] + 1;
        if (h >= depth)
            h = 0;
        insHead[pi] = h;
        int c = --insCount[pi];
        if (c == 0) {
            insAvailFrom[pi] = kAvailNever;
        } else if (prog.portNocOwner[pi]) {
            insAvailFrom[pi] = 0;
        } else {
            insAvailFrom[pi] =
                insBorn[pi * static_cast<size_t>(depth) +
                        static_cast<size_t>(h)] +
                1;
        }
        insTokens[static_cast<size_t>(id)]--;
        tokensInFlight--;
        stats.bufferReads++;
        // The producer port delivering into this fifo has space now.
        wake(prog.portProd[pi]);
    } else {
        // Advance this endpoint's cursor; the head retires once
        // every endpoint has read it.
        const int e = prog.portEdge[pi];
        const size_t o = static_cast<size_t>(prog.portSrc[pi]);
        const int e0 = prog.consBase[o];
        const int e1 = prog.consBase[o + 1];
        edgeOff[static_cast<size_t>(e)]++;
        bool retire = true;
        for (int k = e0; k < e1 && retire; k++)
            retire = edgeOff[static_cast<size_t>(k)] > 0;
        stats.nocTraversals++;
        stats.bufferReads++;
        if (retire) {
            const int cap = prog.outSlab[o + 1] - prog.outSlab[o];
            int h = outHead[o] + 1;
            outHead[o] = h >= cap ? 0 : h;
            outCount[o]--;
            tokensInFlight--;
            // The retired head exposes the next entry to every
            // endpoint, and the producer regained buffer space.
            for (int k = e0; k < e1; k++) {
                edgeOff[static_cast<size_t>(k)]--;
                refreshEdge(k);
                wake(prog.edgeNode[static_cast<size_t>(k)]);
            }
            wake(prog.portProd[pi]);
        } else {
            refreshEdge(e);
        }
    }
    portReads[pi]++;
    activeFlag = true;
    return t;
}

inline bool
FastEngine::consumersAccept(NodeId id, int port) const
{
    int p = prog.portBase[static_cast<size_t>(id)] + port;
    int e1 = prog.consBase[static_cast<size_t>(p) + 1];
    for (int e = prog.consBase[static_cast<size_t>(p)]; e < e1;
         e++) {
        int ch = prog.edgeChan[static_cast<size_t>(e)];
        if (ch >= 0) {
            // Channel edge: the producer backpressures on the
            // inter-tile channel, not the far-side buffer.
            if (chCount[static_cast<size_t>(ch)] >=
                prog.channels[static_cast<size_t>(ch)].capacity)
                return false;
            continue;
        }
        if (insCount[static_cast<size_t>(
                prog.edgeIp[static_cast<size_t>(e)])] >= depth)
            return false;
    }
    return true;
}

inline bool
FastEngine::outSpace(NodeId id, int port, int need) const
{
    const size_t i = static_cast<size_t>(id);
    int p = prog.portBase[i] + port;
    if (prog.consBase[static_cast<size_t>(p) + 1] ==
        prog.consBase[static_cast<size_t>(p)])
        return true; // nothing to emit
    if (prog.hasOutBufs[i]) {
        const size_t o = static_cast<size_t>(prog.outsBase[i] + port);
        int cap = prog.outSlab[o + 1] - prog.outSlab[o];
        int reserved = port == 0 ? reservedOut[i] : 0;
        return cap - outCount[o] - reserved >= need;
    }
    // No output buffer: multicast delivery requires space at every
    // consumer.
    return consumersAccept(id, port);
}

inline void
FastEngine::deliver(NodeId from, int port, Word value, int32_t tag)
{
    int p = prog.portBase[static_cast<size_t>(from)] + port;
    int e1 = prog.consBase[static_cast<size_t>(p) + 1];
    for (int e = prog.consBase[static_cast<size_t>(p)]; e < e1;
         e++) {
        const size_t ei = static_cast<size_t>(e);
        const NodeId c = prog.edgeNode[ei];
        int32_t t = prog.edgeShed[ei] ? NoTag : tag;
        int ch = prog.edgeChan[ei];
        if (ch >= 0) {
            // Token enters the inter-tile channel and matures
            // `latency` cycles later; the consumer is not woken yet.
            const size_t ci = static_cast<size_t>(ch);
            const Program::Channel &cc = prog.channels[ci];
            ps_assert(chCount[ci] < cc.capacity,
                      "delivery into full channel (node %d)", c);
            int pos = chHead[ci] + chCount[ci];
            if (pos >= cc.capacity)
                pos -= cc.capacity;
            size_t slot = static_cast<size_t>(prog.chanSlab[ci] + pos);
            chVal[slot] = value;
            chTag[slot] = t;
            chReady[slot] = cycle + cc.latency;
            chCount[ci]++;
            tokensInFlight++;
            stats.bufferWrites++;
            stats.nocTraversals++;
            stats.interTileTokens++;
            continue;
        }
        int ip = prog.edgeIp[ei];
        ps_assert(insCount[static_cast<size_t>(ip)] < depth,
                  "delivery into full buffer (node %d)", c);
        bool head = pushIn(ip, value, t, bornStamp);
        insTokens[static_cast<size_t>(c)]++;
        tokensInFlight++;
        stats.bufferWrites++;
        stats.nocTraversals++;
        // A non-head push leaves the consumer's avail state (and
        // hence every verdict in the fabric) untouched until a
        // consume moves the head, so a PE consumer needs no wake:
        // retained-woken and dormant nodes bill the same stall
        // counters cycle for cycle. NoC latches always wake — the
        // settle-sweep prune keys off wokenB.
        if (head || prog.nocNode[static_cast<size_t>(c)])
            wakeDeliver(c);
    }
    activeFlag = true;
}

void
FastEngine::pushOut(NodeId id, int port, Word value, int32_t tag)
{
    const size_t o =
        static_cast<size_t>(prog.outsBase[static_cast<size_t>(id)] +
                            port);
    const int cap = prog.outSlab[o + 1] - prog.outSlab[o];
    const int c = outCount[o];
    ps_assert(c < cap, "emit into full output buffer");
    int pos = outHead[o] + c;
    if (pos >= cap)
        pos -= cap;
    const size_t slot = static_cast<size_t>(prog.outSlab[o] + pos);
    outVal[slot] = value;
    outTag[slot] = tag;
    outBorn[slot] = bornStamp;
    outCount[o] = c + 1;
    tokensInFlight++;
    stats.bufferWrites++;
    activeFlag = true;
    if (!sourceMode) {
        setBit(drainBits, id);
        return;
    }
    // Consumers read the FIFO in place. A registered PE's view only
    // changes when the token lands at the head (and it cannot take
    // it before next cycle); router CF may take it right away.
    for (int e = prog.consBase[o]; e < prog.consBase[o + 1]; e++) {
        const NodeId cn = prog.edgeNode[static_cast<size_t>(e)];
        refreshEdge(e);
        if (prog.nocNode[static_cast<size_t>(cn)])
            wake(cn);
        else if (c == 0)
            wakeDeliver(cn);
    }
}

void
FastEngine::emit(NodeId id, int port, Word value, int32_t tag)
{
    const size_t i = static_cast<size_t>(id);
    int p = prog.portBase[i] + port;
    if (prog.consBase[static_cast<size_t>(p) + 1] ==
        prog.consBase[static_cast<size_t>(p)])
        return;
    if (sourceMode) {
        pushOut(id, port, value, tag);
        return;
    }
    if (prog.nocNode[i] || !prog.hasOutBufs[i]) {
        deliver(id, port, value, tag);
        return;
    }
    // Output-buffered PE: bypass straight to consumers when the
    // buffer is empty and downstream has room (Sec. 4.7).
    bool canBypass = !prog.isMemOf[i] || prog.cfg.memBypass;
    const size_t o = static_cast<size_t>(prog.outsBase[i] + port);
    if (canBypass && outCount[o] == 0 && consumersAccept(id, port)) {
        deliver(id, port, value, tag);
        return;
    }
    pushOut(id, port, value, tag);
}

int32_t
FastEngine::combine2(NodeId id, int32_t a, int32_t b)
{
    if (a == NoTag)
        return b;
    if (b == NoTag)
        return a;
    if (a != b && prog.cfg.checkThreadOrder && failure.empty()) {
        const Node &node = prog.graph().at(id);
        failure = csprintf(
            "thread-order violation at node %d (%s %s): tokens of "
            "threads %d and %d met (cycle %lld)",
            id, nodeKindName(node.kind), node.name.c_str(), a, b,
            static_cast<long long>(cycle));
    }
    return a;
}

int32_t
FastEngine::combine3(NodeId id, int32_t a, int32_t b, int32_t c)
{
    return combine2(id, combine2(id, a, b), c);
}

bool
FastEngine::checkAddr(NodeId id, Word addr)
{
    if (addr >= 0 && static_cast<size_t>(addr) < mem->size())
        return true;
    if (failure.empty()) {
        fault = MemFault{id, addr, cycle};
        failure = describeFault(prog.graph(), fault, mem->size());
    }
    return false;
}

// ---------------------------------------------------------------------
// Worklist
// ---------------------------------------------------------------------

void
FastEngine::wake(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    wokenB[i] = 1;
    if (prog.nocNode[i]) {
        // Within a settle, a router op later in topological order
        // than the sweep cursor is still visited by this sweep (as
        // the oracle's full sweep would); earlier ones wait for the
        // next sweep.
        int t = prog.topoIndex[i];
        setBit(liveNocBits, t);
        if (nocPos >= 0)
            setBit(t > nocPos ? nocSweepBits : nocNextBits, t);
        return;
    }
    freshB[i] = 0; // structural change: the cached verdict is stale
    int gl = prog.gateLoop[i];
    if (gl >= 0)
        groupDirtyUntil[static_cast<size_t>(gl)] = cycle + 1;
    if (dormantClass[i] != DormNone) {
        if (dormantClass[i] == DormInput)
            dormantInput--;
        else
            dormantSpace--;
        dormantClass[i] = DormNone;
    }
    setBit(liveBits, id);
    if (inPeFixpoint)
        setBit(nextBits, id);
}

void
FastEngine::wakeDeliver(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    if (prog.nocNode[i]) {
        wake(id); // NoC latches consume same-cycle
        return;
    }
    if (wokenB[i])
        return; // already retained + group marked this cycle
    wokenB[i] = 1;
    // The SyncPlane still re-decides next cycle, once the token has
    // aged.
    int gl = prog.gateLoop[i];
    if (gl >= 0)
        groupDirtyUntil[static_cast<size_t>(gl)] = cycle + 1;
    if (dormantClass[i] != DormNone) {
        if (dormantClass[i] == DormInput)
            dormantInput--;
        else
            dormantSpace--;
        dormantClass[i] = DormNone;
    }
    setBit(liveBits, id);
}

// ---------------------------------------------------------------------
// Verdicts and firing (the oracle's canFire/commitFire over SoA state)
// ---------------------------------------------------------------------

uint8_t
FastEngine::scanCanFire(NodeId id, bool &memReady, Word &addr) const
{
    const size_t i = static_cast<size_t>(id);
    const int base = prog.insBase[i];
    auto need = [&](int in) {
        return insAvailFrom[static_cast<size_t>(base + in)] <= cycle;
    };
    auto wired = [&](int in) {
        return prog.insBase[i + 1] - base > in &&
               prog.portMode[static_cast<size_t>(base + in)] ==
                   Program::PortWired;
    };
    auto consumed = [&](int port) {
        int p = prog.portBase[i] + port;
        return prog.consBase[static_cast<size_t>(p) + 1] >
               prog.consBase[static_cast<size_t>(p)];
    };

    switch (static_cast<NodeKind>(prog.kindOf[i])) {
      case NodeKind::Trigger: {
        if (trigFired[i])
            return VIdle;
        return outSpace(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Const: {
        if (!need(0))
            return VInput;
        return outSpace(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Arith: {
        int want = prog.operandsOf[i];
        for (int in = 0; in < want; in++) {
            if (!need(in))
                return VInput;
        }
        return outSpace(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Steer: {
        if (!need(pidx::SteerDecider) || !need(pidx::SteerValue))
            return VInput;
        bool forward =
            (peekIn(id, pidx::SteerDecider).value != 0) ==
            (prog.steerIfTrue[i] != 0);
        if (forward && !outSpace(id, 0, 1))
            return VSpace;
        return VNo;
      }
      case NodeKind::Carry: {
        if (fsm[i] == FsmInit) {
            if (!need(pidx::CarryInit))
                return VInput;
            return outSpace(id, 0, 1) ? VNo : VSpace;
        }
        if (fsm[i] == FsmWaitVal) {
            if (!need(pidx::CarryCont))
                return VInput;
            return outSpace(id, 0, 1) ? VNo : VSpace;
        }
        // Run: the decider is consumed eagerly; a true decider with
        // the backedge value present forwards it in one firing.
        if (!need(pidx::CarryDecider))
            return VInput;
        if (peekIn(id, pidx::CarryDecider).value != 0 &&
            need(pidx::CarryCont)) {
            return outSpace(id, 0, 1) ? VNo : VSpace;
        }
        return VNo;
      }
      case NodeKind::Invariant: {
        if (fsm[i] == FsmInit) {
            if (!need(pidx::InvValue))
                return VInput;
            return outSpace(id, 0, 1) ? VNo : VSpace;
        }
        if (!need(pidx::InvDecider))
            return VInput;
        if (peekIn(id, pidx::InvDecider).value != 0)
            return outSpace(id, 0, 1) ? VNo : VSpace;
        return VNo;
      }
      case NodeKind::Merge: {
        if (fsm[i] == FsmWaitVal) {
            if (!need(pendingSide[i]))
                return VInput;
            return outSpace(id, 0, 1) ? VNo : VSpace;
        }
        if (!need(pidx::MergeDecider))
            return VInput;
        int side = peekIn(id, pidx::MergeDecider).value != 0
                       ? pidx::MergeTrue
                       : pidx::MergeFalse;
        if (wired(side) && !need(side))
            return VNo; // consume the decider now, wait for the value
        return outSpace(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Dispatch: {
        if (prog.cfg.greedyDispatch) {
            bool c = need(pidx::DispatchCont);
            bool s = need(pidx::DispatchSpawn);
            if (!c && !s)
                return VInput;
            return outSpace(id, 0, 1) ? VNo : VSpace;
        }
        return groupChoice[static_cast<size_t>(prog.loopOf[i])] ==
                       GcNone
                   ? VInput
                   : VNo;
      }
      case NodeKind::Load: {
        if (!need(pidx::LoadAddr))
            return VInput;
        if (wired(pidx::LoadOrder) && !need(pidx::LoadOrder))
            return VInput;
        // Need a reservation slot for the returning data (unless
        // nothing consumes it).
        if (prog.hasOutBufs[i] && consumed(pidx::LoadDataOut)) {
            const size_t o = static_cast<size_t>(
                prog.outsBase[i] + pidx::LoadDataOut);
            int cap = prog.outSlab[o + 1] - prog.outSlab[o];
            if (cap - outCount[o] - reservedOut[i] < 1)
                return VSpace;
        }
        if (consumed(pidx::LoadDoneOut) &&
            !outSpace(id, pidx::LoadDoneOut, 1))
            return VSpace;
        memReady = true;
        addr = peekIn(id, pidx::LoadAddr).value + prog.immOf[i];
        return VNo;
      }
      case NodeKind::Store: {
        if (!need(pidx::StoreAddr) || !need(pidx::StoreData))
            return VInput;
        if (wired(pidx::StoreOrder) && !need(pidx::StoreOrder))
            return VInput;
        if (consumed(pidx::StoreDoneOut) &&
            !outSpace(id, pidx::StoreDoneOut, 1))
            return VSpace;
        memReady = true;
        addr = peekIn(id, pidx::StoreAddr).value + prog.immOf[i];
        return VNo;
      }
      case NodeKind::Stream: {
        Word cur, end;
        if (fsm[i] == FsmInit) {
            if (!need(pidx::StreamBegin) || !need(pidx::StreamEnd))
                return VInput;
            if (wired(pidx::StreamTrigger) &&
                !need(pidx::StreamTrigger))
                return VInput;
            cur = peekIn(id, pidx::StreamBegin).value;
            end = peekIn(id, pidx::StreamEnd).value;
        } else {
            cur = streamCur[i];
            end = streamEnd[i];
        }
        if (cur < end && !outSpace(id, pidx::StreamIdxOut, 1))
            return VSpace;
        if (!outSpace(id, pidx::StreamCondOut, 1))
            return VSpace;
        return VNo;
      }
    }
    panic("unknown node kind");
}

uint8_t
FastEngine::canFire(NodeId id) const
{
    bool memReady = false;
    Word addr = 0;
    uint8_t why = scanCanFire(id, memReady, addr);
    if (!memReady)
        return why;
    return bankClaimedAt[static_cast<size_t>(
               static_cast<uint32_t>(addr) %
               static_cast<uint32_t>(prog.cfg.memBanks))] == cycle
               ? VBank
               : VNo;
}

bool
FastEngine::shareAdmits(NodeId id, int sg)
{
    const size_t g = static_cast<size_t>(sg);
    if (shareUsedAt[g] == cycle) {
        stats.shareConflicts++;
        return false;
    }
    // Fairness: the current resident yields when a housemate is
    // also ready to fire this cycle.
    if (shareLast[g] == id) {
        for (int other : prog.cfg.shareGroups[g]) {
            if (other == id || firedB[static_cast<size_t>(other)])
                continue;
            if (canFire(other) == VNo) {
                stats.shareConflicts++;
                return false;
            }
        }
    }
    return true;
}

__attribute__((flatten)) void
FastEngine::commitFire(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    // A dormant node's blocked verdict is frozen until a wake event
    // clears it, so it can never have been selected to fire.
    ps_assert(dormantClass[i] == DormNone,
              "dormant node %d fired without a wake", id);
    const int base = prog.insBase[i];
    auto wired = [&](int in) {
        return prog.insBase[i + 1] - base > in &&
               prog.portMode[static_cast<size_t>(base + in)] ==
                   Program::PortWired;
    };

    const NodeKind kind = static_cast<NodeKind>(prog.kindOf[i]);
    if (prog.nocNode[i])
        stats.nocCfFires++;
    else if (kind != NodeKind::Trigger)
        stats.classFires[static_cast<size_t>(prog.peClassOf[i])]++;
    stats.nodeFires[i]++;
    activeFlag = true;
    if (obs)
        obs->onFire(cycle, id);

    switch (kind) {
      case NodeKind::Trigger: {
        trigFired[i] = 1;
        triggersPending--;
        emit(id, 0, prog.immOf[i], NoTag);
        break;
      }
      case NodeKind::Const: {
        Tok t = consumeIn(id, 0);
        emit(id, 0, prog.immOf[i], t.tag);
        break;
      }
      case NodeKind::Arith: {
        int want = prog.operandsOf[i];
        Tok a = consumeIn(id, 0);
        Tok b = consumeIn(id, 1);
        Tok c = want == 3 ? consumeIn(id, 2) : Tok{};
        int32_t tag = combine3(id, a.tag, b.tag, c.tag);
        emit(id, 0,
             sir::evalOpcode(prog.opcodeOf[i], a.value, b.value,
                             c.value),
             tag);
        break;
      }
      case NodeKind::Steer: {
        Tok d = consumeIn(id, pidx::SteerDecider);
        Tok v = consumeIn(id, pidx::SteerValue);
        int32_t tag = combine2(id, d.tag, v.tag);
        if ((d.value != 0) == (prog.steerIfTrue[i] != 0))
            emit(id, 0, v.value, tag);
        else
            stats.steerDrops++;
        break;
      }
      case NodeKind::Carry: {
        if (fsm[i] == FsmInit) {
            Tok a = consumeIn(id, pidx::CarryInit);
            fsm[i] = FsmRun;
            emit(id, 0, a.value, a.tag);
        } else if (fsm[i] == FsmWaitVal) {
            Tok b = consumeIn(id, pidx::CarryCont);
            int32_t tag = combine2(id, latchTag[i], b.tag);
            fsm[i] = FsmRun;
            emit(id, 0, b.value, tag);
        } else {
            Tok d = consumeIn(id, pidx::CarryDecider);
            if (d.value == 0) {
                fsm[i] = FsmInit;
            } else if (avail(base + pidx::CarryCont)) {
                Tok b = consumeIn(id, pidx::CarryCont);
                int32_t tag = combine2(id, d.tag, b.tag);
                emit(id, 0, b.value, tag);
            } else {
                latchVal[i] = d.value;
                latchTag[i] = d.tag;
                fsm[i] = FsmWaitVal;
            }
        }
        break;
      }
      case NodeKind::Invariant: {
        if (fsm[i] == FsmInit) {
            Tok a = consumeIn(id, pidx::InvValue);
            latchVal[i] = a.value;
            latchTag[i] = a.tag;
            fsm[i] = FsmRun;
            emit(id, 0, a.value, a.tag);
        } else {
            Tok d = consumeIn(id, pidx::InvDecider);
            if (d.value != 0) {
                int32_t tag = combine2(id, d.tag, latchTag[i]);
                emit(id, 0, latchVal[i], tag);
            } else {
                fsm[i] = FsmInit;
                latchVal[i] = 0;
                latchTag[i] = NoTag;
            }
        }
        break;
      }
      case NodeKind::Merge: {
        if (fsm[i] == FsmWaitVal) {
            Tok v = consumeIn(id, pendingSide[i]);
            int32_t tag = combine2(id, latchTag[i], v.tag);
            fsm[i] = FsmRun;
            emit(id, 0, v.value, tag);
            break;
        }
        Tok d = consumeIn(id, pidx::MergeDecider);
        int side = d.value != 0 ? pidx::MergeTrue : pidx::MergeFalse;
        if (wired(side) && !avail(base + side)) {
            latchVal[i] = d.value;
            latchTag[i] = d.tag;
            pendingSide[i] = static_cast<uint8_t>(side);
            fsm[i] = FsmWaitVal;
            break;
        }
        Tok v = consumeIn(id, side);
        int32_t tag = combine2(id, d.tag, v.tag);
        emit(id, 0, v.value, tag);
        break;
      }
      case NodeKind::Dispatch: {
        // Firing consumes the gate's tokens and fills its output:
        // the group must be re-evaluated until the dust settles.
        const size_t l = static_cast<size_t>(prog.loopOf[i]);
        groupDirtyUntil[l] = cycle + 1;
        groupFiredRound[l] = 1;
        uint8_t choice = groupChoice[l];
        if (prog.cfg.greedyDispatch) {
            choice = avail(base + pidx::DispatchCont) ? GcCont
                                                       : GcSpawn;
        }
        if (choice == GcCont) {
            Tok t = consumeIn(id, pidx::DispatchCont);
            stats.dispatchConts++;
            if (obs)
                obs->onDispatch(cycle, id, false, t.tag);
            emit(id, 0, t.value, t.tag);
        } else {
            Tok t = consumeIn(id, pidx::DispatchSpawn);
            // All gates in the group fire this cycle and must agree
            // on the new thread's identity; nextThreadTag advances
            // once per group per cycle (see runFixpoint()).
            stats.dispatchSpawns++;
            if (obs)
                obs->onDispatch(cycle, id, true, nextThreadTag);
            emit(id, 0, t.value, nextThreadTag);
        }
        break;
      }
      case NodeKind::Load: {
        Tok a = consumeIn(id, pidx::LoadAddr);
        Word addr = a.value + prog.immOf[i]; // configured base offset
        int32_t tag = a.tag;
        if (wired(pidx::LoadOrder)) {
            Tok ord = consumeIn(id, pidx::LoadOrder);
            tag = combine2(id, tag, ord.tag);
        }
        // The bank port was claimed at selection; the value is read
        // at issue (banked SRAM, fixed latency).
        const bool inBounds = checkAddr(id, addr);
        if (pendCnt == static_cast<int32_t>(pendNode.size())) {
            // Grow the pending-load ring, preserving order.
            size_t cap = pendNode.size();
            std::vector<int32_t> nn(cap * 2);
            std::vector<Word> nv(cap * 2);
            std::vector<int32_t> nt(cap * 2);
            std::vector<int64_t> nr(cap * 2);
            for (size_t k = 0; k < cap; k++) {
                size_t src = (static_cast<size_t>(pendHead) + k) %
                             cap;
                nn[k] = pendNode[src];
                nv[k] = pendVal[src];
                nt[k] = pendTag[src];
                nr[k] = pendReady[src];
            }
            pendNode.swap(nn);
            pendVal.swap(nv);
            pendTag.swap(nt);
            pendReady.swap(nr);
            pendHead = 0;
        }
        {
            size_t slot = (static_cast<size_t>(pendHead) +
                           static_cast<size_t>(pendCnt)) %
                          pendNode.size();
            pendNode[slot] = id;
            pendVal[slot] =
                inBounds ? (*mem)[static_cast<size_t>(addr)] : 0;
            pendTag[slot] = tag;
            pendReady[slot] = cycle + prog.cfg.memLatency;
            pendCnt++;
        }
        int p = prog.portBase[i] + pidx::LoadDataOut;
        if (prog.consBase[static_cast<size_t>(p) + 1] >
            prog.consBase[static_cast<size_t>(p)])
            reservedOut[i]++;
        stats.memLoads++;
        if (obs) {
            obs->onMemAccess(cycle, id, true, addr,
                             static_cast<int>(
                                 static_cast<uint32_t>(addr) %
                                 static_cast<uint32_t>(
                                     prog.cfg.memBanks)));
        }
        emit(id, pidx::LoadDoneOut, 1, tag);
        break;
      }
      case NodeKind::Store: {
        Tok a = consumeIn(id, pidx::StoreAddr);
        Word addr = a.value + prog.immOf[i]; // configured base offset
        Tok data = consumeIn(id, pidx::StoreData);
        int32_t tag = combine2(id, a.tag, data.tag);
        if (wired(pidx::StoreOrder)) {
            Tok ord = consumeIn(id, pidx::StoreOrder);
            tag = combine2(id, tag, ord.tag);
        }
        if (checkAddr(id, addr))
            (*mem)[static_cast<size_t>(addr)] = data.value;
        stats.memStores++;
        if (obs) {
            obs->onMemAccess(cycle, id, false, addr,
                             static_cast<int>(
                                 static_cast<uint32_t>(addr) %
                                 static_cast<uint32_t>(
                                     prog.cfg.memBanks)));
        }
        emit(id, pidx::StoreDoneOut, 1, tag);
        break;
      }
      case NodeKind::Stream: {
        if (fsm[i] == FsmInit) {
            Tok begin = consumeIn(id, pidx::StreamBegin);
            Tok end = consumeIn(id, pidx::StreamEnd);
            int32_t tag = combine2(id, begin.tag, end.tag);
            if (wired(pidx::StreamTrigger)) {
                Tok trig = consumeIn(id, pidx::StreamTrigger);
                tag = combine2(id, tag, trig.tag);
            }
            streamCur[i] = begin.value;
            streamEnd[i] = end.value;
            latchTag[i] = tag;
            fsm[i] = FsmRun;
            streamsRunning++;
        }
        int32_t tag = latchTag[i];
        if (streamCur[i] < streamEnd[i]) {
            emit(id, pidx::StreamIdxOut, streamCur[i], tag);
            emit(id, pidx::StreamCondOut, 1, tag);
            streamCur[i] += prog.streamStepOf[i];
        } else {
            emit(id, pidx::StreamCondOut, 0, tag);
            fsm[i] = FsmInit;
            streamsRunning--;
        }
        break;
      }
    }
}

// ---------------------------------------------------------------------
// Cycle phases
// ---------------------------------------------------------------------

void
FastEngine::drainPhase()
{
    bornStamp = cycle - 1; // these tokens were ready last cycle
    for (size_t w = 0; w < drainBits.size(); w++) {
        uint64_t bits = drainBits[w];
        uint64_t keep = bits;
        while (bits) {
            int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            NodeId id = static_cast<NodeId>(w * 64 +
                                            static_cast<size_t>(b));
            const size_t i = static_cast<size_t>(id);
            bool nonempty = false;
            int nOuts = prog.outsBase[i + 1] - prog.outsBase[i];
            for (int port = 0; port < nOuts; port++) {
                const size_t o =
                    static_cast<size_t>(prog.outsBase[i] + port);
                if (outCount[o] > 0 && consumersAccept(id, port)) {
                    const int cap =
                        prog.outSlab[o + 1] - prog.outSlab[o];
                    size_t slot = static_cast<size_t>(
                        prog.outSlab[o] + outHead[o]);
                    Word v = outVal[slot];
                    int32_t t = outTag[slot];
                    int h = outHead[o] + 1;
                    outHead[o] = h >= cap ? 0 : h;
                    outCount[o]--;
                    tokensInFlight--;
                    stats.bufferReads++;
                    wake(id); // its output buffer has space again
                    deliver(id, port, v, t);
                }
                nonempty |= outCount[o] > 0;
            }
            if (!nonempty)
                keep &= ~(uint64_t{1} << b);
        }
        drainBits[w] = keep;
    }
}

void
FastEngine::memCompletionsPhase()
{
    bornStamp = cycle - 1; // data crossed the NoC during the wait
    const size_t cap = pendNode.size();
    while (pendCnt > 0 &&
           pendReady[static_cast<size_t>(pendHead)] <= cycle) {
        const size_t slot = static_cast<size_t>(pendHead);
        NodeId id = pendNode[slot];
        Word v = pendVal[slot];
        int32_t t = pendTag[slot];
        pendHead = static_cast<int32_t>((slot + 1) % cap);
        pendCnt--;
        activeFlag = true;
        const size_t i = static_cast<size_t>(id);
        int p = prog.portBase[i] + pidx::LoadDataOut;
        // A load kept alive only for its order token has no data
        // consumers; its value is dropped at the PE boundary.
        if (prog.consBase[static_cast<size_t>(p) + 1] ==
            prog.consBase[static_cast<size_t>(p)])
            continue;
        reservedOut[i]--;
        wake(id); // reservation slot freed
        const size_t o =
            static_cast<size_t>(prog.outsBase[i] + pidx::LoadDataOut);
        if (!sourceMode && prog.cfg.memBypass && outCount[o] == 0 &&
            consumersAccept(id, pidx::LoadDataOut)) {
            deliver(id, pidx::LoadDataOut, v, t);
        } else {
            pushOut(id, pidx::LoadDataOut, v, t);
        }
    }
}

void
FastEngine::channelsPhase()
{
    bornStamp = cycle - 1; // matured tokens aged in the channel
    for (size_t ci = 0; ci < chCount.size(); ci++) {
        if (chCount[ci] == 0)
            continue;
        const Program::Channel &cc = prog.channels[ci];
        const int ip =
            prog.insBase[static_cast<size_t>(cc.dst)] + cc.dstIn;
        bool freed = false;
        while (chCount[ci] > 0) {
            size_t slot =
                static_cast<size_t>(prog.chanSlab[ci] + chHead[ci]);
            if (chReady[slot] > cycle ||
                insCount[static_cast<size_t>(ip)] >= depth)
                break;
            // Still one in-flight token: channel -> fifo.
            pushIn(ip, chVal[slot], chTag[slot], bornStamp);
            insTokens[static_cast<size_t>(cc.dst)]++;
            int h = chHead[ci] + 1;
            chHead[ci] = h >= cc.capacity ? 0 : h;
            chCount[ci]--;
            stats.bufferWrites++;
            wake(cc.dst);
            freed = true;
            activeFlag = true;
        }
        if (freed) {
            // Channel space opened up; the producer may fire again.
            wake(cc.src);
        }
        if (chCount[ci] > 0 &&
            chReady[static_cast<size_t>(prog.chanSlab[ci] +
                                        chHead[ci])] > cycle) {
            // Tokens still crossing the boundary keep the fabric
            // busy — this is latency, not deadlock.
            activeFlag = true;
        }
    }
}

void
FastEngine::decideDispatchGroups(bool firstRound)
{
    // Once per fixpoint round; the SyncPlane bills once per cycle.
    bool anyEval = false;
    const bool greedy = prog.cfg.greedyDispatch;
    for (int l : prog.gateLoops) {
        const size_t li = static_cast<size_t>(l);
        if (!greedy && cycle > groupDirtyUntil[li]) {
            // No gate event since the last evaluation: the cached
            // choice and pending flag are what a fresh scan would
            // produce.
            if (groupPending[li])
                anyEval = true;
            continue;
        }
        uint8_t firedPrev = groupFiredRound[li];
        groupFiredRound[li] = 0;
        if (!firstRound && !firedPrev && !sourceMode) {
            // Under destination buffering a group's inputs only
            // change within a cycle when its own gates fire
            // (deliveries don't age into avail until next cycle,
            // and gate outputs drain only before the fixpoint). A
            // source-buffered gate also sees multicast retires, so
            // it re-decides every round.
            if (groupPending[li])
                anyEval = true;
            continue;
        }
        groupChoice[li] = GcNone;
        if (greedy) {
            // Fig. 9a ablation: no SyncPlane; each gate fends for
            // itself (decisions made per node in canFire).
            continue;
        }
        // Fig. 10 token-selection over the SyncPlane reduction.
        bool anyPending = false;
        bool contAll = true, contNotFull = true;
        bool spawnAll = true, spawnTwoSlots = true;
        for (NodeId d : prog.dispatchGroups[li]) {
            const size_t di = static_cast<size_t>(d);
            const int base = prog.insBase[di];
            bool cAvail = avail(base + pidx::DispatchCont);
            bool sAvail = avail(base + pidx::DispatchSpawn);
            anyPending |= cAvail | sAvail;
            contAll &= cAvail;
            spawnAll &= sAvail;
            const size_t o = static_cast<size_t>(prog.outsBase[di]);
            int free = prog.outSlab[o + 1] - prog.outSlab[o] -
                       outCount[o];
            if (free < 1)
                contNotFull = false;
            if (free < 2)
                spawnTwoSlots = false;
        }
        if (anyPending)
            anyEval = true;
        groupPending[li] = anyPending ? 1 : 0;
        if (contAll && contNotFull)
            groupChoice[li] = GcCont;
        else if (spawnAll && spawnTwoSlots)
            groupChoice[li] = GcSpawn;
    }
    if (anyEval && lastSyncPlane != cycle) {
        stats.syncPlaneCycles++;
        lastSyncPlane = cycle;
        if (obs)
            obs->onSyncPlane(cycle);
    }
}

__attribute__((flatten)) void
FastEngine::scanRound(bool firstRound)
{
    // Round 1 walks the live set in place (it must survive for the
    // census) unioned with the forced candidates parked in
    // roundBits; later rounds consume the woken set. Ascending id
    // order is the oracle's, so bank claims and share arbitration
    // happen inline.
    fireList.clear();
    for (size_t w = 0; w < roundBits.size(); w++) {
        uint64_t bits = roundBits[w];
        roundBits[w] = 0;
        if (firstRound)
            bits |= liveBits[w];
        while (bits) {
            int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            NodeId id = static_cast<NodeId>(w * 64 +
                                            static_cast<size_t>(b));
            const size_t i = static_cast<size_t>(id);
            if (firedB[i])
                continue;
            const int sg = prog.shareGroupOf[i];
            if (sg >= 0 && !shareAdmits(id, sg))
                continue;
            bool memReady = false;
            Word addr = 0;
            uint8_t why = scanCanFire(id, memReady, addr);
            if (memReady) {
                size_t bank = static_cast<uint32_t>(addr) %
                              static_cast<uint32_t>(prog.cfg.memBanks);
                if (bankClaimedAt[bank] == cycle)
                    why = VBank;
                else
                    bankClaimedAt[bank] = cycle;
            }
            lastVerdict[i] = why;
            freshB[i] = 1;
            if (why != VNo)
                continue;
            firedB[i] = 1;
            fireList.push_back(id);
            if (sg >= 0) {
                shareUsedAt[static_cast<size_t>(sg)] = cycle;
                if (shareLast[static_cast<size_t>(sg)] != id) {
                    stats.muxSwitches++;
                    shareLast[static_cast<size_t>(sg)] = id;
                }
            }
        }
    }
}

void
FastEngine::runFixpoint()
{
    // Sequential (PE) firing to a fixpoint within the cycle. A PE
    // only consumes tokens born in earlier cycles, but a multicast
    // head retired early in the cycle exposes the next (older) token
    // to consumers later in the same cycle — the combinational
    // acknowledge path. Each PE fires at most once per cycle.
    inPeFixpoint = true;
    for (bool firstRound = true;; firstRound = false) {
        decideDispatchGroups(firstRound);
        // A SyncPlane decision fires every gate of the group, woken
        // or not; share-group residency and fairness are evaluated
        // (and billed) every round.
        if (!prog.cfg.greedyDispatch) {
            for (int l : prog.gateLoops) {
                if (groupChoice[static_cast<size_t>(l)] == GcNone)
                    continue;
                for (NodeId d :
                     prog.dispatchGroups[static_cast<size_t>(l)])
                    setBit(roundBits, d);
            }
        }
        for (NodeId m : prog.shareMembers)
            setBit(roundBits, m);
        scanRound(firstRound);
        if (fireList.empty())
            break;
        bool spawned = false;
        for (NodeId id : fireList) {
            const size_t i = static_cast<size_t>(id);
            if (static_cast<NodeKind>(prog.kindOf[i]) ==
                    NodeKind::Dispatch &&
                groupChoice[static_cast<size_t>(prog.loopOf[i])] ==
                    GcSpawn)
                spawned = true;
            commitFire(id);
        }
        if (spawned)
            nextThreadTag++;
        // The scan consumed roundBits; wakes during the commits
        // filled nextBits for the next round.
        roundBits.swap(nextBits);
    }
    inPeFixpoint = false;
}

__attribute__((flatten)) void
FastEngine::census()
{
    // Stall census over the live set, doubling as its prune: a node
    // stays live while it fired, was woken (its tokens may still be
    // aging past the born stamp), is bank-blocked, or is fire-ready
    // but share-blocked. Input/space-stalled nodes that nothing
    // touched are frozen — they go dormant and are billed per cycle
    // through the two aggregates until a wake revives them.
    int64_t noInput = 0, bank = 0;
    const bool greedy = prog.cfg.greedyDispatch;
    for (size_t w = 0; w < liveBits.size(); w++) {
        uint64_t bits = liveBits[w];
        uint64_t keep = bits;
        while (bits) {
            int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            NodeId id = static_cast<NodeId>(w * 64 +
                                            static_cast<size_t>(b));
            const size_t i = static_cast<size_t>(id);
            bool retain;
            if (firedB[i]) {
                retain = true; // may fire again next cycle
            } else {
                // Reuse the last round's verdict when no wake
                // arrived after that evaluation.
                uint8_t why = freshB[i] ? lastVerdict[i] : canFire(id);
                // A SyncPlane gate's verdict flips when its group
                // decides — no wake event — so it never dorms.
                bool pinned = !greedy &&
                              static_cast<NodeKind>(prog.kindOf[i]) ==
                                  NodeKind::Dispatch;
                if (why == VInput) {
                    if (pinned) {
                        if (insTokens[i] > 0)
                            noInput++;
                        retain = true;
                    } else if (!wokenB[i]) {
                        if (insTokens[i] > 0) {
                            dormantClass[i] = DormInput;
                            dormantInput++;
                        }
                        retain = false;
                    } else {
                        // Woken but still input-blocked: a landed
                        // token may still be aging past the born
                        // stamp. Keep it for next cycle's scan,
                        // which dorms it if it is still blocked.
                        if (insTokens[i] > 0)
                            noInput++;
                        retain = true;
                    }
                } else if (why == VSpace) {
                    // A Space verdict cannot self-enable: inputs
                    // that passed stay available and space is frozen
                    // until an event that wakes this node. Dorm it
                    // immediately, woken or not.
                    wokenB[i] = 0;
                    dormantClass[i] = DormSpace;
                    dormantSpace++;
                    retain = false;
                } else if (why == VBank) {
                    // Bank verdicts change with other nodes'
                    // claims; stay live for re-arbitration.
                    bank++;
                    retain = true;
                } else if (why == VNo) {
                    retain = true; // share-blocked
                } else {
                    // Idle: only a fired trigger — terminal.
                    wokenB[i] = 0;
                    retain = false;
                }
            }
            if (!retain)
                keep &= ~(uint64_t{1} << b);
        }
        liveBits[w] = keep;
    }
    stats.stallNoInput += noInput + dormantInput;
    stats.stallNoSpace += dormantSpace;
    stats.bankConflictStalls += bank;
}

void
FastEngine::observedCensus()
{
    // Observed runs attribute every stall to its node each cycle,
    // so the census walks every PE as the oracle does (nothing
    // dorms) and rebuilds the live set from its verdicts.
    for (NodeId id : prog.allSeqNodes) {
        const size_t i = static_cast<size_t>(id);
        bool retain;
        if (firedB[i]) {
            retain = true;
        } else {
            uint8_t why = freshB[i] ? lastVerdict[i] : canFire(id);
            bool counted = true;
            trace::StallReason reason = trace::StallReason::NoInput;
            if (why == VInput && insTokens[i] > 0) {
                stats.stallNoInput++;
            } else if (why == VSpace) {
                stats.stallNoSpace++;
                reason = trace::StallReason::NoSpace;
            } else if (why == VBank) {
                stats.bankConflictStalls++;
                reason = trace::StallReason::BankConflict;
            } else {
                counted = false;
            }
            if (counted)
                obs->onStall(cycle, id, reason);
            retain = counted || why == VNo || wokenB[i];
        }
        uint64_t &word = liveBits[i >> 6];
        const uint64_t bit = uint64_t{1} << (i & 63);
        word = retain ? word | bit : word & ~bit;
    }
}

void
FastEngine::nocSettle(bool pruneLive)
{
    if (liveNocBits.empty())
        return;
    // CF ops in routers are combinational: they observe tokens that
    // became visible this cycle and forward them within the cycle,
    // in topological order, at most one token set per router per
    // cycle. The routine runs both before the PE pass (values that
    // settled through the NoC at the end of the previous cycle) and
    // after it (same-cycle forwarding of fresh PE outputs). Each
    // sweep visits, in topological order, the live ops plus any op a
    // fire wakes ahead of the cursor — exactly the ops whose verdict
    // can differ from the oracle's previous visit, in the oracle's
    // order (the order matters: a carry or merge that finds its
    // second operand already present takes both in one firing).
    std::copy(liveNocBits.begin(), liveNocBits.end(),
              nocSweepBits.begin());
    for (;;) {
        bool anyBits = false;
        for (size_t w = 0; w < nocSweepBits.size(); w++) {
            while (nocSweepBits[w]) {
                anyBits = true;
                int b = __builtin_ctzll(nocSweepBits[w]);
                nocSweepBits[w] &= nocSweepBits[w] - 1;
                nocPos = static_cast<int>(w * 64) + b;
                NodeId id = prog.nocTopo[static_cast<size_t>(nocPos)];
                if (nocFiredB[static_cast<size_t>(id)])
                    continue;
                if (canFire(id) == VNo) {
                    nocFiredB[static_cast<size_t>(id)] = 1;
                    commitFire(id);
                }
            }
        }
        if (!anyBits)
            break;
        // Wakes behind the cursor collected the next sweep.
        nocSweepBits.swap(nocNextBits);
    }
    nocPos = -1;

    if (pruneLive) {
        // End of the cycle's last settle: router ops that neither
        // fired nor were woken stay out until a wake re-adds them.
        for (size_t w = 0; w < liveNocBits.size(); w++) {
            uint64_t bits = liveNocBits[w];
            uint64_t keep = bits;
            while (bits) {
                int b = __builtin_ctzll(bits);
                bits &= bits - 1;
                const size_t id = static_cast<size_t>(
                    prog.nocTopo[w * 64 + static_cast<size_t>(b)]);
                if (!nocFiredB[id] && !wokenB[id])
                    keep &= ~(uint64_t{1} << b);
            }
            liveNocBits[w] = keep;
        }
    }
}

// ---------------------------------------------------------------------
// Termination support
// ---------------------------------------------------------------------

bool
FastEngine::quiescentSlow() const
{
    if (pendCnt > 0)
        return false;
    for (int c : chCount) {
        if (c > 0)
            return false;
    }
    for (NodeId id = 0; id < n; id++) {
        const size_t i = static_cast<size_t>(id);
        NodeKind kind = static_cast<NodeKind>(prog.kindOf[i]);
        if (kind == NodeKind::Trigger && !trigFired[i])
            return false;
        if (kind == NodeKind::Stream && fsm[i] != FsmInit)
            return false;
        if (insTokens[i] > 0)
            return false;
        for (int o = prog.outsBase[i]; o < prog.outsBase[i + 1]; o++) {
            if (outCount[static_cast<size_t>(o)] > 0)
                return false;
        }
    }
    return true;
}

std::string
FastEngine::diagnose() const
{
    const dfg::Graph &g = prog.graph();
    std::ostringstream out;
    int listed = 0;
    // Source buffering has no input FIFOs to report.
    auto insEnd = [&](size_t i) {
        return sourceMode ? prog.insBase[i] : prog.insBase[i + 1];
    };
    for (NodeId id = 0; id < n && listed < 40; id++) {
        const size_t i = static_cast<size_t>(id);
        bool interesting = fsm[i] != FsmInit;
        for (int ip = prog.insBase[i]; ip < insEnd(i); ip++)
            interesting |= insCount[static_cast<size_t>(ip)] > 0;
        for (int o = prog.outsBase[i]; o < prog.outsBase[i + 1]; o++)
            interesting |= outCount[static_cast<size_t>(o)] > 0;
        if (!interesting)
            continue;
        listed++;
        const Node &node = g.at(id);
        out << "  node " << id << " (" << nodeKindName(node.kind)
            << " " << node.name << ") ins=[";
        for (int ip = prog.insBase[i]; ip < insEnd(i); ip++)
            out << insCount[static_cast<size_t>(ip)] << " ";
        out << "] outs=[";
        for (int o = prog.outsBase[i]; o < prog.outsBase[i + 1]; o++)
            out << outCount[static_cast<size_t>(o)] << " ";
        out << "] fsm=" << static_cast<int>(fsm[i]) << "\n";
    }
    for (size_t ch = 0; ch < chCount.size(); ch++) {
        if (chCount[ch] == 0)
            continue;
        const Program::Channel &cc = prog.channels[ch];
        out << "  channel " << ch << " (node " << cc.src << " -> "
            << cc.dst << " in " << cc.dstIn << ") holds "
            << chCount[ch] << " token(s)\n";
    }
    return out.str();
}

SimResult
FastEngine::finish(SimResult result)
{
    // Scatter the flat per-port read counters into SimStats' jagged
    // layout.
    stats.portReads.resize(static_cast<size_t>(n));
    for (size_t i = 0; i < static_cast<size_t>(n); i++) {
        const int base = prog.insBase[i];
        stats.portReads[i].assign(
            portReads.begin() + base,
            portReads.begin() + prog.insBase[i + 1]);
    }
    result.stats = std::move(stats);
    mem = nullptr;
    cfg = nullptr;
    obs = nullptr;
    return result;
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

SimResult
FastEngine::run(MemImage &memImage, const SimConfig &runCfg)
{
    mem = &memImage;
    cfg = &runCfg;
    obs = runCfg.observer;
    // Observed runs attribute every stall to its node.
    const bool observed = obs != nullptr;
    resetRun();
    SimResult result;

    for (cycle = 0; cycle < runCfg.maxCycles; cycle++) {
        activeFlag = false;
        // Per-cycle flags are bytes cleared in bulk: for fabric-sized
        // n a memset is cheaper than per-node cycle stamps.
        std::fill(freshB.begin(), freshB.end(), 0);
        std::fill(wokenB.begin(), wokenB.end(), 0);
        std::fill(firedB.begin(), firedB.end(), 0);
        std::fill(nocFiredB.begin(), nocFiredB.end(), 0);

        if (!sourceMode)
            drainPhase();
        memCompletionsPhase();
        if (prog.hasChannels)
            channelsPhase();

        // Router CF settles over tokens left from the previous
        // cycle before the PEs sample their inputs.
        bornStamp = cycle - 1;
        nocSettle(false);

        bornStamp = cycle;
        runFixpoint();

        if (observed)
            observedCensus();
        else
            census();

        // Pass 3: combinational CF-in-NoC evaluation.
        nocSettle(true);

        if (!failure.empty()) {
            stats.cycles = cycle + 1;
            result.deadlocked = true;
            result.fault = fault;
            result.diagnostic = failure;
            return finish(result);
        }

        if (pendCnt == 0 && tokensInFlight == 0 &&
            triggersPending == 0 && streamsRunning == 0) {
            ps_assert(quiescentSlow(),
                      "quiescence counters drifted from fabric "
                      "state at cycle %lld",
                      static_cast<long long>(cycle));
            stats.cycles = cycle + 1;
            // A carry/invariant left mid-loop with no tokens in
            // flight means the graph leaked or starved tokens.
            for (NodeId id = 0; id < n; id++) {
                NodeKind kind = static_cast<NodeKind>(
                    prog.kindOf[static_cast<size_t>(id)]);
                if ((kind == NodeKind::Carry ||
                     kind == NodeKind::Invariant) &&
                    fsm[static_cast<size_t>(id)] != FsmInit) {
                    const Node &node = prog.graph().at(id);
                    result.deadlocked = true;
                    result.diagnostic = csprintf(
                        "token leak: node %d (%s %s) finished in "
                        "run state",
                        id, nodeKindName(node.kind),
                        node.name.c_str());
                    break;
                }
            }
            return finish(result);
        }

        if (!activeFlag && pendCnt == 0) {
            ps_assert(!quiescentSlow(),
                      "quiescence counters missed an empty fabric "
                      "at cycle %lld",
                      static_cast<long long>(cycle));
            stats.cycles = cycle + 1;
            result.deadlocked = true;
            result.diagnostic =
                csprintf("deadlock at cycle %lld:\n",
                         static_cast<long long>(cycle)) +
                diagnose();
            return finish(result);
        }
    }

    stats.cycles = runCfg.maxCycles;
    result.deadlocked = true;
    result.watchdogExpired = true;
    result.diagnostic = "watchdog: maxCycles exceeded\n" + diagnose();
    return finish(result);
}

} // namespace pipestitch::sim

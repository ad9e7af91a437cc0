/**
 * @file
 * sim::FastEngine — the simulator every sim::ExecutionState runs.
 *
 * A single-threaded, structure-of-arrays implementation of the
 * cycle loop, bit-identical to the DenseScan reference in
 * sim/dense_scan.cc (tests/test_golden_stats.cc and
 * tests/test_fuzz_equivalence.cc pin the contract). It models every
 * configuration the oracle does: destination and source buffering,
 * share groups, inter-tile channels, greedy dispatch, and observed
 * or traced runs.
 *
 * Data layout: the immutable tables (node attributes, flat port
 * numbering, consumer-edge CSR, channel slabs) live in sim::Program
 * and are built once. The engine holds only per-run slabs: token
 * values, tags and born stamps (input FIFOs under destination
 * buffering, output FIFOs everywhere), per-port head/count cursors,
 * per-edge multicast cursors under source buffering, and a per-port
 * "available from cycle" stamp that folds emptiness, immediates,
 * cursor position and the born-stamp rule into a single compare.
 *
 * Scheduling: one worklist bitmap over node ids holds the PEs that
 * may fire or must be billed a stall; each fixpoint round scans it
 * in ascending id order (the oracle's order, so bank claims and
 * share-group arbitration happen inline) and later rounds scan only
 * the nodes a commit woke. Nodes whose verdict is frozen until some
 * event touches them go dormant and are billed through two
 * aggregates. See docs/simulator.md, "Fast engine".
 */

#ifndef PIPESTITCH_SIM_ENGINE_HH
#define PIPESTITCH_SIM_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/program.hh"

namespace pipestitch::sim {

class FastEngine
{
  public:
    /** Allocate the per-run slabs for @p program, which must
     *  outlive the engine. */
    explicit FastEngine(const Program &program);

    /**
     * One simulation against @p mem. @p cfg is the per-run config
     * (the Program's plus observer, trace and watchdog overrides);
     * it is referenced for the duration of the call.
     */
    SimResult run(MemImage &mem, const SimConfig &cfg);

  private:
    enum : uint8_t { VNo = 0, VIdle, VInput, VSpace, VBank };
    enum : uint8_t { DormNone = 0, DormInput, DormSpace };

    struct Tok
    {
        Word value = 0;
        int32_t tag = NoTag;
    };

    void resetRun();

    // --- token plumbing ---------------------------------------------
    bool avail(int ip) const;
    Tok peekIn(dfg::NodeId id, int in) const;
    Tok consumeIn(dfg::NodeId id, int in);
    bool consumersAccept(dfg::NodeId id, int port) const;
    bool outSpace(dfg::NodeId id, int port, int need) const;
    /** Returns true when the token landed at the FIFO head (the
     *  only case where the consumer's avail state can change). */
    bool pushIn(int ip, Word value, int32_t tag, int64_t born);
    void deliver(dfg::NodeId from, int port, Word value, int32_t tag);
    /** Append to output FIFO @p port of @p id (drained later under
     *  destination buffering, read in place under source). */
    void pushOut(dfg::NodeId id, int port, Word value, int32_t tag);
    void emit(dfg::NodeId id, int port, Word value, int32_t tag);
    /** Source buffering: recompute the avail stamp of the consumer
     *  input fed by edge @p e from its multicast cursor. */
    void refreshEdge(int e);
    int32_t combine2(dfg::NodeId id, int32_t a, int32_t b);
    int32_t combine3(dfg::NodeId id, int32_t a, int32_t b, int32_t c);
    /** False, and the run's fault recorded when it is the first
     *  failure, when @p addr is outside the memory image. */
    bool checkAddr(dfg::NodeId id, Word addr);

    // --- worklist ---------------------------------------------------
    /** Structural wake: inputs, space or state changed — the
     *  node's verdict may flip within the current cycle. */
    void wake(dfg::NodeId id);
    /**
     * Delivery wake: a token landed that a PE cannot consume before
     * next cycle (born-stamp rule). The node is retained for the
     * census and next cycle's scan, but needs no same-cycle re-scan
     * and keeps its cached verdict. Router CF consumes same-cycle
     * and takes the full wake.
     */
    void wakeDeliver(dfg::NodeId id);

    // --- verdicts and firing ----------------------------------------
    /** Current verdict short of the bank check. Memory nodes that
     *  pass every other check set @p memReady and @p addr; the
     *  caller arbitrates the bank. */
    uint8_t scanCanFire(dfg::NodeId id, bool &memReady,
                        Word &addr) const;
    /** Full current verdict including the bank check. */
    uint8_t canFire(dfg::NodeId id) const;
    /** Share-group arbitration for candidate @p id (billing
     *  conflicts); false when the shared PE is not available. */
    bool shareAdmits(dfg::NodeId id, int sg);
    void commitFire(dfg::NodeId id);

    // --- cycle phases -----------------------------------------------
    void drainPhase();
    void memCompletionsPhase();
    void channelsPhase();
    void decideDispatchGroups(bool firstRound);
    void scanRound(bool firstRound);
    void runFixpoint();
    /** Bill this cycle's stalls and prune the live set: a stalled
     *  node no wake touched dorms, a woken one stays for the next
     *  cycle's scan. */
    void census();
    void observedCensus();
    void nocSettle(bool pruneLive);
    bool quiescentSlow() const;
    std::string diagnose() const;
    SimResult finish(SimResult result);

    // ----------------------------------------------------------------
    const Program &prog;
    const SimConfig *cfg = nullptr; ///< per-run, valid inside run()
    trace::SimObserver *obs = nullptr;
    const int n;
    const int depth; ///< input FIFO depth (cfg.bufferDepth)
    const bool sourceMode;

    // Token slabs, SoA by field. Input FIFOs (destination buffering
    // only) are strided by `depth`; output FIFOs by Program::outSlab.
    std::vector<Word> insVal;
    std::vector<int32_t> insTag;
    std::vector<int64_t> insBorn;
    std::vector<int32_t> insHead, insCount;
    /** Earliest cycle the port's next token can be consumed;
     *  INT64_MIN for immediates, INT64_MAX when none is visible. */
    std::vector<int64_t> insAvailFrom;
    std::vector<Word> outVal;
    std::vector<int32_t> outTag;
    std::vector<int64_t> outBorn;
    std::vector<int32_t> outHead, outCount;
    /** Source buffering: entries each consumer edge has read past
     *  its producer FIFO's head (the multicast cursor). */
    std::vector<int32_t> edgeOff;
    std::vector<int32_t> insTokens; ///< [n] tokens across input FIFOs
    std::vector<int32_t> reservedOut;
    std::vector<uint8_t> fsm; ///< 0 Init, 1 Run, 2 WaitVal
    std::vector<uint8_t> pendingSide;
    std::vector<Word> latchVal;
    std::vector<int32_t> latchTag;
    std::vector<Word> streamCur, streamEnd;
    std::vector<uint8_t> trigFired;
    std::vector<int64_t> portReads; ///< insBase-indexed

    std::vector<uint8_t> groupChoice; ///< 0 None, 1 Cont, 2 Spawn
    std::vector<int64_t> groupDirtyUntil;
    std::vector<uint8_t> groupPending;
    /** A gate of the loop fired in the round just committed. */
    std::vector<uint8_t> groupFiredRound;

    std::vector<int64_t> shareUsedAt;       ///< per group
    std::vector<dfg::NodeId> shareLast;     ///< per group

    // Verdict cache. lastVerdict is the node's most recent verdict;
    // freshB says it was computed this cycle with no structural wake
    // since.
    std::vector<uint8_t> lastVerdict;
    // Per-cycle flags, memset-cleared at cycle start.
    std::vector<uint8_t> freshB, wokenB, firedB, nocFiredB;
    std::vector<uint8_t> dormantClass;
    int64_t dormantInput = 0, dormantSpace = 0;
    bool inPeFixpoint = false;
    int nocPos = -1; ///< NoC sweep cursor (topo index; -1 = idle)

    // Worklists: PE bitmaps over node ids, NoC bitmaps over
    // topological positions, and nodes with buffered outputs to
    // drain (destination buffering).
    std::vector<uint64_t> liveBits, roundBits, nextBits;
    std::vector<uint64_t> liveNocBits, nocSweepBits, nocNextBits;
    std::vector<uint64_t> drainBits;

    // Channel rings (SoA) and the banked memory model.
    std::vector<Word> chVal;
    std::vector<int32_t> chTag;
    std::vector<int64_t> chReady;
    std::vector<int32_t> chHead, chCount;
    std::vector<int64_t> bankClaimedAt; ///< == cycle -> claimed
    MemImage *mem = nullptr;
    std::vector<int32_t> pendNode;
    std::vector<Word> pendVal;
    std::vector<int32_t> pendTag;
    std::vector<int64_t> pendReady;
    int32_t pendHead = 0, pendCnt = 0;

    std::vector<dfg::NodeId> fireList;

    int64_t tokensInFlight = 0;
    int triggersPending = 0;
    int streamsRunning = 0;
    int32_t nextThreadTag = 0;
    int64_t cycle = 0;
    int64_t bornStamp = 0;
    int64_t lastSyncPlane = -1;
    bool activeFlag = false;
    SimStats stats;
    MemFault fault;      ///< set with `failure` by checkAddr
    std::string failure; ///< first failure; ends the run at cycle end
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_ENGINE_HH

/**
 * @file
 * sim::DenseScan — the plain reference the fast engine must match
 * bit for bit (tests/test_engine.cc and others). It re-evaluates
 * every node in every fixpoint round, so its rules read directly off
 * the paper's (Sec. 4, Fig. 10). Only tests, `pstool bench-sim` and
 * the micro-benchmarks construct one. It has ExecutionState's shape
 * and threading contract (sim/execution.hh).
 */

#ifndef PIPESTITCH_SIM_DENSE_SCAN_HH
#define PIPESTITCH_SIM_DENSE_SCAN_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/execution.hh"

namespace pipestitch::sim {

class DenseScan
{
  public:
    explicit DenseScan(std::shared_ptr<const Program> program);

    /** As ExecutionState::run(), on the token FIFOs and gate FSMs
     *  below. */
    SimResult run(MemImage &mem, const RunOptions &opts = {});

  private:
    /** Why a node did not fire this cycle. */
    enum class Blocked { No, Idle, Input, Space, Bank };

    /** Per-node runtime state. */
    struct NodeRt
    {
        std::vector<TokenFifo> ins;  ///< input buffers / NoC latches
        std::vector<TokenFifo> outs; ///< output buffers
        int reservedOut = 0;         ///< in-flight loads holding outs[0]
        /** Gate FSM: carries/invariants/streams idle in Init; a carry
         *  that consumed a true decider but still awaits its backedge
         *  value sits in WaitVal (eager decider consumption keeps the
         *  multicast decider head from being held hostage by the
         *  loop's slowest path). Merge uses WaitVal the same way. */
        enum class Fsm { Init, Run, WaitVal };
        Fsm fsm = Fsm::Init;
        int pendingSide = 0;  ///< merge: selected input while waiting
        Token latched;        ///< invariant latch / pending decider tag
        Word streamCur = 0;
        Word streamEnd = 0;
        bool triggerFired = false;
    };

    // --- setup ------------------------------------------------------
    void reset();

    // --- per-cycle phases -------------------------------------------
    void drainOutputBuffers();
    void handleMemCompletions();
    void advanceChannels();
    void decideDispatchGroups();
    Blocked canFire(dfg::NodeId id);
    void commitFire(dfg::NodeId id);
    void evalNocNodes();
    void stallCensus();
    /** The fabric holds no token, pending load, unfired trigger or
     *  running stream: the run has retired. */
    bool quiescent() const;
    std::string diagnose() const;
    SimResult runLoop();

    // --- token plumbing ---------------------------------------------
    bool inputAvail(dfg::NodeId id, int in) const;
    Token peekInput(dfg::NodeId id, int in) const;
    Token consumeInput(dfg::NodeId id, int in);
    bool consumersAccept(dfg::NodeId id, int port) const;
    bool outSpace(dfg::NodeId id, int port, int need) const;
    bool portHasConsumers(dfg::NodeId id, int port) const;
    void deliver(dfg::NodeId from, int port, const Token &token);
    void emit(dfg::NodeId id, int port, Token token);
    int32_t combineTags(dfg::NodeId id,
                        std::initializer_list<int32_t> tags);
    /** Record a memory fault when @p addr is outside the image and
     *  no failure came first. */
    void checkAddr(dfg::NodeId id, Word addr);

    // ------------------------------------------------------------------
    std::shared_ptr<const Program> progHold;
    const Program &prog;
    const dfg::Graph &graph;
    SimConfig cfg; ///< per-run copy: prog.cfg + RunOptions overrides
    trace::SimObserver *obs = nullptr;
    bool sourceMode;

    // Run state, materialized by reset() on each run.
    std::optional<MemSystem> memsys; ///< engaged only inside run()

    std::vector<NodeRt> rt;

    enum class GroupChoice { None, Cont, Spawn };
    std::vector<GroupChoice> groupChoice;

    std::vector<bool> shareUsed;        ///< per group, this cycle
    std::vector<dfg::NodeId> shareLast; ///< per group, last resident

    // Inter-tile FIFO channels, ring slabs (one `capacity`-slot
    // segment per Program::Channel at Program::chanSlab): tokens
    // mature at `chanReady` and then land in the destination buffer.
    std::vector<Token> chanTok;
    std::vector<int64_t> chanReady;
    std::vector<int> chanHead, chanCount;

    int32_t nextThreadTag = 0;
    int64_t cycle = 0;
    int64_t bornStamp = 0; ///< birth cycle applied to pushed tokens
    int64_t lastSyncPlaneCycle = -1;
    bool active = false; ///< any event this cycle
    std::vector<dfg::NodeId> fireList;
    std::vector<int64_t> seqFiredAt; ///< per-cycle once-only guards
    std::vector<int64_t> nocFiredAt;

    SimStats stats;
    MemFault fault;      ///< set with `failure` by checkAddr
    std::string failure; ///< first failure; ends the run at cycle end
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_DENSE_SCAN_HH

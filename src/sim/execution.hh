/**
 * @file
 * sim::ExecutionState — one run's worth of mutable simulator state
 * over a shared, immutable sim::Program.
 *
 * The contract (see docs/simulator.md):
 *
 *  - an ExecutionState holds a shared_ptr to its Program and never
 *    writes through it;
 *  - everything mutable lives here or in the fast engine a run
 *    borrows from the Program (sim/engine.hh holds its per-run
 *    slabs): the DenseScan oracle's token FIFOs and gate FSMs, the
 *    memory system (bound to the caller's MemImage for the duration
 *    of run()), stats, and the per-run observer/trace settings;
 *  - run() may be called repeatedly on one ExecutionState (state is
 *    reset each time), but a single ExecutionState must not be used
 *    from two threads at once. Concurrency = one ExecutionState per
 *    thread, all sharing one Program. Constructing one is cheap: the
 *    engine's slabs belong to the Program's idle list, not to the
 *    state, so a one-run ExecutionState per request costs no more
 *    than a long-lived one.
 *
 * The legacy simulate() entry point is now a thin wrapper that builds
 * a Program and runs one ExecutionState, so both paths are
 * cycle-exact by construction (tests/test_golden_stats.cc and
 * tests/test_execution.cc enforce this).
 */

#ifndef PIPESTITCH_SIM_EXECUTION_HH
#define PIPESTITCH_SIM_EXECUTION_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/program.hh"

namespace pipestitch::sim {

/** Per-run knobs stripped from the Program's SimConfig. */
struct RunOptions
{
    /** Observability hooks; not owned, must outlive the run. */
    trace::SimObserver *observer = nullptr;
    /** Print every fire and counted stall to stderr, through a
     *  trace::TextTraceSink chained after `observer`. */
    bool trace = false;
    /** Watchdog override; 0 = the Program config's maxCycles. */
    int64_t maxCycles = 0;
};

class ExecutionState
{
  public:
    explicit ExecutionState(std::shared_ptr<const Program> program);

    /**
     * Execute the program against @p mem until the fabric drains.
     * @p mem is mutated in place and referenced only for the
     * duration of the call. Resets all run state first, so the same
     * ExecutionState can be reused sequentially.
     *
     * Scheduler::ReadyList runs execute on a sim::FastEngine
     * borrowed from the Program for the call; Scheduler::DenseScan
     * runs execute the plain reference loop below, which the goldens
     * pin.
     */
    SimResult run(MemImage &mem, const RunOptions &opts = {});

    const Program &program() const { return prog; }

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
    bool quiescentSlow() const;
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

    // DenseScan oracle state, materialized by reset() on each run.
    std::optional<MemSystem> memsys; ///< engaged only inside run()

    std::vector<NodeRt> rt;

    enum class GroupChoice { None, Cont, Spawn };
    std::vector<GroupChoice> groupChoice;

    std::vector<bool> shareUsed;        ///< per group, this cycle
    std::vector<dfg::NodeId> shareLast; ///< per group, last resident

    // Inter-tile FIFO channels, ring slabs (one `capacity`-slot
    // segment per Program::Channel at Program::chanSlab): tokens
    // mature at `chanReady` and then land in the destination buffer.
    // Counted in tokensInFlight while in the channel.
    std::vector<Token> chanTok;
    std::vector<int64_t> chanReady;
    std::vector<int> chanHead, chanCount;

    // Quiescence counters: exact mirrors of the fabric state the
    // O(n) scan inspects (verified against quiescentSlow() at
    // termination).
    int64_t tokensInFlight = 0;
    int triggersPending = 0;
    int streamsRunning = 0;

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

#endif // PIPESTITCH_SIM_EXECUTION_HH

/**
 * @file
 * Banked scratchpad memory model.
 *
 * The fabric's 256 kB SRAM is split into word-interleaved banks,
 * each servicing one access per cycle. Memory PEs arbitrate for bank
 * ports each cycle; losing the arbitration is the paper's
 * "memory-bank conflict" transient stall (Sec. 4.7). Loads complete
 * a fixed latency after issue.
 */

#ifndef PIPESTITCH_SIM_MEMSYS_HH
#define PIPESTITCH_SIM_MEMSYS_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "scalar/interpreter.hh"
#include "sim/token.hh"

namespace pipestitch::sim {

using MemImage = scalar::MemImage;

/** A load whose data is still in flight. */
struct PendingLoad
{
    int node;          ///< issuing Load node id
    Token data;        ///< value read at issue
    int64_t readyCycle;
};

class MemSystem
{
  public:
    MemSystem(MemImage &mem, int numBanks, int loadLatency);

    int bankOf(Word addr) const;

    /** Start-of-cycle: clear this cycle's bank port claims. */
    void beginCycle();

    /** Check whether @p addr 's bank port is still free this cycle. */
    bool bankFree(Word addr) const;

    /** Claim the bank port (call once per winning accessor). */
    void claimBank(Word addr);

    /** Whether @p addr is a word of the memory image. An access
     *  outside it is a memory fault (SimResult::fault): the engine
     *  records it and ends the run at the end of the cycle. */
    bool inBounds(Word addr) const;

    /** Size of the memory image in words. */
    size_t words() const { return mem.size(); }

    /** Read for a load issued at @p cycle; returns the pending slot.
     *  An out-of-bounds @p addr reads 0. */
    PendingLoad issueLoad(int node, Word addr, int32_t tag,
                          int64_t cycle);

    /** Commit a store immediately (single-cycle write). An
     *  out-of-bounds @p addr writes nothing. */
    void store(Word addr, Word value);

    /** Loads completing at @p cycle (moved out of the pending list). */
    std::vector<PendingLoad> takeCompletions(int64_t cycle);

    bool idle() const { return pending.empty(); }

  private:
    MemImage &mem;
    int numBanks;
    int loadLatency;
    std::vector<bool> bankClaimed;
    std::deque<PendingLoad> pending; // ordered by readyCycle
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_MEMSYS_HH

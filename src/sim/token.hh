/**
 * @file
 * Tokens and token FIFOs.
 *
 * A token is a 32-bit value plus a debug-only thread tag used to
 * check the ordered-dataflow invariant (tokens of different threads
 * never interleave incorrectly at an operator). The tag models
 * nothing architectural: Pipestitch is tagless by design (Sec. 3),
 * and the simulator only uses tags for verification.
 */

#ifndef PIPESTITCH_SIM_TOKEN_HH
#define PIPESTITCH_SIM_TOKEN_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "sir/program.hh"

namespace pipestitch::sim {

using Word = sir::Word;

/** No-thread debug tag. */
constexpr int32_t NoTag = -1;

struct Token
{
    Word value = 0;
    int32_t tag = NoTag;
    /** Cycle the token became visible in its buffer (simulator
     *  bookkeeping: PEs sample only tokens born in earlier cycles;
     *  combinational router CF has no such restriction). */
    int64_t born = -1;
};

/**
 * Bounded FIFO of tokens.
 *
 * In destination-buffered mode each *input port* owns one and the
 * single consumer pops the head. In source-buffered mode each
 * *output port* owns one and multicasts: every consumer endpoint
 * reads the entries in order through its own cursor, and an entry
 * retires once every endpoint has consumed it. A consumer lagging by
 * more than the buffer depth therefore stalls the producer — the
 * imbalanced split-join penalty of source buffering (Fig. 12a) —
 * while small phase offsets between endpoints are absorbed.
 *
 * Storage is one ring buffer sized by setDepth(). Only the DenseScan
 * oracle (sim/execution.cc) buffers tokens here; the fast engine
 * keeps its own structure-of-arrays slabs (sim/engine.hh).
 */
class TokenFifo
{
  public:
    explicit TokenFifo(int depth = 0) { setDepth(depth); }

    /** Set capacity. Only valid while the FIFO is empty. */
    void
    setDepth(int d)
    {
        ps_assert(count == 0, "resizing a non-empty token fifo");
        depth = d;
        ring.assign(static_cast<size_t>(std::max(depth, 1)), Token{});
        head_ = 0;
    }

    /** Configure multicast endpoints (source-buffer mode). */
    void
    initEndpoints(int n)
    {
        consumed.assign(static_cast<size_t>(n), 0);
    }

    bool empty() const { return count == 0; }
    bool full() const { return count >= depth; }
    int size() const { return count; }
    int freeSlots() const { return depth - count; }
    int capacity() const { return depth; }

    const Token &
    head() const
    {
        return at(0);
    }

    void
    push(const Token &t)
    {
        ps_assert(!full(), "token fifo overflow");
        slot(count) = t;
        count++;
    }

    /** Single-consumer pop (destination-buffer mode). */
    Token
    pop()
    {
        ps_assert(count > 0, "token fifo underflow");
        Token t = slot(0);
        advanceHead();
        retired++;
        return t;
    }

    /** @{ Multicast endpoint interface (source-buffer mode). */

    /**
     * Availability for a consumer that can snoop buffered entries
     * beyond the head (combinational router CF: by the time a value
     * is registered it has already flowed through the switch).
     */
    bool
    availFor(int endpoint) const
    {
        int64_t offset =
            consumed[static_cast<size_t>(endpoint)] - retired;
        return offset < static_cast<int64_t>(count);
    }

    /**
     * Availability for a registered PE endpoint: only the head
     * entry is driven onto the network, so a consumer that already
     * took the head must wait for every other endpoint to take it
     * before seeing the next token (the Fig. 12a multicast hold).
     */
    bool
    availHeadFor(int endpoint) const
    {
        return count > 0 &&
               consumed[static_cast<size_t>(endpoint)] == retired;
    }

    const Token &
    peekFor(int endpoint) const
    {
        int64_t offset =
            consumed[static_cast<size_t>(endpoint)] - retired;
        return at(static_cast<int>(offset));
    }

    /**
     * Advance @p endpoint 's cursor; retires fully-read entries.
     * @return the number of entries retired (0 while another
     * endpoint still lags behind the head).
     */
    int
    takeFor(int endpoint)
    {
        consumed[static_cast<size_t>(endpoint)]++;
        int64_t minC = consumed[0];
        for (int64_t c : consumed)
            minC = std::min(minC, c);
        int n = 0;
        while (retired < minC) {
            advanceHead();
            retired++;
            n++;
        }
        return n;
    }
    /** @} */

  private:
    const Token &
    at(int i) const
    {
        size_t idx = static_cast<size_t>(head_ + i);
        if (idx >= ring.size())
            idx -= ring.size();
        return ring[idx];
    }

    Token &
    slot(int i)
    {
        return const_cast<Token &>(at(i));
    }

    void
    advanceHead()
    {
        head_++;
        count--;
        if (static_cast<size_t>(head_) >= ring.size())
            head_ = 0;
    }

    std::vector<Token> ring; ///< max(depth, 1) slots
    int depth = 0;
    int head_ = 0;  ///< ring index of the oldest entry
    int count = 0;  ///< live entries
    std::vector<int64_t> consumed; ///< per-endpoint read counts
    int64_t retired = 0;
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_TOKEN_HH

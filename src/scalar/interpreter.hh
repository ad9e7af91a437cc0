/**
 * @file
 * Sequential SIR interpreter.
 *
 * Serves two roles:
 *  - the *golden functional model*: every dataflow execution is
 *    checked against the interpreter's final memory image;
 *  - the *scalar baseline*: it counts dynamic instruction events that
 *    a ScalarProfile converts into cycles and energy for the RISC-V
 *    control core and Cortex-M33 comparison points.
 */

#ifndef PIPESTITCH_SCALAR_INTERPRETER_HH
#define PIPESTITCH_SCALAR_INTERPRETER_HH

#include <cstdint>
#include <vector>

#include "sir/program.hh"

namespace pipestitch::scalar {

/** Word-addressed flat memory image shared with the dataflow sim. */
using MemImage = std::vector<sir::Word>;

/** Dynamic instruction counts by class. */
struct EventCounts
{
    int64_t alu = 0;
    int64_t mul = 0;
    int64_t load = 0;
    int64_t store = 0;
    int64_t branch = 0;
    int64_t moves = 0; // constant materialization / register moves

    int64_t total() const
    {
        return alu + mul + load + store + branch + moves;
    }

    EventCounts &operator+=(const EventCounts &other);
};

/** Result of one interpreted kernel execution. */
struct RunResult
{
    EventCounts counts;
};

/**
 * Execute @p prog on @p mem.
 *
 * @param liveIns one value per prog.liveIns entry, in order.
 * @param maxSteps safety bound on executed statements; exceeded ⇒
 *        fatal (a non-terminating kernel is a user error).
 * A load or store outside @p mem is fatal too (a trip count past
 * the arrays is a user error as well).
 */
RunResult interpret(const sir::Program &prog, MemImage &mem,
                    const std::vector<sir::Word> &liveIns,
                    int64_t maxSteps = int64_t{1} << 40);

/** Allocate a zeroed memory image sized for @p prog. */
MemImage makeMemory(const sir::Program &prog);

} // namespace pipestitch::scalar

#endif // PIPESTITCH_SCALAR_INTERPRETER_HH

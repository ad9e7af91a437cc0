/**
 * @file
 * Spatial unrolling — the paper's first future-work direction
 * (Sec. 6): "unroll multiple copies of the inner-loop and distribute
 * outer loop iterations spatially in addition to temporal
 * pipelining."
 *
 * Implemented as a SIR→SIR transform: a foreach loop over
 * [begin, end) becomes a foreach over chunk indices, whose body
 * contains `factor` statically-unrolled copies of the original body
 * guarded by a bounds check:
 *
 *   foreach c = 0 .. ceil((end-begin)/U):
 *     for u in 0..U (unrolled):
 *       i = begin + c*U + u
 *       if (i < end): <body copy u>(i)
 *
 * Each copy's inner loop is a distinct loop statement, so the
 * threading pass gives it its own dispatch group — U thread
 * pipelines running side by side on the fabric. The PE cost is
 * roughly U× the loop body, so unrolling only fits small kernels
 * (exactly the paper's framing).
 */

#ifndef PIPESTITCH_COMPILER_UNROLL_HH
#define PIPESTITCH_COMPILER_UNROLL_HH

#include <string>

#include "fabric/fabric.hh"
#include "sir/program.hh"

namespace pipestitch::compiler {

/**
 * The unroll rule, checked before anything compiles: each lane is
 * one copy of the loop body on its own PEs, so @p factor must be a
 * power of two in [1, the PE count of every tile of @p topo] (64 on
 * the paper's 8×8 grid, 256 on 2×2 tiles of it). Returns false with
 * a message naming `unroll` in @p error otherwise.
 */
bool checkUnrollFactor(int factor, const fabric::Topology &topo,
                       std::string &error);

/**
 * Return a copy of @p prog with every step-1 foreach loop spatially
 * unrolled by @p factor (a power of two ≥ 2). Non-foreach loops and
 * foreach loops with step ≠ 1 are left untouched.
 */
sir::Program unrollForeachLoops(const sir::Program &prog, int factor);

} // namespace pipestitch::compiler

#endif // PIPESTITCH_COMPILER_UNROLL_HH

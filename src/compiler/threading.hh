/**
 * @file
 * The threading decision (Sec. 4.8): candidate loops are those
 * directly nested in a `foreach` loop; a candidate is threaded iff
 * its inner-loop initiation interval exceeds 1 on the unthreaded
 * lowering (control flow in routers contributes no II).
 */

#ifndef PIPESTITCH_COMPILER_THREADING_HH
#define PIPESTITCH_COMPILER_THREADING_HH

#include <set>
#include <unordered_map>
#include <vector>

#include "dfg/graph.hh"
#include "sir/program.hh"

namespace pipestitch::compiler {

/**
 * Stable pre-order numbering of every loop statement. Both the
 * lowering and the threading heuristic use this map so loop ids
 * agree even when constant folding elides branches.
 */
std::unordered_map<const sir::Stmt *, int>
numberLoops(const sir::Program &prog);

/** Total number of loops in @p prog. */
int countLoops(const sir::Program &prog);

/** See compile.hh; ids follow the lowering's pre-order numbering. */
std::set<int> findThreadingCandidates(const sir::Program &prog);

/** What the threading heuristic measured and decided. */
struct ThreadingDecision
{
    /** Candidate loops whose baseline II exceeds 1. */
    std::set<int> threaded;
    /** Baseline (unthreaded) II per loop id. */
    std::vector<int> loopII;
    /** The unthreaded lowering the IIs were measured on: exactly
     *  what lower() returns for these live-ins and stream setting
     *  with no loop threaded. */
    dfg::Graph baseline;
};

/**
 * Apply the II > 1 heuristic: lower @p prog unthreaded, measure each
 * loop's II, and pick the candidates to thread.
 */
ThreadingDecision decideThreading(const sir::Program &prog,
                                  const std::vector<sir::Word> &liveIns,
                                  bool useStreams);

} // namespace pipestitch::compiler

#endif // PIPESTITCH_COMPILER_THREADING_HH

/**
 * @file
 * Compilation driver: SIR kernel → mapped-ready DFG for one
 * architecture variant, applying the paper's threading heuristic and
 * control-flow placement policy.
 */

#ifndef PIPESTITCH_COMPILER_COMPILE_HH
#define PIPESTITCH_COMPILER_COMPILE_HH

#include <set>
#include <string>
#include <vector>

#include "compiler/lower.hh"
#include "dfg/graph.hh"
#include "sim/simulator.hh"
#include "sir/program.hh"

namespace pipestitch::compiler {

/**
 * The architecture variants evaluated in the paper.
 *
 * | variant   | threads   | CF placement | buffering    |
 * |-----------|-----------|--------------|--------------|
 * | RipTide   | none      | NoC          | source       |
 * | Pipestitch| heuristic | auto¹        | destination  |
 * | PipeSB    | heuristic | auto¹        | source       |
 * | PipeCFiN  | heuristic | NoC²         | destination  |
 * | PipeCFoP  | heuristic | PEs          | destination  |
 *
 * ¹ threaded kernels map all CF onto PEs, unthreaded into the NoC
 *   (Secs. 5.8, 5.10).
 * ² dispatch always needs a PE; CF downstream of bypassing memory
 *   ops is also forced onto PEs (Sec. 4.8).
 */
enum class ArchVariant { RipTide, Pipestitch, PipeSB, PipeCFiN,
                         PipeCFoP };

const char *archVariantName(ArchVariant variant);

/** The variant whose archVariantName() lowercased is @p name
 *  ("riptide", "pipestitch", "pipesb", "pipecfin", "pipecfop");
 *  false, leaving @p out alone, for any other name. */
bool parseArchVariant(const std::string &name, ArchVariant &out);

struct CompileOptions
{
    ArchVariant variant = ArchVariant::Pipestitch;

    enum class Threading {
        Heuristic, ///< thread candidate loops iff inner II > 1
        ForceOff,
        ForceOn, ///< thread all candidates regardless of II
    };
    Threading threading = Threading::Heuristic;

    bool useStreams = true;

    /** Buffer depth handed to the recommended SimConfig. */
    int bufferDepth = 4;

    /**
     * Spatial unrolling factor (Sec. 6 future work): replicate each
     * foreach body this many times, one dispatch-group pipeline per
     * lane. Power of two; 1 disables. Costs ~factor× the PEs.
     */
    int unrollFactor = 1;
};

struct CompileResult
{
    dfg::Graph graph;

    /** Baseline (unthreaded) II per loop id. */
    std::vector<int> loopII;

    /** Loops compiled as threaded dispatch loops. */
    std::set<int> threadedLoops;

    /** True if any loop is threaded. */
    bool threaded = false;

    /** Simulator configuration matching the variant. */
    sim::SimConfig simConfig;
};

/**
 * Compile @p prog with parameters @p liveIns bound (the control core
 * configures kernel parameters into the fabric as immediates).
 */
CompileResult compileProgram(const sir::Program &prog,
                             const std::vector<sir::Word> &liveIns,
                             const CompileOptions &options);

/**
 * CF placement (Sec. 4.8): mark control-flow nodes `cfInNoc`
 * according to @p placeInNoc, keeping dispatch and CF fed by
 * bypassing memory ops on PEs and breaking residual combinational
 * cycles. Exposed for tests.
 */
void placeControlFlow(dfg::Graph &graph, bool placeInNoc,
                      bool memBypass);

/**
 * Merge structurally identical stateless operators (consts, ALU
 * ops, steers, merges with the same operands fire identically, so
 * consumers can share one PE). Returns removed-node count.
 */
int eliminateCommonSubexpressions(dfg::Graph &graph);

} // namespace pipestitch::compiler

#endif // PIPESTITCH_COMPILER_COMPILE_HH

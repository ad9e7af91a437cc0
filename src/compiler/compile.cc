#include "compiler/compile.hh"

#include <cctype>

#include "base/logging.hh"
#include "compiler/threading.hh"
#include "compiler/unroll.hh"
#include "dfg/verifier.hh"
#include "sir/verifier.hh"

namespace pipestitch::compiler {

const char *
archVariantName(ArchVariant variant)
{
    switch (variant) {
      case ArchVariant::RipTide: return "RipTide";
      case ArchVariant::Pipestitch: return "Pipestitch";
      case ArchVariant::PipeSB: return "PipeSB";
      case ArchVariant::PipeCFiN: return "PipeCFiN";
      case ArchVariant::PipeCFoP: return "PipeCFoP";
    }
    return "?";
}

bool
parseArchVariant(const std::string &name, ArchVariant &out)
{
    for (ArchVariant v :
         {ArchVariant::RipTide, ArchVariant::Pipestitch,
          ArchVariant::PipeSB, ArchVariant::PipeCFiN,
          ArchVariant::PipeCFoP}) {
        std::string lower = archVariantName(v);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        if (lower == name) {
            out = v;
            return true;
        }
    }
    return false;
}

CompileResult
compileProgram(const sir::Program &prog,
               const std::vector<sir::Word> &liveIns,
               const CompileOptions &options)
{
    sir::verifyOrDie(prog);

    // Spatial unrolling is a source-level transform; everything
    // downstream (threading, lowering, placement) sees the unrolled
    // program.
    sir::Program unrolled;
    const sir::Program *source = &prog;
    if (options.unrollFactor > 1) {
        unrolled = unrollForeachLoops(prog, options.unrollFactor);
        sir::verifyOrDie(unrolled);
        source = &unrolled;
    }

    CompileResult result;

    // Threading decision. RipTide has no dispatch support.
    ThreadingDecision decision =
        decideThreading(*source, liveIns, options.useStreams);
    result.loopII = std::move(decision.loopII);
    std::set<int> threadLoops;
    if (options.variant != ArchVariant::RipTide) {
        switch (options.threading) {
          case CompileOptions::Threading::Heuristic:
            threadLoops = std::move(decision.threaded);
            break;
          case CompileOptions::Threading::ForceOn:
            threadLoops = findThreadingCandidates(*source);
            break;
          case CompileOptions::Threading::ForceOff:
            break;
        }
    }

    // With no loop threaded, the heuristic's baseline already is the
    // lowering under these options.
    if (threadLoops.empty()) {
        result.graph = std::move(decision.baseline);
    } else {
        LowerOptions lopts;
        lopts.liveInValues = liveIns;
        lopts.threadLoops = threadLoops;
        lopts.useStreams = options.useStreams;
        result.graph = lower(*source, lopts);
    }
    eliminateCommonSubexpressions(result.graph);
    result.threadedLoops = threadLoops;
    result.threaded = !threadLoops.empty();

    // Control-flow placement and the matching microarchitecture.
    sim::SimConfig sim;
    sim.bufferDepth = options.bufferDepth;
    bool placeInNoc = true;
    switch (options.variant) {
      case ArchVariant::RipTide:
        sim.buffering = sim::SimConfig::Buffering::Source;
        sim.memBypass = false;
        placeInNoc = true;
        break;
      case ArchVariant::Pipestitch:
        sim.buffering = sim::SimConfig::Buffering::Destination;
        sim.memBypass = true;
        // Threaded kernels need deep in-PE buffering for CF;
        // unthreaded kernels keep CF free in the NoC (Sec. 5.8).
        placeInNoc = !result.threaded;
        break;
      case ArchVariant::PipeSB:
        sim.buffering = sim::SimConfig::Buffering::Source;
        sim.memBypass = false;
        placeInNoc = !result.threaded;
        break;
      case ArchVariant::PipeCFiN:
        sim.buffering = sim::SimConfig::Buffering::Destination;
        sim.memBypass = true;
        placeInNoc = true;
        break;
      case ArchVariant::PipeCFoP:
        sim.buffering = sim::SimConfig::Buffering::Destination;
        sim.memBypass = true;
        placeInNoc = false;
        break;
    }
    // Placement only marks nodes; the CSE pass left the graph
    // finalized.
    placeControlFlow(result.graph, placeInNoc, sim.memBypass);
    result.simConfig = sim;

    dfg::verifyOrDie(result.graph);
    return result;
}

} // namespace pipestitch::compiler

#include "compiler/threading.hh"

#include "base/logging.hh"
#include "compiler/lower.hh"
#include "dfg/analysis.hh"

namespace pipestitch::compiler {

namespace {

/**
 * Walk loops in the same pre-order as the lowering, recording for
 * each loop whether its nearest enclosing loop is a foreach For.
 */
void
walkLoops(const sir::StmtList &list, bool parentIsForeach,
          int &counter, std::set<int> &candidates,
          std::unordered_map<const sir::Stmt *, int> &ids)
{
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case sir::Stmt::Kind::If: {
            const auto &s = static_cast<const sir::IfStmt &>(*stmt);
            walkLoops(s.thenBody, parentIsForeach, counter,
                      candidates, ids);
            walkLoops(s.elseBody, parentIsForeach, counter,
                      candidates, ids);
            break;
          }
          case sir::Stmt::Kind::For: {
            const auto &s = static_cast<const sir::ForStmt &>(*stmt);
            int id = counter++;
            ids[stmt.get()] = id;
            if (parentIsForeach)
                candidates.insert(id);
            walkLoops(s.body, s.isForeach, counter, candidates, ids);
            break;
          }
          case sir::Stmt::Kind::While: {
            const auto &s = static_cast<const sir::WhileStmt &>(*stmt);
            int id = counter++;
            ids[stmt.get()] = id;
            if (parentIsForeach)
                candidates.insert(id);
            walkLoops(s.header, false, counter, candidates, ids);
            walkLoops(s.body, false, counter, candidates, ids);
            break;
          }
          default:
            break;
        }
    }
}

} // namespace

std::unordered_map<const sir::Stmt *, int>
numberLoops(const sir::Program &prog)
{
    std::unordered_map<const sir::Stmt *, int> ids;
    std::set<int> candidates;
    int counter = 0;
    walkLoops(prog.body, false, counter, candidates, ids);
    return ids;
}

int
countLoops(const sir::Program &prog)
{
    return static_cast<int>(numberLoops(prog).size());
}

std::set<int>
findThreadingCandidates(const sir::Program &prog)
{
    std::set<int> candidates;
    std::unordered_map<const sir::Stmt *, int> ids;
    int counter = 0;
    walkLoops(prog.body, false, counter, candidates, ids);
    return candidates;
}

ThreadingDecision
decideThreading(const sir::Program &prog,
                const std::vector<sir::Word> &liveIns, bool useStreams)
{
    LowerOptions opts;
    opts.liveInValues = liveIns;
    opts.useStreams = useStreams;
    ThreadingDecision decision;
    decision.baseline = lower(prog, opts);
    const dfg::Graph &baseline = decision.baseline;

    decision.loopII.assign(static_cast<size_t>(baseline.numLoops), 0);
    for (int l = 0; l < baseline.numLoops; l++)
        decision.loopII[static_cast<size_t>(l)] =
            dfg::computeLoopII(baseline, l);

    for (int l : findThreadingCandidates(prog)) {
        if (l < baseline.numLoops &&
            decision.loopII[static_cast<size_t>(l)] > 1) {
            decision.threaded.insert(l);
        }
    }
    return decision;
}

} // namespace pipestitch::compiler

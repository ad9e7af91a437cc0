#include "sir/analysis.hh"

#include <algorithm>
#include <functional>

#include "base/logging.hh"

namespace pipestitch::sir {

namespace {

void
addUse(RegSet &set, Reg r)
{
    if (r != NoReg)
        set.insert(r);
}

void
collectDefsInto(const StmtList &list, RegSet &out)
{
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case Stmt::Kind::Const:
            out.insert(static_cast<const ConstStmt &>(*stmt).dst);
            break;
          case Stmt::Kind::Compute:
            out.insert(static_cast<const ComputeStmt &>(*stmt).dst);
            break;
          case Stmt::Kind::Load:
            out.insert(static_cast<const LoadStmt &>(*stmt).dst);
            break;
          case Stmt::Kind::Store:
            break;
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(*stmt);
            collectDefsInto(s.thenBody, out);
            collectDefsInto(s.elseBody, out);
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(*stmt);
            out.insert(s.var);
            collectDefsInto(s.body, out);
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(*stmt);
            collectDefsInto(s.header, out);
            collectDefsInto(s.body, out);
            break;
          }
        }
    }
}

void
collectUsesInto(const StmtList &list, RegSet &out)
{
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case Stmt::Kind::Const:
            break;
          case Stmt::Kind::Compute: {
            const auto &s = static_cast<const ComputeStmt &>(*stmt);
            addUse(out, s.a);
            addUse(out, s.b);
            if (s.op == Opcode::Select)
                addUse(out, s.c);
            break;
          }
          case Stmt::Kind::Load:
            addUse(out, static_cast<const LoadStmt &>(*stmt).addr);
            break;
          case Stmt::Kind::Store: {
            const auto &s = static_cast<const StoreStmt &>(*stmt);
            addUse(out, s.addr);
            addUse(out, s.value);
            break;
          }
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(*stmt);
            addUse(out, s.cond);
            collectUsesInto(s.thenBody, out);
            collectUsesInto(s.elseBody, out);
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(*stmt);
            addUse(out, s.begin);
            addUse(out, s.end);
            collectUsesInto(s.body, out);
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(*stmt);
            addUse(out, s.cond);
            collectUsesInto(s.header, out);
            collectUsesInto(s.body, out);
            break;
          }
        }
    }
}

/**
 * Walk @p list tracking definitely-assigned registers; any use of a
 * register not definitely assigned yet is upward-exposed. Returns the
 * set of registers definitely assigned by @p list.
 */
RegSet
exposedWalk(const StmtList &list, RegSet defined, RegSet &exposed)
{
    auto use = [&](Reg r) {
        if (r != NoReg && !defined.count(r))
            exposed.insert(r);
    };
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case Stmt::Kind::Const:
            defined.insert(static_cast<const ConstStmt &>(*stmt).dst);
            break;
          case Stmt::Kind::Compute: {
            const auto &s = static_cast<const ComputeStmt &>(*stmt);
            use(s.a);
            use(s.b);
            if (s.op == Opcode::Select)
                use(s.c);
            defined.insert(s.dst);
            break;
          }
          case Stmt::Kind::Load: {
            const auto &s = static_cast<const LoadStmt &>(*stmt);
            use(s.addr);
            defined.insert(s.dst);
            break;
          }
          case Stmt::Kind::Store: {
            const auto &s = static_cast<const StoreStmt &>(*stmt);
            use(s.addr);
            use(s.value);
            break;
          }
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(*stmt);
            use(s.cond);
            RegSet defThen = exposedWalk(s.thenBody, defined, exposed);
            RegSet defElse = exposedWalk(s.elseBody, defined, exposed);
            // Only both-sides definitions are definite.
            for (Reg r : defThen) {
                if (defElse.count(r))
                    defined.insert(r);
            }
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(*stmt);
            use(s.begin);
            use(s.end);
            RegSet inner = defined;
            inner.insert(s.var);
            // The body may execute zero times: its defs are maybe-defs
            // for code after the loop, and its internal uses of
            // loop-external values are exposed.
            exposedWalk(s.body, inner, exposed);
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(*stmt);
            RegSet inner =
                exposedWalk(s.header, defined, exposed);
            if (s.cond != NoReg && !inner.count(s.cond))
                exposed.insert(s.cond);
            exposedWalk(s.body, inner, exposed);
            // The header always runs at least once, so its definite
            // defs survive the loop.
            defined = std::move(inner);
            break;
          }
        }
    }
    return defined;
}

void
arraysInto(const StmtList &list, std::set<ArrayId> &loads,
           std::set<ArrayId> &stores)
{
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case Stmt::Kind::Load:
            loads.insert(static_cast<const LoadStmt &>(*stmt).array);
            break;
          case Stmt::Kind::Store:
            stores.insert(static_cast<const StoreStmt &>(*stmt).array);
            break;
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(*stmt);
            arraysInto(s.thenBody, loads, stores);
            arraysInto(s.elseBody, loads, stores);
            break;
          }
          case Stmt::Kind::For:
            arraysInto(static_cast<const ForStmt &>(*stmt).body, loads,
                       stores);
            break;
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(*stmt);
            arraysInto(s.header, loads, stores);
            arraysInto(s.body, loads, stores);
            break;
          }
          default:
            break;
        }
    }
}

} // namespace

RegSet
collectDefs(const StmtList &list)
{
    RegSet out;
    collectDefsInto(list, out);
    return out;
}

RegSet
collectUses(const StmtList &list)
{
    RegSet out;
    collectUsesInto(list, out);
    return out;
}

RegSet
upwardExposedUses(const StmtList &list)
{
    RegSet exposed;
    exposedWalk(list, RegSet{}, exposed);
    return exposed;
}

RegSet
upwardExposedUsesSeq(const std::vector<const StmtList *> &lists)
{
    RegSet exposed;
    RegSet defined;
    for (const StmtList *list : lists)
        defined = exposedWalk(*list, std::move(defined), exposed);
    return exposed;
}

std::set<ArrayId>
storedArrays(const StmtList &list)
{
    std::set<ArrayId> loads, stores;
    arraysInto(list, loads, stores);
    return stores;
}

std::set<ArrayId>
loadedArrays(const StmtList &list)
{
    std::set<ArrayId> loads, stores;
    arraysInto(list, loads, stores);
    return loads;
}

Liveness::Liveness(const Program &prog)
{
    size_t next = 0;
    walk(prog.body, next, RegSet{});
    std::sort(numbers.begin(), numbers.end());
}

const RegSet &
Liveness::liveAfter(const Stmt &stmt) const
{
    auto it = std::lower_bound(
        numbers.begin(), numbers.end(), &stmt,
        [](const auto &entry, const Stmt *s) {
            return std::less<const Stmt *>()(entry.first, s);
        });
    ps_assert(it != numbers.end() && it->first == &stmt,
              "liveness not computed for statement");
    return after[it->second];
}

RegSet
Liveness::walk(const StmtList &list, size_t &next, RegSet live)
{
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
        const Stmt &stmt = **it;
        // Record (union with any previous visit: loops walk bodies
        // multiple times for the carried-use fixpoint). Every visit
        // reaches the statements in the same order, so a statement's
        // number is the same on each.
        size_t number = next++;
        if (number == after.size()) {
            after.emplace_back();
            numbers.emplace_back(&stmt, number);
        }
        ps_assert(numbers[number].first == &stmt,
                  "liveness statement numbering diverged");
        RegSet &slot = after[number];
        slot.insert(live);
        live = slot;

        switch (stmt.kind()) {
          case Stmt::Kind::Const:
            live.erase(static_cast<const ConstStmt &>(stmt).dst);
            break;
          case Stmt::Kind::Compute: {
            const auto &s = static_cast<const ComputeStmt &>(stmt);
            live.erase(s.dst);
            addUse(live, s.a);
            addUse(live, s.b);
            if (s.op == Opcode::Select)
                addUse(live, s.c);
            break;
          }
          case Stmt::Kind::Load: {
            const auto &s = static_cast<const LoadStmt &>(stmt);
            live.erase(s.dst);
            addUse(live, s.addr);
            break;
          }
          case Stmt::Kind::Store: {
            const auto &s = static_cast<const StoreStmt &>(stmt);
            addUse(live, s.addr);
            addUse(live, s.value);
            break;
          }
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(stmt);
            RegSet t = walk(s.thenBody, next, live);
            RegSet e = walk(s.elseBody, next, live);
            live = std::move(t);
            live.insert(e);
            addUse(live, s.cond);
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(stmt);
            RegSet l = live;
            // Two passes reach the carried-use fixpoint for the sets
            // we track (uses only grow, and one iteration propagates
            // bottom-of-body uses to the top).
            const size_t body = next;
            for (int pass = 0; pass < 2; pass++) {
                next = body;
                RegSet in = walk(s.body, next, l);
                in.erase(s.var);
                l.insert(in);
            }
            live = std::move(l);
            addUse(live, s.begin);
            addUse(live, s.end);
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(stmt);
            RegSet l = live;
            const size_t body = next;
            for (int pass = 0; pass < 2; pass++) {
                next = body;
                RegSet in = walk(s.body, next, l);
                in.insert(l);
                addUse(in, s.cond);
                RegSet headIn = walk(s.header, next, in);
                l.insert(headIn);
            }
            live = std::move(l);
            break;
          }
        }
    }
    return live;
}

} // namespace pipestitch::sir

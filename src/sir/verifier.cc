#include "sir/verifier.hh"

#include <optional>

#include "base/logging.hh"
#include "sir/analysis.hh"

namespace pipestitch::sir {

namespace {

bool
inRange(Reg r, int numRegs)
{
    return r >= 0 && r < numRegs;
}

/** True if every register operand in @p list names a register of a
 *  program with @p numRegs registers. */
bool
regsInRange(const StmtList &list, int numRegs)
{
    auto ok = [numRegs](Reg r) { return inRange(r, numRegs); };
    for (const auto &stmt : list) {
        switch (stmt->kind()) {
          case Stmt::Kind::Const:
            if (!ok(static_cast<const ConstStmt &>(*stmt).dst))
                return false;
            break;
          case Stmt::Kind::Compute: {
            const auto &s = static_cast<const ComputeStmt &>(*stmt);
            if (!ok(s.dst) || !ok(s.a) || !ok(s.b) ||
                (s.op == Opcode::Select && !ok(s.c)))
                return false;
            break;
          }
          case Stmt::Kind::Load: {
            const auto &s = static_cast<const LoadStmt &>(*stmt);
            if (!ok(s.dst) || !ok(s.addr))
                return false;
            break;
          }
          case Stmt::Kind::Store: {
            const auto &s = static_cast<const StoreStmt &>(*stmt);
            if (!ok(s.addr) || !ok(s.value))
                return false;
            break;
          }
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(*stmt);
            if (!ok(s.cond) || !regsInRange(s.thenBody, numRegs) ||
                !regsInRange(s.elseBody, numRegs))
                return false;
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(*stmt);
            if (!ok(s.var) || !ok(s.begin) || !ok(s.end) ||
                !regsInRange(s.body, numRegs))
                return false;
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(*stmt);
            if (!ok(s.cond) || !regsInRange(s.header, numRegs) ||
                !regsInRange(s.body, numRegs))
                return false;
            break;
          }
        }
    }
    return true;
}

class Verifier
{
  public:
    explicit Verifier(const Program &prog) : prog(prog) {}

    std::vector<std::string>
    run()
    {
        for (Reg r : prog.liveIns)
            checkReg(r, "live-in");
        // The register-set analyses index registers densely, so they
        // only run once every register is known to be in range; a
        // program with a bad register gets the range problems alone.
        bool setsOk =
            problems.empty() && regsInRange(prog.body, prog.numRegs);
        if (setsOk)
            liveness.emplace(prog);

        checkList(prog.body);
        if (!setsOk)
            return std::move(problems);

        RegSet exposed = upwardExposedUses(prog.body);
        RegSet liveIns;
        for (Reg r : prog.liveIns)
            liveIns.insert(r);
        for (Reg r : exposed) {
            if (!liveIns.count(r)) {
                problem(csprintf(
                    "register %s may be read before assignment and is "
                    "not a live-in",
                    prog.regNames[static_cast<size_t>(r)].c_str()));
            }
        }
        return std::move(problems);
    }

  private:
    void
    problem(std::string msg)
    {
        problems.push_back(std::move(msg));
    }

    void
    checkReg(Reg r, const char *what)
    {
        if (!inRange(r, prog.numRegs)) {
            problem(csprintf("%s register %d out of range", what, r));
        }
    }

    void
    checkArray(ArrayId id)
    {
        if (id < 0 || static_cast<size_t>(id) >= prog.arrays.size()) {
            problem(csprintf(
                "array id %d out of range (memory statements must "
                "name a declared array)",
                id));
        }
    }

    void
    checkList(const StmtList &list)
    {
        for (const auto &stmt : list)
            checkStmt(*stmt);
    }

    void
    checkStmt(const Stmt &stmt)
    {
        switch (stmt.kind()) {
          case Stmt::Kind::Const:
            checkReg(static_cast<const ConstStmt &>(stmt).dst, "dest");
            break;
          case Stmt::Kind::Compute: {
            const auto &s = static_cast<const ComputeStmt &>(stmt);
            checkReg(s.dst, "dest");
            checkReg(s.a, "source");
            checkReg(s.b, "source");
            if (s.op == Opcode::Select)
                checkReg(s.c, "source");
            break;
          }
          case Stmt::Kind::Load: {
            const auto &s = static_cast<const LoadStmt &>(stmt);
            checkReg(s.dst, "dest");
            checkReg(s.addr, "address");
            checkArray(s.array);
            break;
          }
          case Stmt::Kind::Store: {
            const auto &s = static_cast<const StoreStmt &>(stmt);
            checkReg(s.addr, "address");
            checkReg(s.value, "value");
            checkArray(s.array);
            break;
          }
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(stmt);
            checkReg(s.cond, "condition");
            checkList(s.thenBody);
            checkList(s.elseBody);
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(stmt);
            checkReg(s.var, "induction");
            checkReg(s.begin, "begin");
            checkReg(s.end, "end");
            if (s.step <= 0)
                problem("For loop step must be positive");
            if (!liveness) {
                checkList(s.body);
                break;
            }
            RegSet bodyDefs = collectDefs(s.body);
            if (bodyDefs.count(s.var)) {
                problem(csprintf(
                    "induction variable %s assigned in loop body",
                    prog.regNames[static_cast<size_t>(s.var)].c_str()));
            }
            // The bound is evaluated once at entry; reassigning it
            // inside would mean different things to the sequential
            // and dataflow semantics.
            if (bodyDefs.count(s.end)) {
                problem(csprintf(
                    "loop bound %s assigned in loop body",
                    prog.regNames[static_cast<size_t>(s.end)]
                        .c_str()));
            }
            // The induction variable has no defined value after the
            // loop (the dataflow lowering produces no exit token
            // for it).
            if (liveness->liveAfter(s).count(s.var)) {
                problem(csprintf(
                    "induction variable %s read after its loop",
                    prog.regNames[static_cast<size_t>(s.var)]
                        .c_str()));
            }
            checkList(s.body);
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(stmt);
            checkReg(s.cond, "condition");
            if (!liveness) {
                checkList(s.header);
                checkList(s.body);
                break;
            }
            RegSet defs = collectDefs(s.header);
            defs.insert(collectDefs(s.body));
            // Carried state: some register flows across the iteration
            // boundary, i.e. is read before being (re)assigned and is
            // also assigned somewhere in the loop.
            RegSet exposed = upwardExposedUses(s.header);
            exposed.insert(upwardExposedUses(s.body));
            bool carried = false;
            for (Reg r : exposed) {
                if (defs.count(r))
                    carried = true;
            }
            if (!carried) {
                problem("While loop has no carried state; it could "
                        "never terminate");
            }
            checkList(s.header);
            checkList(s.body);
            break;
          }
        }
    }

    const Program &prog;
    /** Engaged when every register is in range. */
    std::optional<Liveness> liveness;
    std::vector<std::string> problems;
};

} // namespace

std::vector<std::string>
verify(const Program &prog)
{
    return Verifier(prog).run();
}

void
verifyOrDie(const Program &prog)
{
    auto problems = verify(prog);
    if (!problems.empty()) {
        fatal("SIR program '%s' invalid: %s", prog.name.c_str(),
              problems.front().c_str());
    }
}

} // namespace pipestitch::sir

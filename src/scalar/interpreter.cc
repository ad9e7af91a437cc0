#include "scalar/interpreter.hh"

#include "base/logging.hh"

namespace pipestitch::scalar {

using namespace sir;

EventCounts &
EventCounts::operator+=(const EventCounts &other)
{
    alu += other.alu;
    mul += other.mul;
    load += other.load;
    store += other.store;
    branch += other.branch;
    moves += other.moves;
    return *this;
}

namespace {

class Interp
{
  public:
    Interp(const Program &prog, MemImage &mem, int64_t maxSteps)
        : prog(prog), mem(mem), maxSteps(maxSteps),
          regs(static_cast<size_t>(prog.numRegs), 0)
    {}

    RunResult
    run(const std::vector<Word> &liveIns)
    {
        ps_assert(liveIns.size() == prog.liveIns.size(),
                  "program %s expects %zu live-ins, got %zu",
                  prog.name.c_str(), prog.liveIns.size(),
                  liveIns.size());
        for (size_t i = 0; i < liveIns.size(); i++)
            regs[static_cast<size_t>(prog.liveIns[i])] = liveIns[i];
        execList(prog.body);
        return {counts};
    }

  private:
    Word
    get(Reg r) const
    {
        return regs[static_cast<size_t>(r)];
    }

    void
    set(Reg r, Word v)
    {
        regs[static_cast<size_t>(r)] = v;
    }

    void
    step()
    {
        if (++steps > maxSteps) {
            fatal("program %s exceeded %lld interpreter steps "
                  "(non-terminating kernel?)",
                  prog.name.c_str(),
                  static_cast<long long>(maxSteps));
        }
    }

    Word
    memAt(Reg addrReg, Word offset) const
    {
        int64_t addr = int64_t{get(addrReg)} + offset;
        // A user-input error (say, a trip count past the arrays),
        // not a broken invariant.
        if (addr < 0 || addr >= static_cast<int64_t>(mem.size())) {
            fatal("program %s: address %lld out of bounds (%zu words)",
                  prog.name.c_str(), static_cast<long long>(addr),
                  mem.size());
        }
        return static_cast<Word>(addr);
    }

    void
    execList(const StmtList &list)
    {
        for (const auto &stmt : list)
            execStmt(*stmt);
    }

    void
    execStmt(const Stmt &stmt)
    {
        step();
        switch (stmt.kind()) {
          case Stmt::Kind::Const: {
            const auto &s = static_cast<const ConstStmt &>(stmt);
            set(s.dst, s.value);
            counts.moves++;
            break;
          }
          case Stmt::Kind::Compute: {
            const auto &s = static_cast<const ComputeStmt &>(stmt);
            Word c = s.op == Opcode::Select ? get(s.c) : 0;
            set(s.dst, evalOpcode(s.op, get(s.a), get(s.b), c));
            if (isMultiplierOp(s.op)) {
                counts.mul++;
            } else if (s.op == Opcode::Select) {
                // cmov-less ISA: branchy select ≈ branch + move.
                counts.branch++;
                counts.moves++;
            } else {
                counts.alu++;
            }
            break;
          }
          case Stmt::Kind::Load: {
            const auto &s = static_cast<const LoadStmt &>(stmt);
            set(s.dst,
                mem[static_cast<size_t>(memAt(s.addr, s.offset))]);
            counts.load++;
            break;
          }
          case Stmt::Kind::Store: {
            const auto &s = static_cast<const StoreStmt &>(stmt);
            mem[static_cast<size_t>(memAt(s.addr, s.offset))] =
                get(s.value);
            counts.store++;
            break;
          }
          case Stmt::Kind::If: {
            const auto &s = static_cast<const IfStmt &>(stmt);
            counts.branch++;
            if (get(s.cond))
                execList(s.thenBody);
            else
                execList(s.elseBody);
            break;
          }
          case Stmt::Kind::For: {
            const auto &s = static_cast<const ForStmt &>(stmt);
            counts.moves++; // induction init
            Word end = get(s.end);
            for (Word i = get(s.begin); i < end; i += s.step) {
                step();
                set(s.var, i);
                execList(s.body);
                counts.alu++;    // increment
                counts.branch++; // compare-and-branch
            }
            counts.branch++; // final (failing) check
            break;
          }
          case Stmt::Kind::While: {
            const auto &s = static_cast<const WhileStmt &>(stmt);
            for (;;) {
                step();
                execList(s.header);
                counts.branch++;
                if (!get(s.cond))
                    break;
                execList(s.body);
            }
            break;
          }
        }
    }

    const Program &prog;
    MemImage &mem;
    int64_t maxSteps;
    int64_t steps = 0;
    std::vector<Word> regs;
    EventCounts counts;
};

} // namespace

RunResult
interpret(const Program &prog, MemImage &mem,
          const std::vector<Word> &liveIns, int64_t maxSteps)
{
    ps_assert(static_cast<int64_t>(mem.size()) >= prog.memWords,
              "memory image too small for program %s",
              prog.name.c_str());
    return Interp(prog, mem, maxSteps).run(liveIns);
}

MemImage
makeMemory(const Program &prog)
{
    return MemImage(static_cast<size_t>(prog.memWords), 0);
}

} // namespace pipestitch::scalar

#include "sir/program.hh"

#include "base/hash.hh"
#include "base/logging.hh"

namespace pipestitch::sir {

int
numOperands(Opcode op)
{
    return op == Opcode::Select ? 3 : 2;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Lt: return "lt";
      case Opcode::Le: return "le";
      case Opcode::Gt: return "gt";
      case Opcode::Ge: return "ge";
      case Opcode::Eq: return "eq";
      case Opcode::Ne: return "ne";
      case Opcode::Min: return "min";
      case Opcode::Max: return "max";
      case Opcode::Select: return "select";
    }
    return "?";
}

bool
isMultiplierOp(Opcode op)
{
    return op == Opcode::Mul || op == Opcode::Div || op == Opcode::Rem;
}

Word
evalOpcode(Opcode op, Word a, Word b, Word c)
{
    auto wrap = [](int64_t v) {
        return static_cast<Word>(static_cast<uint64_t>(v));
    };
    switch (op) {
      case Opcode::Add: return wrap(int64_t{a} + b);
      case Opcode::Sub: return wrap(int64_t{a} - b);
      case Opcode::Mul: return wrap(int64_t{a} * b);
      case Opcode::Div:
        ps_assert(b != 0, "division by zero");
        return wrap(int64_t{a} / b);
      case Opcode::Rem:
        ps_assert(b != 0, "remainder by zero");
        return wrap(int64_t{a} % b);
      case Opcode::Shl: return wrap(int64_t{a} << (b & 31));
      case Opcode::Shr: return a >> (b & 31);
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Lt: return a < b;
      case Opcode::Le: return a <= b;
      case Opcode::Gt: return a > b;
      case Opcode::Ge: return a >= b;
      case Opcode::Eq: return a == b;
      case Opcode::Ne: return a != b;
      case Opcode::Min: return a < b ? a : b;
      case Opcode::Max: return a > b ? a : b;
      case Opcode::Select: return a ? b : c;
    }
    panic("unknown opcode");
}

const Array &
Program::array(ArrayId id) const
{
    ps_assert(id >= 0 && static_cast<size_t>(id) < arrays.size(),
              "bad array id %d", id);
    return arrays[static_cast<size_t>(id)];
}

namespace {

StmtPtr
cloneStmt(const Stmt &stmt)
{
    switch (stmt.kind()) {
      case Stmt::Kind::Const: {
        const auto &s = static_cast<const ConstStmt &>(stmt);
        return std::make_unique<ConstStmt>(s.dst, s.value);
      }
      case Stmt::Kind::Compute: {
        const auto &s = static_cast<const ComputeStmt &>(stmt);
        return std::make_unique<ComputeStmt>(s.op, s.dst, s.a, s.b, s.c);
      }
      case Stmt::Kind::Load: {
        const auto &s = static_cast<const LoadStmt &>(stmt);
        return std::make_unique<LoadStmt>(s.dst, s.addr, s.array,
                                          s.offset);
      }
      case Stmt::Kind::Store: {
        const auto &s = static_cast<const StoreStmt &>(stmt);
        return std::make_unique<StoreStmt>(s.addr, s.value,
                                           s.array, s.offset);
      }
      case Stmt::Kind::If: {
        const auto &s = static_cast<const IfStmt &>(stmt);
        auto copy = std::make_unique<IfStmt>(s.cond);
        copy->thenBody = cloneStmts(s.thenBody);
        copy->elseBody = cloneStmts(s.elseBody);
        return copy;
      }
      case Stmt::Kind::For: {
        const auto &s = static_cast<const ForStmt &>(stmt);
        auto copy = std::make_unique<ForStmt>(s.var, s.begin, s.end,
                                              s.step, s.isForeach);
        copy->body = cloneStmts(s.body);
        return copy;
      }
      case Stmt::Kind::While: {
        const auto &s = static_cast<const WhileStmt &>(stmt);
        auto copy = std::make_unique<WhileStmt>(s.cond);
        copy->header = cloneStmts(s.header);
        copy->body = cloneStmts(s.body);
        return copy;
      }
    }
    panic("unknown statement kind");
}

} // namespace

StmtList
cloneStmts(const StmtList &stmts)
{
    StmtList out;
    out.reserve(stmts.size());
    for (const auto &s : stmts)
        out.push_back(cloneStmt(*s));
    return out;
}

Program
cloneProgram(const Program &prog)
{
    Program out(prog.name);
    out.numRegs = prog.numRegs;
    out.arrays = prog.arrays;
    out.regNames = prog.regNames;
    out.liveIns = prog.liveIns;
    out.body = cloneStmts(prog.body);
    out.memWords = prog.memWords;
    return out;
}

namespace {

void hashStmts(Hasher &h, const StmtList &stmts);

void
hashStmt(Hasher &h, const Stmt &stmt)
{
    h.i32(static_cast<int32_t>(stmt.kind()));
    switch (stmt.kind()) {
      case Stmt::Kind::Const: {
        const auto &s = static_cast<const ConstStmt &>(stmt);
        h.i32(s.dst).i32(s.value);
        return;
      }
      case Stmt::Kind::Compute: {
        const auto &s = static_cast<const ComputeStmt &>(stmt);
        h.i32(static_cast<int32_t>(s.op))
            .i32(s.dst)
            .i32(s.a)
            .i32(s.b)
            .i32(s.c);
        return;
      }
      case Stmt::Kind::Load: {
        const auto &s = static_cast<const LoadStmt &>(stmt);
        h.i32(s.dst).i32(s.addr).i32(s.array).i32(s.offset);
        return;
      }
      case Stmt::Kind::Store: {
        const auto &s = static_cast<const StoreStmt &>(stmt);
        h.i32(s.addr).i32(s.value).i32(s.array).i32(s.offset);
        return;
      }
      case Stmt::Kind::If: {
        const auto &s = static_cast<const IfStmt &>(stmt);
        h.i32(s.cond);
        hashStmts(h, s.thenBody);
        hashStmts(h, s.elseBody);
        return;
      }
      case Stmt::Kind::For: {
        const auto &s = static_cast<const ForStmt &>(stmt);
        h.i32(s.var)
            .i32(s.begin)
            .i32(s.end)
            .i32(s.step)
            .b(s.isForeach);
        hashStmts(h, s.body);
        return;
      }
      case Stmt::Kind::While: {
        const auto &s = static_cast<const WhileStmt &>(stmt);
        hashStmts(h, s.header);
        h.i32(s.cond);
        hashStmts(h, s.body);
        return;
      }
    }
    panic("unknown statement kind");
}

/** Length-prefixed, so nesting is part of the hash. */
void
hashStmts(Hasher &h, const StmtList &stmts)
{
    h.u64(stmts.size());
    for (const auto &s : stmts)
        hashStmt(h, *s);
}

} // namespace

uint64_t
fingerprint(const Program &prog)
{
    Hasher h;
    h.str(prog.name).i32(prog.numRegs).i64(prog.memWords);
    h.u64(prog.arrays.size());
    for (const Array &a : prog.arrays)
        h.str(a.name).i64(a.base).i64(a.words);
    h.u64(prog.regNames.size());
    for (const std::string &name : prog.regNames)
        h.str(name);
    h.vec(prog.liveIns);
    hashStmts(h, prog.body);
    return h.digest();
}

} // namespace pipestitch::sir

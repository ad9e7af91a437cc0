/**
 * @file
 * Structured IR (SIR): the compiler's input representation.
 *
 * SIR models the subset of C that RipTide/Pipestitch kernels are
 * written in: straight-line three-address computation over mutable
 * virtual registers, word-addressed loads/stores into declared
 * arrays, structured control flow (if / for / while), and the
 * `foreach` annotation marking outer loops whose iterations are
 * independent (the Pipestitch programming model, paper Sec. 4.1).
 *
 * The scalar interpreter executes SIR directly (golden model and
 * scalar baseline); the dataflow compiler lowers SIR to a DFG.
 */

#ifndef PIPESTITCH_SIR_PROGRAM_HH
#define PIPESTITCH_SIR_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pipestitch::sir {

/** Mutable virtual register id. */
using Reg = int32_t;

/** Sentinel for "no register". */
constexpr Reg NoReg = -1;

/** Array handle within a Program's memory image. */
using ArrayId = int32_t;

/**
 * Sentinel array id. Memory statements must name a declared array
 * (the alias classification that drives memory ordering depends on
 * it); the verifier rejects AnyArray accesses.
 */
constexpr ArrayId AnyArray = -1;

/** Word-level value type carried by registers and memory. */
using Word = int32_t;

/** Three-address operation codes. Comparisons produce 0/1. */
enum class Opcode {
    Add, Sub, Mul, Div, Rem,
    Shl, Shr,
    And, Or, Xor,
    Lt, Le, Gt, Ge, Eq, Ne,
    Min, Max,
    Select, // dst = a ? b : c
};

/** Number of source operands an opcode consumes (2 or 3). */
int numOperands(Opcode op);

/** Mnemonic for printing. */
const char *opcodeName(Opcode op);

/** True for Mul/Div/Rem, which map to multiplier PEs. */
bool isMultiplierOp(Opcode op);

/** Evaluate @p op on operand values (Select takes all three). */
Word evalOpcode(Opcode op, Word a, Word b, Word c);

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/** Base class for all SIR statements. */
class Stmt
{
  public:
    enum class Kind { Const, Compute, Load, Store, If, For, While };

    virtual ~Stmt() = default;

    Kind kind() const { return _kind; }

  protected:
    explicit Stmt(Kind kind) : _kind(kind) {}

  private:
    Kind _kind;
};

/** dst = immediate. */
class ConstStmt : public Stmt
{
  public:
    ConstStmt(Reg dst, Word value)
        : Stmt(Kind::Const), dst(dst), value(value)
    {}

    Reg dst;
    Word value;
};

/** dst = op(a, b[, c]). */
class ComputeStmt : public Stmt
{
  public:
    ComputeStmt(Opcode op, Reg dst, Reg a, Reg b, Reg c = NoReg)
        : Stmt(Kind::Compute), op(op), dst(dst), a(a), b(b), c(c)
    {}

    Opcode op;
    Reg dst;
    Reg a;
    Reg b;
    Reg c; // only used by Select
};

/**
 * dst = mem[addr + offset]. The constant offset models base+index
 * addressing: memory PEs (like RISC loads) take the array base as
 * configuration, so no ALU op is spent on it.
 */
class LoadStmt : public Stmt
{
  public:
    LoadStmt(Reg dst, Reg addr, ArrayId array, Word offset = 0)
        : Stmt(Kind::Load), dst(dst), addr(addr), array(array),
          offset(offset)
    {}

    Reg dst;
    Reg addr;
    ArrayId array; // for alias-based memory ordering
    Word offset;
};

/** mem[addr + offset] = value. */
class StoreStmt : public Stmt
{
  public:
    StoreStmt(Reg addr, Reg value, ArrayId array, Word offset = 0)
        : Stmt(Kind::Store), addr(addr), value(value), array(array),
          offset(offset)
    {}

    Reg addr;
    Reg value;
    ArrayId array;
    Word offset;
};

/** if (cond) thenBody else elseBody. */
class IfStmt : public Stmt
{
  public:
    explicit IfStmt(Reg cond) : Stmt(Kind::If), cond(cond) {}

    Reg cond;
    StmtList thenBody;
    StmtList elseBody;
};

/**
 * Counted loop: for (var = begin; var < end; var += step) body.
 *
 * @p begin and @p end are registers evaluated once at loop entry;
 * @p step is a compile-time constant (> 0). The body must not assign
 * @p var. `isForeach` marks the loop's iterations as independent.
 */
class ForStmt : public Stmt
{
  public:
    ForStmt(Reg var, Reg begin, Reg end, Word step, bool isForeach)
        : Stmt(Kind::For), var(var), begin(begin), end(end), step(step),
          isForeach(isForeach)
    {}

    Reg var;
    Reg begin;
    Reg end;
    Word step;
    bool isForeach;
    StmtList body;
};

/**
 * Irregular loop: loop { header; if (!cond) break; body; }.
 *
 * The header recomputes @p cond from current register state each
 * iteration, so data-dependent exit conditions (e.g. pointer chasing)
 * are expressible.
 */
class WhileStmt : public Stmt
{
  public:
    explicit WhileStmt(Reg cond) : Stmt(Kind::While), cond(cond) {}

    StmtList header;
    Reg cond;
    StmtList body;
};

/** A named region of the word-addressed memory image. */
struct Array
{
    std::string name;
    int64_t base;  // first word
    int64_t words; // length
};

/**
 * A complete kernel: register file size, memory layout, live-in
 * registers (kernel parameters set before execution), and a body.
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name(std::move(name)) {}

    std::string name;
    int numRegs = 0;
    std::vector<Array> arrays;
    std::vector<std::string> regNames;
    std::vector<Reg> liveIns;
    StmtList body;
    int64_t memWords = 0;

    const Array &array(ArrayId id) const;
};

/** Deep-copy a statement list (used by compilation variants). */
StmtList cloneStmts(const StmtList &stmts);

/** Deep-copy a whole program: every field, body included. */
Program cloneProgram(const Program &prog);

/**
 * Structural content hash of @p prog: name, register file, memory
 * layout, register names, live-ins and every statement field
 * (Load/Store offsets included). Two programs with the same
 * fingerprint compile, interpret and simulate alike; the memo cache
 * keys kernels on it.
 */
uint64_t fingerprint(const Program &prog);

} // namespace pipestitch::sir

#endif // PIPESTITCH_SIR_PROGRAM_HH

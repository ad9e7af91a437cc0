#include "compiler/unroll.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace pipestitch::compiler {

using namespace sir;

bool
checkUnrollFactor(int factor, const fabric::Topology &topo,
                  std::string &error)
{
    // Saturated at INT_MAX, which no int factor exceeds, so that no
    // product of request-sized dimensions overflows.
    constexpr int64_t kMax = std::numeric_limits<int>::max();
    int64_t pes = int64_t{topo.tile.width} * topo.tile.height;
    for (int64_t tiles : {topo.tilesX, topo.tilesY})
        pes = std::min(kMax, pes * tiles);
    if (factor >= 1 && factor <= pes && (factor & (factor - 1)) == 0)
        return true;
    error = csprintf("unroll %d: expected a power of two in [1, %lld], "
                     "the fabric's PE count",
                     factor, static_cast<long long>(pes));
    return false;
}

namespace {

class Unroller
{
  public:
    Unroller(Program &prog, int factor) : prog(prog), factor(factor)
    {
        ps_assert(factor >= 2 && (factor & (factor - 1)) == 0,
                  "unroll factor must be a power of two >= 2");
        while ((1 << lg) < factor)
            lg++;
    }

    void
    run()
    {
        walk(prog.body);
    }

  private:
    Reg
    newReg(const std::string &name)
    {
        Reg r = prog.numRegs++;
        prog.regNames.push_back(name);
        return r;
    }

    static StmtPtr
    compute(Opcode op, Reg dst, Reg a, Reg b)
    {
        return std::make_unique<ComputeStmt>(op, dst, a, b);
    }

    void
    walk(StmtList &list)
    {
        for (size_t s = 0; s < list.size(); s++) {
            Stmt &stmt = *list[s];
            switch (stmt.kind()) {
              case Stmt::Kind::If: {
                auto &i = static_cast<IfStmt &>(stmt);
                walk(i.thenBody);
                walk(i.elseBody);
                break;
              }
              case Stmt::Kind::While: {
                auto &w = static_cast<WhileStmt &>(stmt);
                walk(w.header);
                walk(w.body);
                break;
              }
              case Stmt::Kind::For: {
                auto &f = static_cast<ForStmt &>(stmt);
                if (f.isForeach && f.step == 1) {
                    // Replace list[s] with preamble + chunked loop.
                    StmtList replacement = rewrite(f);
                    list.erase(list.begin() +
                               static_cast<ptrdiff_t>(s));
                    for (size_t r = 0; r < replacement.size(); r++) {
                        list.insert(
                            list.begin() + static_cast<ptrdiff_t>(
                                               s + r),
                            std::move(replacement[r]));
                    }
                    s += replacement.size() - 1;
                } else {
                    walk(f.body);
                }
                break;
              }
              default:
                break;
            }
        }
    }

    /**
     * foreach i = begin..end  ⇒
     *   total  = end - begin
     *   chunks = (total + U-1) >> lg
     *   foreach c = 0..chunks:
     *     lane u in [0, U):            (statically unrolled)
     *       i_u = begin + (c << lg) + u
     *       if (i_u < end): { i = i_u; <body copy u> }
     *
     * Each body copy's loops are distinct statements, so the
     * threading pass assigns each lane its own dispatch group —
     * the "dispatch gates synchronize across multiple instances"
     * design of Sec. 6.
     */
    StmtList
    rewrite(ForStmt &loop)
    {
        StmtList out;
        Reg total = newReg("unroll_total");
        Reg bias = newReg("unroll_bias");
        Reg rounded = newReg("unroll_rounded");
        Reg shift = newReg("unroll_shift");
        Reg chunks = newReg("unroll_chunks");
        Reg zero = newReg("unroll_zero");
        out.push_back(
            compute(Opcode::Sub, total, loop.end, loop.begin));
        out.push_back(std::make_unique<ConstStmt>(bias, factor - 1));
        out.push_back(compute(Opcode::Add, rounded, total, bias));
        out.push_back(std::make_unique<ConstStmt>(shift, lg));
        out.push_back(
            compute(Opcode::Shr, chunks, rounded, shift));
        out.push_back(std::make_unique<ConstStmt>(zero, 0));

        Reg chunkVar = newReg("unroll_chunk");
        auto outer = std::make_unique<ForStmt>(
            chunkVar, zero, chunks, 1, /*isForeach=*/true);

        for (int u = 0; u < factor; u++) {
            Reg scaled = newReg(csprintf("unroll_scaled%d", u));
            Reg offset = newReg(csprintf("unroll_off%d", u));
            Reg uReg = newReg(csprintf("unroll_u%d", u));
            Reg idx = newReg(csprintf("unroll_i%d", u));
            Reg ok = newReg(csprintf("unroll_ok%d", u));
            outer->body.push_back(
                compute(Opcode::Shl, scaled, chunkVar, shift));
            outer->body.push_back(
                std::make_unique<ConstStmt>(uReg, u));
            outer->body.push_back(
                compute(Opcode::Add, offset, scaled, uReg));
            outer->body.push_back(
                compute(Opcode::Add, idx, loop.begin, offset));
            outer->body.push_back(
                compute(Opcode::Lt, ok, idx, loop.end));

            auto guard = std::make_unique<IfStmt>(ok);
            // The cloned body reads the original induction
            // register; bind it to this lane's index first.
            guard->thenBody.push_back(
                compute(Opcode::Add, loop.var, idx, zero));
            StmtList copy = cloneStmts(loop.body);
            for (auto &stmtPtr : copy)
                guard->thenBody.push_back(std::move(stmtPtr));
            outer->body.push_back(std::move(guard));
        }

        out.push_back(std::move(outer));
        return out;
    }

    Program &prog;
    int factor;
    int lg = 0;
};

} // namespace

Program
unrollForeachLoops(const Program &prog, int factor)
{
    Program copy(prog.name + csprintf("_u%d", factor));
    copy.numRegs = prog.numRegs;
    copy.arrays = prog.arrays;
    copy.regNames = prog.regNames;
    copy.liveIns = prog.liveIns;
    copy.memWords = prog.memWords;
    copy.body = cloneStmts(prog.body);

    if (factor <= 1)
        return copy;

    Unroller unroller(copy, factor);
    unroller.run();
    return copy;
}

} // namespace pipestitch::compiler

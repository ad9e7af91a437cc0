/**
 * @file
 * The fuzz corpus: a seeded random structured-program generator and
 * the inputs every generated program runs with. Shared by
 * tests/test_fuzz_equivalence.cc and the fuzz-program lines of
 * tests/golden_stats.txt, so changing the generator changes both.
 */

#ifndef PIPESTITCH_TESTS_FUZZ_PROGRAM_HH
#define PIPESTITCH_TESTS_FUZZ_PROGRAM_HH

#include <vector>

#include "base/random.hh"
#include "scalar/interpreter.hh"
#include "sir/builder.hh"

namespace pipestitch::fuzz {

using sir::Builder;
using sir::Opcode;
using sir::Reg;

/** Random structured program generator. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed)
        : rng(seed), b("fuzz_" + std::to_string(seed))
    {}

    sir::Program
    generate()
    {
        in = b.array("in", 16);
        out = b.array("out", 16);
        shared = b.array("shared", 8); // read-write: order tokens
        Reg n = b.liveIn("n");

        // A few seed values (n stays read-only).
        fresh(b.let(1));
        fresh(b.let(7));
        fresh(b.let(-3));
        regs.push_back(n);

        genBlock(0, 10);

        // One foreach region: independent per-i work on out[i].
        if (rng.nextBool(0.8)) {
            b.forEach0(n, [&](Reg i) { genForeachBody(i); });
        }
        genBlock(0, 4);
        return b.finish();
    }

  private:
    Reg
    pick()
    {
        return regs[static_cast<size_t>(
            rng.nextBounded(regs.size()))];
    }

    /** Registers legal as computeInto destinations (loop induction
     *  variables and live-ins are read-only). */
    Reg
    pickWritable()
    {
        return writable[static_cast<size_t>(
            rng.nextBounded(writable.size()))];
    }

    Reg
    fresh(Reg r)
    {
        regs.push_back(r);
        writable.push_back(r);
        return r;
    }

    Opcode
    pickOp()
    {
        static const Opcode ops[] = {
            Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Shl,
            Opcode::Shr, Opcode::And, Opcode::Or,  Opcode::Xor,
            Opcode::Lt,  Opcode::Le,  Opcode::Gt,  Opcode::Ge,
            Opcode::Eq,  Opcode::Ne,  Opcode::Min, Opcode::Max};
        return ops[rng.nextBounded(std::size(ops))];
    }

    /** Shift amounts must stay sane; mask operands for Shl/Shr. */
    Reg
    binary(Opcode op, Reg a, Reg c)
    {
        if (op == Opcode::Shl || op == Opcode::Shr)
            c = b.band(c, b.let(7));
        Reg r = b.reg();
        b.computeInto(r, op, a, c);
        return r;
    }

    void
    genStmt(int depth, int &budget)
    {
        budget--;
        switch (rng.nextBounded(depth >= 2 ? 6 : 8)) {
          case 0:
          case 1: // compute into fresh or existing register
            if (rng.nextBool(0.3) && !writable.empty()) {
                b.computeInto(pickWritable(), pickOp(), pick(),
                              pick());
            } else {
                fresh(binary(pickOp(), pick(), pick()));
            }
            break;
          case 2: { // load (in or shared)
            Reg idx = b.band(pick(), b.let(7));
            fresh(b.loadIdx(rng.nextBool(0.5) ? in : shared, idx));
            break;
          }
          case 3: { // store (out or shared)
            Reg idx = b.band(pick(), b.let(7));
            b.storeIdx(rng.nextBool(0.5) ? out : shared, idx,
                       pick());
            break;
          }
          case 4: { // if
            Reg cond = b.lt(pick(), pick());
            // Registers born inside a branch are only
            // maybe-assigned afterwards; scope them away.
            std::vector<Reg> saved = regs;
            std::vector<Reg> savedW = writable;
            auto scoped = [&] {
                genBlock(depth + 1, 3);
                regs = saved;
                writable = savedW;
            };
            if (rng.nextBool(0.5)) {
                b.ifThen(cond, scoped);
            } else {
                b.ifThenElse(cond, scoped, scoped);
            }
            regs = saved;
            writable = savedW;
            break;
          }
          case 5: { // select
            fresh(b.select(pick(), pick(), pick()));
            break;
          }
          case 6: { // bounded for, occasionally strided
            sir::Word step = rng.nextBool(0.3)
                                 ? static_cast<sir::Word>(
                                       2 + rng.nextBounded(3))
                                 : 1;
            Reg begin = b.let(static_cast<sir::Word>(
                rng.nextBounded(3)));
            Reg end = b.let(static_cast<sir::Word>(
                1 + rng.nextBounded(9)));
            std::vector<Reg> saved = regs;
            std::vector<Reg> savedW = writable;
            b.forLoop(begin, end, step,
                      [&](Reg i) {
                          regs.push_back(i); // read-only
                          genBlock(depth + 1, 4);
                      });
            regs = saved;
            writable = savedW;
            break;
          }
          case 7: { // bounded while with carried counter
            Reg cnt = b.reg("cnt");
            b.assignConst(cnt, 0);
            sir::Word bound = static_cast<sir::Word>(
                1 + rng.nextBounded(4));
            std::vector<Reg> saved = regs;
            std::vector<Reg> savedW = writable;
            b.whileLoop(
                [&] { return b.lti(cnt, bound); },
                [&] {
                    genBlock(depth + 1, 3);
                    b.computeInto(cnt, Opcode::Add, cnt, b.let(1));
                });
            regs = saved;
            writable = savedW;
            break;
          }
        }
    }

    void
    genBlock(int depth, int budget)
    {
        int count = 1 + static_cast<int>(rng.nextBounded(
                            static_cast<uint64_t>(budget)));
        for (int i = 0; i < count && budget > 0; i++)
            genStmt(depth, budget);
    }

    /**
     * foreach bodies must be independent across iterations: read
     * the read-only input, keep state in registers, write only
     * out[i].
     */
    void
    genForeachBody(Reg i)
    {
        std::vector<Reg> saved = regs;
        std::vector<Reg> savedW = writable;
        Reg v = b.loadIdx(in, b.band(i, b.let(15)));
        regs.push_back(v);
        regs.push_back(i);

        Reg acc = b.reg("acc");
        b.assignConst(acc, 0);
        // Data-dependent inner loop (countdown on |v| & 15).
        Reg w = b.band(v, b.let(15));
        b.whileLoop(
            [&] { return b.gti(w, 0); },
            [&] {
                regs.push_back(acc);
                b.computeInto(acc, Opcode::Add, acc,
                              binary(pickOp(), pick(), pick()));
                regs.pop_back();
                b.computeInto(w, Opcode::Sub, w, b.let(1));
            });
        b.ifThen(b.band(v, b.let(1)), [&] {
            b.computeInto(acc, Opcode::Xor, acc, b.let(0x5a));
        });
        b.storeIdx(out, i, acc);
        regs = saved;
        writable = savedW;
    }

    Rng rng;
    Builder b;
    sir::ArrayId in{}, out{}, shared{};
    std::vector<Reg> regs;     ///< readable pool
    std::vector<Reg> writable; ///< assignable subset
};

/** Live-in binding of every generated program (n). */
inline const std::vector<sir::Word> kLiveIns = {12};

/** The seeded input image: in[] random in [-50, 50], the rest 0. */
inline scalar::MemImage
inputMemory(uint64_t seed, const sir::Program &prog)
{
    Rng dataRng(seed * 977 + 13);
    scalar::MemImage init(static_cast<size_t>(prog.memWords), 0);
    for (size_t i = 0; i < 16; i++)
        init[i] = static_cast<sir::Word>(dataRng.nextRange(-50, 50));
    return init;
}

} // namespace pipestitch::fuzz

#endif // PIPESTITCH_TESTS_FUZZ_PROGRAM_HH

#include "workloads/kernels.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sir/builder.hh"

namespace pipestitch::workloads {

using sir::Builder;
using sir::Opcode;
using sir::Reg;

namespace {

int
log2of(int n)
{
    int l = 0;
    while ((1 << l) < n)
        l++;
    ps_assert((1 << l) == n, "%d is not a power of two", n);
    return l;
}

/** Copy a vector into the memory image at the array's base. */
void
blit(scalar::MemImage &mem, int64_t base,
     const std::vector<Word> &data)
{
    for (size_t i = 0; i < data.size(); i++)
        mem[static_cast<size_t>(base) + i] = data[i];
}

/** Emit the two-pointer sparse dot-product loop (shared by
 *  SpMSpVd, SpMSpMd and the DNN layers). Returns the accumulator. */
Reg
emitMergeDot(Builder &b, Reg ka0, Reg kaEnd, Reg kb0, Reg kbEnd,
             sir::ArrayId aCol, sir::ArrayId aVal,
             sir::ArrayId bCol, sir::ArrayId bVal)
{
    // If-converted two-pointer intersection: pointer advances and
    // the accumulation are predicated with selects rather than
    // branches, the form RipTide-class compilers emit to keep
    // control-flow operator counts within the fabric's CF budget.
    // The carried dependence through the column loads keeps the
    // inner II well above 1, so the loop still threads.
    Reg ka = b.reg("ka");
    b.assign(ka, ka0);
    Reg kb = b.reg("kb");
    b.assign(kb, kb0);
    Reg acc = b.reg("acc");
    b.assignConst(acc, 0);
    b.whileLoop(
        [&] {
            Reg inA = b.lt(ka, kaEnd);
            Reg inB = b.lt(kb, kbEnd);
            return b.band(inA, inB);
        },
        [&] {
            Reg ca = b.loadIdx(aCol, ka);
            Reg cb = b.loadIdx(bCol, kb);
            Reg same = b.eq(ca, cb);
            Reg prod =
                b.mul(b.loadIdx(aVal, ka), b.loadIdx(bVal, kb));
            Reg contrib = b.select(same, prod, b.let(0));
            b.computeInto(acc, Opcode::Add, acc, contrib);
            b.computeInto(ka, Opcode::Add, ka, b.le(ca, cb));
            b.computeInto(kb, Opcode::Add, kb, b.ge(ca, cb));
        });
    return acc;
}

} // namespace

bool
bindKernel(const sir::ParseResult &parsed, const NamedWords &liveIns,
           const NamedArrays &inits, KernelInstance &out,
           std::string &error, std::vector<std::string> *unbound)
{
    const sir::Program &prog = parsed.program;
    auto nameOf = [&](sir::Reg r) -> const std::string & {
        return prog.regNames[static_cast<size_t>(r)];
    };
    out.liveIns.assign(prog.liveIns.size(), 0);
    std::vector<bool> bound(prog.liveIns.size(), false);
    for (const auto &[name, value] : liveIns) {
        auto it = std::find_if(
            prog.liveIns.begin(), prog.liveIns.end(),
            [&](sir::Reg r) { return nameOf(r) == name; });
        if (it == prog.liveIns.end()) {
            error = csprintf("\"liveins.%s\": kernel %s declares "
                             "no such live-in",
                             name.c_str(), prog.name.c_str());
            return false;
        }
        size_t i = static_cast<size_t>(it - prog.liveIns.begin());
        out.liveIns[i] = value;
        bound[i] = true;
    }
    for (size_t i = 0; unbound && i < bound.size(); i++) {
        if (!bound[i])
            unbound->push_back(nameOf(prog.liveIns[i]));
    }

    out.memory = scalar::makeMemory(prog);
    for (const auto &[name, values] : inits) {
        auto it = parsed.arrays.find(name);
        if (it == parsed.arrays.end()) {
            error = csprintf("\"init.%s\": kernel %s declares no "
                             "such array",
                             name.c_str(), prog.name.c_str());
            return false;
        }
        const sir::Array &arr = prog.array(it->second);
        if (static_cast<int64_t>(values.size()) > arr.words) {
            error = csprintf("\"init.%s\": %zu values exceed its "
                             "%lld words",
                             name.c_str(), values.size(),
                             static_cast<long long>(arr.words));
            return false;
        }
        std::copy(values.begin(), values.end(),
                  out.memory.begin() + arr.base);
    }
    out.name = prog.name;
    out.prog = sir::cloneProgram(prog);
    return true;
}

KernelInstance
makeDmm(int n, uint64_t seed)
{
    int lg = log2of(n);
    Builder b("dmm");
    auto A = b.array("A", n * n);
    auto B = b.array("B", n * n);
    auto C = b.array("C", n * n);
    Reg nr = b.liveIn("n");
    // All three loops are independent; the programmer marks the
    // outer two foreach (the II=1 heuristic still compiles the nest
    // unthreaded, Table 1), which also tells the compiler the C
    // stores need no ordering chain.
    b.forEach0(nr, [&](Reg i) {
        Reg iN = b.shl(i, lg);
        b.forEach0(nr, [&](Reg j) {
            Reg acc = b.reg("acc");
            b.assignConst(acc, 0);
            b.forLoop0(nr, [&](Reg k) {
                Reg a = b.loadIdx(A, b.add(iN, k));
                Reg bv = b.loadIdx(B, b.add(b.shl(k, lg), j));
                b.computeInto(acc, Opcode::Add, acc, b.mul(a, bv));
            });
            b.storeIdx(C, b.add(iN, j), acc);
        });
    });

    KernelInstance inst;
    inst.name = "DMM";
    inst.prog = b.finish();
    inst.liveIns = {n};
    inst.memory = scalar::makeMemory(inst.prog);
    Rng rng(seed);
    blit(inst.memory, inst.prog.array(A).base,
         randomDense(n * n, rng));
    blit(inst.memory, inst.prog.array(B).base,
         randomDense(n * n, rng));
    return inst;
}

KernelInstance
makeSpmv(int n, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    Csr m = randomCsr(n, n, sparsity, rng);
    auto x = randomDense(n, rng);

    Builder b("spmv");
    auto rp = b.array("rowptr", n + 1);
    auto ci = b.array("colidx", std::max(m.nnz(), 1));
    auto va = b.array("val", std::max(m.nnz(), 1));
    auto xv = b.array("x", n);
    auto yv = b.array("y", n);
    Reg nr = b.liveIn("n");
    b.forEach0(nr, [&](Reg i) {
        Reg start = b.loadIdx(rp, i);
        Reg end = b.loadIdx(rp, b.addi(i, 1));
        Reg acc = b.reg("acc");
        b.assignConst(acc, 0);
        b.forLoop(start, end, 1, [&](Reg k) {
            Reg c = b.loadIdx(ci, k);
            Reg v = b.loadIdx(va, k);
            b.computeInto(acc, Opcode::Add, acc,
                          b.mul(v, b.loadIdx(xv, c)));
        });
        b.storeIdx(yv, i, acc);
    });

    KernelInstance inst;
    inst.name = "SpMV";
    inst.prog = b.finish();
    inst.liveIns = {n};
    inst.memory = scalar::makeMemory(inst.prog);
    blit(inst.memory, inst.prog.array(rp).base, m.rowPtr);
    blit(inst.memory, inst.prog.array(ci).base, m.colIdx);
    blit(inst.memory, inst.prog.array(va).base, m.values);
    blit(inst.memory, inst.prog.array(xv).base, x);
    return inst;
}

ShardSet
makeSpmvShards(int n, double sparsity, uint64_t seed, int count)
{
    // Same seed → same CSR structure and program; each shard then
    // gets its own dense vector, so only memory differs.
    ShardSet set{makeSpmv(n, sparsity, seed), {}};
    set.images.reserve(static_cast<size_t>(std::max(count, 0)));
    for (int s = 0; s < count; s++) {
        scalar::MemImage image = set.kernel.memory;
        Rng rng(seed + 7919u * static_cast<uint64_t>(s + 1));
        for (const auto &arr : set.kernel.prog.arrays) {
            if (arr.name == "x")
                blit(image, arr.base, randomDense(n, rng));
        }
        set.images.push_back(std::move(image));
    }
    return set;
}

KernelInstance
makeDither(int width, int height, uint64_t seed)
{
    int lg = log2of(width);
    Builder b("dither");
    auto img = b.array("img", width * height);
    auto out = b.array("out", width * height);
    Reg h = b.liveIn("h");
    Reg w = b.liveIn("w");
    b.forEach0(h, [&](Reg y) {
        Reg rowBase = b.shl(y, lg);
        Reg err = b.reg("err");
        b.assignConst(err, 0);
        b.forLoop0(w, [&](Reg x) {
            Reg addr = b.add(rowBase, x);
            Reg v = b.add(b.loadIdx(img, addr), err);
            Reg big = b.gti(v, 127);
            Reg outv = b.select(big, b.let(255), b.let(0));
            b.storeIdx(out, addr, outv);
            b.computeInto(err, Opcode::Sub, v, outv);
        });
    });

    KernelInstance inst;
    inst.name = "Dither";
    inst.prog = b.finish();
    inst.liveIns = {height, width};
    inst.memory = scalar::makeMemory(inst.prog);
    Rng rng(seed);
    blit(inst.memory, inst.prog.array(img).base,
         randomImage(width, height, rng));
    return inst;
}

KernelInstance
makeSpSlice(int n, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    Csr m = randomCsr(n, n, sparsity, rng);
    int r0 = n / 4, r1 = 3 * n / 4;
    int c0 = n / 4, c1 = 3 * n / 4;
    int w = c1 - c0;
    int lgw = log2of(w);

    Builder b("spslice");
    auto rp = b.array("rowptr", n + 1);
    auto ci = b.array("colidx", std::max(m.nnz(), 1));
    auto va = b.array("val", std::max(m.nnz(), 1));
    auto out = b.array("out", (r1 - r0) * w);
    Reg r0r = b.liveIn("r0");
    Reg r1r = b.liveIn("r1");
    Reg c0r = b.liveIn("c0");
    Reg c1r = b.liveIn("c1");
    b.forEach(r0r, r1r, 1, [&](Reg i) {
        Reg k = b.reg("k");
        b.loadIdxInto(k, rp, i);
        Reg kend = b.loadIdx(rp, b.addi(i, 1));
        Reg outRow = b.shl(b.sub(i, r0r), lgw);
        Reg c = b.reg("c");
        b.whileLoop(
            [&] {
                Reg inb = b.lt(k, kend);
                Reg safe = b.select(inb, k, b.let(0));
                b.loadIdxInto(c, ci, safe);
                Reg cOk = b.lt(c, c1r);
                return b.band(inb, cOk);
            },
            [&] {
                Reg keep = b.ge(c, c0r);
                b.ifThen(keep, [&] {
                    Reg addr = b.add(outRow, b.sub(c, c0r));
                    b.storeIdx(out, addr, b.loadIdx(va, k));
                });
                b.computeInto(k, Opcode::Add, k, b.let(1));
            });
    });

    KernelInstance inst;
    inst.name = "SpSlice";
    inst.prog = b.finish();
    inst.liveIns = {r0, r1, c0, c1};
    inst.memory = scalar::makeMemory(inst.prog);
    blit(inst.memory, inst.prog.array(rp).base, m.rowPtr);
    blit(inst.memory, inst.prog.array(ci).base, m.colIdx);
    blit(inst.memory, inst.prog.array(va).base, m.values);
    return inst;
}

namespace {

KernelInstance
buildSpMSpVd(const Csr &m, const SparseVec &vec,
             const std::string &name)
{
    Builder b("spmspvd");
    auto rp = b.array("rowptr", m.rows + 1);
    auto ci = b.array("colidx", std::max(m.nnz(), 1));
    auto va = b.array("val", std::max(m.nnz(), 1));
    auto vi = b.array("vidx", std::max(vec.nnz(), 1));
    auto vv = b.array("vval", std::max(vec.nnz(), 1));
    auto out = b.array("out", m.rows);
    Reg nr = b.liveIn("rows");
    Reg vn = b.liveIn("vnnz");
    b.forEach0(nr, [&](Reg i) {
        Reg ka0 = b.loadIdx(rp, i);
        Reg kaEnd = b.loadIdx(rp, b.addi(i, 1));
        Reg acc = emitMergeDot(b, ka0, kaEnd, b.let(0), vn, ci, va,
                               vi, vv);
        b.storeIdx(out, i, acc);
    });

    KernelInstance inst;
    inst.name = name;
    inst.prog = b.finish();
    inst.liveIns = {m.rows, vec.nnz()};
    inst.memory = scalar::makeMemory(inst.prog);
    blit(inst.memory, inst.prog.array(rp).base, m.rowPtr);
    blit(inst.memory, inst.prog.array(ci).base, m.colIdx);
    blit(inst.memory, inst.prog.array(va).base, m.values);
    blit(inst.memory, inst.prog.array(vi).base, vec.idx);
    blit(inst.memory, inst.prog.array(vv).base, vec.val);
    return inst;
}

} // namespace

KernelInstance
makeSpMSpVd(int n, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    Csr m = randomCsr(n, n, sparsity, rng);
    SparseVec vec = randomSparseVec(n, sparsity, rng);
    return buildSpMSpVd(m, vec, "SpMSpVd");
}

KernelInstance
makeSpMSpVdFrom(const Csr &matrix, const SparseVec &vec,
                const std::string &name)
{
    return buildSpMSpVd(matrix, vec, name);
}

KernelInstance
makeSpMSpMd(int n, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    Csr a = randomCsr(n, n, sparsity, rng);
    Csr bt = transpose(randomCsr(n, n, sparsity, rng));
    int lg = log2of(n);

    Builder b("spmspmd");
    auto arp = b.array("arp", n + 1);
    auto aci = b.array("acol", std::max(a.nnz(), 1));
    auto ava = b.array("aval", std::max(a.nnz(), 1));
    auto brp = b.array("brp", n + 1);
    auto bci = b.array("bcol", std::max(bt.nnz(), 1));
    auto bva = b.array("bval", std::max(bt.nnz(), 1));
    auto C = b.array("C", n * n);
    Reg nr = b.liveIn("n");
    b.forLoop0(nr, [&](Reg i) {
        Reg ka0 = b.loadIdx(arp, i);
        Reg kaEnd = b.loadIdx(arp, b.addi(i, 1));
        Reg iN = b.shl(i, lg);
        b.forEach0(nr, [&](Reg j) {
            Reg kb0 = b.loadIdx(brp, j);
            Reg kbEnd = b.loadIdx(brp, b.addi(j, 1));
            Reg acc = emitMergeDot(b, ka0, kaEnd, kb0, kbEnd, aci,
                                   ava, bci, bva);
            b.storeIdx(C, b.add(iN, j), acc);
        });
    });

    KernelInstance inst;
    inst.name = "SpMSpMd";
    inst.prog = b.finish();
    inst.liveIns = {n};
    inst.memory = scalar::makeMemory(inst.prog);
    blit(inst.memory, inst.prog.array(arp).base, a.rowPtr);
    blit(inst.memory, inst.prog.array(aci).base, a.colIdx);
    blit(inst.memory, inst.prog.array(ava).base, a.values);
    blit(inst.memory, inst.prog.array(brp).base, bt.rowPtr);
    blit(inst.memory, inst.prog.array(bci).base, bt.colIdx);
    blit(inst.memory, inst.prog.array(bva).base, bt.values);
    return inst;
}

KernelInstance
makeConv3x3(int width, int height, uint64_t seed)
{
    int lg = log2of(width);
    Builder b("conv3x3");
    auto img = b.array("img", width * height);
    auto kern = b.array("kernel", 9);
    auto out = b.array("out", width * height);
    Reg h = b.liveIn("h");
    Reg w = b.liveIn("w");
    // Valid region: y in [1, h-1), x in [1, w-1).
    Reg hEnd = b.addi(h, -1);
    Reg wEnd = b.addi(w, -1);
    b.forEach(b.let(1), hEnd, 1, [&](Reg y) {
        b.forEach(b.let(1), wEnd, 1, [&](Reg x) {
            Reg acc = b.reg("acc");
            b.assignConst(acc, 0);
            b.forLoop0(b.let(3), [&](Reg ky) {
                b.forLoop0(b.let(3), [&](Reg kx) {
                    Reg iy = b.add(y, b.addi(ky, -1));
                    Reg ix = b.add(x, b.addi(kx, -1));
                    Reg pix = b.loadIdx(
                        img, b.add(b.shl(iy, lg), ix));
                    Reg kv = b.loadIdx(
                        kern, b.add(b.muli(ky, 3), kx));
                    b.computeInto(acc, Opcode::Add, acc,
                                  b.mul(pix, kv));
                });
            });
            b.storeIdx(out, b.add(b.shl(y, lg), x), acc);
        });
    });

    KernelInstance inst;
    inst.name = "Conv3x3";
    inst.prog = b.finish();
    inst.liveIns = {height, width};
    inst.memory = scalar::makeMemory(inst.prog);
    Rng rng(seed);
    blit(inst.memory, inst.prog.array(img).base,
         randomImage(width, height, rng));
    blit(inst.memory, inst.prog.array(kern).base,
         randomDense(9, rng, -2, 2));
    return inst;
}

KernelInstance
makeSparsify(const std::vector<Word> &dense)
{
    int n = static_cast<int>(dense.size());
    Builder b("sparsify");
    auto dv = b.array("dense", n);
    auto si = b.array("sidx", n);
    auto sv = b.array("sval", n);
    auto cnt = b.array("count", 1);
    Reg nr = b.liveIn("n");
    Reg count = b.reg("count");
    b.assignConst(count, 0);
    b.forLoop0(nr, [&](Reg i) {
        Reg v = b.loadIdx(dv, i);
        Reg pos = b.gti(v, 0); // ReLU: keep positive activations
        b.ifThen(pos, [&] {
            b.storeIdx(si, count, i);
            b.storeIdx(sv, count, v);
            b.computeInto(count, Opcode::Add, count, b.let(1));
        });
    });
    b.storeIdx(cnt, b.let(0), count);

    KernelInstance inst;
    inst.name = "Sparsify";
    inst.prog = b.finish();
    inst.liveIns = {n};
    inst.memory = scalar::makeMemory(inst.prog);
    blit(inst.memory, inst.prog.array(dv).base, dense);
    return inst;
}

std::vector<KernelInstance>
paperKernels(uint64_t seed)
{
    // Table 1 parameters.
    std::vector<KernelInstance> out;
    out.push_back(makeDmm(64, seed));
    out.push_back(makeSpmv(64, 0.90, seed + 1));
    out.push_back(makeDither(128, 128, seed + 2));
    out.push_back(makeSpSlice(64, 0.89, seed + 3));
    out.push_back(makeSpMSpVd(128, 0.90, seed + 4));
    out.push_back(makeSpMSpMd(64, 0.89, seed + 5));
    return out;
}

std::vector<KernelInstance>
smallKernels(uint64_t seed)
{
    std::vector<KernelInstance> out;
    out.push_back(makeDmm(8, seed));
    out.push_back(makeSpmv(16, 0.8, seed + 1));
    out.push_back(makeDither(16, 8, seed + 2));
    out.push_back(makeSpSlice(16, 0.8, seed + 3));
    out.push_back(makeSpMSpVd(16, 0.8, seed + 4));
    out.push_back(makeSpMSpMd(8, 0.8, seed + 5));
    return out;
}

} // namespace pipestitch::workloads

/**
 * @file
 * Independent reference implementations of every paper kernel in
 * plain C++, cross-checked against the fabric's results. Unlike the
 * golden-interpreter oracle (same SIR, different executor), these
 * recompute the math from the kernel *specification*, catching bugs
 * in the SIR kernels themselves.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workloads/kernels.hh"
#include "workloads/matrix.hh"

using namespace pipestitch;
using namespace pipestitch::workloads;
using sir::Word;

namespace {

std::vector<Word>
fabricArray(const FabricRun &run, const sir::Program &prog,
            const std::string &name)
{
    for (const auto &a : prog.arrays) {
        if (a.name == name) {
            return {run.memory.begin() + a.base,
                    run.memory.begin() + a.base + a.words};
        }
    }
    ADD_FAILURE() << "no array " << name;
    return {};
}

FabricRun
runPipestitch(const KernelInstance &k)
{
    RunConfig cfg;
    cfg.variant = compiler::ArchVariant::Pipestitch;
    return runOnFabric(k, cfg);
}

} // namespace

TEST(Reference, Dmm)
{
    const int n = 8;
    auto k = makeDmm(n, 21);
    auto run = runPipestitch(k);
    auto A = fabricArray(run, k.prog, "A");
    auto B = fabricArray(run, k.prog, "B");
    auto C = fabricArray(run, k.prog, "C");
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            Word want = 0;
            for (int kk = 0; kk < n; kk++) {
                want += A[static_cast<size_t>(i * n + kk)] *
                        B[static_cast<size_t>(kk * n + j)];
            }
            EXPECT_EQ(C[static_cast<size_t>(i * n + j)], want)
                << i << "," << j;
        }
    }
}

TEST(Reference, Spmv)
{
    const int n = 16;
    auto k = makeSpmv(n, 0.7, 22);
    auto run = runPipestitch(k);
    auto rp = fabricArray(run, k.prog, "rowptr");
    auto ci = fabricArray(run, k.prog, "colidx");
    auto va = fabricArray(run, k.prog, "val");
    auto x = fabricArray(run, k.prog, "x");
    auto y = fabricArray(run, k.prog, "y");
    for (int i = 0; i < n; i++) {
        Word want = 0;
        for (Word kk = rp[static_cast<size_t>(i)];
             kk < rp[static_cast<size_t>(i) + 1]; kk++) {
            want += va[static_cast<size_t>(kk)] *
                    x[static_cast<size_t>(ci[static_cast<size_t>(
                        kk)])];
        }
        EXPECT_EQ(y[static_cast<size_t>(i)], want) << "row " << i;
    }
}

TEST(Reference, Dither)
{
    const int w = 16, h = 8;
    auto k = makeDither(w, h, 23);
    auto run = runPipestitch(k);
    auto img = fabricArray(run, k.prog, "img");
    auto out = fabricArray(run, k.prog, "out");
    for (int y = 0; y < h; y++) {
        Word err = 0;
        for (int x = 0; x < w; x++) {
            Word v = img[static_cast<size_t>(y * w + x)] + err;
            Word o = v > 127 ? 255 : 0;
            EXPECT_EQ(out[static_cast<size_t>(y * w + x)], o)
                << y << "," << x;
            err = v - o;
        }
    }
}

TEST(Reference, SpSlice)
{
    const int n = 16;
    auto k = makeSpSlice(n, 0.7, 24);
    auto run = runPipestitch(k);
    auto rp = fabricArray(run, k.prog, "rowptr");
    auto ci = fabricArray(run, k.prog, "colidx");
    auto va = fabricArray(run, k.prog, "val");
    auto out = fabricArray(run, k.prog, "out");
    int r0 = n / 4, r1 = 3 * n / 4, c0 = n / 4, c1 = 3 * n / 4;
    int w = c1 - c0;
    std::vector<Word> want(out.size(), 0);
    for (int i = r0; i < r1; i++) {
        for (Word kk = rp[static_cast<size_t>(i)];
             kk < rp[static_cast<size_t>(i) + 1]; kk++) {
            Word c = ci[static_cast<size_t>(kk)];
            if (c >= c0 && c < c1) {
                want[static_cast<size_t>((i - r0) * w + (c - c0))] =
                    va[static_cast<size_t>(kk)];
            }
        }
    }
    EXPECT_EQ(out, want);
}

TEST(Reference, SpMSpVd)
{
    const int n = 16;
    auto k = makeSpMSpVd(n, 0.7, 25);
    auto run = runPipestitch(k);
    auto rp = fabricArray(run, k.prog, "rowptr");
    auto ci = fabricArray(run, k.prog, "colidx");
    auto va = fabricArray(run, k.prog, "val");
    auto vi = fabricArray(run, k.prog, "vidx");
    auto vv = fabricArray(run, k.prog, "vval");
    auto out = fabricArray(run, k.prog, "out");
    // vnnz is the second live-in.
    int vnnz = k.liveIns[1];
    for (int i = 0; i < n; i++) {
        Word want = 0;
        for (Word kk = rp[static_cast<size_t>(i)];
             kk < rp[static_cast<size_t>(i) + 1]; kk++) {
            Word col = ci[static_cast<size_t>(kk)];
            for (int kb = 0; kb < vnnz; kb++) {
                if (vi[static_cast<size_t>(kb)] == col) {
                    want += va[static_cast<size_t>(kk)] *
                            vv[static_cast<size_t>(kb)];
                }
            }
        }
        EXPECT_EQ(out[static_cast<size_t>(i)], want) << "row " << i;
    }
}

TEST(Reference, SpMSpMd)
{
    const int n = 8;
    auto k = makeSpMSpMd(n, 0.7, 26);
    auto run = runPipestitch(k);
    auto arp = fabricArray(run, k.prog, "arp");
    auto aci = fabricArray(run, k.prog, "acol");
    auto ava = fabricArray(run, k.prog, "aval");
    auto brp = fabricArray(run, k.prog, "brp");
    auto bci = fabricArray(run, k.prog, "bcol");
    auto bva = fabricArray(run, k.prog, "bval");
    auto C = fabricArray(run, k.prog, "C");
    // C[i][j] = A-row-i dot Bt-row-j (Bt rows indexed by column).
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            Word want = 0;
            for (Word ka = arp[static_cast<size_t>(i)];
                 ka < arp[static_cast<size_t>(i) + 1]; ka++) {
                for (Word kb = brp[static_cast<size_t>(j)];
                     kb < brp[static_cast<size_t>(j) + 1]; kb++) {
                    if (aci[static_cast<size_t>(ka)] ==
                        bci[static_cast<size_t>(kb)]) {
                        want += ava[static_cast<size_t>(ka)] *
                                bva[static_cast<size_t>(kb)];
                    }
                }
            }
            EXPECT_EQ(C[static_cast<size_t>(i * n + j)], want)
                << i << "," << j;
        }
    }
}

TEST(Reference, SparsifyRoundTrip)
{
    std::vector<Word> dense = {0, 5, -2, 7, 0, 0, 3, -9, 1};
    auto k = makeSparsify(dense);
    auto run = runPipestitch(k);
    auto sidx = fabricArray(run, k.prog, "sidx");
    auto sval = fabricArray(run, k.prog, "sval");
    auto count = fabricArray(run, k.prog, "count");
    // ReLU keeps strictly positive entries in index order.
    std::vector<std::pair<Word, Word>> want = {
        {1, 5}, {3, 7}, {6, 3}, {8, 1}};
    ASSERT_EQ(count[0], static_cast<Word>(want.size()));
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(sidx[i], want[i].first);
        EXPECT_EQ(sval[i], want[i].second);
    }
}

TEST(Reference, TransposeIsInvolution)
{
    Rng rng(31);
    Csr m = randomCsr(12, 9, 0.6, rng);
    Csr tt = transpose(transpose(m));
    EXPECT_EQ(tt.rowPtr, m.rowPtr);
    EXPECT_EQ(tt.colIdx, m.colIdx);
    EXPECT_EQ(tt.values, m.values);
}

TEST(Reference, CsrSparsityIsRespected)
{
    Rng rng(33);
    Csr dense = randomCsr(32, 32, 0.0, rng);
    EXPECT_EQ(dense.nnz(), 32 * 32);
    Csr empty = randomCsr(32, 32, 1.0, rng);
    EXPECT_EQ(empty.nnz(), 0);
    Csr half = randomCsr(64, 64, 0.5, rng);
    EXPECT_NEAR(half.nnz(), 64 * 64 / 2, 200);
    for (const auto v : half.values)
        EXPECT_NE(v, 0);
    // Columns ascend within each row.
    for (int r = 0; r < half.rows; r++) {
        for (Word kk = half.rowPtr[static_cast<size_t>(r)] + 1;
             kk < half.rowPtr[static_cast<size_t>(r) + 1]; kk++) {
            EXPECT_LT(half.colIdx[static_cast<size_t>(kk - 1)],
                      half.colIdx[static_cast<size_t>(kk)]);
        }
    }
}

TEST(Reference, SparseVecAscending)
{
    Rng rng(34);
    auto v = randomSparseVec(100, 0.8, rng);
    EXPECT_EQ(v.idx.size(), v.val.size());
    for (size_t i = 1; i < v.idx.size(); i++)
        EXPECT_LT(v.idx[i - 1], v.idx[i]);
}

TEST(Reference, Conv3x3)
{
    setQuiet(true);
    const int w = 16, h = 8;
    auto k = makeConv3x3(w, h, 27);
    auto run = runPipestitch(k);
    auto img = fabricArray(run, k.prog, "img");
    auto kern = fabricArray(run, k.prog, "kernel");
    auto out = fabricArray(run, k.prog, "out");
    // Four nested affine loops consume exactly the fabric's four
    // stream PEs.
    int streams = 0;
    for (const auto &n : run.compiled().graph.nodes)
        streams += n.kind == dfg::NodeKind::Stream;
    EXPECT_EQ(streams, 4);
    EXPECT_FALSE(run.compiled().threaded);
    for (int y = 1; y < h - 1; y++) {
        for (int x = 1; x < w - 1; x++) {
            Word want = 0;
            for (int ky = 0; ky < 3; ky++) {
                for (int kx = 0; kx < 3; kx++) {
                    want += img[static_cast<size_t>(
                                (y + ky - 1) * w + (x + kx - 1))] *
                            kern[static_cast<size_t>(ky * 3 + kx)];
                }
            }
            EXPECT_EQ(out[static_cast<size_t>(y * w + x)], want)
                << y << "," << x;
        }
    }
}

/**
 * @file
 * Bring-your-own-kernel walkthrough: a histogram (read-modify-write
 * on a shared array) showing
 *  - how the compiler serializes may-aliasing memory with order
 *    tokens (correct but sequential), and
 *  - how the DFG looks (GraphViz export), and
 *  - why the foreach contract matters: histogram buckets are shared
 *    across iterations, so the loop must NOT be marked foreach.
 *
 *   ./build/examples/custom_kernel > histogram.dot  # DFG on stdout
 */

#include <cstdio>

#include "core/system.hh"
#include "dfg/dot.hh"
#include "sir/builder.hh"

using namespace pipestitch;
using sir::Reg;

int
main()
{
    setQuiet(true);

    const int n = 64, buckets = 8;
    sir::Builder b("histogram");
    auto data = b.array("data", n);
    auto hist = b.array("hist", buckets);
    Reg nr = b.liveIn("n");
    // A plain `for`: iterations share the hist array, so they are
    // NOT independent and must not be foreach.
    b.forLoop0(nr, [&](Reg i) {
        Reg v = b.loadIdx(data, i);
        Reg bucket = b.band(v, b.let(buckets - 1));
        Reg old = b.loadIdx(hist, bucket);
        b.storeIdx(hist, bucket, b.addi(old, 1));
    });

    workloads::KernelInstance kernel;
    kernel.name = "histogram";
    kernel.prog = b.finish();
    kernel.liveIns = {n};
    kernel.memory = scalar::makeMemory(kernel.prog);
    Rng rng(5);
    for (int i = 0; i < n; i++)
        kernel.memory[static_cast<size_t>(i)] =
            static_cast<sir::Word>(rng.nextBounded(1000));

    RunConfig cfg;
    cfg.variant = compiler::ArchVariant::Pipestitch;
    FabricRun run = runOnFabric(kernel, cfg);

    std::fprintf(stderr, "histogram of %d values:\n", n);
    for (int bkt = 0; bkt < buckets; bkt++) {
        int count = run.memory[static_cast<size_t>(
            kernel.prog.array(hist).base + bkt)];
        std::fprintf(stderr, "  bucket %d: %-3d ", bkt, count);
        for (int j = 0; j < count; j++)
            std::fprintf(stderr, "#");
        std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr,
                 "\n%lld cycles; the hist loads/stores are chained "
                 "with order tokens (hist is read+written), so the "
                 "loop runs at the serialized memory II — correct "
                 "first, fast where the contract allows.\n",
                 static_cast<long long>(run.cycles()));

    // The DFG, for inspection with GraphViz (stdout).
    std::printf("%s", dfg::toDot(run.compiled().graph).c_str());
    return 0;
}

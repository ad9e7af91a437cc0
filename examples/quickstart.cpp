/**
 * @file
 * Quickstart: write a kernel against the foreach programming model,
 * compile it for Pipestitch, simulate it cycle-by-cycle, and read
 * the results — the paper's Fig. 5a example (count non-zero
 * elements of each linked list in a map) in ~60 lines.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/system.hh"
#include "sim/report.hh"
#include "sir/builder.hh"
#include "sir/printer.hh"

using namespace pipestitch;
using sir::Reg;

int
main()
{
    // --- 1. Write the kernel (paper Fig. 5a) -------------------------
    // foreach i = 0..N:
    //   p = map[i], c = 0
    //   while p != NULL: { if p.val: c++;  p = p->next }
    //   Z[i] = c
    const int numLists = 8;
    sir::Builder b("count_nonzeros");
    auto map = b.array("map", numLists); // head node id, -1 = empty
    auto next = b.array("next", 64);     // next node id, -1 = end
    auto val = b.array("val", 64);       // node payload
    auto Z = b.array("Z", numLists);
    Reg n = b.liveIn("N");

    b.forEach0(n, [&](Reg i) {
        Reg p = b.reg("p");
        b.loadIdxInto(p, map, i);
        Reg c = b.reg("c");
        b.assignConst(c, 0);
        b.whileLoop([&] { return b.gt(p, b.let(-1)); },
                    [&] {
                        Reg v = b.loadIdx(val, p);
                        b.ifThen(b.nei(v, 0), [&] {
                            b.computeInto(c, sir::Opcode::Add, c,
                                          b.let(1));
                        });
                        b.loadIdxInto(p, next, p);
                    });
        b.storeIdx(Z, i, c);
    });
    auto prog = b.finish();
    std::printf("=== SIR ===\n%s\n", sir::print(prog).c_str());

    // --- 2. Build an input: 8 short linked lists ---------------------
    workloads::KernelInstance kernel;
    kernel.name = "count_nonzeros";
    kernel.prog = std::move(prog);
    kernel.liveIns = {numLists};
    kernel.memory = scalar::makeMemory(kernel.prog);
    Rng rng(42);
    int cursor = 0;
    for (int list = 0; list < numLists; list++) {
        int len = static_cast<int>(rng.nextBounded(7));
        int prev = -1;
        for (int k = 0; k < len; k++) {
            int node = cursor++;
            if (prev < 0)
                kernel.memory[static_cast<size_t>(list)] = node;
            else
                kernel.memory[static_cast<size_t>(8 + prev)] = node;
            kernel.memory[static_cast<size_t>(8 + node)] = -1;
            kernel.memory[static_cast<size_t>(8 + 64 + node)] =
                static_cast<sir::Word>(rng.nextBounded(3));
            prev = node;
        }
        if (prev < 0)
            kernel.memory[static_cast<size_t>(list)] = -1;
    }

    // --- 3. Run on Pipestitch and on RipTide -------------------------
    RunConfig pipeCfg;
    pipeCfg.variant = compiler::ArchVariant::Pipestitch;
    FabricRun pipe = runOnFabric(kernel, pipeCfg);

    RunConfig ripCfg;
    ripCfg.variant = compiler::ArchVariant::RipTide;
    FabricRun rip = runOnFabric(kernel, ripCfg);

    std::printf("=== results (Z) ===\n");
    for (int i = 0; i < numLists; i++) {
        std::printf("  list %d: %d non-zero nodes\n", i,
                    pipe.memory[static_cast<size_t>(
                        kernel.prog.array(Z).base + i)]);
    }

    std::printf("\n=== execution ===\n");
    std::printf("  threaded compilation: %s (inner-loop II > 1)\n",
                pipe.compiled().threaded ? "yes" : "no");
    std::printf("  threads spawned:      %lld\n",
                static_cast<long long>(
                    pipe.sim.stats.dispatchSpawns /
                    std::max<size_t>(1, 1)));
    std::printf("  Pipestitch: %lld cycles, %.1f pJ, IPC %.2f\n",
                static_cast<long long>(pipe.cycles()),
                pipe.energy.totalPj(), pipe.sim.stats.ipc());
    std::printf("  RipTide:    %lld cycles, %.1f pJ, IPC %.2f\n",
                static_cast<long long>(rip.cycles()),
                rip.energy.totalPj(), rip.sim.stats.ipc());
    std::printf("  speedup:    %.2fx\n",
                static_cast<double>(rip.cycles()) /
                    static_cast<double>(pipe.cycles()));

    // The structured counters behind those lines (reportFor gives
    // the same record pstool emits with --json).
    std::printf("\n=== counters ===\n  %s\n",
                sim::reportFor(pipe.sim.stats).toString().c_str());
    return 0;
}

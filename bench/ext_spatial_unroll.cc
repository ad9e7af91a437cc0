/**
 * @file
 * Extension study (paper Sec. 6 future work): spatial unrolling.
 * Replicates a threaded loop body into multiple lanes, each with its
 * own dispatch group, breaking the single-group one-set-per-cycle
 * throughput ceiling — at a proportional PE cost. The paper frames
 * this as a small-kernel technique; the fit column shows why.
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/table.hh"
#include "compiler/timemux.hh"
#include "figures/figures.hh"
#include "sir/builder.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sir::Opcode;
using sir::Reg;

namespace {

/** A compact threaded kernel sized so several lanes fit. */
workloads::KernelInstance
compactKernel(int threads)
{
    sir::Builder b("compact");
    auto w = b.array("work", threads);
    auto done = b.array("done", threads);
    Reg n = b.liveIn("n");
    b.forEach0(n, [&](Reg i) {
        Reg k = b.reg("k");
        b.loadIdxInto(k, w, i);
        b.whileLoop([&] { return b.gti(k, 0); },
                    [&] {
                        Reg dec = b.addi(k, -1);
                        b.computeInto(k, Opcode::Shr, dec, b.let(1));
                    });
        b.storeIdx(done, i, k);
    });
    workloads::KernelInstance kernel;
    kernel.name = "compact";
    kernel.prog = b.finish();
    kernel.liveIns = {threads};
    kernel.memory = scalar::makeMemory(kernel.prog);
    Rng rng(3);
    for (int i = 0; i < threads; i++) {
        kernel.memory[static_cast<size_t>(i)] =
            static_cast<sir::Word>(rng.nextRange(1000, 60000));
    }
    return kernel;
}

} // namespace

int
main()
{
    setQuiet(true);
    Table t({"Kernel", "Lanes", "Cycles", "Speedup", "PEs used",
             "Fits 8x8?"});

    auto runLanes = [&](const workloads::KernelInstance &k,
                        int lanes, double baseCycles) {
        RunConfig cfg;
        cfg.variant = ArchVariant::Pipestitch;
        cfg.unrollFactor = lanes;
        cfg.map = false; // measure even when it wouldn't fit as-is
        auto run = runOnFabric(k, cfg);
        auto counts = run.compiled().graph.peClassCounts();
        fabric::FabricConfig fc;
        bool fits = true;
        int total = 0;
        for (size_t c = 0; c < counts.size(); c++) {
            total += counts[c];
            fits &= counts[c] <= fc.peMix[c];
        }
        // When it doesn't fit, fold cold operators onto shared PEs
        // (the paper's time-multiplexing future work) and re-run
        // mapped.
        std::string fitNote = fits ? "yes" : "no";
        double cycles = static_cast<double>(run.cycles());
        if (!fits && lanes > 1 &&
            compiler::tryPlanTimeMultiplexing(run.compiled().graph,
                                              fc)) {
            RunConfig tm = cfg;
            tm.map = true;
            tm.allowTimeMultiplex = true;
            auto tmRun = runOnFabric(k, tm);
            cycles = static_cast<double>(tmRun.cycles());
            fitNote = csprintf("via TM (%lld muxes)",
                               static_cast<long long>(
                                   tmRun.sim.stats.muxSwitches));
        }
        t.addRow({k.name, csprintf("%d", lanes),
                  Table::fmt(cycles, 0),
                  baseCycles > 0
                      ? Table::fmt(baseCycles / cycles, 2) + "x"
                      : std::string("1.00x"),
                  csprintf("%d", total), fitNote});
        return cycles;
    };

    auto compact = compactKernel(64);
    double base = runLanes(compact, 1, 0);
    runLanes(compact, 2, base);
    runLanes(compact, 4, base);

    auto dither = workloads::makeDither(128, 128, figures::kSeed + 2);
    double dbase = runLanes(dither, 1, 0);
    runLanes(dither, 2, dbase);

    auto spslice =
        workloads::makeSpSlice(64, 0.89, figures::kSeed + 3);
    double sbase = runLanes(spslice, 1, 0);
    runLanes(spslice, 2, sbase);

    std::printf(
        "Extension: spatial unrolling + time-multiplexing (Sec. 6 "
        "future work)\n\n%s\n"
        "Each lane is its own dispatch group synchronizing over the\n"
        "SyncPlane. When lanes over-subscribe a PE class, cold\n"
        "(outer-loop) operators fold onto shared PEs ('via TM'),\n"
        "trading switch energy for fit — the paper's second\n"
        "future-work direction making its first one viable on the\n"
        "8x8 fabric.\n",
        t.render().c_str());
    return 0;
}

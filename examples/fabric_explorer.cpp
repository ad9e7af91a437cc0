/**
 * @file
 * Fabric introspection demo: show the PE layout, map a kernel,
 * simulate it, and render a utilization heat map plus the hottest
 * operators — the view an architect uses to see where cycles go.
 *
 *   ./build/examples/fabric_explorer [kernel-index 0..5]
 */

#include <cstdio>
#include <cstdlib>

#include "core/system.hh"
#include "sim/report.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;

int
main(int argc, char **argv)
{
    setQuiet(true);
    int pick = argc > 1 ? std::atoi(argv[1]) : 4; // SpMSpVd
    auto kernels = workloads::smallKernels(11);
    if (pick < 0 || pick >= static_cast<int>(kernels.size())) {
        std::fprintf(stderr, "kernel index 0..%zu\n",
                     kernels.size() - 1);
        return 1;
    }
    const auto &kernel = kernels[static_cast<size_t>(pick)];

    fabric::Fabric fab;
    std::printf("The 8x8 fabric (A=arith X=mult C=control-flow "
                "M=memory S=stream):\n\n%s\n",
                fab.describe().c_str());

    for (auto variant : {compiler::ArchVariant::RipTide,
                         compiler::ArchVariant::Pipestitch}) {
        RunConfig cfg;
        cfg.variant = variant;
        FabricRun run = runOnFabric(kernel, cfg);
        std::printf("=== %s on %s: %lld cycles, IPC %.2f ===\n\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(variant),
                    static_cast<long long>(run.cycles()),
                    run.sim.stats.ipc());
        std::printf("%s\n",
                    sim::utilizationMap(run.compiled().graph, fab,
                                        run.mapping(), run.sim.stats)
                        .c_str());
        std::printf("hottest operators:\n%s\n",
                    sim::operatorReport(run.compiled().graph,
                                        run.sim.stats, 12)
                        .c_str());
    }
    std::printf("Threaded dispatch keeps inner-loop PEs firing "
                "nearly every cycle — the Fig. 18 utilization story "
                "made visible.\n");
    return 0;
}

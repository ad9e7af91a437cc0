#include "figures/figures.hh"

#include <algorithm>
#include <array>

#include "base/logging.hh"
#include "base/table.hh"
#include "dfg/analysis.hh"
#include "energy/dvfs.hh"
#include "fabric/area.hh"
#include "harvest/harvest.hh"
#include "sim/stats.hh"
#include "workloads/kernels.hh"

namespace pipestitch::figures {

using compiler::ArchVariant;

FigureSet::FigureSet(runner::Runner &runner,
                     const FigureOptions &options)
    : owner(runner), opts(options)
{
}

const std::vector<runner::KernelPtr> &
FigureSet::kernels()
{
    if (ks.empty()) {
        auto built = opts.smoke ? workloads::smallKernels(kSeed)
                                : workloads::paperKernels(kSeed);
        for (auto &k : built)
            ks.push_back(runner::share(std::move(k)));
    }
    return ks;
}

RunConfig
FigureSet::runConfig(ArchVariant variant, int bufferDepth) const
{
    RunConfig cfg;
    cfg.variant = variant;
    cfg.sim.bufferDepth = bufferDepth;
    if (owner.options().memoize)
        cfg.cache = &const_cast<runner::Runner &>(owner).cache();
    cfg.quiet = true;
    return cfg;
}

std::shared_future<FabricRun>
FigureSet::run(const runner::KernelPtr &kernel, ArchVariant variant,
               int bufferDepth)
{
    RunConfig cfg;
    cfg.variant = variant;
    cfg.sim.bufferDepth = bufferDepth;
    return owner.enqueue(kernel, cfg);
}

std::shared_future<compiler::CompileResult>
FigureSet::compile(const runner::KernelPtr &kernel,
                   ArchVariant variant)
{
    compiler::CompileOptions copts;
    copts.variant = variant;
    return owner
        .submit([kernel, copts] {
            return compiler::compileProgram(kernel->prog,
                                            kernel->liveIns, copts);
        })
        .share();
}

const workloads::DnnModel &
FigureSet::dnn()
{
    if (!model) {
        workloads::DnnConfig cfg;
        if (opts.smoke) {
            cfg.dims = {128, 64, 32, 16, 10};
        }
        cfg.seed = kSeed;
        model = workloads::buildDnn(cfg);
    }
    return *model;
}

std::shared_future<workloads::DnnInference>
FigureSet::dnnFabric(ArchVariant variant, int bufferDepth)
{
    auto key = std::make_pair(static_cast<int>(variant),
                              bufferDepth);
    auto it = dnnRuns.find(key);
    if (it != dnnRuns.end())
        return it->second;
    // One pool job for the whole inference: its layer runs execute
    // serially inside the job (a nested enqueue could deadlock a
    // busy pool) but still share the stage cache.
    const workloads::DnnModel *m = &dnn();
    RunConfig cfg = runConfig(variant, bufferDepth);
    auto fut = owner
                   .submit([m, cfg] {
                       return workloads::runDnnOnFabric(*m, cfg);
                   })
                   .share();
    dnnRuns.emplace(key, fut);
    return fut;
}

const workloads::DnnInference &
FigureSet::dnnScalar(const scalar::ScalarProfile &profile)
{
    auto it = dnnScalarRuns.find(profile.name);
    if (it == dnnScalarRuns.end()) {
        it = dnnScalarRuns
                 .emplace(profile.name,
                          workloads::runDnnOnScalar(dnn(), profile))
                 .first;
    }
    return it->second;
}

void
FigureSet::prefetch()
{
    const auto &all = kernels();
    for (const auto &k : all) {
        for (auto v :
             {ArchVariant::RipTide, ArchVariant::Pipestitch,
              ArchVariant::PipeSB, ArchVariant::PipeCFiN,
              ArchVariant::PipeCFoP}) {
            run(k, v);
        }
    }
    for (size_t i = 0; i < all.size(); i++) {
        if (!isThreadedKernel(i))
            continue;
        run(all[i], ArchVariant::Pipestitch, 8);
        run(all[i], ArchVariant::Pipestitch, 16);
    }
    dnnFabric(ArchVariant::RipTide);
    dnnFabric(ArchVariant::Pipestitch);
}

namespace {

/** The DNN inference on each platform of Figs. 1 and 3: Cortex-M33,
 *  RipTide, Pipestitch. */
std::array<harvest::Platform, 3>
dnnPlatforms(FigureSet &f)
{
    auto rip = f.dnnFabric(ArchVariant::RipTide);
    auto pipe = f.dnnFabric(ArchVariant::Pipestitch);
    const auto &m33 = f.dnnScalar(scalar::cortexM33Profile());
    const auto &ripRun = rip.get();
    const auto &pipeRun = pipe.get();
    return {{
        {"Cortex-M33", m33.seconds, m33.energy.totalPj() * 1e-12},
        {"RipTide", ripRun.seconds, ripRun.energy.totalPj() * 1e-12},
        {"Pipestitch", pipeRun.seconds,
         pipeRun.energy.totalPj() * 1e-12},
    }};
}

/** One run of every kernel on @p variant, in kernel order. */
std::vector<std::shared_future<FabricRun>>
runAll(FigureSet &f, ArchVariant variant)
{
    std::vector<std::shared_future<FabricRun>> runs;
    for (const auto &k : f.kernels())
        runs.push_back(f.run(k, variant));
    return runs;
}

std::string
fig01(FigureSet &f)
{
    const auto platforms = dnnPlatforms(f);

    std::string out =
        "Fig. 1: End-to-end inference rate vs harvested "
        "power\n\nPer-inference cost:\n";
    for (const auto &p : platforms) {
        out += csprintf("  %-11s T=%7.2f ms  E=%7.2f uJ  "
                        "peak=%6.1f Hz\n",
                        p.name, p.inferenceSeconds * 1e3,
                        p.inferenceJoules * 1e6,
                        1.0 / p.inferenceSeconds);
    }

    Table t({"Power (mW)", "Cortex-M33 (Hz)", "RipTide (Hz)",
             "Pipestitch (Hz)"});
    for (int step = 0; step <= 14; step++) {
        double mw = 0.1 * step;
        std::vector<std::string> row{Table::fmt(mw, 1)};
        for (const auto &p : platforms) {
            row.push_back(Table::fmt(
                harvest::endToEndRate(p, mw * 1e-3), 1));
        }
        t.addRow(row);
    }
    out += csprintf("\n%s\n", t.render().c_str());

    double ratio = (1.0 / platforms[2].inferenceSeconds) /
                   (1.0 / platforms[1].inferenceSeconds);
    out += csprintf(
        "Peak-rate gain Pipestitch/RipTide: %.2fx (paper: "
        "up to ~3x); Pipestitch converts energy to frames "
        "up to %.2f mW input power (paper: ~2 mW)\n",
        ratio,
        platforms[2].inferenceJoules /
            platforms[2].inferenceSeconds / 0.8 * 1e3);
    return out;
}

std::string
fig03(FigureSet &f)
{
    const auto platforms = dnnPlatforms(f);

    Table t({"Rate (Hz)", "Cortex-M33 (y)", "RipTide (y)",
             "Pipestitch (y)"});
    const double rates[] = {0.5, 1,  2,  5,  10, 20,
                            30,  40, 60, 80, 100, 130};
    for (double rate : rates) {
        std::vector<std::string> row{Table::fmt(rate, 1)};
        for (const auto &p : platforms) {
            auto life = harvest::lifetimeYears(p, rate);
            row.push_back(life ? Table::fmt(*life, 2)
                               : std::string("wall"));
        }
        t.addRow(row);
    }

    std::string out =
        csprintf("Fig. 3: Lifetime on a D-cell vs inference rate\n"
                 "('wall' = rate beyond the platform's peak "
                 "performance)\n\n%s\n",
                 t.render().c_str());
    for (const auto &p : platforms) {
        out += csprintf("  %-11s performance wall at %6.1f Hz\n",
                        p.name, 1.0 / p.inferenceSeconds);
    }
    return out;
}

std::string
fig04(FigureSet &f)
{
    const auto &ks = f.kernels();
    std::vector<std::shared_future<FabricRun>> rips, pipes;
    for (size_t i = 2; i < ks.size(); i++) { // threaded kernels
        rips.push_back(f.run(ks[i], ArchVariant::RipTide));
        pipes.push_back(f.run(ks[i], ArchVariant::Pipestitch));
    }

    Table t({"Benchmark", "Target rate", "Rip f (MHz)",
             "Rip E (nJ)", "Pipe f (MHz)", "Pipe E (nJ)",
             "E saving"});
    const double nominal = 50.0;
    for (size_t i = 2; i < ks.size(); i++) {
        const auto &rip = rips[i - 2].get();
        const auto &pipe = pipes[i - 2].get();
        // Leakage power at nominal voltage in pJ/s.
        double ripLeak = (rip.area.totalUm2() * 1.2e-6) *
                         nominal * 1e6;
        double pipeLeak = (pipe.area.totalUm2() * 1.2e-6) *
                          nominal * 1e6;
        // Iso-throughput target: RipTide at its nominal rate.
        double target =
            1.0 / energy::secondsFor(rip.cycles(), nominal);
        auto ripPt = energy::scaleToRate(
            rip.cycles(), rip.energy.totalPj(), ripLeak, nominal,
            target);
        auto pipePt = energy::scaleToRate(
            pipe.cycles(), pipe.energy.totalPj(), pipeLeak,
            nominal, target);
        t.addRow({ks[i]->name, Table::fmt(target, 0) + " Hz",
                  Table::fmt(ripPt.freqMHz, 1),
                  Table::fmt(ripPt.energyPj / 1e3, 1),
                  Table::fmt(pipePt.freqMHz, 1),
                  Table::fmt(pipePt.energyPj / 1e3, 1),
                  Table::fmt((1.0 - pipePt.energyPj /
                                        ripPt.energyPj) *
                                 100.0,
                             0) +
                      "%"});
    }

    return csprintf(
        "Fig. 4: DVFS at iso-throughput (V scales with f; "
        "E_dyn scales with f^2)\n\n%s\n"
        "Pipestitch clocks down to match RipTide's rate, "
        "trading its cycle-count advantage for voltage "
        "(and energy) reduction.\n",
        t.render().c_str());
}

std::string
fig13(FigureSet &f)
{
    const auto &ks = f.kernels();
    auto rips = runAll(f, ArchVariant::RipTide);
    auto pipes = runAll(f, ArchVariant::Pipestitch);
    auto dnnRipFut = f.dnnFabric(ArchVariant::RipTide);
    auto dnnPipeFut = f.dnnFabric(ArchVariant::Pipestitch);

    Table t({"Benchmark", "Scalar cyc", "RipTide cyc",
             "Pipestitch cyc", "RipTide x", "Pipestitch x",
             "Pipe/Rip"});
    std::vector<double> ratioAll, ratioThreaded;
    for (size_t i = 0; i < ks.size(); i++) {
        auto scalarRun = runOnScalar(*ks[i]);
        const auto &rip = rips[i].get();
        const auto &pipe = pipes[i].get();
        double su_r =
            scalarRun.cycles / static_cast<double>(rip.cycles());
        double su_p =
            scalarRun.cycles / static_cast<double>(pipe.cycles());
        double ratio = static_cast<double>(rip.cycles()) /
                       static_cast<double>(pipe.cycles());
        ratioAll.push_back(ratio);
        if (FigureSet::isThreadedKernel(i))
            ratioThreaded.push_back(ratio);
        t.addRow({ks[i]->name, Table::fmt(scalarRun.cycles, 0),
                  csprintf("%lld", (long long)rip.cycles()),
                  csprintf("%lld", (long long)pipe.cycles()),
                  Table::fmt(su_r, 2), Table::fmt(su_p, 2),
                  Table::fmt(ratio, 2)});
    }

    // Full application: the sparse DNN.
    const auto &dnnScalar =
        f.dnnScalar(scalar::riptideScalarProfile());
    auto dnnRip = dnnRipFut.get();
    auto dnnPipe = dnnPipeFut.get();
    double ratio = dnnRip.cycles / dnnPipe.cycles;
    ratioAll.push_back(ratio);
    ratioThreaded.push_back(ratio);
    t.addRow({"DNN", Table::fmt(dnnScalar.cycles, 0),
              Table::fmt(dnnRip.cycles, 0),
              Table::fmt(dnnPipe.cycles, 0),
              Table::fmt(dnnScalar.cycles / dnnRip.cycles, 2),
              Table::fmt(dnnScalar.cycles / dnnPipe.cycles, 2),
              Table::fmt(ratio, 2)});

    std::string out = csprintf(
        "Fig. 13: Speedup over scalar\n\n%s\n",
        t.render().c_str());
    out += csprintf(
        "Pipestitch over RipTide geomean: %.2fx all apps "
        "(paper: 2.55x), %.2fx threaded apps (paper: "
        "3.49x)\n",
        geomean(ratioAll), geomean(ratioThreaded));
    return out;
}

std::vector<std::string>
fig14Row(const std::string &bench, const std::string &system,
         const energy::EnergyBreakdown &e, double scalarTotal)
{
    return {bench,
            system,
            Table::fmt(e.totalPj() / scalarTotal, 3),
            Table::fmt(e.cgraPj / scalarTotal, 3),
            Table::fmt(e.memPj / scalarTotal, 3),
            Table::fmt(e.scalarPj / scalarTotal, 3),
            Table::fmt(e.otherPj / scalarTotal, 3)};
}

std::string
fig14(FigureSet &f)
{
    const auto &ks = f.kernels();
    auto rips = runAll(f, ArchVariant::RipTide);
    auto pipes = runAll(f, ArchVariant::Pipestitch);
    auto dnnRipFut = f.dnnFabric(ArchVariant::RipTide);
    auto dnnPipeFut = f.dnnFabric(ArchVariant::Pipestitch);

    Table t({"Benchmark", "System", "Total", "CGRA", "Memory",
             "Scalar", "Other"});
    std::vector<double> ratioAll, ratioThreaded;
    for (size_t i = 0; i < ks.size(); i++) {
        auto scalarRun = runOnScalar(*ks[i]);
        double base = scalarRun.energy.totalPj();
        const auto &rip = rips[i].get();
        const auto &pipe = pipes[i].get();
        t.addRow(
            fig14Row(ks[i]->name, "Scalar", scalarRun.energy, base));
        t.addRow(fig14Row("", "RipTide", rip.energy, base));
        t.addRow(fig14Row("", "Pipestitch", pipe.energy, base));
        double ratio =
            pipe.energy.totalPj() / rip.energy.totalPj();
        ratioAll.push_back(ratio);
        if (FigureSet::isThreadedKernel(i))
            ratioThreaded.push_back(ratio);
    }

    const auto &dnnScalar =
        f.dnnScalar(scalar::riptideScalarProfile());
    double base = dnnScalar.energy.totalPj();
    auto dnnRip = dnnRipFut.get();
    auto dnnPipe = dnnPipeFut.get();
    t.addRow(fig14Row("DNN", "Scalar", dnnScalar.energy, base));
    t.addRow(fig14Row("", "RipTide", dnnRip.energy, base));
    t.addRow(fig14Row("", "Pipestitch", dnnPipe.energy, base));
    double dnnRatio =
        dnnPipe.energy.totalPj() / dnnRip.energy.totalPj();
    ratioAll.push_back(dnnRatio);
    ratioThreaded.push_back(dnnRatio);

    std::string out = csprintf(
        "Fig. 14: Energy normalized to scalar\n\n%s\n",
        t.render().c_str());
    out += csprintf(
        "Pipestitch over RipTide energy geomean: %.3fx all "
        "apps (paper: 1.11x), %.3fx threaded apps (paper: "
        "1.05x)\n",
        geomean(ratioAll), geomean(ratioThreaded));
    return out;
}

std::string
fig15(FigureSet &f)
{
    const auto &ks = f.kernels();
    auto rips = runAll(f, ArchVariant::RipTide);
    auto pipes = runAll(f, ArchVariant::Pipestitch);
    auto dnnRipFut = f.dnnFabric(ArchVariant::RipTide);
    auto dnnPipeFut = f.dnnFabric(ArchVariant::Pipestitch);

    Table t({"Benchmark", "RipTide EDP", "Pipestitch EDP",
             "Pipe/Rip", "EDP gain"});
    std::vector<double> gains;
    for (size_t i = 0; i < ks.size(); i++) {
        const auto &rip = rips[i].get();
        const auto &pipe = pipes[i].get();
        double ratio = pipe.edp / rip.edp;
        if (FigureSet::isThreadedKernel(i))
            gains.push_back(1.0 / ratio);
        t.addRow({ks[i]->name, csprintf("%.3g pJ*s", rip.edp),
                  csprintf("%.3g pJ*s", pipe.edp),
                  Table::fmt(ratio, 3),
                  Table::fmt(1.0 / ratio, 2) + "x"});
    }

    auto dnnRip = dnnRipFut.get();
    auto dnnPipe = dnnPipeFut.get();
    double ripEdp = dnnRip.energy.totalPj() * dnnRip.seconds;
    double pipeEdp = dnnPipe.energy.totalPj() * dnnPipe.seconds;
    gains.push_back(ripEdp / pipeEdp);
    t.addRow({"DNN", csprintf("%.3g pJ*s", ripEdp),
              csprintf("%.3g pJ*s", pipeEdp),
              Table::fmt(pipeEdp / ripEdp, 3),
              Table::fmt(ripEdp / pipeEdp, 2) + "x"});

    return csprintf(
        "Fig. 15: EDP normalized to RipTide\n\n%s\n"
        "Threaded-app EDP improvement geomean: %.2fx (paper: "
        "2.29x)\n",
        t.render().c_str(), geomean(gains));
}

std::string
fig16(FigureSet &)
{
    fabric::Fabric fab;
    auto pipe =
        fabric::computeArea(fab, fabric::AreaVariant::Pipestitch);
    auto rip =
        fabric::computeArea(fab, fabric::AreaVariant::RipTide);

    std::string out =
        csprintf("Fig. 16: Pipestitch area breakdown\n\n%s\n",
                 pipe.table().c_str());
    out += csprintf("RipTide baseline breakdown\n\n%s\n",
                    rip.table().c_str());

    double pipeFabric = pipe.peUm2 + pipe.nocUm2;
    double ripFabric = rip.peUm2 + rip.nocUm2;
    out += csprintf(
        "Fabric area: Pipestitch %.3f mm^2 vs RipTide %.3f "
        "mm^2 -> %.2fx (paper: 1.10x)\n",
        pipeFabric / 1e6, ripFabric / 1e6,
        pipeFabric / ripFabric);
    out += csprintf(
        "Total Pipestitch system: %.2f mm^2 (paper: ~1.0 "
        "mm^2)\n",
        pipe.totalMm2());

    // Buffer-depth area sensitivity (the Fig. 20 tradeoff's cost).
    Table t({"Buffer depth", "Fabric mm^2", "vs depth 4"});
    double base = 0;
    for (int depth : {4, 8, 16}) {
        auto a = fabric::computeArea(
            fab, fabric::AreaVariant::Pipestitch, depth);
        double fa = (a.peUm2 + a.nocUm2) / 1e6;
        if (depth == 4)
            base = fa;
        t.addRow({csprintf("%d", depth), Table::fmt(fa, 3),
                  Table::fmt(fa / base, 2) + "x"});
    }
    out += csprintf("\nBuffering area sensitivity\n\n%s",
                    t.render().c_str());
    return out;
}

std::string
fig17(FigureSet &f)
{
    const auto &ks = f.kernels();
    auto rips = runAll(f, ArchVariant::RipTide);
    auto pipes = runAll(f, ArchVariant::Pipestitch);

    Table t({"Benchmark", "RipTide IPC", "Pipestitch IPC", "Gain"});
    std::vector<double> gainsAll, gainsThreaded;
    for (size_t i = 0; i < ks.size(); i++) {
        const auto &rip = rips[i].get();
        const auto &pipe = pipes[i].get();
        double gain = pipe.sim.stats.ipc() / rip.sim.stats.ipc();
        gainsAll.push_back(gain);
        if (FigureSet::isThreadedKernel(i))
            gainsThreaded.push_back(gain);
        t.addRow({ks[i]->name, Table::fmt(rip.sim.stats.ipc(), 2),
                  Table::fmt(pipe.sim.stats.ipc(), 2),
                  Table::fmt(gain, 2) + "x"});
    }

    std::string out = csprintf(
        "Fig. 17: IPC across kernels\n\n%s\n", t.render().c_str());
    out += csprintf(
        "IPC gain geomean: %.2fx all kernels (paper: "
        "2.80x incl. DNN), %.2fx threaded (paper: 4.30x)\n",
        geomean(gainsAll), geomean(gainsThreaded));
    return out;
}

std::string
fig18(FigureSet &f)
{
    const auto &ks = f.kernels();
    auto rips = runAll(f, ArchVariant::RipTide);
    auto pipes = runAll(f, ArchVariant::Pipestitch);

    Table t({"Benchmark", "System", "Inner/unit", "Outer/unit",
             "Inner PEs", "Outer PEs"});
    std::vector<double> innerGain, outerGain;
    for (size_t i = 0; i < ks.size(); i++) {
        const auto &rip = rips[i].get();
        const auto &pipe = pipes[i].get();
        auto ripIpc =
            sim::computeLoopIpc(rip.compiled().graph, rip.sim.stats);
        auto pipeIpc = sim::computeLoopIpc(pipe.compiled().graph,
                                           pipe.sim.stats);
        t.addRow({ks[i]->name, "RipTide",
                  Table::fmt(ripIpc.innerPerUnit, 3),
                  Table::fmt(ripIpc.outerPerUnit, 3),
                  csprintf("%d", ripIpc.innerPes),
                  csprintf("%d", ripIpc.outerPes)});
        t.addRow({"", "Pipestitch",
                  Table::fmt(pipeIpc.innerPerUnit, 3),
                  Table::fmt(pipeIpc.outerPerUnit, 3),
                  csprintf("%d", pipeIpc.innerPes),
                  csprintf("%d", pipeIpc.outerPes)});
        if (FigureSet::isThreadedKernel(i)) {
            if (ripIpc.innerPerUnit > 0)
                innerGain.push_back(pipeIpc.innerPerUnit /
                                    ripIpc.innerPerUnit);
            if (ripIpc.outerPerUnit > 0)
                outerGain.push_back(pipeIpc.outerPerUnit /
                                    ripIpc.outerPerUnit);
        }
    }

    std::string out = csprintf(
        "Fig. 18: Per-unit IPC, inner vs outer loops\n\n%s\n",
        t.render().c_str());
    out += csprintf(
        "Threaded-kernel per-unit IPC gain geomean: inner "
        "%.2fx (paper: 3.62x), outer %.2fx (paper: 3.51x)\n",
        geomean(innerGain), geomean(outerGain));
    return out;
}

std::string
fig19(FigureSet &f)
{
    const auto &ks = f.kernels();
    auto rips = runAll(f, ArchVariant::RipTide);
    auto sbs = runAll(f, ArchVariant::PipeSB);
    auto cfins = runAll(f, ArchVariant::PipeCFiN);
    auto cfops = runAll(f, ArchVariant::PipeCFoP);

    Table t({"Benchmark", "RipTide", "PipeSB", "PipeCFiN",
             "PipeCFoP"});
    std::vector<double> sbVsDest, sbVsRip;
    for (size_t i = 0; i < ks.size(); i++) {
        double rip = static_cast<double>(rips[i].get().cycles());
        double sb = static_cast<double>(sbs[i].get().cycles());
        double cfin = static_cast<double>(cfins[i].get().cycles());
        double cfop = static_cast<double>(cfops[i].get().cycles());
        sbVsDest.push_back(sb / std::min(cfin, cfop));
        sbVsRip.push_back(sb / rip);
        t.addRow({ks[i]->name, "1.00", Table::fmt(sb / rip, 2),
                  Table::fmt(cfin / rip, 2),
                  Table::fmt(cfop / rip, 2)});
    }

    std::string out = csprintf(
        "Fig. 19: Normalized time (RipTide = 1.00, lower "
        "is better)\n\n%s\n",
        t.render().c_str());
    out += csprintf(
        "Source buffering costs %.2fx geomean vs the best "
        "destination-buffered config (the Fig. 12 multicast "
        "hold).\n"
        "PipeSB vs RipTide geomean: %.2fx (paper: 1.13x slowdown; "
        "our PipeSB keeps more of the threading win on the "
        "sparse-sparse kernels, but shows the same Dither-style "
        "inversions where source buffering erases threading "
        "entirely).\n",
        geomean(sbVsDest), geomean(sbVsRip));
    return out;
}

std::string
fig20(FigureSet &f)
{
    const auto &ks = f.kernels();
    std::vector<std::shared_future<FabricRun>> d4, d8, d16;
    for (size_t i = 2; i < ks.size(); i++) { // threaded kernels
        d4.push_back(f.run(ks[i], ArchVariant::Pipestitch, 4));
        d8.push_back(f.run(ks[i], ArchVariant::Pipestitch, 8));
        d16.push_back(f.run(ks[i], ArchVariant::Pipestitch, 16));
    }

    Table t({"Benchmark", "Depth 4", "Depth 8", "Depth 16"});
    for (size_t i = 2; i < ks.size(); i++) {
        double base =
            static_cast<double>(d4[i - 2].get().cycles());
        double c8 = static_cast<double>(d8[i - 2].get().cycles());
        double c16 =
            static_cast<double>(d16[i - 2].get().cycles());
        t.addRow({ks[i]->name, "1.00", Table::fmt(base / c8, 2),
                  Table::fmt(base / c16, 2)});
    }

    return csprintf("Fig. 20: Speedup vs buffer depth (threaded "
                    "kernels, depth 4 = 1.00)\n\n%s",
                    t.render().c_str());
}

struct PeCounts
{
    int mem = 0, stream = 0, arith = 0, cf = 0, dispatch = 0;

    int
    total() const
    {
        return mem + stream + arith + cf + dispatch;
    }
};

PeCounts
countPes(const dfg::Graph &g)
{
    PeCounts c;
    for (const auto &n : g.nodes) {
        if (n.cfInNoc || n.kind == dfg::NodeKind::Trigger)
            continue; // in-NoC ops and the start signal use no PE
        switch (n.peClass()) {
          case dfg::PeClass::Memory: c.mem++; break;
          case dfg::PeClass::Stream: c.stream++; break;
          case dfg::PeClass::Arith:
          case dfg::PeClass::Multiplier: c.arith++; break;
          case dfg::PeClass::ControlFlow:
            if (n.kind == dfg::NodeKind::Dispatch)
                c.dispatch++;
            else
                c.cf++;
            break;
        }
    }
    return c;
}

std::string
fig21(FigureSet &f)
{
    const auto &ks = f.kernels();
    std::vector<std::shared_future<compiler::CompileResult>> rips,
        cfins, cfops;
    for (const auto &k : ks) {
        rips.push_back(f.compile(k, ArchVariant::RipTide));
        cfins.push_back(f.compile(k, ArchVariant::PipeCFiN));
        cfops.push_back(f.compile(k, ArchVariant::PipeCFoP));
    }

    Table t({"Benchmark", "Config", "Mem", "Stream", "Arith",
             "CF (no disp)", "Dispatch", "Total PEs"});
    std::vector<double> cfinInc, cfopInc;
    for (size_t i = 0; i < ks.size(); i++) {
        PeCounts rip = countPes(rips[i].get().graph);
        PeCounts cfin = countPes(cfins[i].get().graph);
        PeCounts cfop = countPes(cfops[i].get().graph);
        auto add = [&](const char *name, const char *cfg,
                       const PeCounts &c) {
            t.addRow({name, cfg, csprintf("%d", c.mem),
                      csprintf("%d", c.stream),
                      csprintf("%d", c.arith), csprintf("%d", c.cf),
                      csprintf("%d", c.dispatch),
                      csprintf("%d", c.total())});
        };
        add(ks[i]->name.c_str(), "RipTide", rip);
        add("", "PipeCFiN", cfin);
        add("", "PipeCFoP", cfop);
        if (FigureSet::isThreadedKernel(i)) {
            cfinInc.push_back(static_cast<double>(cfin.total()) /
                              rip.total());
            cfopInc.push_back(static_cast<double>(cfop.total()) /
                              rip.total());
        }
    }

    std::string out = csprintf(
        "Fig. 21: Generated-PE counts\n\n%s\n", t.render().c_str());
    out += csprintf(
        "Threaded kernels, PE-count increase over RipTide "
        "(geomean): PipeCFiN %.0f%% (paper: +28%%), "
        "PipeCFoP %.0f%% (paper: +70%%)\n",
        (geomean(cfinInc) - 1.0) * 100.0,
        (geomean(cfopInc) - 1.0) * 100.0);
    return out;
}

std::string
table1(FigureSet &f)
{
    const auto &ks = f.kernels();
    std::vector<std::shared_future<compiler::CompileResult>>
        compiles;
    for (const auto &k : ks)
        compiles.push_back(f.compile(k, ArchVariant::Pipestitch));

    struct RowInfo
    {
        const char *input;
        const char *sparsity;
    };
    static const RowInfo paperInfo[] = {
        {"64 x 64", "-"},
        {"64 x 64", "0.90"},
        {"128 x 128", "-"},
        {"64 x 64", "0.89"},
        {"128 x 128", "0.90 (matrix & vector)"},
        {"64 x 64", "0.89 (both matrices)"},
    };
    static const RowInfo smokeInfo[] = {
        {"8 x 8", "-"},
        {"16 x 16", "0.80"},
        {"16 x 8", "-"},
        {"16 x 16", "0.80"},
        {"16 x 16", "0.80 (matrix & vector)"},
        {"8 x 8", "0.80 (both matrices)"},
    };
    const RowInfo *info =
        f.options().smoke ? smokeInfo : paperInfo;

    Table t({"Benchmark", "Input size", "Sparsity", "Threaded?",
             "Inner II"});
    for (size_t i = 0; i < ks.size(); i++) {
        auto res = compiles[i].get();
        // The heuristic's quantity: II of the innermost loop(s).
        int maxII = 0;
        auto inner = dfg::innermostLoops(res.graph);
        for (int loop : inner) {
            maxII = std::max(
                maxII, std::max(1, res.loopII[
                                       static_cast<size_t>(loop)]));
        }
        t.addRow({ks[i]->name, info[i].input, info[i].sparsity,
                  res.threaded ? "yes" : "no",
                  csprintf("%d", maxII)});
    }

    const auto &model = f.dnn();
    double minSp = model.config.weightSparsity[0];
    double maxSp = minSp;
    for (double s : model.config.weightSparsity) {
        minSp = std::min(minSp, s);
        maxSp = std::max(maxSp, s);
    }
    t.addRow({"DNN", csprintf("%d input", model.config.dims[0]),
              csprintf("%.2f - %.2f (%zu layers)", minSp, maxSp,
                       model.config.weightSparsity.size()),
              "yes",
              csprintf("(footprint %lld kB)",
                       static_cast<long long>(
                           model.footprintBytes() / 1024))});

    return csprintf("Table 1: Benchmark parameters\n\n%s\n",
                    t.render().c_str());
}

} // namespace

const std::vector<Figure> &
allFigures()
{
    static const std::vector<Figure> figures = {
        {"fig01", "End-to-end inference rate vs harvested power",
         fig01},
        {"fig03", "Lifetime on a D-cell battery vs inference rate",
         fig03},
        {"fig04", "DVFS at iso-throughput", fig04},
        {"fig13", "Speedup over the scalar core", fig13},
        {"fig14", "Energy normalized to scalar", fig14},
        {"fig15", "EDP normalized to RipTide", fig15},
        {"fig16", "Area breakdown", fig16},
        {"fig17", "IPC across kernels", fig17},
        {"fig18", "Per-unit IPC, inner vs outer loops", fig18},
        {"fig19", "Buffering/CF-placement ablations", fig19},
        {"fig20", "Speedup vs buffer depth", fig20},
        {"fig21", "Generated-PE counts", fig21},
        {"table1", "Benchmark parameters", table1},
    };
    return figures;
}

const Figure *
findFigure(const std::string &id)
{
    for (const Figure &f : allFigures()) {
        if (id == f.id)
            return &f;
    }
    return nullptr;
}

} // namespace pipestitch::figures

/**
 * @file
 * google-benchmark microbenchmarks of the toolchain itself:
 * compilation, mapping, and simulator throughput (simulated cycles
 * per wall-clock second).
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/logging.hh"
#include "compiler/compile.hh"
#include "core/system.hh"
#include "mapper/mapper.hh"
#include "sim/dense_scan.hh"
#include "sim/simulator.hh"
#include "sim/token.hh"
#include "trace/observer.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;

namespace {

const workloads::KernelInstance &
spmspvd()
{
    static auto kernel = [] {
        setQuiet(true);
        return workloads::makeSpMSpVd(64, 0.9, 7);
    }();
    return kernel;
}

void
BM_Compile(benchmark::State &state)
{
    const auto &k = spmspvd();
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    opts.unrollFactor = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto res = compiler::compileProgram(k.prog, k.liveIns, opts);
        benchmark::DoNotOptimize(res.graph.size());
    }
}
// Arg: spatial unroll factor (unroll 8 is where the register-set
// and CSE costs of larger programs show).
BENCHMARK(BM_Compile)->Arg(1)->Arg(8);

void
BM_Map(benchmark::State &state)
{
    const auto &k = spmspvd();
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(k.prog, k.liveIns, opts);
    fabric::Fabric fab;
    for (auto _ : state) {
        auto mapping = mapper::mapGraph(res.graph, fab);
        benchmark::DoNotOptimize(mapping.success);
    }
}
BENCHMARK(BM_Map);

void
BM_Simulate(benchmark::State &state)
{
    const auto &k = spmspvd();
    compiler::CompileOptions opts;
    opts.variant = state.range(0) == 0 ? ArchVariant::RipTide
                                       : ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(k.prog, k.liveIns, opts);
    int64_t cycles = 0;
    for (auto _ : state) {
        auto mem = k.memory;
        mem.resize(static_cast<size_t>(k.prog.memWords));
        auto r = sim::simulate(res.graph, mem, res.simConfig);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Simulate)->Arg(0)->Arg(1);

void
BM_SimulateScheduler(benchmark::State &state)
{
    const auto &k = spmspvd();
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(k.prog, k.liveIns, opts);
    // Arg(0) runs the DenseScan reference, Arg(1) the fast engine;
    // each iteration builds its Program, as sim::simulate does.
    const bool dense = state.range(0) == 0;
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &res.graph);
    int64_t cycles = 0;
    for (auto _ : state) {
        auto mem = k.memory;
        mem.resize(static_cast<size_t>(k.prog.memWords));
        auto program =
            std::make_shared<const sim::Program>(hold, res.simConfig);
        auto r = dense ? sim::DenseScan(program).run(mem)
                       : sim::ExecutionState(program).run(mem);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateScheduler)->Arg(0)->Arg(1);

/**
 * Observer overhead: Arg(0) simulates with no observer (the default
 * fast path — a null-pointer test per hook site), Arg(1) attaches a
 * do-nothing observer (which also forces the reference stall census
 * so event streams match the DenseScan reference's). Arg(0) must stay
 * within noise of BM_SimulateScheduler/1; the Arg(1) cost is the
 * price of tracing, not of the hooks.
 */
void
BM_SimulateObserver(benchmark::State &state)
{
    struct NullObserver final : trace::SimObserver
    {
    };
    const auto &k = spmspvd();
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(k.prog, k.liveIns, opts);
    auto cfg = res.simConfig;
    NullObserver nullObs;
    cfg.observer = state.range(0) == 0 ? nullptr : &nullObs;
    int64_t cycles = 0;
    for (auto _ : state) {
        auto mem = k.memory;
        mem.resize(static_cast<size_t>(k.prog.memWords));
        auto r = sim::simulate(res.graph, mem, cfg);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateObserver)->Arg(0)->Arg(1);

/**
 * The DenseScan oracle's token buffer: one TokenFifo per buffered
 * port, pushed and popped on every fire. Arg is the configured
 * depth (4/8/16 are the paper's depths). The fill/drain pattern
 * mirrors a producer bursting into a consumer.
 */
void
BM_TokenFifo(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    sim::TokenFifo fifo(depth);
    sim::Token tok;
    tok.value = 42;
    int64_t tokens = 0;
    for (auto _ : state) {
        for (int i = 0; i < depth; i++) {
            tok.born = tokens + i;
            fifo.push(tok);
        }
        while (!fifo.empty())
            benchmark::DoNotOptimize(fifo.pop().value);
        tokens += depth;
    }
    state.counters["tokens/s"] = benchmark::Counter(
        static_cast<double>(tokens), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TokenFifo)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_ScalarInterp(benchmark::State &state)
{
    const auto &k = spmspvd();
    for (auto _ : state) {
        auto mem = k.memory;
        mem.resize(static_cast<size_t>(k.prog.memWords));
        auto r = scalar::interpret(k.prog, mem, k.liveIns);
        benchmark::DoNotOptimize(r.counts.total());
    }
}
BENCHMARK(BM_ScalarInterp);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

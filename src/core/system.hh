/**
 * @file
 * Public one-call API: compile a kernel for an architecture
 * variant, map it onto the fabric, simulate it cycle-by-cycle, and
 * account energy — or run the same kernel on a scalar-core model.
 *
 * This is the entry point examples and benches use:
 *
 * @code
 *   auto kernel = workloads::makeSpmv(64, 0.9, seed);
 *   RunConfig cfg;
 *   cfg.variant = compiler::ArchVariant::Pipestitch;
 *   cfg.sim.bufferDepth = 8;       // simulator knobs live in .sim
 *   FabricRun run = runOnFabric(kernel, cfg);
 *   // run.sim.stats.cycles, run.energy.totalPj(), run.memory...
 * @endcode
 *
 * Simulator knobs (buffer depth, scheduler, thread-order checking,
 * watchdog, observability hooks) live in the embedded
 * `RunConfig::sim` — a `sim::SimConfig`, the single source of
 * truth; there are no duplicated fields at the RunConfig level. To
 * observe a run, attach a `trace::SimObserver` (Chrome-trace or
 * stall-timeline sink, see trace/observer.hh) via
 * `cfg.sim.observer`. Fields the toolchain derives itself —
 * `sim.buffering` / `sim.memBypass` (from the variant),
 * `sim.memBanks` (from the fabric config), and `sim.shareGroups`
 * (from the time-multiplexing planner) — are overwritten by
 * runOnFabric.
 */

#ifndef PIPESTITCH_CORE_SYSTEM_HH
#define PIPESTITCH_CORE_SYSTEM_HH

#include <memory>
#include <string>

#include "analysis/analyzer.hh"
#include "compiler/compile.hh"
#include "sim/bound.hh"
#include "energy/model.hh"
#include "fabric/area.hh"
#include "fabric/fabric.hh"
#include "mapper/mapper.hh"
#include "scalar/profile.hh"
#include "sim/program.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace pipestitch {

struct PreparedKernel;
struct RunConfig;

/**
 * Hook for memoizing the expensive pipeline stages. runOnFabric
 * consults it (when set on the RunConfig) before compiling or
 * mapping, and offers the freshly computed result back after a miss.
 * Implementations own keying and storage — the canonical one is
 * runner::MemoCache, which content-addresses kernels and graphs and
 * keeps everything in memory. Implementations must be thread-safe:
 * sweeps call runOnFabric from many threads against one shared
 * cache.
 *
 * Both stages are deterministic functions of the arguments the
 * hooks receive, so serving a hit is behavior-preserving by
 * construction.
 */
class PipelineCache
{
  public:
    virtual ~PipelineCache() = default;

    /** @return true and fill @p out on a hit. */
    virtual bool lookupCompile(const workloads::KernelInstance &kernel,
                               const compiler::CompileOptions &opts,
                               compiler::CompileResult &out) = 0;
    virtual void storeCompile(const workloads::KernelInstance &kernel,
                              const compiler::CompileOptions &opts,
                              const compiler::CompileResult &result) = 0;

    /** @return true and fill @p out on a hit. */
    virtual bool lookupMapping(const dfg::Graph &graph,
                               const fabric::FabricConfig &fabric,
                               const mapper::MapperOptions &opts,
                               mapper::Mapping &out) = 0;
    virtual void storeMapping(const dfg::Graph &graph,
                              const fabric::FabricConfig &fabric,
                              const mapper::MapperOptions &opts,
                              const mapper::Mapping &mapping) = 0;

    /**
     * Whole prepared artifacts (compile + map + lint + built
     * sim::Program), shared read-only by reference — a hit skips
     * every prepare stage at once. Optional: the default never hits,
     * so implementations that only memoize stages keep working.
     * Keying must exclude the kernel's memory image (that is
     * per-execution state) and the per-run sim fields
     * (observer/trace).
     */
    virtual std::shared_ptr<const PreparedKernel>
    lookupPrepared(const workloads::KernelInstance &,
                   const RunConfig &)
    {
        return nullptr;
    }
    virtual void
    storePrepared(const workloads::KernelInstance &,
                  const RunConfig &,
                  std::shared_ptr<const PreparedKernel>)
    {
    }
};

/** Configuration of one fabric execution. Aggregate-initializable;
 *  every field has a working default. */
struct RunConfig
{
    compiler::ArchVariant variant =
        compiler::ArchVariant::Pipestitch;

    /** The per-tile grid. With tilesX/tilesY at 1 (the default)
     *  this is the whole fabric — the legacy single-grid setup. */
    fabric::FabricConfig fabric;

    /** Tile grid (see fabric::Topology). More than one tile routes
     *  the prepare pipeline through the partition-then-place tiled
     *  mapper and models cross-tile edges as latency-N channels. */
    int tilesX = 1;
    int tilesY = 1;
    int interTileLatency = 4;
    int interTileCapacity = 4;

    compiler::CompileOptions::Threading threading =
        compiler::CompileOptions::Threading::Heuristic;
    bool useStreams = true;

    /** Spatial unrolling factor (see CompileOptions). */
    int unrollFactor = 1;

    /**
     * Allow time-multiplexing (Sec. 6 extension): when the kernel's
     * PE demand exceeds the fabric, fold cold (non-inner-loop)
     * operators onto shared PEs instead of failing to map.
     */
    bool allowTimeMultiplex = false;

    /** Map onto the fabric (adds placement/routing + real hop
     *  counts). Disable for quick functional runs. */
    bool map = true;

    /** Require the final memory image to match the golden scalar
     *  interpreter (cheap insurance; on by default). */
    bool verifyAgainstGolden = true;

    /**
     * Run the static analyzer on every compiled graph (deadlock /
     * balance passes, analysis/analyzer.hh) and every mapping
     * (placement lint, analysis/placement.hh); fatal() on any error
     * diagnostic. The analyzer's verdict is also cross-checked
     * against the simulator: a graph certified deadlock-free that
     * nonetheless deadlocks in simulation fails the run with a
     * disagreement diagnosis instead of a plain deadlock report.
     * On by default so every sweep verifies every graph it
     * compiles; the report lands in FabricRun::analysis.
     */
    bool analyze = true;

    uint64_t mapperSeed = 1;

    /** Portfolio restarts for the annealing mapper (result-bearing:
     *  part of cache keys). */
    int mapperSeeds = 4;

    /** Worker threads for the tiled mapper's per-tile placements
     *  (MapperOptions::jobs; single-grid mapping ignores it). The
     *  placement is bit-identical for any value, so this never
     *  enters cache keys. */
    int mapperJobs = 1;

    /** Certified throughput floor handed to the mapper (see
     *  MapperOptions::boundPruneCycles); result-bearing, part of
     *  cache keys. No caller in src/ sets it; it stays, with its
     *  cache-key fields, only because the frozen perfbench replay
     *  copies it into MapperOptions. 0 (off) by default. */
    int64_t boundPruneCycles = 0;

    /**
     * Memo cache for the compile and map stages (not owned; null
     * disables memoization). See PipelineCache.
     */
    PipelineCache *cache = nullptr;

    /**
     * Silence warn()/inform() for this run only (on whichever
     * thread executes it), instead of the process-wide setQuiet().
     * Parallel sweeps set this so one noisy run cannot silence — or
     * be silenced by — its neighbors.
     */
    bool quiet = false;

    /**
     * Simulator configuration — the single source of truth for
     * `bufferDepth`, `checkThreadOrder`, `scheduler`, `maxCycles`,
     * `trace`, and `observer`. runOnFabric overwrites the derived
     * fields: `buffering`/`memBypass` follow the compiled variant,
     * `memBanks` follows `fabric.memBanks`, and `shareGroups` comes
     * from the time-multiplexing planner.
     */
    sim::SimConfig sim;

    bool tiled() const { return int64_t{tilesX} * tilesY > 1; }

    fabric::Topology
    topology() const
    {
        fabric::Topology t;
        t.tile = fabric;
        t.tilesX = tilesX;
        t.tilesY = tilesY;
        t.interTileLatency = interTileLatency;
        t.interTileCapacity = interTileCapacity;
        return t;
    }
};

/**
 * The immutable product of the prepare pipeline: one kernel compiled,
 * statically analyzed, mapped, linted, and lowered into a built
 * sim::Program, under one RunConfig. Deeply read-only after
 * prepareKernel returns; any number of threads may execute it
 * concurrently (each execution owns its ExecutionState and memory
 * image). This is the unit `pstool serve` and the figures sweeps
 * cache and share — prepare once, execute N times. Always owned by
 * a shared_ptr (prepareKernel makes it so): every FabricRun of it
 * holds a reference instead of a copy.
 */
struct PreparedKernel : std::enable_shared_from_this<PreparedKernel>
{
    /** Owned by shared_ptr so the Program's graph pointer can alias
     *  it (the graph must outlive every execution). */
    std::shared_ptr<const compiler::CompileResult> compiled;
    mapper::Mapping mapping;
    analysis::AnalysisReport analysis;
    /** Fully derived simulator config (buffering/memBypass from the
     *  variant, memBanks from the fabric, shareGroups from the
     *  time-multiplexing planner); observer/trace stripped. */
    sim::SimConfig simCfg;
    std::shared_ptr<const sim::Program> program;
    /**
     * Static throughput-bound terms for `program`
     * (analysis::computeBound + the advisory route term when
     * mapped). Structural only — evaluate against a run's SimStats
     * to get that run's certified cycle floor. Empty when
     * RunConfig::analyze is off.
     */
    sim::BoundReport bound;
    fabric::AreaBreakdown area;
    double avgHops = 2.0; ///< mapping's, or the unmapped fallback
    bool mapped = false;

    // Tiled-fabric extras (RunConfig::tiled() prepares these).
    bool tiled = false;
    fabric::Topology topo;     ///< 1×1 wrapping `fabric` otherwise
    std::vector<int> tileOf;   ///< node → tile (-1 trigger)
    int64_t cutEdges = 0;      ///< cross-tile consumer edges
    int interTileLoadMax = 0;  ///< max routes on a boundary link
};

using PreparedPtr = std::shared_ptr<const PreparedKernel>;

/** Everything produced by one fabric execution. */
struct FabricRun
{
    /**
     * The prepared artifact this run executed, shared read-only;
     * null in a FabricRun{} whose prepare failed. The compiled
     * kernel, mapping, analyzer report and bound terms are read
     * through it (the accessors below), not copied per run.
     */
    PreparedPtr prepared;

    sim::SimResult sim;
    fabric::AreaBreakdown area;
    energy::EnergyBreakdown energy;
    scalar::MemImage memory; ///< final memory image

    double seconds = 0;
    double edp = 0; ///< pJ·s

    /**
     * Certified static throughput bound instantiated with this
     * run's fire counts (0 when RunConfig::analyze is off). On
     * every clean analyzed run, executeOnFabric cross-checks
     * boundCycles <= cycles() and fails the run on violation —
     * mirroring the deadlock-certification cross-check.
     */
    int64_t boundCycles = 0;
    /** The evaluation of bound() against this run's stats (zero
     *  unless the run retired and was analyzed); `binding` indexes
     *  the term that set boundCycles. */
    sim::BoundReport::Evaluation boundEval;

    /** The compiled kernel (empty when prepare failed). */
    const compiler::CompileResult &compiled() const;
    /** The placement (empty when unmapped or prepare failed). */
    const mapper::Mapping &mapping() const;
    /** Static-analyzer findings (empty when RunConfig::analyze is
     *  off; placement rules only when mapping ran). */
    const analysis::AnalysisReport &analysis() const;
    /** The bound's structural terms (empty when RunConfig::analyze
     *  is off). `pstool bound` renders these with boundEval. */
    const sim::BoundReport &bound() const;

    int64_t cycles() const { return sim.stats.cycles; }
};

/**
 * The compile stage of prepareKernel: @p kernel compiled under
 * @p opts, looked up in and stored back to @p cache when non-null.
 */
compiler::CompileResult
compileKernel(const workloads::KernelInstance &kernel,
              const compiler::CompileOptions &opts,
              PipelineCache *cache);

/**
 * Run the prepare pipeline (or fetch the whole artifact from
 * config.cache). An unroll factor that breaks
 * compiler::checkUnrollFactor's rule fails before anything compiles.
 * Failure contract: with @p error null any failure is
 * fatal() — the legacy batch behavior; with @p error non-null the
 * function returns nullptr and fills *error instead, so long-lived
 * callers (the serve daemon) survive bad requests.
 */
PreparedPtr prepareKernel(const workloads::KernelInstance &kernel,
                          const RunConfig &config,
                          std::string *error = nullptr);

/** What one simulation of a prepared Program produces. */
struct SimOutcome
{
    sim::SimResult sim;
    scalar::MemImage memory; ///< final memory image
};

/**
 * The simulate step of executeOnFabric: fresh memory image from
 * @p kernel, one sim::ExecutionState over the shared Program, with
 * the observer, trace and watchdog of @p config.sim. Never fails:
 * a deadlock or watchdog expiry is reported in the SimResult. The
 * outcome is a function of `prepared.program->digest()`, the
 * kernel's initial memory image and the watchdog alone, so runs
 * whose Programs share a digest may share one outcome
 * (runner::Runner does).
 */
SimOutcome simulateOnFabric(const PreparedKernel &prepared,
                            const workloads::KernelInstance &kernel,
                            const RunConfig &config);

/** The verdict of crossCheck on one simulation. */
struct CrossCheck
{
    /** The bound evaluated on the run's stats (zero unless the run
     *  retired). */
    sim::BoundReport::Evaluation boundEval;
    std::string disagreement; ///< empty when the models agree
};

/**
 * The analyzer ↔ simulator cross-checks of one simulation, shared by
 * finishOnFabric, `pstool lint --cross-check` and `pstool bench-sim`:
 * a quiescence deadlock of a graph @p analysis certified
 * deadlock-free, or a clean retire that beats the certified cycle
 * floor of @p bound, means one of the two models is wrong. A
 * watchdog expiry or memory fault is no deadlock verdict: whether a
 * run ends, and in bounds, depends on its input.
 */
CrossCheck crossCheck(const analysis::AnalysisReport &analysis,
                      const sim::BoundReport &bound,
                      const sim::SimResult &sim);

/**
 * The finish step of executeOnFabric, for one PreparedKernel and
 * its RunConfig: the deadlock cross-check against the analyzer, the
 * certified-bound cross-check, golden verification, and energy/EDP
 * accounting over @p outcome. The FabricRun shares @p prepared
 * (which must be owned by a shared_ptr, as prepareKernel's are).
 *
 * Failure contract: with @p error null, memory fault / deadlock /
 * bound violation / golden mismatch are fatal() (legacy). With
 * @p error non-null, *error is set and the partial FabricRun is
 * still returned — run.sim distinguishes a memory fault and a
 * watchdog expiry from a certified deadlock.
 */
FabricRun finishOnFabric(const PreparedKernel &prepared,
                         const workloads::KernelInstance &kernel,
                         const RunConfig &config, SimOutcome outcome,
                         std::string *error = nullptr);

/**
 * Execute @p prepared once: simulateOnFabric then finishOnFabric,
 * under the latter's failure contract. Thread-safe with respect to
 * other executions of the same PreparedKernel.
 */
FabricRun executeOnFabric(const PreparedKernel &prepared,
                          const workloads::KernelInstance &kernel,
                          const RunConfig &config,
                          std::string *error = nullptr);

/** One scalar-core execution (golden model + baseline numbers). */
struct ScalarRun
{
    scalar::EventCounts counts;
    energy::EnergyBreakdown energy;
    scalar::MemImage memory;
    double cycles = 0;
    double seconds = 0;
    double edp = 0;
};

/**
 * Compile+map+simulate @p kernel under @p config — prepareKernel +
 * executeOnFabric in one call, under the same error contract: with
 * @p error null any failure is fatal() (legacy batch behavior);
 * with @p error non-null, *error is set and the partial FabricRun
 * (default-constructed when even prepare failed) is returned.
 */
FabricRun runOnFabric(const workloads::KernelInstance &kernel,
                      const RunConfig &config,
                      std::string *error = nullptr);

/** Interpret @p kernel under @p profile (default: the RISC-V
 *  control core the paper's "Scalar" bars use). */
ScalarRun runOnScalar(
    const workloads::KernelInstance &kernel,
    const scalar::ScalarProfile &profile =
        scalar::riptideScalarProfile());

} // namespace pipestitch

#endif // PIPESTITCH_CORE_SYSTEM_HH

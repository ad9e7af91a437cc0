/**
 * @file
 * Content-addressed memo cache for the compile→map→simulate
 * pipeline.
 *
 * Keys are 64-bit content hashes: a kernel is addressed by its
 * structural SIR fingerprint (sir::fingerprint) plus bound live-ins
 * (and, for whole runs, its initial memory image), a graph by
 * dfg::graphFingerprint, and every option struct contributes all of
 * its fields. Identical inputs therefore hit regardless of which
 * sweep, figure, or process asked first.
 *
 * The cache holds three layers of the prepare pipeline, all
 * in-memory and scoped to one process:
 *  - compile results (compiling is cheap relative to mapping but
 *    far from free at paper scale);
 *  - mapper placements, so every figure and sweep point that maps
 *    one graph onto one fabric runs the anneal once;
 *  - whole PreparedKernels (built sim::Program included), shared by
 *    reference.
 * There is no on-disk layer: the mapper is well under 1 % of a
 * figures sweep, and a warm disk cache measured no faster than a
 * cold one (docs/benches.md).
 * Execution is shared by runner::Runner (see sweep.hh), not here,
 * because it depends on the kernel's memory image:
 *  - one simulation per distinct machine, keyed on
 *    (sim::Program::digest(), kernelKey, watchdog) — variants that
 *    build the same Program share it, and each job still runs its
 *    own golden check, bound check and energy accounting;
 *  - whole FabricRuns, for exact-duplicate jobs only (runKey).
 *
 * All methods are thread-safe; counters let tests assert "the warm
 * rerun computed zero mappings".
 */

#ifndef PIPESTITCH_RUNNER_MEMO_HH
#define PIPESTITCH_RUNNER_MEMO_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/system.hh"

namespace pipestitch::runner {

/** Snapshot of cache activity since construction. */
struct MemoStats
{
    int64_t compileHits = 0;
    int64_t compileComputes = 0;
    int64_t mapHits = 0;     ///< mapping hits
    int64_t mapDiskHits = 0; ///< always 0 (no on-disk layer)
    int64_t mapComputes = 0; ///< mapper actually invoked
    int64_t preparedHits = 0;     ///< whole-artifact hits
    int64_t preparedComputes = 0; ///< prepare pipelines actually run
};

class MemoCache final : public PipelineCache
{
  public:
    bool lookupCompile(const workloads::KernelInstance &kernel,
                       const compiler::CompileOptions &opts,
                       compiler::CompileResult &out) override;
    void storeCompile(const workloads::KernelInstance &kernel,
                      const compiler::CompileOptions &opts,
                      const compiler::CompileResult &result) override;

    bool lookupMapping(const dfg::Graph &graph,
                       const fabric::FabricConfig &fabric,
                       const mapper::MapperOptions &opts,
                       mapper::Mapping &out) override;
    void storeMapping(const dfg::Graph &graph,
                      const fabric::FabricConfig &fabric,
                      const mapper::MapperOptions &opts,
                      const mapper::Mapping &mapping) override;

    /** Whole prepared artifacts. Shared by reference, so N concurrent
     *  executions of one kernel×config reuse one Program. */
    std::shared_ptr<const PreparedKernel>
    lookupPrepared(const workloads::KernelInstance &kernel,
                   const RunConfig &config) override;
    void storePrepared(
        const workloads::KernelInstance &kernel,
        const RunConfig &config,
        std::shared_ptr<const PreparedKernel> prepared) override;

    MemoStats stats() const;

    /** @{ Content keys (exposed for the run-level dedup and tests). */
    static uint64_t programKey(const workloads::KernelInstance &k);
    static uint64_t kernelKey(const workloads::KernelInstance &k);
    static uint64_t compileKey(const workloads::KernelInstance &k,
                               const compiler::CompileOptions &opts);
    static uint64_t mappingKey(const dfg::Graph &graph,
                               const fabric::FabricConfig &fabric,
                               const mapper::MapperOptions &opts);
    static uint64_t runKey(const workloads::KernelInstance &k,
                           const RunConfig &cfg);
    /** runKey from an already computed kernelKey(k). */
    static uint64_t runKey(uint64_t kernelKey, const RunConfig &cfg);
    /** Prepared-artifact key: like runKey but without the memory
     *  image (per-execution state) or golden-verify flag. */
    static uint64_t preparedKey(const workloads::KernelInstance &k,
                                const RunConfig &cfg);
    /** @} */

  private:
    mutable std::mutex mu;
    std::unordered_map<uint64_t, compiler::CompileResult> compiles;
    std::unordered_map<uint64_t, mapper::Mapping> mappings;
    std::unordered_map<uint64_t,
                       std::shared_ptr<const PreparedKernel>>
        prepareds;

    mutable std::atomic<int64_t> nCompileHits{0};
    mutable std::atomic<int64_t> nCompileComputes{0};
    mutable std::atomic<int64_t> nMapHits{0};
    mutable std::atomic<int64_t> nMapComputes{0};
    mutable std::atomic<int64_t> nPreparedHits{0};
    mutable std::atomic<int64_t> nPreparedComputes{0};
};

} // namespace pipestitch::runner

#endif // PIPESTITCH_RUNNER_MEMO_HH

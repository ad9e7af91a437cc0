/**
 * @file
 * In-memory span recorder for the traced pass.
 *
 * The benchmark wraps every call into a toolchain layer in a span:
 * name, layer, start, end, parent span, and the operation it belongs
 * to. Spans live in memory until the pass ends; then they are folded
 * into per-layer self times (a span's duration minus the part its
 * children cover) and optionally written as Trace Event JSON in the
 * shape trace::ChromeTraceSink emits.
 *
 * Counts are recorded at the same boundaries (fires, maps, nodes), so
 * ratios such as ns per fire are measured where the work happens.
 */

#ifndef PSBENCH_SPANS_HH
#define PSBENCH_SPANS_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

namespace psbench {

/** The toolchain modules the benchmark times. `None` marks the
 *  operation root, whose self time is what no layer covers. */
enum class Layer : uint8_t {
    None,
    Sir,
    Compiler,
    Analysis,
    Mapper,
    Sim,
    Scalar,
    Energy,
    Runner,
    Count
};

const char *layerName(Layer layer);

int64_t nowNs();

struct Span
{
    const char *name = "";
    Layer layer = Layer::None;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;
    int32_t op = -1;
    int32_t tid = 0; ///< replay thread (Trace Event track)
};

/** Counts taken at layer boundaries during the traced pass. */
struct LayerCounts
{
    int64_t simRuns = 0;
    int64_t simFires = 0;    ///< SimStats::totalPeFires of each run
    int64_t simCycles = 0;
    int64_t compiles = 0;    ///< compileProgram calls
    int64_t dfgNodes = 0;    ///< nodes of every compiled graph
    int64_t maps = 0;        ///< mapGraph / mapGraphTiled calls
    double mapCost = 0;      ///< sum of Mapping::cost
    int64_t cutEdges = 0;    ///< cross-tile edges of tiled maps
    int64_t parses = 0;      ///< sir::parseSir calls
    int64_t goldens = 0;     ///< scalar::interpret calls

    LayerCounts &operator+=(const LayerCounts &o);
};

class Tracer
{
  public:
    explicit Tracer(int32_t tid = 0) : tid(tid) {}

    /** Start a new operation; later spans carry its id. */
    void beginOp() { opId++; }
    /** Start operation @p id (replay threads number their own). */
    void beginOp(int32_t id) { opId = id; }
    int32_t lastOp() const { return opId; }

    /** Append @p other's spans and counts (a finished replay
     *  thread's), keeping its operation ids. */
    void absorb(const Tracer &other);

    int32_t open(const char *name, Layer layer);
    void close(int32_t span);

    const std::deque<Span> &spans() const { return log; }
    LayerCounts counts;

  private:
    /** A deque, so growing it never copies (and never stalls an
     *  open span). */
    std::deque<Span> log;
    int32_t current = -1;
    int32_t opId = -1;
    int32_t tid;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, Layer layer)
        : t(tracer), id(tracer.open(name, layer))
    {
    }
    ~SpanScope() { t.close(id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t;
    int32_t id;
};

/** Self times folded out of one traced pass. */
struct SpanSummary
{
    /** Self time per span name, in ms. */
    std::vector<std::pair<std::string, double>> byName;
    double layerMs[static_cast<int>(Layer::Count)] = {};
    double opMs = 0;       ///< summed duration of operation roots
    double coveredMs = 0;  ///< part of opMs inside layer spans
    /** Worst operation's share inside layer spans, each operation's
     *  share taken as its median over the traced passes (one
     *  preemption between two spans would otherwise decide it). */
    double minCoverage = 1;

    double nameMs(const std::string &name) const;
};

/** @p opsPerPass maps operation ids back to their index in a pass
 *  (every traced pass runs the same operations in the same order). */
SpanSummary summarize(const std::deque<Span> &spans, size_t opsPerPass);

/** Write @p spans as Trace Event JSON ("X" events, µs timestamps,
 *  one track, `args.op` / `args.parent` for the causal links). */
void writeTraceEvents(const std::deque<Span> &spans,
                      const std::string &workload, std::ostream &out);

} // namespace psbench

#endif // PSBENCH_SPANS_HH

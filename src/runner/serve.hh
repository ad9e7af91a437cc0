/**
 * @file
 * `pstool serve` — a resident simulation service over newline-
 * delimited JSON (one request per line on stdin, one response per
 * line on stdout; see docs/serve.md for the schema).
 *
 * Each request names a kernel (inline SIR text), a variant, and a
 * sim configuration; the server compiles, maps, lints, and simulates
 * it and answers with a result record whose `status` distinguishes
 * `ok`, `deadlock` (quiesced), `watchdog` (maxCycles elapsed while
 * the fabric was live), `fault` (a Load or Store addressed memory
 * outside the image), `rejected` (admission control), and `error`
 * (malformed request, analysis/map failure, golden divergence).
 *
 * Concurrency and caching:
 *  - requests execute on a runner::ThreadPool; responses complete
 *    out of order and are stitched to their request `id`s;
 *  - content-identical requests (same kernel text, live-ins, memory,
 *    config) collapse onto one in-flight execution and one memoized
 *    response — the serve-level analogue of runner::Runner's run
 *    dedup;
 *  - each distinct SIR text is parsed once (ParsedKernelCache);
 *    later requests naming it deep-copy the cached program;
 *  - distinct requests for the same kernel×config share one
 *    PreparedKernel (compiled graph, mapping, analysis, bound and
 *    sim::Program) through the MemoCache prepared layer, and the
 *    response reads it in place rather than copying it; each run
 *    borrows one of the Program's idle fast engines, so a request
 *    allocates a fresh engine only when every engine of its Program
 *    is busy;
 *  - admission control: at most `maxQueue` requests may be queued or
 *    running; excess requests get an immediate structured
 *    `rejected` response instead of unbounded buffering.
 *
 * A request that fails anywhere in the pipeline — including fatal()
 * paths written for batch tools — produces an `error` response; the
 * server never exits on user input (base/logging.hh
 * ScopedFatalTrap).
 */

#ifndef PIPESTITCH_RUNNER_SERVE_HH
#define PIPESTITCH_RUNNER_SERVE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "fabric/fabric.hh"
#include "runner/memo.hh"
#include "runner/pool.hh"
#include "sir/parser.hh"

namespace pipestitch::runner {

struct ServeOptions
{
    /** Worker threads; <= 0 means defaultJobs(). */
    int jobs = 0;

    /** Admission bound: max requests queued or running at once.
     *  Further submissions get an immediate `rejected` response. */
    int maxQueue = 1024;

    /** Default fabric for every request (`pstool serve --fabric=`).
     *  A request's `tiles` field overrides the tile arrangement. */
    fabric::Topology topology;
};

/** Snapshot of server activity since construction. */
struct ServeStats
{
    int64_t received = 0;   ///< submit() calls
    int64_t accepted = 0;   ///< admitted to the pool
    int64_t rejected = 0;   ///< refused by admission control
    int64_t badRequests = 0; ///< unparseable (immediate error)
    int64_t dedupHits = 0;  ///< served from an identical request
    int64_t completed = 0;  ///< executions finished
    int64_t peakQueued = 0; ///< high-water mark of queued+running
    int64_t parseHits = 0;   ///< SIR texts found already parsed
    int64_t parseMisses = 0; ///< SIR texts parsed (failures included)
};

/**
 * A server's parsed SIR kernels, keyed by their exact text (compared
 * in full, not by hash alone). Only successful parses are kept, so a
 * malformed text fails the same way every time. Fixed bounds on the
 * number of texts and on their total size evict the oldest entry
 * first; a text larger than the byte bound is parsed but never kept.
 */
class ParsedKernelCache
{
  public:
    static constexpr size_t kMaxTexts = 64;
    static constexpr size_t kMaxBytes = size_t{4} << 20;

    /** The parse of @p text, from the cache or parsed now (outside
     *  the lock). fatal()s on a malformed text, like sir::parseSir. */
    std::shared_ptr<const sir::ParseResult>
    get(const std::string &text);

    int64_t hits() const;
    int64_t misses() const;
    /** Texts held and their total size in bytes. */
    size_t entries() const;
    size_t bytes() const;

  private:
    mutable std::mutex mu;
    std::unordered_map<std::string,
                       std::shared_ptr<const sir::ParseResult>>
        byText;
    /** Keys of byText (node-owned, so stable), oldest first. */
    std::deque<const std::string *> order;
    size_t textBytes = 0;

    std::atomic<int64_t> nHits{0};
    std::atomic<int64_t> nMisses{0};
};

class ServeServer
{
  public:
    /** Responses kept for content dedup, oldest evicted first; a
     *  duplicate of an evicted request runs again and answers the
     *  same bytes. */
    static constexpr size_t kMaxResponses = 1024;

    explicit ServeServer(const ServeOptions &options = {});
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** One submitted request: the response payload (a JSON object
     *  without the `id` member) resolves when execution finishes;
     *  `doneNs` carries the steady-clock completion stamp for
     *  latency accounting. */
    struct Response
    {
        std::string id;
        std::shared_future<std::string> payload;
        std::shared_ptr<std::atomic<int64_t>> doneNs;
    };

    /**
     * Submit one request line (a complete JSON object, no trailing
     * newline). Never blocks on execution: rejected or unparseable
     * requests come back with an already-resolved payload.
     */
    Response submit(const std::string &line);

    /** Final response line for a resolved @p r (blocks until the
     *  payload is ready). */
    static std::string render(const Response &r);

    ServeStats stats() const;
    MemoCache &cache() { return memo; }
    const ParsedKernelCache &parsedKernels() const { return parsed; }
    int threadCount() { return pool.threadCount(); }

  private:
    Response immediate(const std::string &id,
                       const std::string &payload);

    ServeOptions opts;
    MemoCache memo;
    ParsedKernelCache parsed;

    mutable std::mutex mu;
    /** Request content key -> shared payload (in-flight or done). */
    std::unordered_map<
        uint64_t, std::pair<std::shared_future<std::string>,
                            std::shared_ptr<std::atomic<int64_t>>>>
        byContent;
    /** Keys of byContent, oldest first. */
    std::deque<uint64_t> contentOrder;

    std::atomic<int64_t> nReceived{0};
    std::atomic<int64_t> nAccepted{0};
    std::atomic<int64_t> nRejected{0};
    std::atomic<int64_t> nBadRequests{0};
    std::atomic<int64_t> nDedupHits{0};
    std::atomic<int64_t> nCompleted{0};
    std::atomic<int64_t> nPeakQueued{0};

    /** Last member: joins workers before the state above dies. */
    ThreadPool pool;
};

/**
 * Pump @p in to @p out: one request per line, one response per line,
 * in submission order. Returns 0; individual request failures are
 * reported in-band.
 */
int serveLoop(ServeServer &server, std::istream &in,
              std::ostream &out);

/** Load-generator options for `pstool serve --bench`. */
struct ServeBenchOptions
{
    int requests = 10000; ///< total requests to submit
    int unique = 32;      ///< distinct request contents
};

/**
 * Drive @p n requests through a fresh server (admission bound lifted
 * to cover the whole burst so the queue genuinely reaches @p n) and
 * return the benchmark record: requests/sec plus p50/p99 latency and
 * the dedup hit rate, as written to BENCH_serve.json.
 */
std::string runServeBench(const ServeOptions &options,
                          const ServeBenchOptions &bench);

} // namespace pipestitch::runner

#endif // PIPESTITCH_RUNNER_SERVE_HH

#include "runner/serve.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "base/hash.hh"
#include "base/logging.hh"
#include "core/batch.hh"
#include "core/system.hh"
#include "runner/sweep.hh"
#include "sim/report.hh"
#include "sir/parser.hh"
#include "trace/chrome_trace.hh"
#include "trace/json.hh"
#include "trace/json_parse.hh"
#include "workloads/kernels.hh"

namespace pipestitch::runner {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One admitted request, ready to execute. */
struct ParsedRequest
{
    std::string id;
    KernelPtr kernel;
    RunConfig cfg;
    std::string traceFile;
    int batch = 1; ///< shard count (>1 runs the batched path)
    uint64_t key = 0; ///< content key (kernel + config + trace file)
};

std::string
statusPayload(const char *status, const std::string &error)
{
    sim::Report r;
    r.add("schema_version", sim::kJsonSchemaVersion);
    r.add("status", status);
    if (!error.empty())
        r.add("error", error);
    return r.toJson();
}

/** Read @p v into @p out if it is an integer that fits T, else name
 *  @p field in @p error: a cast would run on a value never sent. */
template <typename T>
bool
readInteger(const trace::JsonValue &v, const std::string &field,
            T &out, std::string &error)
{
    // T's range is [lo, -lo) for a two's-complement T, and both
    // bounds are exact doubles.
    constexpr double lo =
        static_cast<double>(std::numeric_limits<T>::min());
    const double x = v.number;
    if (v.kind != trace::JsonValue::Kind::Number || !(x >= lo) ||
        !(x < -lo) || std::trunc(x) != x) {
        error = csprintf(
            "\"%s\" must be an integer in [%lld, %lld]", field.c_str(),
            static_cast<long long>(std::numeric_limits<T>::min()),
            static_cast<long long>(std::numeric_limits<T>::max()));
        return false;
    }
    out = static_cast<T>(x);
    return true;
}

/**
 * Parse one request line into @p out. @return false with @p error
 * set on any problem; @p out.id is still filled when the JSON was
 * readable, so the error response can carry the caller's id.
 */
bool
parseRequest(const std::string &line, const RunConfig &base,
             ParsedKernelCache &kernels, ParsedRequest &out,
             std::string &error)
{
    trace::JsonValue v;
    if (!trace::parseJson(line, v, &error)) {
        error = "bad JSON: " + error;
        return false;
    }
    if (!v.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    if (const auto *id = v.find("id"))
        out.id = id->asString();

    const auto *sirText = v.find("sir");
    if (!sirText ||
        sirText->kind != trace::JsonValue::Kind::String) {
        error = "missing \"sir\" (inline kernel text)";
        return false;
    }

    RunConfig cfg = base;
    if (const auto *s = v.find("variant")) {
        if (!compiler::parseArchVariant(s->asString(), cfg.variant)) {
            error = "unknown variant '" + s->asString() + "'";
            return false;
        }
    }
    if (const auto *d = v.find("depth")) {
        // Checked here: the Program build treats depth < 1 as an
        // internal invariant and aborts the whole daemon.
        if (!readInteger(*d, "depth", cfg.sim.bufferDepth, error))
            return false;
        if (cfg.sim.bufferDepth < 1) {
            error = "\"depth\" must be an integer >= 1";
            return false;
        }
    }
    if (const auto *u = v.find("unroll")) {
        if (!readInteger(*u, "unroll", cfg.unrollFactor, error))
            return false;
    }
    for (auto [name, flag] :
         {std::pair{"tm", &cfg.allowTimeMultiplex},
          std::pair{"map", &cfg.map},
          std::pair{"verify", &cfg.verifyAgainstGolden}}) {
        if (const auto *b = v.find(name)) {
            if (b->kind != trace::JsonValue::Kind::Bool) {
                error = csprintf("\"%s\" must be true or false", name);
                return false;
            }
            *flag = b->boolean;
        }
    }
    if (const auto *c = v.find("max_cycles")) {
        if (!readInteger(*c, "max_cycles", cfg.sim.maxCycles, error))
            return false;
    }
    if (const auto *tf = v.find("trace_file"))
        out.traceFile = tf->asString();
    if (const auto *s = v.find("scheduler")) {
        const std::string name = s->asString();
        if (name == "dense") {
            cfg.sim.scheduler = sim::SimConfig::Scheduler::DenseScan;
        } else if (name == "ready") {
            cfg.sim.scheduler = sim::SimConfig::Scheduler::ReadyList;
        } else {
            error = "unknown scheduler '" + name +
                    "' (expected dense or ready)";
            return false;
        }
    }
    if (const auto *t = v.find("tiles")) {
        // "TXxTY" overriding the server-default tile arrangement.
        if (!fabric::parseDims(t->asString(), "\"tiles\"", cfg.tilesX,
                               cfg.tilesY, &error))
            return false;
    }
    if (const auto *b = v.find("batch")) {
        if (!readInteger(*b, "batch", out.batch, error))
            return false;
        if (out.batch < 1) {
            error = "\"batch\" must be >= 1";
            return false;
        }
    }

    // Every value is checked before the kernel binder sees it; the
    // binder rejects names the kernel does not declare.
    workloads::NamedWords liveIns;
    if (const auto *l = v.find("liveins")) {
        if (!l->isObject()) {
            error = "\"liveins\" must be an object";
            return false;
        }
        for (const auto &[name, x] : l->members) {
            sir::Word value = 0;
            if (!readInteger(x, "liveins." + name, value, error))
                return false;
            liveIns.emplace_back(name, value);
        }
    }
    workloads::NamedArrays inits;
    if (const auto *init = v.find("init")) {
        if (!init->isObject()) {
            error = "\"init\" must be an object";
            return false;
        }
        for (const auto &[name, vals] : init->members) {
            const std::string field = "init." + name;
            if (!vals.isArray()) {
                error = "\"" + field + "\" must be an array";
                return false;
            }
            std::vector<sir::Word> words(vals.elems.size());
            for (size_t i = 0; i < words.size(); i++) {
                if (!readInteger(vals.elems[i], field, words[i],
                                 error))
                    return false;
            }
            inits.emplace_back(name, std::move(words));
        }
    }

    // The SIR parser was written for batch tools and fatal()s on
    // user error; trap that into a response.
    try {
        ScopedFatalTrap trap;
        ScopedQuiet quiet(true);
        std::shared_ptr<const sir::ParseResult> parsed =
            kernels.get(sirText->str);
        workloads::KernelInstance kernel;
        if (!workloads::bindKernel(*parsed, liveIns, inits, kernel,
                                   error))
            return false;
        out.kernel =
            std::make_shared<const workloads::KernelInstance>(
                std::move(kernel));
    } catch (const FatalError &e) {
        error = e.what();
        return false;
    }

    out.cfg = cfg;
    Hasher h;
    h.u64(MemoCache::runKey(*out.kernel, cfg))
        .str(out.traceFile)
        .i32(out.batch);
    out.key = h.digest();
    return true;
}

/** The batched path: @p req.batch shards of the request's kernel
 *  dealt across the topology's tiles (core/batch.hh). */
std::string
runServeBatch(const ParsedRequest &req)
{
    std::vector<workloads::KernelInstance> shards;
    shards.reserve(static_cast<size_t>(req.batch));
    const workloads::KernelInstance &k = *req.kernel;
    for (int i = 0; i < req.batch; i++) // Programs are move-only
        shards.push_back({k.name, sir::cloneProgram(k.prog), k.liveIns,
                          k.memory});
    std::string err;
    BatchRun batch = runBatch(shards, req.cfg, &err);
    if (!batch.success)
        return statusPayload("error", err);

    sim::Report r;
    r.add("schema_version", sim::kJsonSchemaVersion)
        .add("status", "ok")
        .add("kernel", req.kernel->name)
        .add("variant", compiler::archVariantName(req.cfg.variant))
        .add("tiles", batch.tiles)
        .add("batch", batch.shards)
        .add("total_cycles", batch.totalCycles)
        .add("makespan_cycles", batch.makespanCycles)
        .add("modeled_speedup", batch.modeledSpeedup)
        .add("seconds", batch.seconds);
    return r.toJson();
}

/** Execute one admitted request and render its response payload. */
std::string
runServeRequest(const ParsedRequest &req)
{
    ScopedQuiet quiet(true);
    // Any fatal() raised by pipeline stages that predate the
    // error-out-param plumbing becomes an error response, not a
    // server exit.
    ScopedFatalTrap trap;
    try {
        if (req.batch > 1)
            return runServeBatch(req);
        std::string err;
        PreparedPtr prepared =
            prepareKernel(*req.kernel, req.cfg, &err);
        if (!prepared)
            return statusPayload("error", err);

        trace::ChromeTraceSink chrome;
        RunConfig cfg = req.cfg;
        if (!req.traceFile.empty())
            cfg.sim.observer = &chrome;
        FabricRun run =
            executeOnFabric(*prepared, *req.kernel, cfg, &err);

        // A watchdog expiry is NOT a certified deadlock: the fabric
        // was still making progress when maxCycles elapsed, and a
        // memory fault is the input's doing. Clients (and the lint
        // cross-check) rely on the distinction.
        const char *status =
            run.sim.fault.any()       ? "fault"
            : run.sim.watchdogExpired ? "watchdog"
            : run.sim.deadlocked      ? "deadlock"
            : !err.empty()            ? "error"
                                      : "ok";

        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("status", status)
            .add("kernel", req.kernel->name)
            .add("variant",
                 compiler::archVariantName(req.cfg.variant));
        if (req.cfg.tiled()) {
            r.add("tiles_x", req.cfg.tilesX)
                .add("tiles_y", req.cfg.tilesY);
        }
        if (std::string(status) == "ok") {
            Hasher mem;
            mem.vec(run.memory);
            r.add("cycles", run.cycles())
                .add("seconds", run.seconds)
                .add("energy_pj", run.energy.totalPj())
                .add("edp_pj_s", run.edp)
                .add("ipc", run.sim.stats.ipc())
                .add("threads", run.sim.stats.dispatchSpawns)
                .add("operators", run.compiled().graph.size())
                .add("mem_hash", hashHex(mem.digest()));
        } else {
            r.add("error", err);
        }
        if (run.sim.fault.any()) {
            r.add("fault_node", run.sim.fault.node)
                .add("fault_address", run.sim.fault.addr)
                .add("fault_cycle", run.sim.fault.cycle);
        }
        if (!req.traceFile.empty()) {
            std::ofstream f(req.traceFile);
            if (f) {
                chrome.write(f);
                r.add("trace_file", req.traceFile);
            } else {
                r.add("trace_error", "cannot write '" +
                                         req.traceFile + "'");
            }
        }
        return r.toJson();
    } catch (const FatalError &e) {
        return statusPayload("error", e.what());
    }
}

} // namespace

std::shared_ptr<const sir::ParseResult>
ParsedKernelCache::get(const std::string &text)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = byText.find(text);
        if (it != byText.end()) {
            nHits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    nMisses.fetch_add(1, std::memory_order_relaxed);
    auto parsed = std::make_shared<const sir::ParseResult>(
        sir::parseSir(text, "<request>"));
    if (text.size() > kMaxBytes)
        return parsed;

    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = byText.emplace(text, parsed);
    if (!inserted) // a concurrent miss on the same text won
        return it->second;
    order.push_back(&it->first);
    textBytes += text.size();
    while (byText.size() > kMaxTexts || textBytes > kMaxBytes) {
        auto oldest = byText.find(*order.front());
        order.pop_front();
        textBytes -= oldest->first.size();
        byText.erase(oldest);
    }
    return parsed;
}

int64_t
ParsedKernelCache::hits() const
{
    return nHits.load(std::memory_order_relaxed);
}

int64_t
ParsedKernelCache::misses() const
{
    return nMisses.load(std::memory_order_relaxed);
}

size_t
ParsedKernelCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return byText.size();
}

size_t
ParsedKernelCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return textBytes;
}

ServeServer::ServeServer(const ServeOptions &options)
    : opts(options), pool(options.jobs)
{
}

ServeServer::~ServeServer() = default;

ServeServer::Response
ServeServer::immediate(const std::string &id,
                       const std::string &payload)
{
    std::promise<std::string> p;
    p.set_value(payload);
    return Response{
        id, p.get_future().share(),
        std::make_shared<std::atomic<int64_t>>(nowNs())};
}

ServeServer::Response
ServeServer::submit(const std::string &line)
{
    nReceived.fetch_add(1, std::memory_order_relaxed);

    // Parse on the intake thread: rejects and malformed requests
    // answer immediately, and the content key must gate dedup before
    // admission (a duplicate of an in-flight request is never
    // rejected — it costs no execution slot).
    ParsedRequest req;
    req.cfg.quiet = true;
    req.cfg.cache = &memo;
    std::string error;
    {
        RunConfig base;
        base.quiet = true;
        base.cache = &memo;
        base.fabric = opts.topology.tile;
        base.tilesX = opts.topology.tilesX;
        base.tilesY = opts.topology.tilesY;
        base.interTileLatency = opts.topology.interTileLatency;
        base.interTileCapacity = opts.topology.interTileCapacity;
        if (!parseRequest(line, base, parsed, req, error)) {
            nBadRequests.fetch_add(1, std::memory_order_relaxed);
            return immediate(req.id,
                             statusPayload("error", error));
        }
    }

    std::lock_guard<std::mutex> lock(mu);
    auto it = byContent.find(req.key);
    if (it != byContent.end()) {
        nDedupHits.fetch_add(1, std::memory_order_relaxed);
        return Response{req.id, it->second.first,
                        it->second.second};
    }

    int64_t queued = nAccepted.load(std::memory_order_relaxed) -
                     nCompleted.load(std::memory_order_relaxed);
    if (queued >= opts.maxQueue) {
        nRejected.fetch_add(1, std::memory_order_relaxed);
        return immediate(
            req.id,
            statusPayload(
                "rejected",
                csprintf("queue full (%lld queued, limit %d); "
                         "retry later",
                         static_cast<long long>(queued),
                         opts.maxQueue)));
    }

    nAccepted.fetch_add(1, std::memory_order_relaxed);
    int64_t peak = nPeakQueued.load(std::memory_order_relaxed);
    while (queued + 1 > peak &&
           !nPeakQueued.compare_exchange_weak(
               peak, queued + 1, std::memory_order_relaxed)) {
    }

    auto doneNs = std::make_shared<std::atomic<int64_t>>(0);
    std::shared_future<std::string> payload =
        pool.submit([this, req, doneNs] {
                std::string out = runServeRequest(req);
                doneNs->store(nowNs(), std::memory_order_relaxed);
                nCompleted.fetch_add(1,
                                     std::memory_order_relaxed);
                return out;
            })
            .share();
    byContent.emplace(req.key, std::make_pair(payload, doneNs));
    contentOrder.push_back(req.key);
    if (contentOrder.size() > kMaxResponses) {
        byContent.erase(contentOrder.front());
        contentOrder.pop_front();
    }
    return Response{req.id, payload, doneNs};
}

std::string
ServeServer::render(const Response &r)
{
    const std::string &payload = r.payload.get();
    std::string head =
        "{\"id\":\"" + trace::jsonEscape(r.id) + "\"";
    // Payloads are always JSON objects; stitch the id in front.
    if (payload.size() >= 2 && payload.front() == '{') {
        if (payload == "{}")
            return head + "}";
        return head + "," + payload.substr(1);
    }
    return head + "}";
}

ServeStats
ServeServer::stats() const
{
    ServeStats s;
    s.received = nReceived.load(std::memory_order_relaxed);
    s.accepted = nAccepted.load(std::memory_order_relaxed);
    s.rejected = nRejected.load(std::memory_order_relaxed);
    s.badRequests = nBadRequests.load(std::memory_order_relaxed);
    s.dedupHits = nDedupHits.load(std::memory_order_relaxed);
    s.completed = nCompleted.load(std::memory_order_relaxed);
    s.peakQueued = nPeakQueued.load(std::memory_order_relaxed);
    s.parseHits = parsed.hits();
    s.parseMisses = parsed.misses();
    return s;
}

int
serveLoop(ServeServer &server, std::istream &in, std::ostream &out)
{
    std::deque<ServeServer::Response> pending;
    auto flush = [&](bool block) {
        while (!pending.empty()) {
            auto &front = pending.front();
            if (!block &&
                front.payload.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                break;
            }
            out << ServeServer::render(front) << "\n"
                << std::flush;
            pending.pop_front();
        }
    };
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        pending.push_back(server.submit(line));
        flush(false);
    }
    flush(true);
    return 0;
}

namespace {

/** Distinct request bodies (JSON objects without ids) for the load
 *  generator: two kernel shapes (streaming scale, data-dependent
 *  inner loop) in surface SIR syntax, crossed with variants and
 *  buffer depths, input arrays inlined so every run is real. */
std::vector<std::string>
benchRequestBodies(int unique)
{
    std::vector<std::string> bodies;
    for (int i = 0; static_cast<int>(bodies.size()) < unique;
         i++) {
        int n = (i % 4 < 2) ? 8 : 12;
        const char *variant =
            (i % 8) < 4 ? "pipestitch" : "riptide";
        int depth = (i % 2) ? 8 : 4;
        bool steps = (i / 8) % 2; // alternate kernel shape

        std::string sir;
        if (steps) {
            sir = csprintf("program bench_steps_%d\n"
                           "array seeds %d\n"
                           "array out %d\n"
                           "livein n\n"
                           "livein threshold\n"
                           "\n"
                           "foreach i = 0 .. n:\n"
                           "  v = load seeds[i]\n"
                           "  c = const 0\n"
                           "  while:\n"
                           "    big = gt v threshold\n"
                           "  cond big\n"
                           "  do:\n"
                           "    half = shr v 1\n"
                           "    v = add half 0\n"
                           "    c = add c 1\n"
                           "  end\n"
                           "  store out[i] = c\n"
                           "end\n",
                           i, n, n);
        } else {
            sir = csprintf("program bench_scale_%d\n"
                           "array x %d\n"
                           "array y %d\n"
                           "livein n\n"
                           "\n"
                           "foreach i = 0 .. n:\n"
                           "  v = load x[i]\n"
                           "  s = mul v %d\n"
                           "  r = add s %d\n"
                           "  store y[i] = r\n"
                           "end\n",
                           i, n, n, 3 + i % 5, 7 + i % 3);
        }

        std::ostringstream os;
        trace::JsonWriter w(os);
        w.beginObject();
        w.key("sir").value(sir);
        w.key("variant").value(variant);
        w.key("depth").value(depth);
        w.key("liveins").beginObject();
        w.key("n").value(n);
        if (steps)
            w.key("threshold").value(3);
        w.endObject();
        w.key("init").beginObject();
        w.key(steps ? "seeds" : "x").beginArray();
        for (int a = 0; a < n; a++)
            w.value(1 + (a * 17 + i * 29) % 97);
        w.endArray();
        w.endObject();
        w.endObject();
        bodies.push_back(os.str());
    }
    return bodies;
}

} // namespace

std::string
runServeBench(const ServeOptions &options,
              const ServeBenchOptions &bench)
{
    ServeOptions opts = options;
    // The bench measures behavior with the whole burst queued, so
    // the admission bound must cover it (pass a smaller --queue to
    // study rejects instead).
    opts.maxQueue = std::max(opts.maxQueue, bench.requests + 16);
    ServeServer server(opts);

    std::vector<std::string> bodies =
        benchRequestBodies(std::max(1, bench.unique));
    int n = bench.requests;

    std::vector<ServeServer::Response> responses;
    responses.reserve(static_cast<size_t>(n));
    std::vector<int64_t> submitNs(static_cast<size_t>(n));
    int64_t t0 = nowNs();
    for (int i = 0; i < n; i++) {
        const std::string &body =
            bodies[static_cast<size_t>(i) % bodies.size()];
        std::string line = "{\"id\":\"r" + std::to_string(i) +
                           "\"," + body.substr(1);
        submitNs[static_cast<size_t>(i)] = nowNs();
        responses.push_back(server.submit(line));
    }
    int64_t submittedNs = nowNs();

    std::vector<double> latMs(static_cast<size_t>(n));
    int64_t lastDone = submittedNs;
    int64_t okCount = 0;
    for (int i = 0; i < n; i++) {
        const auto &resp = responses[static_cast<size_t>(i)];
        const std::string &payload = resp.payload.get();
        if (payload.find("\"status\":\"ok\"") != std::string::npos)
            okCount++;
        int64_t done =
            resp.doneNs->load(std::memory_order_relaxed);
        if (done == 0)
            done = submitNs[static_cast<size_t>(i)];
        lastDone = std::max(lastDone, done);
        latMs[static_cast<size_t>(i)] =
            std::max<int64_t>(
                0, done - submitNs[static_cast<size_t>(i)]) /
            1e6;
    }
    std::sort(latMs.begin(), latMs.end());
    auto pct = [&](int p) {
        size_t idx = std::min(
            latMs.size() - 1,
            static_cast<size_t>(latMs.size()) * // round down
                static_cast<size_t>(p) / 100);
        return latMs[idx];
    };
    double wallS =
        static_cast<double>(lastDone - t0) / 1e9;

    ServeStats st = server.stats();
    sim::Report r;
    r.add("schema_version", sim::kJsonSchemaVersion)
        .add("requests", n)
        .add("unique", static_cast<int64_t>(bodies.size()))
        .add("jobs", server.threadCount())
        .add("queue_limit", opts.maxQueue)
        .add("accepted", st.accepted)
        .add("rejected", st.rejected)
        .add("dedup_hits", st.dedupHits)
        .add("dedup_rate",
             n > 0 ? static_cast<double>(st.dedupHits) / n : 0.0)
        .add("parse_hits", st.parseHits)
        .add("parse_misses", st.parseMisses)
        .add("peak_queued", st.peakQueued)
        .add("ok", okCount)
        .add("failed", n - okCount)
        .add("submit_s",
             static_cast<double>(submittedNs - t0) / 1e9)
        .add("wall_s", wallS)
        .add("rps", wallS > 0 ? n / wallS : 0.0)
        .add("p50_ms", pct(50))
        .add("p99_ms", pct(99));
    return r.toJson();
}

} // namespace pipestitch::runner

/**
 * @file
 * The serve daemon (runner/serve.hh): request parsing, the
 * parsed-kernel cache, response stitching, dedup, admission control,
 * the watchdog/deadlock status distinction, and the JSON parser
 * underneath it all.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <latch>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/serve.hh"
#include "trace/json_parse.hh"

using namespace pipestitch;
using runner::ServeOptions;
using runner::ServeServer;
using trace::JsonValue;

namespace {

/** A minimal valid request body around kernels/vector_scale.sir's
 *  shape, with n and x inline. */
std::string
scaleRequest(const std::string &id, int mulBy)
{
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\",\"sir\":\""
       << "program scale\\n"
       << "array x 4\\narray y 4\\nlivein n\\n\\n"
       << "foreach i = 0 .. n:\\n"
       << "  v = load x[i]\\n"
       << "  s = mul v " << mulBy << "\\n"
       << "  store y[i] = s\\nend\\n"
       << "\",\"liveins\":{\"n\":4},"
       << "\"init\":{\"x\":[1,2,3,4]}}";
    return os.str();
}

/** Request @p i of a stream on one fixed kernel text: the variant,
 *  the live-in n and the inputs x all vary with @p i, so every
 *  request hits the same parsed-kernel entry but runs anew. */
std::string
sameTextRequest(int i)
{
    static const char *kVariants[] = {"pipestitch", "riptide",
                                      "pipesb"};
    std::ostringstream os;
    os << "{\"id\":\"s" << i << "\",\"sir\":\""
       << "program scale\\n"
       << "array x 8\\narray y 8\\nlivein n\\n\\n"
       << "foreach i = 0 .. n:\\n"
       << "  v = load x[i]\\n"
       << "  s = mul v 3\\n"
       << "  store y[i] = s\\nend\\n"
       << "\",\"variant\":\"" << kVariants[i % 3] << "\","
       << "\"liveins\":{\"n\":" << 4 + i % 5 << "},"
       << "\"init\":{\"x\":[";
    for (int j = 0; j < 8; j++)
        os << (j ? "," : "") << i * 7 + j * 3 - 5;
    os << "]}}";
    return os.str();
}

/** A while-loop that never terminates: exercises the watchdog. */
std::string
spinRequest(const std::string &id, int64_t maxCycles)
{
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\",\"sir\":\""
       << "program spin\\n"
       << "array out 1\\nlivein n\\n\\n"
       << "foreach i = 0 .. n:\\n"
       << "  c = const 1\\n"
       << "  while:\\n"
       << "    big = gt c 0\\n"
       << "  cond big\\n"
       << "  do:\\n"
       << "    c = add c 1\\n"
       << "  end\\n"
       << "  store out[0] = c\\nend\\n"
       << "\",\"liveins\":{\"n\":1},"
       << "\"verify\":false,"
       << "\"max_cycles\":" << maxCycles << "}";
    return os.str();
}

/** Parse a rendered response line and return the DOM. */
JsonValue
parseResponse(const std::string &line)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(trace::parseJson(line, v, &err)) << err << ": "
                                                 << line;
    EXPECT_TRUE(v.isObject()) << line;
    return v;
}

std::string
field(const JsonValue &v, const std::string &key)
{
    const JsonValue *f = v.find(key);
    return f ? f->asString() : "";
}

ServeOptions
withJobs(int jobs)
{
    ServeOptions opts;
    opts.jobs = jobs;
    return opts;
}

/** The response a server that never saw another request gives. */
std::string
freshResponse(const std::string &request)
{
    ServeServer fresh(withJobs(1));
    return ServeServer::render(fresh.submit(request));
}

} // namespace

TEST(JsonParse, ValuesRoundTrip)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(trace::parseJson(
        "{\"a\":1,\"b\":-2.5e2,\"c\":\"x\\ny\\u0041\",\"d\":true,"
        "\"e\":null,\"f\":[1,2,[3]],\"a\":7}",
        v, &err))
        << err;
    EXPECT_EQ(v.find("a")->asInt(), 7) << "last duplicate wins";
    EXPECT_DOUBLE_EQ(v.find("b")->asDouble(), -250.0);
    EXPECT_EQ(v.find("c")->asString(), "x\nyA");
    EXPECT_TRUE(v.find("d")->asBool());
    EXPECT_TRUE(v.find("e")->isNull());
    ASSERT_TRUE(v.find("f")->isArray());
    EXPECT_EQ(v.find("f")->elems.size(), 3u);
    EXPECT_EQ(v.find("f")->elems[2].elems[0].asInt(), 3);
}

TEST(JsonParse, NumbersKeepTheirAcceptedSet)
{
    // Every numeral the parser took (or refused) when it went
    // through strtod, it still takes (or refuses), with the same
    // value: a leading '+', a bare '.' on either side, and values
    // past a double's range, which read as infinity or zero.
    struct Case
    {
        const char *text;
        bool ok;
        double value;
    };
    const Case cases[] = {
        {"0", true, 0.0},
        {"-0", true, -0.0},
        {"42", true, 42.0},
        {"-3.25", true, -3.25},
        {"00012", true, 12.0},
        {".5", true, 0.5},
        {"-.5", true, -0.5},
        {"1.", true, 1.0},
        {"5.e3", true, 5000.0},
        {"+1", true, 1.0},
        {"+.5", true, 0.5},
        {"1e5", true, 1e5},
        {"1E+5", true, 1e5},
        {"2.5e-3", true, 2.5e-3},
        {"1e-310", true, 1e-310},
        {"1e999", true, HUGE_VAL},
        {"-1e999", true, -HUGE_VAL},
        {"1.8e308", true, HUGE_VAL},
        {"0.001e99999999999999999999", true, HUGE_VAL},
        {"1e-999", true, 0.0},
        {"-1e-999", true, -0.0},
        {"2e-324", true, 0.0},
        {"1000e-99999999999999999999", true, 0.0},
        {"-", false, 0},
        {"+", false, 0},
        {".", false, 0},
        {"1e", false, 0},
        {"1e+", false, 0},
        {"--1", false, 0},
        {"+-1", false, 0},
        {"-+1", false, 0},
        {"++1", false, 0},
        {"1e5.", false, 0},
        {"1-2", false, 0},
        {"e5", false, 0},
        {".e1", false, 0},
    };
    for (const Case &c : cases) {
        JsonValue v;
        std::string err;
        const bool ok = trace::parseJson(c.text, v, &err);
        EXPECT_EQ(ok, c.ok) << c.text << ": " << err;
        if (!ok || !c.ok)
            continue;
        EXPECT_EQ(v.kind, JsonValue::Kind::Number) << c.text;
        EXPECT_EQ(v.number, c.value) << c.text;
        EXPECT_EQ(std::signbit(v.number), std::signbit(c.value))
            << c.text;
    }

    // In context: inside arrays and objects, next to other tokens.
    JsonValue v;
    ASSERT_TRUE(trace::parseJson("{\"n\":[.5,1e999,-2]}", v, nullptr));
    const JsonValue &n = *v.find("n");
    ASSERT_EQ(n.elems.size(), 3u);
    EXPECT_EQ(n.elems[0].number, 0.5);
    EXPECT_EQ(n.elems[1].number, HUGE_VAL);
    EXPECT_EQ(n.elems[2].asInt(), -2);
    std::string err;
    EXPECT_FALSE(trace::parseJson("[1e]", v, &err));
    EXPECT_NE(err.find("bad number at offset 1"), std::string::npos)
        << err;
}

TEST(JsonParse, SurrogatePairBecomesUtf8)
{
    JsonValue v;
    ASSERT_TRUE(trace::parseJson("\"\\uD83D\\uDE00\"", v, nullptr));
    EXPECT_EQ(v.asString(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, ErrorsCarryOffsets)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(trace::parseJson("{\"a\":}", v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
    EXPECT_FALSE(trace::parseJson("[1,2] trailing", v, &err));
    EXPECT_FALSE(trace::parseJson("", v, &err));
    EXPECT_FALSE(trace::parseJson("{\"a\":1", v, &err));
    // Deep nesting is rejected, not a stack overflow.
    std::string deep(100, '[');
    EXPECT_FALSE(trace::parseJson(deep, v, &err));
}

TEST(Serve, GoodRequestRunsAndStitchesId)
{
    ServeServer server(withJobs(2));
    auto resp = server.submit(scaleRequest("req-1", 3));
    std::string line = ServeServer::render(resp);
    JsonValue v = parseResponse(line);
    EXPECT_EQ(field(v, "id"), "req-1");
    EXPECT_EQ(field(v, "status"), "ok");
    EXPECT_EQ(field(v, "kernel"), "scale");
    EXPECT_GT(v.find("cycles")->asInt(), 0);
    EXPECT_FALSE(field(v, "mem_hash").empty());
}

TEST(Serve, BadJsonAnswersImmediatelyAndServerSurvives)
{
    ServeServer server(withJobs(1));
    auto bad = server.submit("{this is not json");
    JsonValue v = parseResponse(ServeServer::render(bad));
    EXPECT_EQ(field(v, "status"), "error");
    EXPECT_NE(field(v, "error").find("bad JSON"),
              std::string::npos);

    // A fatal() inside the SIR parser must become a response too.
    auto badSir = server.submit(
        "{\"id\":\"x\",\"sir\":\"program broken\\nthis is not "
        "sir\\n\"}");
    JsonValue v2 = parseResponse(ServeServer::render(badSir));
    EXPECT_EQ(field(v2, "id"), "x");
    EXPECT_EQ(field(v2, "status"), "error");

    auto badVariant = server.submit(
        "{\"id\":\"y\",\"sir\":\"\",\"variant\":\"vliw\"}");
    JsonValue v3 = parseResponse(ServeServer::render(badVariant));
    EXPECT_EQ(field(v3, "status"), "error");
    EXPECT_NE(field(v3, "error").find("variant"),
              std::string::npos);

    EXPECT_EQ(server.stats().badRequests, 3);

    // ...and the server still executes real work afterwards.
    auto good = server.submit(scaleRequest("z", 2));
    JsonValue v4 = parseResponse(ServeServer::render(good));
    EXPECT_EQ(field(v4, "status"), "ok");
}

TEST(Serve, DepthBelowOneIsAnErrorNotAnAbort)
{
    ServeServer server(withJobs(1));
    for (const char *depth : {"0", "-1", "\"4\""}) {
        std::string req = scaleRequest("d", 3);
        req.insert(req.size() - 1, std::string(",\"depth\":") + depth);
        JsonValue v =
            parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "id"), "d");
        EXPECT_EQ(field(v, "status"), "error") << depth;
        EXPECT_NE(field(v, "error").find("depth"), std::string::npos)
            << field(v, "error");
    }
    EXPECT_EQ(server.stats().badRequests, 3);

    // The daemon survives and still serves the next request.
    std::string req = scaleRequest("next", 3);
    req.insert(req.size() - 1, ",\"depth\":1");
    JsonValue v = parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
}

TEST(Serve, MaxCyclesBelowOneIsAnErrorNotAWatchdog)
{
    // A watchdog that expires before the first cycle is a request
    // error, as "batch":0 is, not a prepared run that times out.
    ServeServer server(withJobs(1));
    for (const char *cycles : {"0", "-5"}) {
        std::string req = scaleRequest("m", 3);
        req.insert(req.size() - 1,
                   std::string(",\"max_cycles\":") + cycles);
        JsonValue v =
            parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "id"), "m");
        EXPECT_EQ(field(v, "status"), "error") << cycles;
        EXPECT_EQ(field(v, "error"), "\"max_cycles\" must be >= 1")
            << cycles;
    }
    EXPECT_EQ(server.stats().badRequests, 2);

    std::string req = scaleRequest("one", 3);
    req.insert(req.size() - 1, ",\"max_cycles\":1");
    JsonValue v = parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "watchdog") << field(v, "error");
}

TEST(Serve, NumbersThatAreNotIntegersOfTheirFieldAreErrors)
{
    ServeServer server(withJobs(1));
    // Each field once per value: none is an integer that fits the
    // field (a live-in and an init word are 32-bit, unroll and
    // batch are int, max_cycles is 64-bit).
    struct Field
    {
        std::string name; ///< as the error names it
        std::string json; ///< JSON text with VALUE in place
    };
    const std::vector<Field> fields = {
        {"liveins.n", "\"liveins\":{\"n\":VALUE}"},
        {"init.x", "\"init\":{\"x\":[1,VALUE]}"},
        {"unroll", "\"unroll\":VALUE"},
        {"batch", "\"batch\":VALUE"},
        {"max_cycles", "\"max_cycles\":VALUE"},
    };
    int64_t bad = 0;
    for (const char *value : {"1e999", "4294967300", "1.5", "-1e30"}) {
        for (const auto &f : fields) {
            if (f.name == "max_cycles" &&
                std::string(value) == "4294967300")
                continue; // fits int64_t
            std::string json = f.json;
            json.replace(json.find("VALUE"), 5, value);
            // Later keys win, so this overrides scaleRequest's own.
            std::string req = scaleRequest("v", 3);
            req.insert(req.size() - 1, "," + json);
            JsonValue v =
                parseResponse(ServeServer::render(server.submit(req)));
            EXPECT_EQ(field(v, "status"), "error")
                << f.name << "=" << value;
            EXPECT_NE(field(v, "error").find("\"" + f.name + "\""),
                      std::string::npos)
                << field(v, "error");
            bad++;
        }
    }
    EXPECT_EQ(server.stats().badRequests, bad);

    // In-range integers, even written with an exponent, still run.
    std::string req = scaleRequest("ok", 3);
    req.insert(req.size() - 1, ",\"unroll\":2e0,\"max_cycles\":1e6");
    JsonValue v = parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
}

TEST(Serve, BindingsAndFlagsTheKernelCannotTakeAreErrors)
{
    ServeServer server(withJobs(1));
    // Each would otherwise run on a value the client never sent:
    // n = 0, an ignored live-in or array, a truncated input, or
    // time multiplexing silently off.
    struct Case
    {
        std::string name; ///< as the error names it
        std::string json; ///< appended to a good request
    };
    const std::vector<Case> cases = {
        {"liveins", "\"liveins\":5"},
        {"liveins.m", "\"liveins\":{\"m\":3}"},
        {"init.nope", "\"init\":{\"nope\":[1]}"},
        {"init.x", "\"init\":{\"x\":[1,2,3,4,5]}"},
        {"init.x", "\"init\":{\"x\":7}"},
        {"tm", "\"tm\":\"yes\""},
        {"map", "\"map\":1"},
        {"verify", "\"verify\":null"},
    };
    for (const auto &c : cases) {
        std::string req = scaleRequest("b", 3);
        req.insert(req.size() - 1, "," + c.json);
        JsonValue v =
            parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "id"), "b");
        EXPECT_EQ(field(v, "status"), "error") << c.json;
        EXPECT_NE(field(v, "error").find("\"" + c.name + "\""),
                  std::string::npos)
            << c.json << ": " << field(v, "error");
    }
    EXPECT_EQ(server.stats().badRequests,
              static_cast<int64_t>(cases.size()));

    // JSON booleans and a short init still run.
    std::string req = scaleRequest("ok", 3);
    req.insert(req.size() - 1,
               ",\"tm\":true,\"map\":false,\"verify\":true,"
               "\"init\":{\"x\":[1,2]}");
    JsonValue v = parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
}

TEST(Serve, UnrollOutsideThePowersOfTwoThatFitIsAnError)
{
    // Each once aborted the daemon in the compiler, ran as unroll 1,
    // or (128 lanes on 64 PEs) could never map. A good request
    // follows each on the same server.
    ServeServer server(withJobs(2));
    for (const char *unroll : {"3", "-5", "0", "128"}) {
        std::string req = scaleRequest("u", 3);
        req.insert(req.size() - 1, std::string(",\"unroll\":") + unroll);
        JsonValue v =
            parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "status"), "error") << unroll;
        EXPECT_NE(field(v, "error").find("unroll"), std::string::npos)
            << field(v, "error");

        req = scaleRequest("ok", 3);
        req.insert(req.size() - 1, ",\"unroll\":2");
        v = parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
    }
}

TEST(Serve, TileGridsThatOverflowIntAreErrors)
{
    // 2147483647^2 tiles once wrapped to one tile and answered ok;
    // 8192^2 tiles fit an int but their PEs do not. A good request
    // follows each on the same server.
    ServeServer server(withJobs(2));
    for (const char *tiles :
         {"2147483647x2147483647", "65536x65536", "8192x8192"}) {
        std::string req = scaleRequest("t", 3);
        req.insert(req.size() - 1,
                   std::string(",\"tiles\":\"") + tiles + "\"");
        JsonValue v =
            parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "status"), "error") << tiles;
        EXPECT_NE(field(v, "error").find("tiles"), std::string::npos)
            << field(v, "error");

        v = parseResponse(
            ServeServer::render(server.submit(scaleRequest("ok", 3))));
        EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
    }
}

TEST(Serve, BatchAboveTheShardCapIsAnError)
{
    // 2147483647 shards once sized a schedule past the host's memory
    // and killed the daemon with bad_alloc. A good request follows
    // each on the same server.
    ServeServer server(withJobs(1));
    for (const char *batch : {"2147483647", "1025"}) {
        std::string req = scaleRequest("c", 3);
        req.insert(req.size() - 1, std::string(",\"batch\":") + batch);
        JsonValue v =
            parseResponse(ServeServer::render(server.submit(req)));
        EXPECT_EQ(field(v, "status"), "error") << batch;
        EXPECT_EQ(field(v, "error"), "\"batch\" must be in [1, 1024]")
            << batch;

        v = parseResponse(
            ServeServer::render(server.submit(scaleRequest("ok", 3))));
        EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
    }
    EXPECT_EQ(server.stats().badRequests, 2);

    std::string req = scaleRequest("max", 3);
    req.insert(req.size() - 1, ",\"tiles\":\"2x2\",\"batch\":1024");
    JsonValue v = parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "ok") << field(v, "error");
    EXPECT_EQ(v.find("batch")->asInt(), 1024);
    EXPECT_EQ(v.find("tiles")->asInt(), 4);
}

TEST(Serve, TraceFileWithABatchIsAnError)
{
    // A batch answers a schedule, not one run: a trace_file request
    // once answered ok and wrote nothing.
    namespace fs = std::filesystem;
    fs::path trace = fs::temp_directory_path() / "ps_serve_batch.trace";
    fs::remove(trace);
    ServeServer server(withJobs(1));
    std::string req = scaleRequest("t", 3);
    req.insert(req.size() - 1, ",\"batch\":2,\"trace_file\":\"" +
                                   trace.string() + "\"");
    JsonValue v = parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "error");
    EXPECT_NE(field(v, "error").find("\"trace_file\""),
              std::string::npos)
        << field(v, "error");
    EXPECT_FALSE(fs::exists(trace));
}

TEST(Serve, BatchFailuresAnswerTheSingleRunStatus)
{
    // A batch runs its one shard as a single request does, so its
    // failures carry the same status (and fault fields).
    ServeServer server(withJobs(1));
    std::string fault = scaleRequest("f", 3);
    fault.replace(fault.find("\"n\":4"), 5, "\"n\":100");
    std::string watchdog = scaleRequest("w", 3);
    watchdog.insert(watchdog.size() - 1, ",\"max_cycles\":3");
    for (const auto &[base, want] :
         {std::pair{fault, "fault"}, std::pair{watchdog, "watchdog"}}) {
        JsonValue single =
            parseResponse(ServeServer::render(server.submit(base)));
        EXPECT_EQ(field(single, "status"), want);

        std::string req = base;
        req.insert(req.size() - 1, ",\"tiles\":\"2x2\",\"batch\":3");
        std::string line = ServeServer::render(server.submit(req));
        EXPECT_EQ(line, freshResponse(req));
        JsonValue v = parseResponse(line);
        EXPECT_EQ(field(v, "status"), want) << line;
        EXPECT_EQ(v.find("tiles_x")->asInt(), 2) << line;
        EXPECT_EQ(v.find("batch"), nullptr) << line;
        if (std::string(want) == "fault") {
            EXPECT_NE(field(v, "error").find("memory fault"),
                      std::string::npos)
                << line;
            ASSERT_NE(v.find("fault_address"), nullptr) << line;
            EXPECT_GE(v.find("fault_node")->asInt(-1), 0) << line;
            EXPECT_GE(v.find("fault_cycle")->asInt(-1), 0) << line;
        }
    }
}

TEST(Serve, ResponseMemoEvictsOldestFirst)
{
    ServeServer server(withJobs(2));
    const int n = static_cast<int>(ServeServer::kMaxResponses) + 1;
    std::vector<std::string> rendered;
    for (int i = 0; i < n; i++)
        rendered.push_back(
            ServeServer::render(server.submit(sameTextRequest(i))));
    EXPECT_EQ(field(parseResponse(rendered.front()), "status"), "ok")
        << rendered.front();
    EXPECT_EQ(server.stats().dedupHits, 0);

    // The first was evicted: it runs again and answers the same
    // bytes. The last is still held.
    EXPECT_EQ(ServeServer::render(server.submit(sameTextRequest(0))),
              rendered.front());
    EXPECT_EQ(server.stats().dedupHits, 0);
    EXPECT_EQ(ServeServer::render(server.submit(sameTextRequest(n - 1))),
              rendered.back());
    EXPECT_EQ(server.stats().dedupHits, 1);
    EXPECT_EQ(server.stats().completed, n + 1);
}

TEST(Serve, ContentIdenticalRequestsShareOneExecution)
{
    ServeServer server(withJobs(2));
    auto a = server.submit(scaleRequest("a", 5));
    auto b = server.submit(scaleRequest("b", 5)); // same content
    auto c = server.submit(scaleRequest("c", 6)); // different

    EXPECT_EQ(ServeServer::render(a).substr(10),
              ServeServer::render(b).substr(10))
        << "identical payload after the distinct ids";
    JsonValue vc = parseResponse(ServeServer::render(c));
    EXPECT_EQ(field(vc, "status"), "ok");

    auto st = server.stats();
    EXPECT_EQ(st.received, 3);
    EXPECT_EQ(st.dedupHits, 1);
    EXPECT_EQ(st.accepted, 2) << "the dedup hit cost no slot";
}

TEST(Serve, RepeatedKernelTextAnswersLikeFreshServers)
{
    ServeServer server(withJobs(2));
    std::set<std::string> memHashes;
    constexpr int kRequests = 6;
    for (int i = 0; i < kRequests; i++) {
        std::string req = sameTextRequest(i);
        std::string line = ServeServer::render(server.submit(req));
        EXPECT_EQ(line, freshResponse(req));
        JsonValue v = parseResponse(line);
        EXPECT_EQ(field(v, "status"), "ok") << line;
        memHashes.insert(field(v, "mem_hash"));
    }
    EXPECT_EQ(memHashes.size(), static_cast<size_t>(kRequests))
        << "every request ran on its own inputs";
    auto st = server.stats();
    EXPECT_EQ(st.parseMisses, 1);
    EXPECT_EQ(st.parseHits, kRequests - 1);
    EXPECT_EQ(st.dedupHits, 0);
    EXPECT_EQ(server.parsedKernels().entries(), 1u);
}

/** A gather y[i] = x[idx[i]]: whether it faults depends on the
 *  contents of idx alone, so faulting and clean requests share one
 *  prepared Program (and its engines). */
std::string
gatherRequest(const std::string &id, int lastIndex)
{
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\",\"sir\":\""
       << "program gather\\n"
       << "array idx 4\\narray x 4\\narray y 4\\nlivein n\\n\\n"
       << "foreach i = 0 .. n:\\n"
       << "  j = load idx[i]\\n"
       << "  v = load x[j]\\n"
       << "  store y[i] = v\\nend\\n"
       << "\",\"liveins\":{\"n\":4},"
       << "\"init\":{\"idx\":[3,1,2," << lastIndex
       << "],\"x\":[5,6,7,8]}}";
    return os.str();
}

TEST(Serve, MemoryFaultAnswersFaultAndTheServerGoesOn)
{
    ServeServer server(withJobs(2));
    // A trip count past the arrays (a different Program from n=4),
    // then in-bounds requests on the same text.
    std::string big = scaleRequest("big", 3);
    big.replace(big.find("\"n\":4"), 5, "\"n\":1000000");
    const std::string requests[] = {
        big,
        scaleRequest("small", 3),
        // Same Program: fault, clean, fault, clean.
        gatherRequest("g-bad", 1 << 20),
        gatherRequest("g-ok", 0),
        gatherRequest("g-neg", -9),
        gatherRequest("g-ok2", 2),
    };
    const char *want[] = {"fault", "ok", "fault", "ok", "fault", "ok"};
    for (size_t i = 0; i < std::size(requests); i++) {
        std::string line =
            ServeServer::render(server.submit(requests[i]));
        EXPECT_EQ(line, freshResponse(requests[i]));
        JsonValue v = parseResponse(line);
        EXPECT_EQ(field(v, "status"), want[i]) << line;
        if (std::string(want[i]) == "fault") {
            EXPECT_NE(field(v, "error").find("memory fault"),
                      std::string::npos)
                << line;
            ASSERT_NE(v.find("fault_address"), nullptr) << line;
            EXPECT_GE(v.find("fault_node")->asInt(-1), 0) << line;
            EXPECT_GE(v.find("fault_cycle")->asInt(-1), 0) << line;
        }
    }
    JsonValue bad = parseResponse(
        ServeServer::render(server.submit(gatherRequest("g", -9))));
    EXPECT_EQ(bad.find("fault_address")->asInt(), 4 - 9)
        << "x starts at word 4";
}

TEST(Serve, MalformedKernelTextIsNotCached)
{
    ServeServer server(withJobs(1));
    const std::string bad =
        "{\"id\":\"b\",\"sir\":\"program broken\\nthis is not "
        "sir\\n\"}";
    std::string first = ServeServer::render(server.submit(bad));
    std::string second = ServeServer::render(server.submit(bad));
    EXPECT_EQ(first, second);
    JsonValue v = parseResponse(first);
    EXPECT_EQ(field(v, "status"), "error");
    EXPECT_FALSE(field(v, "error").empty());

    auto st = server.stats();
    EXPECT_EQ(st.parseMisses, 2);
    EXPECT_EQ(st.parseHits, 0);
    EXPECT_EQ(server.parsedKernels().entries(), 0u);
}

TEST(Serve, ParsedKernelCacheKeepsItsTextBound)
{
    ServeServer server(withJobs(2));
    constexpr int kTexts =
        static_cast<int>(runner::ParsedKernelCache::kMaxTexts) + 4;
    // scaleRequest's text differs with the multiplier.
    for (int i = 0; i < kTexts; i++) {
        std::string line = ServeServer::render(
            server.submit(scaleRequest("t", i + 1)));
        EXPECT_EQ(field(parseResponse(line), "status"), "ok") << line;
        EXPECT_LE(server.parsedKernels().entries(),
                  runner::ParsedKernelCache::kMaxTexts);
    }
    EXPECT_EQ(server.stats().parseMisses, kTexts);
    EXPECT_EQ(server.parsedKernels().entries(),
              runner::ParsedKernelCache::kMaxTexts);

    // The newest text is still held; the oldest was evicted.
    server.submit(scaleRequest("newest", kTexts));
    EXPECT_EQ(server.stats().parseHits, 1);
    std::string line =
        ServeServer::render(server.submit(scaleRequest("oldest", 1)));
    EXPECT_EQ(field(parseResponse(line), "status"), "ok") << line;
    EXPECT_EQ(server.stats().parseMisses, kTexts + 1);
}

TEST(Serve, ParsedKernelCacheKeepsItsByteBound)
{
    // A valid kernel padded by a comment to @p bytes of text.
    auto padded = [](int id, size_t bytes) {
        std::string text = "program big" + std::to_string(id) +
                           "\narray y 1\n\ny0 = const 0\n"
                           "v = const 1\nstore y[y0] = v\n# ";
        text.resize(bytes, 'x');
        return text + "\n";
    };
    constexpr size_t kMax = runner::ParsedKernelCache::kMaxBytes;
    runner::ParsedKernelCache cache;
    for (int i = 0; i < 4; i++) {
        auto parsed = cache.get(padded(i, kMax * 2 / 5));
        EXPECT_EQ(parsed->program.name, "big" + std::to_string(i));
        EXPECT_LE(cache.bytes(), kMax);
    }
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.misses(), 4);

    // A text over the whole budget is parsed but never kept.
    const std::string huge = padded(9, kMax + 1);
    cache.get(huge);
    cache.get(huge);
    EXPECT_EQ(cache.misses(), 6);
    EXPECT_EQ(cache.hits(), 0);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(Serve, ConcurrentSubmittersShareParsedKernels)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 3;
    std::vector<std::string> requests, expected;
    for (int i = 0; i < kThreads * kPerThread; i++) {
        requests.push_back(sameTextRequest(i));
        expected.push_back(freshResponse(requests.back()));
    }

    ServeServer server(withJobs(2));
    std::vector<std::string> got(requests.size());
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (int k = 0; k < kPerThread; k++) {
                size_t i = static_cast<size_t>(t * kPerThread + k);
                got[i] = ServeServer::render(server.submit(requests[i]));
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (size_t i = 0; i < requests.size(); i++)
        EXPECT_EQ(got[i], expected[i]) << requests[i];

    auto st = server.stats();
    EXPECT_EQ(st.parseHits + st.parseMisses,
              static_cast<int64_t>(requests.size()));
    EXPECT_GE(st.parseMisses, 1);
    EXPECT_EQ(server.parsedKernels().entries(), 1u);
}

TEST(Serve, WatchdogIsNotReportedAsDeadlock)
{
    ServeServer server(withJobs(1));
    auto resp = server.submit(spinRequest("w", 3000));
    JsonValue v = parseResponse(ServeServer::render(resp));
    EXPECT_EQ(field(v, "status"), "watchdog")
        << ServeServer::render(resp);
}

TEST(Serve, AdmissionControlRejectsButNeverRejectsDuplicates)
{
    // One worker, queue bound 1: the long-running spin occupies the
    // only slot, so a *distinct* second request must be rejected —
    // but a duplicate of the in-flight request shares its execution
    // and must never bounce off the full queue.
    ServeOptions opts;
    opts.jobs = 1;
    opts.maxQueue = 1;
    ServeServer server(opts);
    auto slow = server.submit(spinRequest("s1", 2000000));
    auto dup = server.submit(spinRequest("s2", 2000000));
    auto bounced = server.submit(scaleRequest("s3", 2));

    JsonValue v = parseResponse(ServeServer::render(bounced));
    EXPECT_EQ(field(v, "status"), "rejected");
    EXPECT_NE(field(v, "error").find("queue full"),
              std::string::npos);

    auto st = server.stats();
    EXPECT_EQ(st.rejected, 1);
    EXPECT_EQ(st.dedupHits, 1);

    JsonValue vs = parseResponse(ServeServer::render(slow));
    EXPECT_EQ(field(vs, "status"), "watchdog");
    EXPECT_EQ(ServeServer::render(dup).substr(10),
              ServeServer::render(slow).substr(10));
}

TEST(Serve, TraceFileRequestWritesChromeTrace)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "ps_serve_trace_test";
    fs::create_directories(dir);
    fs::path trace = dir / "out.trace.json";
    fs::remove(trace);

    ServeServer server(withJobs(1));
    std::string req = scaleRequest("t", 3);
    req.insert(req.size() - 1, ",\"trace_file\":\"" +
                                   trace.string() + "\"");
    JsonValue v =
        parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "ok");
    EXPECT_EQ(field(v, "trace_file"), trace.string());

    std::ifstream f(trace);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    JsonValue t;
    std::string err;
    EXPECT_TRUE(trace::parseJson(ss.str(), t, &err)) << err;
    fs::remove_all(dir);
}

TEST(Serve, RejectsFieldsItDoesNotRead)
{
    ServeServer server(withJobs(1));
    JsonValue plain = parseResponse(
        ServeServer::render(server.submit(scaleRequest("p", 3))));
    ASSERT_EQ(field(plain, "status"), "ok") << field(plain, "error");

    // A field serve does not read would run on the default in its
    // place: the removed simulator selection and a typo alike are
    // errors naming the field, and the server answers the next
    // request as usual.
    for (auto [name, value] : {std::pair{"scheduler", "\"dense\""},
                               std::pair{"unrol", "4"},
                               std::pair{"max_cycle", "10"}}) {
        std::string bad = scaleRequest("u", 3);
        bad.insert(bad.size() - 1,
                   std::string(",\"") + name + "\":" + value);
        JsonValue vu =
            parseResponse(ServeServer::render(server.submit(bad)));
        EXPECT_EQ(field(vu, "status"), "error") << name;
        EXPECT_EQ(field(vu, "id"), "u") << name;
        EXPECT_EQ(field(vu, "error"),
                  std::string("unknown field \"") + name + "\"");

        JsonValue next = parseResponse(
            ServeServer::render(server.submit(scaleRequest("n", 3))));
        EXPECT_EQ(field(next, "status"), "ok") << name;
        EXPECT_EQ(next.find("cycles")->asInt(),
                  plain.find("cycles")->asInt());
    }

    // A traced run answers the same cycles as an untraced one.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "ps_serve_fields_test";
    fs::create_directories(dir);
    fs::path trace = dir / "run.trace.json";
    std::string traced = scaleRequest("t", 3);
    traced.insert(traced.size() - 1,
                  ",\"trace_file\":\"" + trace.string() + "\"");
    JsonValue vt =
        parseResponse(ServeServer::render(server.submit(traced)));
    EXPECT_EQ(field(vt, "status"), "ok") << field(vt, "error");
    EXPECT_EQ(vt.find("cycles")->asInt(), plain.find("cycles")->asInt());
    EXPECT_TRUE(fs::exists(trace));
    fs::remove_all(dir);
}

TEST(Serve, LoopPumpsRequestsInSubmissionOrder)
{
    ServeServer server(withJobs(2));
    std::istringstream in(scaleRequest("one", 2) + "\n\n" +
                          scaleRequest("two", 3) + "\n" +
                          "not json\n");
    std::ostringstream out;
    EXPECT_EQ(runner::serveLoop(server, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> ids;
    while (std::getline(lines, line))
        ids.push_back(field(parseResponse(line), "id"));
    ASSERT_EQ(ids.size(), 3u) << out.str();
    EXPECT_EQ(ids[0], "one");
    EXPECT_EQ(ids[1], "two");
    EXPECT_EQ(ids[2], "");
}

TEST(Serve, BenchReportsDedupAndLatency)
{
    runner::ServeBenchOptions bopts;
    bopts.requests = 48;
    bopts.unique = 8;
    ServeOptions sopts;
    sopts.jobs = 2;
    std::string json = runServeBench(sopts, bopts);
    JsonValue v = parseResponse(json);
    EXPECT_EQ(v.find("requests")->asInt(), 48);
    EXPECT_EQ(v.find("ok")->asInt(), 48) << json;
    EXPECT_EQ(v.find("failed")->asInt(), 0) << json;
    EXPECT_EQ(v.find("accepted")->asInt(), 8);
    EXPECT_EQ(v.find("dedup_hits")->asInt(), 40);
    // Dedup keys on the parsed content, so every request is parsed
    // or found parsed: once per distinct text.
    EXPECT_EQ(v.find("parse_misses")->asInt(), 8);
    EXPECT_EQ(v.find("parse_hits")->asInt(), 40);
    EXPECT_GT(v.find("rps")->asDouble(), 0.0);
    EXPECT_GE(v.find("p99_ms")->asDouble(),
              v.find("p50_ms")->asDouble());
}

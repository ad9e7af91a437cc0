#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <map>

#include "trace/json.hh"

namespace psbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::None: return "op";
      case Layer::Sir: return "sir";
      case Layer::Compiler: return "compiler";
      case Layer::Analysis: return "analysis";
      case Layer::Mapper: return "mapper";
      case Layer::Sim: return "sim";
      case Layer::Scalar: return "scalar";
      case Layer::Energy: return "energy";
      case Layer::Runner: return "runner";
      case Layer::Count: break;
    }
    return "?";
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int32_t
Tracer::open(const char *name, Layer layer)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = current;
    s.op = opId;
    s.tid = tid;
    log.push_back(s);
    current = static_cast<int32_t>(log.size() - 1);
    // Stamp last, so the recorder's own bookkeeping stays outside.
    log.back().startNs = nowNs();
    return current;
}

void
Tracer::close(int32_t span)
{
    Span &s = log[static_cast<size_t>(span)];
    s.endNs = nowNs();
    current = s.parent;
}

void
Tracer::absorb(const Tracer &other)
{
    const auto offset = static_cast<int32_t>(log.size());
    for (Span s : other.log) {
        if (s.parent >= 0)
            s.parent += offset;
        opId = std::max(opId, s.op);
        log.push_back(s);
    }
    counts += other.counts;
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    simRuns += o.simRuns;
    simFires += o.simFires;
    simCycles += o.simCycles;
    compiles += o.compiles;
    dfgNodes += o.dfgNodes;
    maps += o.maps;
    mapCost += o.mapCost;
    cutEdges += o.cutEdges;
    parses += o.parses;
    goldens += o.goldens;
    return *this;
}

double
SpanSummary::nameMs(const std::string &name) const
{
    for (const auto &[n, ms] : byName) {
        if (n == name)
            return ms;
    }
    return 0;
}

SpanSummary
summarize(const std::deque<Span> &spans, size_t opsPerPass)
{
    std::vector<int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }

    SpanSummary out;
    std::map<std::string, double> byName;
    std::vector<std::pair<double, double>> perOp; // dur, covered
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        double durMs = static_cast<double>(s.endNs - s.startNs) / 1e6;
        double selfMs =
            static_cast<double>(s.endNs - s.startNs - childNs[i]) / 1e6;
        if (s.op < 0)
            continue;
        if (perOp.size() <= static_cast<size_t>(s.op))
            perOp.resize(static_cast<size_t>(s.op) + 1);
        auto &[opDur, opCovered] = perOp[static_cast<size_t>(s.op)];
        if (s.layer == Layer::None) {
            if (s.parent < 0)
                opDur += durMs;
            continue;
        }
        byName[s.name] += selfMs;
        out.layerMs[static_cast<int>(s.layer)] += selfMs;
        opCovered += selfMs;
    }
    out.byName.assign(byName.begin(), byName.end());
    std::vector<std::vector<double>> shares(std::max<size_t>(opsPerPass, 1));
    for (size_t op = 0; op < perOp.size(); op++) {
        const auto &[dur, covered] = perOp[op];
        out.opMs += dur;
        out.coveredMs += covered;
        if (dur > 0)
            shares[op % shares.size()].push_back(covered / dur);
    }
    for (auto &v : shares) {
        if (v.empty())
            continue;
        std::sort(v.begin(), v.end());
        out.minCoverage = std::min(out.minCoverage, v[v.size() / 2]);
    }
    return out;
}

void
writeTraceEvents(const std::deque<Span> &spans,
                 const std::string &workload, std::ostream &out)
{
    using pipestitch::trace::JsonWriter;
    int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    JsonWriter w(out);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("workload").value(workload);
    w.key("spans").value(static_cast<int64_t>(spans.size()));
    w.endObject();
    w.key("traceEvents").beginArray();
    w.beginObject();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(0);
    w.key("tid").value(0);
    w.key("args").beginObject();
    w.key("name").value("psbench " + workload + " (replay thread 0)");
    w.endObject();
    w.endObject();
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(layerName(s.layer));
        w.key("ph").value("X");
        w.key("pid").value(0);
        w.key("tid").value(s.tid);
        w.key("ts").value(static_cast<double>(s.startNs - t0) / 1e3);
        w.key("dur").value(static_cast<double>(s.endNs - s.startNs) /
                           1e3);
        w.key("args").beginObject();
        w.key("id").value(static_cast<int64_t>(i));
        w.key("op").value(s.op);
        w.key("parent").value(s.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
}

} // namespace psbench

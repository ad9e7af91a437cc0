#include "trace/chrome_trace.hh"

#include "base/logging.hh"
#include "sim/simulator.hh"
#include "trace/json.hh"

namespace pipestitch::trace {

void
ChromeTraceSink::onSimBegin(const dfg::Graph &g,
                            const sim::SimConfig &)
{
    program = g.name;
    nodes.clear();
    nodes.reserve(static_cast<size_t>(g.size()));
    for (dfg::NodeId id = 0; id < g.size(); id++) {
        const dfg::Node &node = g.at(id);
        nodes.push_back({dfg::nodeKindName(node.kind), node.name,
                         node.kind == dfg::NodeKind::Load,
                         node.cfInNoc});
    }
    fires.clear();
    instants.clear();
    finalCycles = 0;
}

void
ChromeTraceSink::onFire(int64_t cycle, dfg::NodeId node)
{
    fires.push_back({cycle, node});
}

void
ChromeTraceSink::onMemAccess(int64_t cycle, dfg::NodeId node,
                             bool isLoad, sim::Word addr, int bank)
{
    instants.push_back({cycle, node,
                        isLoad ? Instant::Kind::Load
                               : Instant::Kind::Store,
                        static_cast<int64_t>(addr), bank});
}

void
ChromeTraceSink::onDispatch(int64_t cycle, dfg::NodeId node,
                            bool spawn, int32_t threadTag)
{
    instants.push_back({cycle, node,
                        spawn ? Instant::Kind::Spawn
                              : Instant::Kind::Cont,
                        threadTag, -1});
}

void
ChromeTraceSink::onSimEnd(const sim::SimResult &result)
{
    finalCycles = result.stats.cycles;
}

void
ChromeTraceSink::write(std::ostream &out) const
{
    ps_assert(!nodes.empty(),
              "ChromeTraceSink::write before any simulation");
    JsonWriter w(out);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("program").value(program);
    w.key("cycles").value(finalCycles);
    w.endObject();
    w.key("traceEvents").beginArray();

    // Track naming + sorting metadata: one track per node, in id
    // order, labeled with the operator it hosts.
    for (size_t id = 0; id < nodes.size(); id++) {
        const NodeLabel &node = nodes[id];
        w.beginObject();
        w.key("name").value("thread_name");
        w.key("ph").value("M");
        w.key("pid").value(0);
        w.key("tid").value(static_cast<int64_t>(id));
        w.key("args").beginObject();
        w.key("name").value(
            csprintf("n%zu %s %s%s", id, node.kind.c_str(),
                     node.name.c_str(),
                     node.cfInNoc ? " [NoC]" : ""));
        w.endObject();
        w.endObject();
        w.beginObject();
        w.key("name").value("thread_sort_index");
        w.key("ph").value("M");
        w.key("pid").value(0);
        w.key("tid").value(static_cast<int64_t>(id));
        w.key("args").beginObject();
        w.key("sort_index").value(static_cast<int64_t>(id));
        w.endObject();
        w.endObject();
    }

    for (const Fire &f : fires) {
        const NodeLabel &node = nodes[static_cast<size_t>(f.node)];
        bool isLoad = node.isLoad;
        w.beginObject();
        w.key("name").value(node.name.empty() ? node.kind
                                              : node.name);
        w.key("cat").value(node.kind);
        w.key("ph").value("X");
        w.key("pid").value(0);
        w.key("tid").value(f.node);
        w.key("ts").value(f.cycle);
        // Loads occupy their track until the data returns.
        w.key("dur").value(isLoad ? sim::kMemLatency : 1);
        w.endObject();
    }

    for (const Instant &i : instants) {
        w.beginObject();
        switch (i.kind) {
          case Instant::Kind::Spawn:
            w.key("name").value(
                csprintf("spawn t%lld",
                         static_cast<long long>(i.arg)));
            w.key("cat").value("dispatch");
            break;
          case Instant::Kind::Cont:
            w.key("name").value(
                i.arg >= 0
                    ? csprintf("cont t%lld",
                               static_cast<long long>(i.arg))
                    : std::string("cont"));
            w.key("cat").value("dispatch");
            break;
          case Instant::Kind::Load:
            w.key("name").value(
                csprintf("load @%lld",
                         static_cast<long long>(i.arg)));
            w.key("cat").value("memory");
            break;
          case Instant::Kind::Store:
            w.key("name").value(
                csprintf("store @%lld",
                         static_cast<long long>(i.arg)));
            w.key("cat").value("memory");
            break;
        }
        w.key("ph").value("i");
        w.key("s").value("t"); // thread-scoped instant
        w.key("pid").value(0);
        w.key("tid").value(i.node);
        w.key("ts").value(i.cycle);
        if (i.bank >= 0) {
            w.key("args").beginObject();
            w.key("addr").value(i.arg);
            w.key("bank").value(i.bank);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.endObject();
    out << '\n';
}

} // namespace pipestitch::trace

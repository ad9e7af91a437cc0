#include "sim/report.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "base/logging.hh"
#include "base/table.hh"
#include "trace/json.hh"

namespace pipestitch::sim {

Report &
Report::add(const std::string &key, int64_t v)
{
    Entry e;
    e.type = Entry::Type::Int;
    e.key = key;
    e.i = v;
    entries.push_back(std::move(e));
    return *this;
}

Report &
Report::add(const std::string &key, double v)
{
    Entry e;
    e.type = Entry::Type::Real;
    e.key = key;
    e.d = v;
    entries.push_back(std::move(e));
    return *this;
}

Report &
Report::add(const std::string &key, const std::string &v)
{
    Entry e;
    e.type = Entry::Type::Str;
    e.key = key;
    e.s = v;
    entries.push_back(std::move(e));
    return *this;
}

Report &
Report::add(const std::string &key, bool v)
{
    Entry e;
    e.type = Entry::Type::Bool;
    e.key = key;
    e.b = v;
    entries.push_back(std::move(e));
    return *this;
}

std::string
Report::render(const Entry &e) const
{
    switch (e.type) {
      case Entry::Type::Int:
        return csprintf("%lld", static_cast<long long>(e.i));
      case Entry::Type::Real: return csprintf("%.6g", e.d);
      case Entry::Type::Str: return e.s;
      case Entry::Type::Bool: return e.b ? "true" : "false";
    }
    return "";
}

bool
Report::has(const std::string &key) const
{
    for (const Entry &e : entries) {
        if (e.key == key)
            return true;
    }
    return false;
}

std::string
Report::get(const std::string &key) const
{
    for (const Entry &e : entries) {
        if (e.key == key)
            return render(e);
    }
    return "";
}

std::string
Report::toString() const
{
    std::string out;
    for (const Entry &e : entries) {
        if (!out.empty())
            out += ' ';
        out += e.key + '=' + render(e);
    }
    return out;
}

std::string
Report::toJson() const
{
    std::ostringstream out;
    trace::JsonWriter w(out);
    w.beginObject();
    for (const Entry &e : entries) {
        w.key(e.key);
        switch (e.type) {
          case Entry::Type::Int: w.value(e.i); break;
          case Entry::Type::Real: w.value(e.d); break;
          case Entry::Type::Str: w.value(e.s); break;
          case Entry::Type::Bool: w.value(e.b); break;
        }
    }
    w.endObject();
    return out.str();
}

Report
reportFor(const SimStats &stats)
{
    Report r;
    r.add("cycles", stats.cycles);
    r.add("fires", stats.totalPeFires());
    r.add("noc_cf_fires", stats.nocCfFires);
    r.add("ipc", stats.ipc());
    r.add("loads", stats.memLoads);
    r.add("stores", stats.memStores);
    r.add("spawns", stats.dispatchSpawns);
    r.add("conts", stats.dispatchConts);
    r.add("stall_input", stats.stallNoInput);
    r.add("stall_space", stats.stallNoSpace);
    r.add("stall_bank", stats.bankConflictStalls);
    // Only meaningful on tiled fabrics; omitted otherwise so
    // single-tile summaries stay byte-identical to the legacy form.
    if (stats.interTileTokens > 0)
        r.add("inter_tile_tokens", stats.interTileTokens);
    return r;
}

std::string
operatorReport(const dfg::Graph &graph, const SimStats &stats,
               int maxRows)
{
    std::vector<dfg::NodeId> order(
        static_cast<size_t>(graph.size()));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](dfg::NodeId a, dfg::NodeId b) {
                  return stats.nodeFires[static_cast<size_t>(a)] >
                         stats.nodeFires[static_cast<size_t>(b)];
              });

    Table t({"Op", "Kind", "Name", "Loop", "Where", "Fires",
             "Util"});
    double cycles = std::max<double>(1, stats.cycles);
    int rows = 0;
    for (dfg::NodeId id : order) {
        if (rows++ >= maxRows)
            break;
        const auto &n = graph.at(id);
        t.addRow({csprintf("n%d", id), dfg::nodeKindName(n.kind),
                  n.name,
                  n.loopId >= 0 ? csprintf("L%d", n.loopId) : "-",
                  n.kind == dfg::NodeKind::Trigger
                      ? "core"
                      : (n.cfInNoc ? "NoC" : "PE"),
                  csprintf("%lld",
                           static_cast<long long>(
                               stats.nodeFires[static_cast<size_t>(
                                   id)])),
                  Table::fmt(
                      stats.nodeFires[static_cast<size_t>(id)] /
                          cycles,
                      2)});
    }
    return t.render();
}

std::string
utilizationMap(const dfg::Graph &graph,
               const fabric::Fabric &fabric,
               const mapper::Mapping &mapping, const SimStats &stats)
{
    const auto &cfg = fabric.config();
    std::vector<double> util(static_cast<size_t>(fabric.numPes()),
                             -1.0);
    double cycles = std::max<double>(1, stats.cycles);
    for (dfg::NodeId id = 0; id < graph.size(); id++) {
        int pe = mapping.peOf[static_cast<size_t>(id)];
        if (pe < 0)
            continue;
        util[static_cast<size_t>(pe)] =
            stats.nodeFires[static_cast<size_t>(id)] / cycles;
    }

    std::ostringstream out;
    out << "fabric utilization: <class>.<decile> per mapped PE "
           "(x.0 = mapped but idle, '.' = unused)\n";
    for (int y = cfg.height - 1; y >= 0; y--) {
        out << "  ";
        for (int x = 0; x < cfg.width; x++) {
            int pe = fabric.peAt({x, y});
            char cls;
            switch (fabric.classAt(pe)) {
              case dfg::PeClass::Arith: cls = 'A'; break;
              case dfg::PeClass::Multiplier: cls = 'X'; break;
              case dfg::PeClass::ControlFlow: cls = 'C'; break;
              case dfg::PeClass::Memory: cls = 'M'; break;
              default: cls = 'S'; break;
            }
            double u = util[static_cast<size_t>(pe)];
            if (u < 0) {
                out << "   .";
            } else if (u == 0) {
                out << ' ' << cls << ".0";
            } else {
                int decile =
                    std::min(9, static_cast<int>(u * 10));
                out << ' ' << cls << '.' << decile;
            }
        }
        out << '\n';
    }
    return out.str();
}

} // namespace pipestitch::sim

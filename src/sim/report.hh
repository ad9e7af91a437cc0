/**
 * @file
 * Execution reports.
 *
 * `Report` is the canonical structured result record: an ordered
 * list of key/value entries with both a terminal rendering
 * (`toString()`, "key=value ...") and a machine-readable one
 * (`toJson()`). `reportFor(stats)` builds the standard simulation
 * summary; callers append their own entries (kernel name, energy,
 * trace file...) before emitting. It replaces the old ad-hoc
 * `summarize()` string.
 *
 * The remaining functions are human-readable diagnostics:
 * per-operator firing/utilization tables (text and JSON) and a
 * fabric utilization heat map (which PE did how much work).
 */

#ifndef PIPESTITCH_SIM_REPORT_HH
#define PIPESTITCH_SIM_REPORT_HH

#include <string>
#include <vector>

#include "dfg/graph.hh"
#include "fabric/fabric.hh"
#include "mapper/mapper.hh"
#include "sim/stats.hh"

namespace pipestitch::sim {

/**
 * Version stamp carried as `schema_version` in every machine-
 * readable pstool output (run/map/lint/trace --json, serve
 * responses, figures --json, BENCH_*.json). Bump on any
 * backwards-incompatible field change and record the delta in
 * docs/json-schemas.md.
 */
constexpr int kJsonSchemaVersion = 3;

/** Ordered key/value result record with text and JSON renderings. */
class Report
{
  public:
    Report &add(const std::string &key, int64_t v);
    Report &
    add(const std::string &key, int v)
    {
        return add(key, static_cast<int64_t>(v));
    }
    Report &add(const std::string &key, double v);
    Report &add(const std::string &key, const std::string &v);
    Report &
    add(const std::string &key, const char *v)
    {
        return add(key, std::string(v));
    }
    Report &add(const std::string &key, bool v);

    bool has(const std::string &key) const;
    /** Rendered value of @p key, or "" when absent. */
    std::string get(const std::string &key) const;

    /** Terminal form: "key=value key=value ...". */
    std::string toString() const;

    /** One JSON object, keys in insertion order. */
    std::string toJson() const;

    size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        enum class Type { Int, Real, Str, Bool };
        Type type;
        std::string key;
        int64_t i = 0;
        double d = 0;
        std::string s;
        bool b = false;
    };

    std::string render(const Entry &e) const;

    std::vector<Entry> entries;
};

/** The standard simulation summary (cycles, fires, ipc, memory and
 *  stall counters) as a Report. */
Report reportFor(const SimStats &stats);

/**
 * Per-operator table: id, kind, name, loop, placement, fires, and
 * utilization (fires / cycles). Sorted by fire count, capped at
 * @p maxRows rows.
 */
std::string operatorReport(const dfg::Graph &graph,
                           const SimStats &stats, int maxRows = 24);

/**
 * ASCII heat map of the fabric: one cell per PE showing its class
 * letter and utilization decile (0-9, '.' for idle, space for
 * unused).
 */
std::string utilizationMap(const dfg::Graph &graph,
                           const fabric::Fabric &fabric,
                           const mapper::Mapping &mapping,
                           const SimStats &stats);

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_REPORT_HH

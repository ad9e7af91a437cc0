#include "trace/observer.hh"

#include <cstdio>

namespace pipestitch::trace {

const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::NoInput: return "no_input";
      case StallReason::NoSpace: return "no_space";
      case StallReason::BankConflict: return "bank_conflict";
    }
    return "?";
}

void
TextTraceSink::onFire(int64_t cycle, dfg::NodeId node)
{
    const dfg::Node &n = graph->at(node);
    std::fprintf(stderr, "[%6lld] fire n%-3d %-9s %s\n",
                 static_cast<long long>(cycle), node,
                 dfg::nodeKindName(n.kind), n.name.c_str());
}

void
TextTraceSink::onStall(int64_t cycle, dfg::NodeId node,
                       StallReason reason)
{
    const dfg::Node &n = graph->at(node);
    std::fprintf(stderr, "[%6lld] stall n%-3d %-9s %s (%s)\n",
                 static_cast<long long>(cycle), node,
                 dfg::nodeKindName(n.kind), n.name.c_str(),
                 reason == StallReason::NoInput   ? "input"
                 : reason == StallReason::NoSpace ? "space"
                                                  : "bank");
}

} // namespace pipestitch::trace

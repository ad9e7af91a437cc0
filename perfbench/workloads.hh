/**
 * @file
 * The benchmark's four workloads (see README.md for why each exists).
 *
 * A workload builds its inputs from the seed in setup(), then runs
 * passes. An untraced pass goes through the public one-call APIs
 * (runOnFabric, prepareKernel + executeOnFabric, runner::Runner,
 * runner::ServeServer) and gives the end-to-end numbers; a traced pass
 * replays the same operations through each layer's functions with
 * spans (replay.hh) and gives the per-layer numbers. Every pass
 * reports one OpResult per operation; psbench checks that every
 * pass, traced or not, reproduces the first untraced pass exactly.
 */

#ifndef PSBENCH_WORKLOADS_HH
#define PSBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/memo.hh"
#include "sim/stats.hh"
#include "spans.hh"

namespace psbench {

/** What one operation produced, in the form the checks compare. */
struct OpResult
{
    int64_t cycles = 0;   ///< simulated cycles
    double energyPj = 0;  ///< modelled fabric energy
    uint64_t memHash = 0; ///< final memory image (or DNN logits)
    bool hasStats = false;
    pipestitch::sim::SimStats stats;
    bool ok = true; ///< false when the operation itself failed
};

/** Same outputs (the `ok` flag aside). */
bool sameResult(const OpResult &a, const OpResult &b);

/** Host wall and process CPU time of the measured part of a pass. */
class PassClock
{
  public:
    void start();
    void stop();
    double wallS = 0;
    double cpuS = 0;

  private:
    int64_t wall0 = 0;
    double cpu0 = 0;
};

struct PassResult
{
    std::vector<OpResult> results; ///< one per operation, in order
    std::vector<std::string> errors; ///< operation and workload failures
    /** Per operation: host time and process CPU time. Empty on
     *  concurrent workloads' traced passes. */
    std::vector<double> latencyMs;
    std::vector<double> opCpuS;
    PassClock clock;

    /** Runner-layer counters seen from outside (untraced passes). */
    pipestitch::runner::MemoStats memo;
    int64_t dedupHits = 0;

    /** Mark the last pushed result failed. */
    void opFailed(const std::string &why);
    /** A whole-workload check failed (no operation is blamed). */
    void checkFailed(const std::string &why);
    bool workloadOk = true;
};

/**
 * Work to run between a sequential pass's operations, after each
 * OpTimer::stop and outside every timer; psbench times setups and its
 * host-speed calibration there, so their samples spread over the whole
 * run. Empty (the default): nothing runs.
 */
void setInterlude(std::function<void()> work);

/** Times one operation of a sequential pass. */
class OpTimer
{
  public:
    OpTimer();
    /** Record the operation's times, then run the interlude. */
    void stop(PassResult &pass) const;

  private:
    int64_t wall0;
    double cpu0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** True when operations overlap (serve-distinct): pass time is
     *  then measured per pass, not summed from operations. */
    virtual bool concurrent() const { return false; }

    /** Drop the previous setup's state (not timed). */
    virtual void release() = 0;
    /** Generate inputs from the seed and build the runner/server;
     *  timed as `setup_s`. */
    virtual void setup() = 0;
    virtual PassResult run() = 0;
    virtual PassResult runTraced(Tracer &t) = 0;
};

const std::vector<std::string> &workloadNames();

/** Null for an unknown name. @p smoke selects the seconds-long size
 *  the benchmark's own tests use; it runs the same code and checks. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, bool smoke);

/** Try every explore-cold candidate point and print the ones that
 *  map, as the table workloads.cc embeds. */
void listExplorePoints(uint64_t seed);

} // namespace psbench

#endif // PSBENCH_WORKLOADS_HH

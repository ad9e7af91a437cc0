/**
 * @file
 * Certified steady-state performance bounds (PS-T analysis result).
 *
 * A BoundReport is the *static* half of the throughput-bound
 * analysis (analysis/throughput.hh): a set of BoundTerms whose
 * structural coefficients — recurrence cycle lengths, pipeline
 * depths, group memberships, channel latencies — are derived once
 * from a sim::Program and never change between runs. Evaluating a
 * term against a run's SimStats plugs in the run's fire counts and
 * yields a certified cycle lower bound: `simulated cycles` can never
 * be smaller than `certifiedCycles` for the same run (the fast
 * engine is bit-identical to the DenseScan reference, so one
 * evaluation covers both).
 *
 * Soundness is per-term (each term states a resource or dependence
 * limit the timing model provably respects); the report's certified
 * bound is the max over certified terms. Advisory terms (hot-link
 * route contention: intra-tile links are circuit-switched wires the
 * simulator does not serialize on) are kept out of the certified
 * max and reported separately.
 *
 * executeOnFabric cross-checks every analyzed run against the bound,
 * mirroring the deadlock-certification cross-check; `pstool bound`
 * renders the binding constraint with a fix hint.
 */

#ifndef PIPESTITCH_SIM_BOUND_HH
#define PIPESTITCH_SIM_BOUND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.hh"
#include "sim/stats.hh"

namespace pipestitch::sim {

/** One static throughput/latency constraint. */
struct BoundTerm
{
    enum class Kind {
        /**
         * Loop-carried recurrence through a carry gate: the shortest
         * structural dependence cycle gate.out → ... → gate.cont has
         * weight `weight` (p_min) cycles, every cont consumption
         * chains behind a prior out emission by at least p_min, and
         * chains step over at most the gate's entry count, so
         *   cycles >= ceil(conts / entries) * p_min + 1.
         */
        Recurrence,
        /**
         * Pipeline fill + occupancy: a sequential node at depth d
         * (earliest possible first fire) that fires f times occupies
         * at least d + f cycles. `nodes`/`weights` carry (node,
         * depth) pairs; evaluation maximizes d + fires over members.
         */
        Pipeline,
        /**
         * SyncPlane dispatch-group serialization: every gate of one
         * dispatch group is sequential, so the group's busiest gate
         * needs at least its fire count in cycles.
         */
        Dispatch,
        /**
         * Time-multiplexed share group: at most one member fires per
         * cycle, so cycles >= min member depth + sum of member fires.
         */
        ShareGroup,
        /**
         * Memory banking: at most memBanks requests initiate per
         * cycle, so cycles >= ceil((loads + stores) / banks).
         */
        MemoryBanks,
        /**
         * Inter-tile channel occupancy: each token spends `latency`
         * cycles in a channel holding at most `capacity` tokens, so
         * cycles >= ceil(reads * latency / capacity).
         */
        Channel,
        /**
         * Advisory (not certified): the hottest statically-routed
         * link carries the summed token traffic of every edge routed
         * over it. The simulator does not serialize circuit-switched
         * wires, so this is a provisioning signal, not a certified
         * cycle bound.
         */
        HotLink,
    };

    Kind kind = Kind::Pipeline;
    /** Counted into the certified max (HotLink is advisory). */
    bool certified = true;

    /** Primary node (recurrence gate, channel destination...). */
    dfg::NodeId node = dfg::NoNode;
    /** Consumer input index for Channel terms (-1 otherwise). */
    int input = -1;
    /** Kind-specific coefficient: p_min (Recurrence), min member
     *  depth (ShareGroup). */
    int64_t weight = 0;
    int64_t latency = 0;  ///< Channel latency
    int64_t capacity = 1; ///< Channel capacity / memory banks

    /** Members: cycle nodes, pipeline nodes, group gates, edge
     *  destinations (HotLink). */
    std::vector<dfg::NodeId> nodes;
    /** Parallel with `nodes` where per-member data is needed:
     *  consumer input indices (HotLink edges). */
    std::vector<int> inputs;
    /** Parallel with `nodes`: per-member depth (Pipeline). */
    std::vector<int64_t> weights;

    /** Static description of the constraint (human-readable). */
    std::string detail;
    /** How to lift this bound if it binds. */
    std::string hint;
};

const char *boundTermKindName(BoundTerm::Kind k);

/** The static bound for one compiled Program. */
struct BoundReport
{
    std::vector<BoundTerm> terms;

    /** One evaluated term. */
    struct TermEval
    {
        int64_t cycles = 0;
        /** Member that realized the max (Pipeline), else the term's
         *  primary node. */
        dfg::NodeId node = dfg::NoNode;
    };

    /** The bound instantiated with one run's fire counts. */
    struct Evaluation
    {
        /** Max over certified terms; simulated cycles can never be
         *  smaller. 0 when no certified term applies. */
        int64_t certifiedCycles = 0;
        /** Max including advisory terms (provisioning signal). */
        int64_t advisoryCycles = 0;
        /** Index of the binding certified term (-1 when none). */
        int binding = -1;
        std::vector<TermEval> perTerm;

        bool holds(int64_t simCycles) const
        {
            return certifiedCycles <= simCycles;
        }
    };

    /** Instantiate every term against @p stats. */
    Evaluation evaluate(const SimStats &stats) const;
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_BOUND_HH

#include "mapper/mapper.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>

#include "base/logging.hh"
#include "base/random.hh"
#include "mapper/routecost.hh"

namespace pipestitch::mapper {

using dfg::Consumer;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
using dfg::PeClass;
using fabric::Coord;
using fabric::Fabric;

namespace {

/** Lockstep chunk: all portfolio members run this many iterations
 *  between barriers, where the shared best-cost bound is folded and
 *  hopeless members are abandoned. */
constexpr int kChunkIters = 512;

/** Anneal start temperature (a targeted repair restarts at half). */
constexpr double kStartTemperature = 4.0;

/**
 * Division-free uniform pick in [0, bound): one wide multiply on a
 * 64-bit draw. The bias is O(bound/2^64) — irrelevant for move
 * sampling — while Rng::nextBounded's rejection sampling costs two
 * integer divisions per call, which dominates the anneal's inner
 * loop. Mapper-local so the global Rng stream (which generates
 * workload data) is untouched.
 */
inline uint64_t
pick(Rng &rng, uint64_t bound)
{
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(rng.next()) * bound) >> 64);
}

/** Pseudo move-class for CF-in-NoC operators (hosted on routers). */
constexpr int kNocClass = 5;
constexpr int kNumMoveClasses = 6;

/** One (source, output port) multicast distribution tree. */
struct Tree
{
    NodeId src;
    int port;
};

/**
 * One full placement state with cached partial costs.
 *
 * `nodeWl` caches each representative's summed Manhattan distance to
 * its neighbors; `wl` is the (double-counted-and-halved) total.
 * When the congestion phase is active, `load` carries the per-link
 * circuit-switched route counts and `overflow` the total wires above
 * capacity; both are maintained incrementally per move.
 */
struct Candidate
{
    std::vector<int> pos;        // rep → grid index; -1 unplaced
    std::vector<Coord> coord;    // rep → coordinates ({0,0} trigger)
    std::vector<int64_t> nodeWl; // rep → Σ manhattan to neighbors
    int64_t wl = 0;
    std::vector<int> load; // per link; valid when congestionOn
    int64_t overflow = 0;
    // Move-local link-delta accumulator (evaluate-then-commit): a
    // rejected move never touches `load`, it only resets these.
    std::vector<int> deltaLoad;
    std::vector<size_t> touchedLinks;
    std::vector<uint32_t> linkStamp;
    uint32_t linkEpoch = 0;
    std::vector<NodeId> occupant; // per PE
    std::vector<int> routerLoad;  // per router (CF slots)
    routecost::ClaimScratch scratch;
    std::vector<uint32_t> treeStamp; // move-local tree dedupe
    uint32_t treeEpoch = 0;
    std::vector<int> affected; // scratch: trees touched by a move
    mutable std::vector<int> snapLoad; // chunk-snapshot loads
    mutable routecost::ClaimScratch snapScratch;
    Rng rng{0};
    double temp = 0;
    double cooling = 1.0;
    bool congestionOn = false;
    int itersDone = 0;
    bool abandoned = false;
    // Best full-objective snapshot, updated at chunk barriers.
    double bestCost = 0;
    std::vector<int> bestPos;
};

class MapperRun
{
  public:
    MapperRun(const Graph &graph, const Fabric &fab,
              const MapperOptions &opts)
        : graph(graph), fab(fab), opts(opts),
          width(fab.config().width),
          numLinks(routecost::linkCount(fab.config())),
          linkCap(fab.config().linkCapacity),
          cfCap(fab.config().routerCfCapacity),
          seeds(std::max(1, opts.portfolioSeeds)),
          // Per-member schedule (the full budget when there is no
          // portfolio), long enough that the holder cools slowly
          // toward a single long anneal's quality; members the
          // shared bound abandons stop early. Small graphs afford a
          // 40% schedule (the same size threshold the polish uses
          // to scale its kick count); past ~40 representatives the
          // per-chunk cost dominates and the schedule drops to 20%.
          perSeedIters(seeds > 1
                           ? (graph.size() > 40
                                  ? opts.annealIterations / 5
                                  : opts.annealIterations * 2 / 5)
                           : std::max(0, opts.annealIterations))
    {}

    Mapping run();

  private:
    // --- setup ----------------------------------------------------
    void buildStructure();
    bool checkFeasible(Mapping &m) const;
    void initCandidate(Candidate &c) const;
    void greedyInit(Candidate &c) const;
    void randomInit(Candidate &c) const;
    void placeNocByCentroid(Candidate &c) const;
    void finishInit(Candidate &c) const;

    // --- incremental cost engine ---------------------------------
    Coord coordFor(const Candidate &c, NodeId id) const
    {
        return c.coord[static_cast<size_t>(
            repOf[static_cast<size_t>(id)])];
    }
    void moveOne(Candidate &c, NodeId rep, Coord to) const;
    void collectAffectedTrees(Candidate &c, NodeId a,
                              NodeId b) const;
    void applyAffectedTrees(Candidate &c, int sign) const;
    void traceAffectedDelta(Candidate &c, int sign,
                            NodeId a = dfg::NoNode, Coord aC = {},
                            NodeId b = dfg::NoNode,
                            Coord bC = {}) const;
    void enableCongestion(Candidate &c, bool force) const;
    int64_t recomputeWirelength(const Candidate &c) const;
    int64_t recomputeOverflow(const Candidate &c,
                              std::vector<int> &load,
                              routecost::ClaimScratch &scratch) const;
    double fullCost(const Candidate &c) const;
    void verifyIncremental(const Candidate &c) const;

    // --- anneal / portfolio --------------------------------------
    double priceMove(Candidate &c, NodeId a, NodeId b, int fromPos,
                     int toPos, int64_t &wlDelta,
                     int64_t &dOf) const;
    void clearMoveDelta(Candidate &c) const;
    void commitMove(Candidate &c, int cls, NodeId a, NodeId b,
                    int fromPos, int toPos, int64_t dOf) const;
    void annealStep(Candidate &c) const;
    void descend(Candidate &c) const;
    void runChunk(Candidate &c, int iters) const;
    bool shouldAbandon(const Candidate &c, double bound) const;
    void portfolio(std::vector<int> &winnerPos, int &winnerSeed,
                   int &earlyExited) const;

    // --- congestion repair / finish ------------------------------
    void candidateFromPos(Candidate &c,
                          const std::vector<int> &pos) const;
    void polish(std::vector<int> &pos) const;
    std::vector<NodeId> collectCulprits(Candidate &c) const;
    void perturbCulprits(Candidate &c,
                         const std::vector<NodeId> &culprits) const;
    bool repairCongestion(std::vector<int> &pos,
                          std::vector<NodeId> &implicated) const;
    void finishMapping(Mapping &m,
                       const std::vector<int> &pos) const;

    const Graph &graph;
    const Fabric &fab;
    const MapperOptions &opts;
    const int width;
    const size_t numLinks;
    const int linkCap;
    const int cfCap;
    const int seeds;
    const int perSeedIters;

    std::vector<NodeId> repOf;     // node → placement representative
    std::vector<int8_t> moveClass; // rep → 0..4 PE, 5 NoC, -1 fixed
    std::vector<std::vector<NodeId>> byClass; // movable reps
    std::vector<int> classesInUse;
    std::vector<Coord> gridCoord; // grid index → coordinates
    // Per move-class, per grid slot: the other slots of that class
    // sorted nearest-first (ties by index) — the move generator's
    // range-limited target lists.
    // Flattened [cls][fromPos] -> nearest-first target list. One
    // contiguous pool plus (offset, length) per slot keeps the
    // anneal's hottest lookup to two dependent loads.
    std::vector<int> nearPool;
    std::vector<std::pair<int, int>> nearSpan; // cls*numPes + pos
    std::span<const int> nearestFor(int cls, int fromPos) const
    {
        const auto &[off, len] = nearSpan[static_cast<size_t>(
            cls * fab.numPes() + fromPos)];
        return {nearPool.data() + off, static_cast<size_t>(len)};
    }
    // CSR adjacency over representatives (wire edges, both
    // directions, multiplicity kept, same-rep edges dropped).
    std::vector<int> adjStart;
    std::vector<NodeId> adjNode;
    // Multicast trees and, per representative, the trees whose
    // links depend on its position (as source or as a consumer).
    std::vector<Tree> trees;
    std::vector<int> treeStart;
    std::vector<int> treeIds;
};

void
MapperRun::buildStructure()
{
    const size_t n = static_cast<size_t>(graph.size());
    repOf.resize(n);
    for (NodeId id = 0; id < graph.size(); id++)
        repOf[static_cast<size_t>(id)] = id;
    for (const auto &group : opts.shareGroups) {
        for (size_t i = 1; i < group.size(); i++)
            repOf[static_cast<size_t>(group[i])] = group[0];
    }

    moveClass.assign(n, -1);
    byClass.assign(kNumMoveClasses, {});
    for (NodeId id = 0; id < graph.size(); id++) {
        if (repOf[static_cast<size_t>(id)] != id)
            continue; // aliases ride with their representative
        const Node &node = graph.at(id);
        if (node.kind == NodeKind::Trigger)
            continue; // injected from the scalar-core corner
        int cls = node.cfInNoc
                      ? kNocClass
                      : static_cast<int>(node.peClass());
        moveClass[static_cast<size_t>(id)] =
            static_cast<int8_t>(cls);
        byClass[static_cast<size_t>(cls)].push_back(id);
    }
    for (int c = 0; c < kNumMoveClasses; c++) {
        size_t count = byClass[static_cast<size_t>(c)].size();
        size_t slots =
            c == kNocClass
                ? static_cast<size_t>(fab.numPes())
                : fab.pesOfClass(static_cast<PeClass>(c)).size();
        // A class participates if a node can actually go somewhere
        // new: a spare slot or a partner to swap with.
        if (count >= 1 && (slots > count || count >= 2))
            classesInUse.push_back(c);
    }

    gridCoord.resize(static_cast<size_t>(fab.numPes()));
    for (int pe = 0; pe < fab.numPes(); pe++)
        gridCoord[static_cast<size_t>(pe)] = fab.coordOf(pe);

    nearPool.clear();
    nearSpan.assign(
        static_cast<size_t>(kNumMoveClasses * fab.numPes()),
        {0, 0});
    std::vector<int> slots;
    for (int cls : classesInUse) {
        if (cls == kNocClass) {
            slots.resize(static_cast<size_t>(fab.numPes()));
            for (int pe = 0; pe < fab.numPes(); pe++)
                slots[static_cast<size_t>(pe)] = pe;
        } else {
            const auto &supply =
                fab.pesOfClass(static_cast<PeClass>(cls));
            slots.assign(supply.begin(), supply.end());
            std::sort(slots.begin(), slots.end());
        }
        int off = static_cast<int>(nearPool.size());
        int len = static_cast<int>(slots.size()) - 1;
        detail::appendNearestFirst(slots, gridCoord, nearPool);
        for (int from : slots) {
            nearSpan[static_cast<size_t>(cls * fab.numPes() +
                                         from)] = {off, len};
            off += len;
        }
    }

    // Rep-level adjacency from wire edges.
    std::vector<int> degree(n, 0);
    for (NodeId id = 0; id < graph.size(); id++) {
        const Node &node = graph.at(id);
        NodeId rt = repOf[static_cast<size_t>(id)];
        for (int i = 0; i < node.numInputs(); i++) {
            const auto &in = node.inputs[static_cast<size_t>(i)];
            if (!in.isWire())
                continue;
            NodeId rf = repOf[static_cast<size_t>(in.port.node)];
            if (rf == rt)
                continue; // co-located: always zero length
            degree[static_cast<size_t>(rf)]++;
            degree[static_cast<size_t>(rt)]++;
        }
    }
    adjStart.assign(n + 1, 0);
    for (size_t i = 0; i < n; i++)
        adjStart[i + 1] = adjStart[i] + degree[i];
    adjNode.resize(static_cast<size_t>(adjStart[n]));
    std::vector<int> fill(adjStart.begin(), adjStart.end() - 1);
    for (NodeId id = 0; id < graph.size(); id++) {
        const Node &node = graph.at(id);
        NodeId rt = repOf[static_cast<size_t>(id)];
        for (int i = 0; i < node.numInputs(); i++) {
            const auto &in = node.inputs[static_cast<size_t>(i)];
            if (!in.isWire())
                continue;
            NodeId rf = repOf[static_cast<size_t>(in.port.node)];
            if (rf == rt)
                continue;
            adjNode[static_cast<size_t>(
                fill[static_cast<size_t>(rf)]++)] = rt;
            adjNode[static_cast<size_t>(
                fill[static_cast<size_t>(rt)]++)] = rf;
        }
    }

    // Multicast trees, and which reps each tree's links depend on.
    std::vector<std::vector<int>> treesOf(n);
    std::vector<uint32_t> seen(n, 0);
    uint32_t epoch = 0;
    for (NodeId src = 0; src < graph.size(); src++) {
        const Node &node = graph.at(src);
        for (int port = 0; port < node.numOutputs(); port++) {
            const auto &consumers = graph.consumersOf({src, port});
            if (consumers.empty())
                continue;
            int t = static_cast<int>(trees.size());
            trees.push_back({src, port});
            epoch++;
            auto touch = [&](NodeId id) {
                NodeId r = repOf[static_cast<size_t>(id)];
                if (seen[static_cast<size_t>(r)] != epoch) {
                    seen[static_cast<size_t>(r)] = epoch;
                    treesOf[static_cast<size_t>(r)].push_back(t);
                }
            };
            touch(src);
            for (const Consumer &c : consumers)
                touch(c.node);
        }
    }
    treeStart.assign(n + 1, 0);
    for (size_t i = 0; i < n; i++) {
        treeStart[i + 1] =
            treeStart[i] + static_cast<int>(treesOf[i].size());
    }
    treeIds.resize(static_cast<size_t>(treeStart[n]));
    for (size_t i = 0; i < n; i++) {
        std::copy(treesOf[i].begin(), treesOf[i].end(),
                  treeIds.begin() + treeStart[i]);
    }
}

bool
MapperRun::checkFeasible(Mapping &m) const
{
    for (int c = 0; c < 5; c++) {
        auto cls = static_cast<PeClass>(c);
        const auto &demand = byClass[static_cast<size_t>(c)];
        const auto &supply = fab.pesOfClass(cls);
        if (demand.size() > supply.size()) {
            m.error = csprintf(
                "kernel needs %zu %s PEs but the fabric has %zu",
                demand.size(), dfg::peClassName(cls),
                supply.size());
            m.failedNodes = demand;
            return false;
        }
    }
    const auto &noc = byClass[kNocClass];
    size_t nocSlots =
        static_cast<size_t>(fab.numPes()) *
        static_cast<size_t>(cfCap);
    if (noc.size() > nocSlots) {
        m.error = csprintf(
            "kernel hosts %zu control-flow ops in the NoC but the "
            "routers have %zu slots",
            noc.size(), nocSlots);
        m.failedNodes = noc;
        return false;
    }
    return true;
}

void
MapperRun::initCandidate(Candidate &c) const
{
    const size_t n = static_cast<size_t>(graph.size());
    c.pos.assign(n, -1);
    c.coord.assign(n, Coord{0, 0});
    c.nodeWl.assign(n, 0);
    c.occupant.assign(static_cast<size_t>(fab.numPes()),
                      dfg::NoNode);
    c.routerLoad.assign(static_cast<size_t>(fab.numPes()), 0);
    c.scratch.ensure(numLinks);
    c.treeStamp.assign(trees.size(), 0);
    c.treeEpoch = 0;
    c.temp = kStartTemperature;
    c.cooling =
        (perSeedIters > 0 && c.temp > 0.01)
            ? std::pow(0.01 / c.temp, 1.0 / perSeedIters)
            : 1.0;
}

void
MapperRun::greedyInit(Candidate &c) const
{
    for (int cls = 0; cls < 5; cls++) {
        const auto &nodes = byClass[static_cast<size_t>(cls)];
        const auto &supply =
            fab.pesOfClass(static_cast<PeClass>(cls));
        for (size_t i = 0; i < nodes.size(); i++) {
            int pe = supply[i];
            c.pos[static_cast<size_t>(nodes[i])] = pe;
            c.occupant[static_cast<size_t>(pe)] = nodes[i];
        }
    }
    placeNocByCentroid(c);
}

void
MapperRun::randomInit(Candidate &c) const
{
    for (int cls = 0; cls < 5; cls++) {
        const auto &nodes = byClass[static_cast<size_t>(cls)];
        std::vector<int> supply =
            fab.pesOfClass(static_cast<PeClass>(cls));
        // Partial Fisher-Yates: a distinct random PE per node.
        for (size_t i = 0; i < nodes.size(); i++) {
            size_t j =
                i + static_cast<size_t>(
                        c.rng.nextBounded(supply.size() - i));
            std::swap(supply[i], supply[j]);
            c.pos[static_cast<size_t>(nodes[i])] = supply[i];
            c.occupant[static_cast<size_t>(supply[i])] = nodes[i];
        }
    }
    for (NodeId id : byClass[kNocClass]) {
        // Random router, linear-probing for a free CF slot.
        int r = static_cast<int>(
            c.rng.nextBounded(static_cast<uint64_t>(fab.numPes())));
        while (c.routerLoad[static_cast<size_t>(r)] >= cfCap)
            r = (r + 1) % fab.numPes();
        c.pos[static_cast<size_t>(id)] = r;
        c.routerLoad[static_cast<size_t>(r)]++;
    }
}

void
MapperRun::placeNocByCentroid(Candidate &c) const
{
    for (NodeId id : byClass[kNocClass]) {
        // Centroid of already-placed neighbors.
        int sx = 0, sy = 0, count = 0;
        for (int i = adjStart[static_cast<size_t>(id)];
             i < adjStart[static_cast<size_t>(id) + 1]; i++) {
            NodeId nb = adjNode[static_cast<size_t>(i)];
            if (c.pos[static_cast<size_t>(nb)] < 0)
                continue;
            Coord at = gridCoord[static_cast<size_t>(
                c.pos[static_cast<size_t>(nb)])];
            sx += at.x;
            sy += at.y;
            count++;
        }
        Coord want{count ? sx / count : 0, count ? sy / count : 0};
        int best = -1;
        int bestDist = 1 << 30;
        for (int pe = 0; pe < fab.numPes(); pe++) {
            if (c.routerLoad[static_cast<size_t>(pe)] >= cfCap)
                continue;
            int d = fabric::manhattan(
                gridCoord[static_cast<size_t>(pe)], want);
            if (d < bestDist) {
                bestDist = d;
                best = pe;
            }
        }
        ps_assert(best >= 0, "router CF capacity exhausted");
        c.pos[static_cast<size_t>(id)] = best;
        c.routerLoad[static_cast<size_t>(best)]++;
    }
}

void
MapperRun::finishInit(Candidate &c) const
{
    for (NodeId id = 0; id < graph.size(); id++) {
        int p = c.pos[static_cast<size_t>(id)];
        c.coord[static_cast<size_t>(id)] =
            p >= 0 ? gridCoord[static_cast<size_t>(p)]
                   : Coord{0, 0};
    }
    c.wl = 0;
    for (NodeId r = 0; r < graph.size(); r++) {
        int64_t sum = 0;
        for (int i = adjStart[static_cast<size_t>(r)];
             i < adjStart[static_cast<size_t>(r) + 1]; i++) {
            sum += fabric::manhattan(
                c.coord[static_cast<size_t>(r)],
                c.coord[static_cast<size_t>(
                    adjNode[static_cast<size_t>(i)])]);
        }
        c.nodeWl[static_cast<size_t>(r)] = sum;
        c.wl += sum;
    }
    c.wl /= 2; // every edge was summed from both endpoints
}

void
MapperRun::moveOne(Candidate &c, NodeId rep, Coord to) const
{
    Coord from = c.coord[static_cast<size_t>(rep)];
    int64_t delta = 0;
    for (int i = adjStart[static_cast<size_t>(rep)];
         i < adjStart[static_cast<size_t>(rep) + 1]; i++) {
        NodeId nb = adjNode[static_cast<size_t>(i)];
        Coord at = c.coord[static_cast<size_t>(nb)];
        int64_t d = fabric::manhattan(to, at) -
                    fabric::manhattan(from, at);
        c.nodeWl[static_cast<size_t>(nb)] += d;
        delta += d;
    }
    c.nodeWl[static_cast<size_t>(rep)] += delta;
    c.wl += delta;
    c.coord[static_cast<size_t>(rep)] = to;
}

void
MapperRun::collectAffectedTrees(Candidate &c, NodeId a,
                                NodeId b) const
{
    c.affected.clear();
    if (++c.treeEpoch == 0) {
        std::fill(c.treeStamp.begin(), c.treeStamp.end(), 0u);
        c.treeEpoch = 1;
    }
    auto add = [&](NodeId rep) {
        for (int i = treeStart[static_cast<size_t>(rep)];
             i < treeStart[static_cast<size_t>(rep) + 1]; i++) {
            int t = treeIds[static_cast<size_t>(i)];
            if (c.treeStamp[static_cast<size_t>(t)] != c.treeEpoch) {
                c.treeStamp[static_cast<size_t>(t)] = c.treeEpoch;
                c.affected.push_back(t);
            }
        }
    };
    add(a);
    if (b != dfg::NoNode)
        add(b);
}

void
MapperRun::applyAffectedTrees(Candidate &c, int sign) const
{
    for (int t : c.affected) {
        routecost::traceTree(
            graph, trees[static_cast<size_t>(t)].src,
            trees[static_cast<size_t>(t)].port, width,
            [&](NodeId id) { return coordFor(c, id); }, c.scratch,
            [&](size_t l, const Consumer &) {
                int before = c.load[l];
                c.load[l] += sign;
                c.overflow +=
                    routecost::overflowDelta(before, linkCap, sign);
            },
            [](const Consumer &, int) {});
    }
}

void
MapperRun::traceAffectedDelta(Candidate &c, int sign, NodeId a,
                              Coord aC, NodeId b, Coord bC) const
{
    // `a`/`b` (when not NoNode) are traced at the overridden
    // coordinates, so a proposed move can be priced without
    // mutating the candidate.
    auto posOf = [&](NodeId id) {
        NodeId r = repOf[static_cast<size_t>(id)];
        if (r == a)
            return aC;
        if (r == b)
            return bC;
        return c.coord[static_cast<size_t>(r)];
    };
    for (int t : c.affected) {
        routecost::traceTree(
            graph, trees[static_cast<size_t>(t)].src,
            trees[static_cast<size_t>(t)].port, width, posOf,
            c.scratch,
            [&](size_t l, const Consumer &) {
                if (c.linkStamp[l] != c.linkEpoch) {
                    c.linkStamp[l] = c.linkEpoch;
                    c.touchedLinks.push_back(l);
                }
                c.deltaLoad[l] += sign;
            },
            [](const Consumer &, int) {});
    }
}

void
MapperRun::enableCongestion(Candidate &c, bool force) const
{
    c.overflow = recomputeOverflow(c, c.load, c.snapScratch);
    int maxLoad = 0;
    for (int l : c.load)
        maxLoad = std::max(maxLoad, l);
    // Placements comfortably below capacity skip the per-move
    // congestion bookkeeping: the chunk-end snapshots (whose cost
    // always includes the overload term) still catch any drift, and
    // the repair stage re-checks the winner from scratch.
    if (!force && maxLoad < linkCap - 1) {
        c.load.clear();
        c.overflow = 0;
        return;
    }
    c.deltaLoad.assign(numLinks, 0);
    c.touchedLinks.clear();
    c.linkStamp.assign(numLinks, 0);
    c.linkEpoch = 0;
    c.congestionOn = true;
}

int64_t
MapperRun::recomputeWirelength(const Candidate &c) const
{
    int64_t total = 0;
    for (NodeId r = 0; r < graph.size(); r++) {
        for (int i = adjStart[static_cast<size_t>(r)];
             i < adjStart[static_cast<size_t>(r) + 1]; i++) {
            total += fabric::manhattan(
                c.coord[static_cast<size_t>(r)],
                c.coord[static_cast<size_t>(
                    adjNode[static_cast<size_t>(i)])]);
        }
    }
    return total / 2;
}

int64_t
MapperRun::recomputeOverflow(const Candidate &c,
                             std::vector<int> &load,
                             routecost::ClaimScratch &scratch) const
{
    load.assign(numLinks, 0);
    scratch.ensure(numLinks);
    for (const Tree &t : trees) {
        routecost::traceTree(
            graph, t.src, t.port, width,
            [&](NodeId id) { return coordFor(c, id); }, scratch,
            [&](size_t l, const Consumer &) { load[l]++; },
            [](const Consumer &, int) {});
    }
    int64_t overflow = 0;
    for (int l : load)
        overflow += std::max(0, l - linkCap);
    return overflow;
}

double
MapperRun::fullCost(const Candidate &c) const
{
    int64_t overflow =
        c.congestionOn
            ? c.overflow
            : recomputeOverflow(c, c.snapLoad, c.snapScratch);
    return static_cast<double>(c.wl) +
           kCongestionWeight * static_cast<double>(overflow);
}

void
MapperRun::verifyIncremental(const Candidate &c) const
{
    int64_t wl = recomputeWirelength(c);
    ps_assert(wl == c.wl,
              "incremental wirelength %lld != recomputed %lld",
              static_cast<long long>(c.wl),
              static_cast<long long>(wl));
    for (NodeId r = 0; r < graph.size(); r++) {
        int64_t sum = 0;
        for (int i = adjStart[static_cast<size_t>(r)];
             i < adjStart[static_cast<size_t>(r) + 1]; i++) {
            sum += fabric::manhattan(
                c.coord[static_cast<size_t>(r)],
                c.coord[static_cast<size_t>(
                    adjNode[static_cast<size_t>(i)])]);
        }
        ps_assert(sum == c.nodeWl[static_cast<size_t>(r)],
                  "cached partial cost of node %d is stale", r);
    }
    if (c.congestionOn) {
        std::vector<int> load;
        routecost::ClaimScratch scratch;
        int64_t overflow = recomputeOverflow(c, load, scratch);
        ps_assert(overflow == c.overflow,
                  "incremental overflow %lld != recomputed %lld",
                  static_cast<long long>(c.overflow),
                  static_cast<long long>(overflow));
        ps_assert(load == c.load, "incremental link loads diverged");
    }
}

/**
 * Price moving `a` from `fromPos` to `toPos` (swapping with `b` if
 * occupied) WITHOUT mutating the candidate: an O(degree) scan over
 * the cached adjacency plus, when the congestion term is live, a
 * re-trace of the affected multicast trees into the move-local
 * delta buffers. An a–b edge prices to zero from both sides, so
 * swaps need no special casing. When congestion is on the caller
 * must either commitMove() or clearMoveDelta() before pricing the
 * next move.
 */
double
MapperRun::priceMove(Candidate &c, NodeId a, NodeId b, int fromPos,
                     int toPos, int64_t &wlDelta,
                     int64_t &dOf) const
{
    Coord fromC = gridCoord[static_cast<size_t>(fromPos)];
    Coord toC = gridCoord[static_cast<size_t>(toPos)];
    wlDelta = 0;
    for (int i = adjStart[static_cast<size_t>(a)];
         i < adjStart[static_cast<size_t>(a) + 1]; i++) {
        NodeId nb = adjNode[static_cast<size_t>(i)];
        Coord oldP = nb == b ? toC
                             : c.coord[static_cast<size_t>(nb)];
        Coord newP = nb == b ? fromC
                             : c.coord[static_cast<size_t>(nb)];
        wlDelta += fabric::manhattan(toC, newP) -
                   fabric::manhattan(fromC, oldP);
    }
    if (b != dfg::NoNode) {
        for (int i = adjStart[static_cast<size_t>(b)];
             i < adjStart[static_cast<size_t>(b) + 1]; i++) {
            NodeId nb = adjNode[static_cast<size_t>(i)];
            Coord oldP = nb == a
                             ? fromC
                             : c.coord[static_cast<size_t>(nb)];
            Coord newP = nb == a
                             ? toC
                             : c.coord[static_cast<size_t>(nb)];
            wlDelta += fabric::manhattan(fromC, newP) -
                       fabric::manhattan(toC, oldP);
        }
    }

    // Evaluate-then-commit: routes of the affected trees are traced
    // into a move-local delta (old coordinates negative, proposed
    // ones positive); `load` itself only changes on commit.
    dOf = 0;
    if (c.congestionOn) {
        collectAffectedTrees(c, a, b);
        c.linkEpoch++;
        if (c.linkEpoch == 0) {
            std::fill(c.linkStamp.begin(), c.linkStamp.end(), 0u);
            c.linkEpoch = 1;
        }
        c.touchedLinks.clear();
        traceAffectedDelta(c, -1);
        traceAffectedDelta(c, +1, a, toC, b, fromC);
        for (size_t l : c.touchedLinks) {
            dOf += routecost::overflowDelta(c.load[l], linkCap,
                                            c.deltaLoad[l]);
        }
    }
    return static_cast<double>(wlDelta) +
           kCongestionWeight * static_cast<double>(dOf);
}

void
MapperRun::clearMoveDelta(Candidate &c) const
{
    for (size_t l : c.touchedLinks)
        c.deltaLoad[l] = 0;
}

/** Apply a move previously priced with priceMove() (whose delta
 *  buffers must still describe exactly this move). */
void
MapperRun::commitMove(Candidate &c, int cls, NodeId a, NodeId b,
                      int fromPos, int toPos, int64_t dOf) const
{
    if (c.congestionOn) {
        for (size_t l : c.touchedLinks)
            c.load[l] += c.deltaLoad[l];
        c.overflow += dOf;
    }
    moveOne(c, a, gridCoord[static_cast<size_t>(toPos)]);
    if (b != dfg::NoNode)
        moveOne(c, b, gridCoord[static_cast<size_t>(fromPos)]);
    c.pos[static_cast<size_t>(a)] = toPos;
    if (cls == kNocClass) {
        c.routerLoad[static_cast<size_t>(fromPos)]--;
        c.routerLoad[static_cast<size_t>(toPos)]++;
    } else {
        c.occupant[static_cast<size_t>(toPos)] = a;
        c.occupant[static_cast<size_t>(fromPos)] = b;
        if (b != dfg::NoNode)
            c.pos[static_cast<size_t>(b)] = fromPos;
    }
}

void
MapperRun::annealStep(Candidate &c) const
{
    int cls = classesInUse[static_cast<size_t>(
        pick(c.rng, classesInUse.size()))];
    const auto &nodes = byClass[static_cast<size_t>(cls)];
    NodeId a =
        nodes[static_cast<size_t>(pick(c.rng, nodes.size()))];
    int fromPos = c.pos[static_cast<size_t>(a)];
    std::span<const int> near = nearestFor(cls, fromPos);
    if (near.empty())
        return;
    int toPos =
        near[static_cast<size_t>(pick(c.rng, near.size()))];
    NodeId b = dfg::NoNode;
    if (cls == kNocClass) {
        if (c.routerLoad[static_cast<size_t>(toPos)] >= cfCap)
            return; // target router has no spare CF slot
    } else {
        b = c.occupant[static_cast<size_t>(toPos)];
    }

    int64_t wlDelta = 0, dOf = 0;
    double delta = priceMove(c, a, b, fromPos, toPos, wlDelta, dOf);
    // Acceptance probability below exp(-30) ~ 1e-13: reject without
    // paying for exp() — the cold tail is almost all such moves.
    bool accept =
        delta <= 0 ||
        (delta < 30.0 * c.temp &&
         c.rng.nextDouble() < std::exp(-delta / c.temp));
    if (accept)
        commitMove(c, cls, a, b, fromPos, toPos, dOf);
    if (c.congestionOn)
        clearMoveDelta(c);
}

void
MapperRun::runChunk(Candidate &c, int iters) const
{
    // Degenerate but feasible graphs can leave no representative
    // movable (every used class exactly fills its slots with one
    // node); annealStep would then index an empty classesInUse.
    if (classesInUse.empty())
        return;
    for (int i = 0; i < iters; i++) {
        annealStep(c);
        c.temp *= c.cooling;
        c.itersDone++;
        if (opts.verifyIncremental)
            verifyIncremental(c);
    }
}

bool
MapperRun::shouldAbandon(const Candidate &c, double bound) const
{
    if (c.bestCost <= bound || perSeedIters <= 0)
        return false;
    double remaining =
        1.0 - static_cast<double>(c.itersDone) /
                  static_cast<double>(perSeedIters);
    // A candidate this far above the incumbent cannot close the gap
    // in its remaining (cooling) budget; the slack shrinks as the
    // schedule cools so early diversity is preserved.
    double slack = bound * 0.10 * remaining + 2.0 * c.temp;
    return c.bestCost > bound + slack;
}

void
MapperRun::portfolio(std::vector<int> &winnerPos, int &winnerSeed,
                     int &earlyExited) const
{
    std::vector<Candidate> cands(static_cast<size_t>(seeds));
    for (int k = 0; k < seeds; k++) {
        Candidate &c = cands[static_cast<size_t>(k)];
        initCandidate(c);
        c.rng = Rng(opts.rngSeed +
                    0x9e3779b97f4a7c15ull *
                        static_cast<uint64_t>(k + 1));
        if (k == 0)
            greedyInit(c);
        else
            randomInit(c);
        finishInit(c);
        c.bestCost = fullCost(c);
        c.bestPos = c.pos;
    }

    // The greedy-init incumbent (pre-anneal) seeds the shared bound
    // as portfolio member -1. Snapshots fold into the bound in seed
    // order and ties keep the earlier holder, so the winner is
    // deterministic.
    std::vector<int> incumbentPos = cands[0].pos;
    double bound = cands[0].bestCost;
    int holder = -1;
    auto foldBound = [&] {
        for (int k = 0; k < seeds; k++) {
            const Candidate &c = cands[static_cast<size_t>(k)];
            if (!c.abandoned && c.bestCost < bound) {
                bound = c.bestCost;
                holder = k;
            }
        }
    };
    foldBound();

    const int rounds =
        perSeedIters > 0 && !classesInUse.empty()
            ? (perSeedIters + kChunkIters - 1) / kChunkIters
            : 0;
    double phase =
        std::clamp(opts.congestionPhase, 0.0, 1.0);
    const int phase2Round = static_cast<int>(
        std::floor(rounds * (1.0 - phase)));

    for (int r = 0; r < rounds; r++) {
        for (int k = 0; k < seeds; k++) {
            Candidate &c = cands[static_cast<size_t>(k)];
            if (c.abandoned)
                continue;
            // The bound was last folded at the barrier, so every
            // member of a round is judged against the same value.
            if (k != holder && shouldAbandon(c, bound)) {
                c.abandoned = true;
                continue;
            }
            if (r == phase2Round && !c.congestionOn)
                enableCongestion(c, /*force=*/false);
            runChunk(c,
                     std::min(kChunkIters, perSeedIters - c.itersDone));
            // Snapshot every live member at every barrier, so the
            // abandon decision always compares freshly annealed
            // costs. Unarmed, the full objective is wl plus a
            // non-negative overload term, so wl lower-bounds it: the
            // route trace is paid only when wl alone beats this
            // member's best, with identical outcomes either way.
            double cost = static_cast<double>(c.wl);
            if (c.congestionOn || cost < c.bestCost)
                cost = fullCost(c);
            if (cost < c.bestCost) {
                c.bestCost = cost;
                c.bestPos = c.pos;
            }
        }
        foldBound(); // the barrier
    }

    earlyExited = 0;
    for (const Candidate &c : cands)
        earlyExited += c.abandoned ? 1 : 0;
    winnerSeed = holder;
    winnerPos = holder < 0
                    ? std::move(incumbentPos)
                    : cands[static_cast<size_t>(holder)].bestPos;
}

void
MapperRun::candidateFromPos(Candidate &c,
                            const std::vector<int> &pos) const
{
    initCandidate(c);
    c.pos = pos;
    for (NodeId id = 0; id < graph.size(); id++) {
        int p = c.pos[static_cast<size_t>(id)];
        if (p < 0)
            continue;
        if (moveClass[static_cast<size_t>(id)] == kNocClass)
            c.routerLoad[static_cast<size_t>(p)]++;
        else
            c.occupant[static_cast<size_t>(p)] = id;
    }
    finishInit(c);
}

/**
 * Steepest-descent polish on the portfolio winner: for every
 * movable representative, price a move to every other slot of its
 * class and commit the best strictly-improving one; repeat to a
 * fixpoint. Deterministic (no randomness), monotone (cost only
 * falls), and cheap — a pass is nodes × class-slots O(degree)
 * pricings — so it recovers the refinement a longer cooling tail
 * would buy at a fraction of the iterations.
 */
void
MapperRun::descend(Candidate &c) const
{
    // Scanning the whole class per node is only worth it for small
    // classes; for large ones the improving move is almost always
    // near the node's current slot, so cap the nearest-first scan.
    const size_t kMaxTargets = 24;
    // Don't-look bits: after a node's scan finds nothing, skip it
    // until one of its wirelength dependencies (an adjacency
    // neighbor, or a swap endpoint) moves. Occupancy and link-load
    // shifts can re-open a skipped node without waking it, so a
    // clean partial pass is confirmed by one full rescan before the
    // fixpoint is trusted.
    std::vector<uint8_t> look(
        static_cast<size_t>(graph.size()), 1u);
    auto wake = [&](NodeId moved) {
        NodeId r = repOf[static_cast<size_t>(moved)];
        look[static_cast<size_t>(r)] = 1;
        for (int i = adjStart[static_cast<size_t>(r)];
             i < adjStart[static_cast<size_t>(r) + 1]; i++) {
            look[static_cast<size_t>(
                adjNode[static_cast<size_t>(i)])] = 1;
        }
    };
    bool fullPass = true;
    const int kMaxPasses = 8;
    for (int pass = 0; pass < kMaxPasses; pass++) {
        bool improved = false;
        for (int cls : classesInUse) {
            for (NodeId a : byClass[static_cast<size_t>(cls)]) {
                if (!fullPass && !look[static_cast<size_t>(a)])
                    continue;
                int fromPos = c.pos[static_cast<size_t>(a)];
                std::span<const int> nearAll =
                    nearestFor(cls, fromPos);
                std::span<const int> near = nearAll.subspan(
                    0, std::min(nearAll.size(), kMaxTargets));
                double bestDelta = -1e-9; // strict improvement only
                int bestTo = -1;
                NodeId bestB = dfg::NoNode;
                int64_t bestDOf = 0;
                for (int toPos : near) {
                    NodeId b = dfg::NoNode;
                    if (cls == kNocClass) {
                        if (c.routerLoad[static_cast<size_t>(
                                toPos)] >= cfCap)
                            continue;
                    } else {
                        b = c.occupant[static_cast<size_t>(toPos)];
                    }
                    int64_t wlDelta = 0, dOf = 0;
                    double delta = priceMove(c, a, b, fromPos,
                                             toPos, wlDelta, dOf);
                    if (c.congestionOn)
                        clearMoveDelta(c);
                    if (delta < bestDelta) {
                        bestDelta = delta;
                        bestTo = toPos;
                        bestB = b;
                        bestDOf = dOf;
                    }
                }
                if (bestTo < 0) {
                    look[static_cast<size_t>(a)] = 0;
                    continue;
                }
                if (c.congestionOn) {
                    // Re-price to rebuild the delta buffers for
                    // exactly the winning move.
                    int64_t wlDelta = 0;
                    priceMove(c, a, bestB, fromPos, bestTo, wlDelta,
                              bestDOf);
                }
                commitMove(c, cls, a, bestB, fromPos, bestTo,
                           bestDOf);
                if (c.congestionOn)
                    clearMoveDelta(c);
                wake(a);
                if (bestB != dfg::NoNode)
                    wake(bestB);
                improved = true;
            }
        }
        if (improved) {
            fullPass = false;
        } else if (fullPass) {
            break; // a clean FULL pass is a certified fixpoint
        } else {
            fullPass = true; // confirm the partial fixpoint
        }
    }
}

void
MapperRun::polish(std::vector<int> &pos) const
{
    if (perSeedIters <= 0 || classesInUse.empty())
        return;
    Candidate c;
    candidateFromPos(c, pos);
    // The polish descends unarmed: armed pricing re-traces trees
    // for every scanned candidate move, which costs more than the
    // whole wirelength descent. Overload still gates acceptance —
    // `best` is always the full objective (the lower-bound trick
    // below), so a kick that wins on wirelength by adding overflow
    // is rejected, and anything that slips through is the
    // congestion-repair loop's job.
    descend(c);
    double best = fullCost(c);
    // Snapshot/restore whole candidates: a vector copy is far
    // cheaper than rebuilding caches (and re-tracing routes) from a
    // bare position array on every unproductive kick.
    Candidate bestC = c;

    // Iterated local search: kick a few nodes off the fixpoint,
    // descend again, and keep the best basin found. Each cycle is a
    // near-independent sample of a nearby local optimum at a
    // fraction of an anneal's cost, which flattens the
    // draw-to-draw variance of the winning schedule.
    Rng rng(opts.rngSeed ^ 0x9017a11ca11c0de5ull);
    // Each kick cycle costs roughly a descent pass, which scales
    // with graph size — so small graphs afford many cheap samples
    // while large ones stop after a few fruitless tries.
    // A kick cycle costs a descent pass, which scales with nodes x
    // scanned targets, while the marginal basin found shrinks as
    // the portfolio has already sampled four independent schedules.
    // Past ~40 nodes the cycles stop paying for themselves, so the
    // sample count drops to a token few.
    const int kMaxKicks =
        graph.size() > 40
            ? 2
            : std::clamp(350 / std::max(1, graph.size()), 6, 20);
    const int kKickMoves = 3;
    const int kGiveUpAfter = std::max(2, kMaxKicks / 3);
    int sinceImprove = 0;
    for (int kick = 0;
         kick < kMaxKicks && sinceImprove < kGiveUpAfter; kick++) {
        for (int j = 0; j < kKickMoves; j++) {
            int cls = classesInUse[static_cast<size_t>(
                pick(rng, classesInUse.size()))];
            const auto &nodes = byClass[static_cast<size_t>(cls)];
            NodeId a = nodes[static_cast<size_t>(
                pick(rng, nodes.size()))];
            int fromPos = c.pos[static_cast<size_t>(a)];
            std::span<const int> near = nearestFor(cls, fromPos);
            if (near.empty())
                continue;
            int toPos = near[static_cast<size_t>(
                pick(rng, near.size()))];
            NodeId b = dfg::NoNode;
            if (cls == kNocClass) {
                if (c.routerLoad[static_cast<size_t>(toPos)] >=
                    cfCap)
                    continue;
            } else {
                b = c.occupant[static_cast<size_t>(toPos)];
            }
            int64_t wlDelta = 0, dOf = 0;
            priceMove(c, a, b, fromPos, toPos, wlDelta, dOf);
            commitMove(c, cls, a, b, fromPos, toPos, dOf);
            if (c.congestionOn)
                clearMoveDelta(c);
        }
        descend(c);
        // Same lower-bound trick as the portfolio barrier: only a
        // kick whose wirelength beats the incumbent pays a route
        // trace to price its overload exactly.
        double kickCost = c.congestionOn
                              ? fullCost(c)
                              : static_cast<double>(c.wl);
        if (!c.congestionOn && kickCost < best)
            kickCost = fullCost(c);
        if (kickCost < best) {
            best = kickCost;
            bestC = c;
            sinceImprove = 0;
        } else {
            sinceImprove++;
            c = bestC;
        }
    }
    pos = std::move(bestC.pos);
}

std::vector<NodeId>
MapperRun::collectCulprits(Candidate &c) const
{
    // Re-trace every tree against the final loads; any tree that
    // crosses an over-capacity link implicates its endpoints.
    std::vector<NodeId> culprits;
    std::vector<uint32_t> seen(static_cast<size_t>(graph.size()),
                               0u);
    for (const Tree &t : trees) {
        bool overloaded = false;
        routecost::traceTree(
            graph, t.src, t.port, width,
            [&](NodeId id) { return coordFor(c, id); }, c.scratch,
            [&](size_t l, const Consumer &) {
                if (c.load[l] > linkCap)
                    overloaded = true;
            },
            [](const Consumer &, int) {});
        if (!overloaded)
            continue;
        auto add = [&](NodeId id) {
            NodeId r = repOf[static_cast<size_t>(id)];
            if (!seen[static_cast<size_t>(r)]) {
                seen[static_cast<size_t>(r)] = 1;
                culprits.push_back(r);
            }
        };
        add(t.src);
        for (const Consumer &u : graph.consumersOf({t.src, t.port}))
            add(u.node);
    }
    std::sort(culprits.begin(), culprits.end());
    return culprits;
}

void
MapperRun::perturbCulprits(
    Candidate &c, const std::vector<NodeId> &culprits) const
{
    for (NodeId rep : culprits) {
        int cls = moveClass[static_cast<size_t>(rep)];
        if (cls < 0)
            continue; // trigger / fixed
        int fromPos = c.pos[static_cast<size_t>(rep)];
        NodeId b = dfg::NoNode;
        int toPos;
        if (cls == kNocClass) {
            toPos = static_cast<int>(c.rng.nextBounded(
                static_cast<uint64_t>(fab.numPes())));
            while (toPos != fromPos &&
                   c.routerLoad[static_cast<size_t>(toPos)] >=
                       cfCap) {
                toPos = (toPos + 1) % fab.numPes();
            }
            if (toPos == fromPos)
                continue;
        } else {
            const auto &supply =
                fab.pesOfClass(static_cast<PeClass>(cls));
            toPos = supply[static_cast<size_t>(
                c.rng.nextBounded(supply.size()))];
            if (toPos == fromPos)
                continue;
            b = c.occupant[static_cast<size_t>(toPos)];
        }
        collectAffectedTrees(c, rep, b);
        applyAffectedTrees(c, -1);
        moveOne(c, rep, gridCoord[static_cast<size_t>(toPos)]);
        if (b != dfg::NoNode)
            moveOne(c, b, gridCoord[static_cast<size_t>(fromPos)]);
        applyAffectedTrees(c, +1);
        c.pos[static_cast<size_t>(rep)] = toPos;
        if (cls == kNocClass) {
            c.routerLoad[static_cast<size_t>(fromPos)]--;
            c.routerLoad[static_cast<size_t>(toPos)]++;
        } else {
            c.occupant[static_cast<size_t>(toPos)] = rep;
            c.occupant[static_cast<size_t>(fromPos)] = b;
            if (b != dfg::NoNode)
                c.pos[static_cast<size_t>(b)] = fromPos;
        }
    }
}

bool
MapperRun::repairCongestion(std::vector<int> &pos,
                            std::vector<NodeId> &implicated) const
{
    Candidate c;
    candidateFromPos(c, pos);
    enableCongestion(c, /*force=*/true);
    if (c.overflow == 0) {
        pos = std::move(c.pos);
        implicated.clear();
        return true;
    }

    // Best state seen, preferring feasibility over wirelength.
    int64_t bestOverflow = c.overflow;
    double bestCost = fullCost(c);
    std::vector<int> bestPos = c.pos;
    const int repairIters = std::max(1024, perSeedIters / 2);

    for (int attempt = 0;
         attempt < std::max(0, opts.maxTargetedRestarts);
         attempt++) {
        implicated = collectCulprits(c);
        c.rng = Rng(opts.rngSeed ^
                    (0xc0dec0dec0de0000ull +
                     static_cast<uint64_t>(attempt)));
        perturbCulprits(c, implicated);
        c.temp = kStartTemperature / 2;
        c.cooling = std::pow(0.01 / c.temp, 1.0 / repairIters);
        c.itersDone = 0;
        for (int done = 0; done < repairIters;
             done += kChunkIters) {
            runChunk(c,
                     std::min(kChunkIters, repairIters - done));
            if (c.overflow < bestOverflow ||
                (c.overflow == bestOverflow &&
                 fullCost(c) < bestCost)) {
                bestOverflow = c.overflow;
                bestCost = fullCost(c);
                bestPos = c.pos;
            }
            if (c.overflow == 0 && bestOverflow == 0)
                break;
        }
        if (bestOverflow == 0)
            break;
    }
    if (bestOverflow == 0) {
        pos = std::move(bestPos);
        implicated.clear();
        return true;
    }
    // Report the culprits of the best (least-overloaded) state.
    c.pos = bestPos;
    for (NodeId id = 0; id < graph.size(); id++) {
        int p = c.pos[static_cast<size_t>(id)];
        c.coord[static_cast<size_t>(id)] =
            p >= 0 ? gridCoord[static_cast<size_t>(p)]
                   : Coord{0, 0};
    }
    c.overflow = recomputeOverflow(c, c.load, c.snapScratch);
    implicated = collectCulprits(c);
    pos = std::move(c.pos);
    return false;
}

void
MapperRun::finishMapping(Mapping &m,
                         const std::vector<int> &pos) const
{
    const size_t n = static_cast<size_t>(graph.size());
    m.peOf.assign(n, -1);
    m.routerOf.assign(n, -1);
    for (NodeId id = 0; id < graph.size(); id++) {
        int cls = moveClass[static_cast<size_t>(id)];
        if (cls < 0)
            continue;
        if (cls == kNocClass)
            m.routerOf[static_cast<size_t>(id)] =
                pos[static_cast<size_t>(id)];
        else
            m.peOf[static_cast<size_t>(id)] =
                pos[static_cast<size_t>(id)];
    }
    // Time-multiplexed members alias their group representative.
    for (const auto &group : opts.shareGroups) {
        for (size_t i = 1; i < group.size(); i++) {
            m.peOf[static_cast<size_t>(group[i])] =
                m.peOf[static_cast<size_t>(group[0])];
        }
    }

    auto posOf = [&](NodeId id) {
        int p = pos[static_cast<size_t>(
            repOf[static_cast<size_t>(id)])];
        return p >= 0 ? gridCoord[static_cast<size_t>(p)]
                      : Coord{0, 0};
    };

    m.hopsOf.assign(n, {});
    for (NodeId id = 0; id < graph.size(); id++) {
        m.hopsOf[static_cast<size_t>(id)].assign(
            static_cast<size_t>(graph.at(id).numInputs()), 0);
    }
    std::vector<int> load(numLinks, 0);
    routecost::ClaimScratch scratch;
    scratch.ensure(numLinks);
    int64_t totalHops = 0;
    int64_t edgeCount = 0;
    for (const Tree &t : trees) {
        routecost::traceTree(
            graph, t.src, t.port, width, posOf, scratch,
            [&](size_t l, const Consumer &) { load[l]++; },
            [&](const Consumer &c, int hops) {
                m.hopsOf[static_cast<size_t>(c.node)]
                        [static_cast<size_t>(c.inputIndex)] = hops;
                totalHops += hops;
                edgeCount++;
            });
    }
    m.totalWireLength = totalHops;
    m.avgHops = edgeCount
                    ? static_cast<double>(totalHops) /
                          static_cast<double>(edgeCount)
                    : 0.0;
    m.maxLinkLoad = 0;
    m.congestionOverflow = 0;
    for (int l : load) {
        m.maxLinkLoad = std::max(m.maxLinkLoad, l);
        m.congestionOverflow += std::max(0, l - linkCap);
    }
    m.cost = static_cast<double>(totalHops) +
             kCongestionWeight *
                 static_cast<double>(m.congestionOverflow);
}

Mapping
MapperRun::run()
{
    buildStructure();

    Mapping m;
    if (!checkFeasible(m))
        return m;

    std::vector<int> winnerPos;
    portfolio(winnerPos, m.winningSeed, m.seedsEarlyExited);
    polish(winnerPos);

    std::vector<NodeId> implicated;
    bool routable = repairCongestion(winnerPos, implicated);
    finishMapping(m, winnerPos);
    if (!routable) {
        m.failedNodes = std::move(implicated);
        m.error = csprintf(
            "unmappable: %lld route(s) above link capacity %d "
            "after %d targeted restarts (%zu nodes implicated)",
            static_cast<long long>(m.congestionOverflow), linkCap,
            std::max(0, opts.maxTargetedRestarts),
            m.failedNodes.size());
        return m;
    }
    ps_assert(m.maxLinkLoad <= linkCap,
              "repairCongestion returned an overloaded placement");
    m.success = true;
    return m;
}

} // namespace

namespace detail {

void
appendNearestFirst(std::span<const int> slots,
                   std::span<const Coord> coordOf,
                   std::vector<int> &pool)
{
    ps_assert(std::adjacent_find(slots.begin(), slots.end(),
                                 std::greater_equal<int>()) ==
                  slots.end(),
              "move-table slots must be strictly ascending");
    const size_t k = slots.size();
    if (k < 2)
        return;
    std::vector<Coord> at(k);
    int reach = 0;
    for (size_t j = 0; j < k; j++) {
        at[j] = coordOf[static_cast<size_t>(slots[j])];
        reach = std::max(reach, fabric::manhattan(at[j], at[0]));
    }
    // Bucket d holds the slots at distance d; scanning `slots` in
    // ascending order keeps each bucket index-ordered, so the result
    // is exactly the (distance, index) sort. By the triangle
    // inequality no two slots are more than 2 * reach apart.
    std::vector<int> dist(k);
    std::vector<int> next(static_cast<size_t>(2 * reach + 2));
    size_t out = pool.size();
    pool.resize(out + k * (k - 1));
    for (size_t i = 0; i < k; i++) {
        std::fill(next.begin(), next.end(), 0);
        for (size_t j = 0; j < k; j++) {
            dist[j] = fabric::manhattan(at[j], at[i]);
            if (j != i)
                next[static_cast<size_t>(dist[j]) + 1]++;
        }
        for (size_t d = 1; d < next.size(); d++)
            next[d] += next[d - 1];
        int *list = pool.data() + out;
        for (size_t j = 0; j < k; j++) {
            if (j != i)
                list[next[static_cast<size_t>(dist[j])]++] = slots[j];
        }
        out += k - 1;
    }
}

} // namespace detail

int
Mapping::positionOf(dfg::NodeId id) const
{
    int pe = peOf[static_cast<size_t>(id)];
    return pe >= 0 ? pe : routerOf[static_cast<size_t>(id)];
}

Mapping
mapGraph(const Graph &graph, const Fabric &fabric,
         const MapperOptions &options)
{
    MapperRun run(graph, fabric, options);
    return run.run();
}

} // namespace pipestitch::mapper

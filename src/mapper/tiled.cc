#include "mapper/tiled.hh"

#include <algorithm>
#include <map>
#include <numeric>

#include "base/logging.hh"
#include "mapper/routecost.hh"

namespace pipestitch::mapper {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
using fabric::Coord;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::Topology;

namespace {

/** Tiny union-find over node ids. */
struct UnionFind
{
    std::vector<int> parent;

    explicit UnionFind(int n) : parent(static_cast<size_t>(n))
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    int
    find(int a)
    {
        while (parent[static_cast<size_t>(a)] != a) {
            parent[static_cast<size_t>(a)] =
                parent[static_cast<size_t>(
                    parent[static_cast<size_t>(a)])];
            a = parent[static_cast<size_t>(a)];
        }
        return a;
    }

    void
    unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[static_cast<size_t>(std::max(a, b))] =
                std::min(a, b);
    }
};

/** A partition unit: nodes that must land on the same tile. */
struct Unit
{
    std::vector<NodeId> members;
    /** PE occupancy per class (share groups count once). */
    std::vector<int> classNeed = std::vector<int>(5, 0);
    int nocNeed = 0;     ///< CF-in-NoC router slots
    int placeable = 0;   ///< PE + router occupancy (balance metric)
};

struct TileUse
{
    std::vector<int> classUsed = std::vector<int>(5, 0);
    int nocUsed = 0;
    int nodes = 0; ///< placeable occupancy (balance metric)
};

bool
fits(const Unit &u, const TileUse &use, const std::vector<int> &cap,
     int nocCap)
{
    for (size_t c = 0; c < 5; c++) {
        if (use.classUsed[c] + u.classNeed[c] > cap[c])
            return false;
    }
    return use.nocUsed + u.nocNeed <= nocCap;
}

void
charge(const Unit &u, TileUse &use, int sign)
{
    for (size_t c = 0; c < 5; c++)
        use.classUsed[c] += sign * u.classNeed[c];
    use.nocUsed += sign * u.nocNeed;
    use.nodes += sign * u.placeable;
}

/** Global grid index of tile-local PE @p local on tile @p t. */
int
globalPe(const Topology &topo, int t, int local)
{
    Coord origin = {(t % topo.tilesX) * topo.tile.width,
                    (t / topo.tilesX) * topo.tile.height};
    int lx = local % topo.tile.width;
    int ly = local / topo.tile.width;
    return (origin.y + ly) * topo.totalWidth() + (origin.x + lx);
}

} // namespace

TiledMapping
mapGraphTiled(const Graph &graph, const Topology &topo,
              const MapperOptions &options)
{
    TiledMapping out;
    out.topo = topo;
    const int n = graph.size();
    out.tileOf.assign(static_cast<size_t>(n), 0);
    for (NodeId id = 0; id < n; id++) {
        if (graph.at(id).kind == NodeKind::Trigger)
            out.tileOf[static_cast<size_t>(id)] = -1;
    }

    if (topo.singleTile()) {
        // Nothing to partition: the tiled entry point is exactly the
        // legacy single-grid mapper.
        out.merged = mapGraph(graph, Fabric(topo.tile), options);
        out.success = out.merged.success;
        out.error = out.merged.error;
        return out;
    }

    std::string err;
    if (!topo.validate(&err)) {
        out.error = err;
        return out;
    }

    const int T = topo.numTiles();
    const Fabric tileFab(topo.tile);

    // Share-group representative (the mapper places only the rep).
    std::vector<NodeId> repOf(static_cast<size_t>(n));
    std::iota(repOf.begin(), repOf.end(), 0);
    for (const auto &group : options.shareGroups) {
        for (NodeId id : group)
            repOf[static_cast<size_t>(id)] = group.front();
    }

    // Units: share groups and SyncPlane dispatch groups are atomic
    // (the SyncPlane spans one tile's PE grid; a gate on a remote
    // tile could never join its group's agreement).
    UnionFind uf(n);
    for (const auto &group : options.shareGroups) {
        for (size_t i = 1; i < group.size(); i++)
            uf.unite(group[0], group[i]);
    }
    {
        std::map<int, NodeId> firstGate;
        for (NodeId id = 0; id < n; id++) {
            const Node &node = graph.at(id);
            if (node.kind != NodeKind::Dispatch)
                continue;
            auto [it, inserted] = firstGate.emplace(node.loopId, id);
            if (!inserted)
                uf.unite(it->second, id);
        }
    }

    std::vector<int> unitOf(static_cast<size_t>(n), -1);
    std::vector<Unit> units;
    {
        std::map<int, int> rootUnit;
        for (NodeId id = 0; id < n; id++) {
            if (graph.at(id).kind == NodeKind::Trigger)
                continue;
            int root = uf.find(id);
            auto [it, inserted] =
                rootUnit.emplace(root, static_cast<int>(units.size()));
            if (inserted)
                units.emplace_back();
            Unit &u = units[static_cast<size_t>(it->second)];
            u.members.push_back(id);
            unitOf[static_cast<size_t>(id)] = it->second;
            const Node &node = graph.at(id);
            if (node.cfInNoc) {
                u.nocNeed++;
                u.placeable++;
            } else if (repOf[static_cast<size_t>(id)] == id) {
                u.classNeed[static_cast<size_t>(node.peClass())]++;
                u.placeable++;
            }
        }
    }

    // Unit adjacency: wire edges between distinct units (weighted).
    std::vector<std::map<int, int>> adj(units.size());
    for (NodeId id = 0; id < n; id++) {
        const Node &node = graph.at(id);
        int uv = unitOf[static_cast<size_t>(id)];
        if (uv < 0)
            continue;
        for (const auto &op : node.inputs) {
            if (!op.isWire())
                continue;
            int up = unitOf[static_cast<size_t>(op.port.node)];
            if (up < 0 || up == uv)
                continue;
            adj[static_cast<size_t>(uv)][up]++;
            adj[static_cast<size_t>(up)][uv]++;
        }
    }

    // Greedy growth order: biggest units first (they constrain the
    // packing), ties by lowest member id for determinism.
    std::vector<int> order(units.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const Unit &ua = units[static_cast<size_t>(a)];
        const Unit &ub = units[static_cast<size_t>(b)];
        if (ua.placeable != ub.placeable)
            return ua.placeable > ub.placeable;
        return ua.members.front() < ub.members.front();
    });

    std::vector<int> cap(5, 0);
    for (int c = 0; c < 5; c++) {
        cap[static_cast<size_t>(c)] = static_cast<int>(
            tileFab.pesOfClass(static_cast<dfg::PeClass>(c)).size());
    }
    const int nocCap =
        topo.tile.numPes() * topo.tile.routerCfCapacity;

    const int maxAttempts = 3;
    const double balanceWeights[maxAttempts] = {1.0, 2.5, 0.25};
    std::string lastError;

    for (int attempt = 0; attempt < maxAttempts; attempt++) {
        out.attempts = attempt + 1;
        const double bw = balanceWeights[attempt];

        // ---- Stage 1: partition ------------------------------------
        std::vector<int> tileOfUnit(units.size(), -1);
        std::vector<TileUse> use(static_cast<size_t>(T));
        bool partitioned = true;
        for (int u : order) {
            const Unit &unit = units[static_cast<size_t>(u)];
            int bestTile = -1;
            double bestScore = 0;
            for (int i = 0; i < T; i++) {
                // Rotating the probe order across attempts breaks
                // ties differently each retry.
                int t = (i + attempt) % T;
                if (!fits(unit, use[static_cast<size_t>(t)], cap,
                          nocCap))
                    continue;
                double conn = 0;
                for (const auto &[other, w] :
                     adj[static_cast<size_t>(u)]) {
                    if (tileOfUnit[static_cast<size_t>(other)] == t)
                        conn += w;
                }
                double score =
                    2.0 * conn -
                    bw * use[static_cast<size_t>(t)].nodes;
                if (bestTile < 0 || score > bestScore) {
                    bestTile = t;
                    bestScore = score;
                }
            }
            if (bestTile < 0) {
                lastError = csprintf(
                    "tiled partition: unit of %zu node(s) (first "
                    "node %d) fits no tile (%dx%d tiles of %dx%d)",
                    unit.members.size(), unit.members.front(),
                    topo.tilesX, topo.tilesY, topo.tile.width,
                    topo.tile.height);
                partitioned = false;
                break;
            }
            tileOfUnit[static_cast<size_t>(u)] = bestTile;
            charge(unit, use[static_cast<size_t>(bestTile)], +1);
        }
        if (!partitioned)
            continue;

        // Refinement: move units toward their neighbors while the
        // cut strictly shrinks and capacity allows.
        for (int pass = 0; pass < 4; pass++) {
            bool moved = false;
            for (int u : order) {
                const Unit &unit = units[static_cast<size_t>(u)];
                int cur = tileOfUnit[static_cast<size_t>(u)];
                std::vector<int> conn(static_cast<size_t>(T), 0);
                for (const auto &[other, w] :
                     adj[static_cast<size_t>(u)]) {
                    int t = tileOfUnit[static_cast<size_t>(other)];
                    if (t >= 0)
                        conn[static_cast<size_t>(t)] += w;
                }
                int bestTile = cur;
                int bestGain = 0;
                for (int t = 0; t < T; t++) {
                    if (t == cur)
                        continue;
                    int gain = conn[static_cast<size_t>(t)] -
                               conn[static_cast<size_t>(cur)];
                    if (gain <= bestGain)
                        continue;
                    if (!fits(unit, use[static_cast<size_t>(t)],
                              cap, nocCap))
                        continue;
                    bestTile = t;
                    bestGain = gain;
                }
                if (bestTile != cur) {
                    charge(unit, use[static_cast<size_t>(cur)], -1);
                    charge(unit, use[static_cast<size_t>(bestTile)],
                           +1);
                    tileOfUnit[static_cast<size_t>(u)] = bestTile;
                    moved = true;
                }
            }
            if (!moved)
                break;
        }

        std::vector<int> tileOf(static_cast<size_t>(n), -1);
        for (NodeId id = 0; id < n; id++) {
            int u = unitOf[static_cast<size_t>(id)];
            if (u >= 0)
                tileOf[static_cast<size_t>(id)] =
                    tileOfUnit[static_cast<size_t>(u)];
        }

        // ---- Stage 2: place every tile's induced subgraph ----------
        std::vector<std::vector<NodeId>> tileNodes(
            static_cast<size_t>(T));
        std::vector<int> localId(static_cast<size_t>(n), -1);
        for (NodeId id = 0; id < n; id++) {
            int t = tileOf[static_cast<size_t>(id)];
            if (t < 0)
                continue;
            localId[static_cast<size_t>(id)] = static_cast<int>(
                tileNodes[static_cast<size_t>(t)].size());
            tileNodes[static_cast<size_t>(t)].push_back(id);
        }

        auto mapTile = [&](int t) -> Mapping {
            const auto &nodes = tileNodes[static_cast<size_t>(t)];
            Graph sub(graph.name + csprintf("@tile%d", t));
            sub.numLoops = graph.numLoops;
            sub.loopParent = graph.loopParent;
            sub.loopThreaded = graph.loopThreaded;
            for (NodeId id : nodes) {
                Node node = graph.at(id);
                for (auto &op : node.inputs) {
                    if (!op.isWire())
                        continue;
                    NodeId prod = op.port.node;
                    if (tileOf[static_cast<size_t>(prod)] == t) {
                        op.port.node =
                            localId[static_cast<size_t>(prod)];
                    } else {
                        // Cross-tile (or trigger) edge: arrives via
                        // the inter-tile NoC, priced at merge time.
                        op = dfg::Operand::none();
                    }
                }
                sub.add(std::move(node));
            }
            sub.finalize();

            MapperOptions tileOpts = options;
            tileOpts.rngSeed = options.rngSeed +
                               1000003ULL *
                                   static_cast<uint64_t>(t + 1) +
                               7919ULL *
                                   static_cast<uint64_t>(attempt);
            tileOpts.shareGroups.clear();
            for (const auto &group : options.shareGroups) {
                if (tileOf[static_cast<size_t>(group.front())] != t)
                    continue;
                std::vector<NodeId> local;
                for (NodeId id : group)
                    local.push_back(localId[static_cast<size_t>(id)]);
                tileOpts.shareGroups.push_back(std::move(local));
            }
            return mapGraph(sub, tileFab, tileOpts);
        };

        std::vector<Mapping> tileMaps(static_cast<size_t>(T));
        for (int t = 0; t < T; t++)
            tileMaps[static_cast<size_t>(t)] = mapTile(t);

        bool placed = true;
        for (int t = 0; t < T; t++) {
            const Mapping &tm = tileMaps[static_cast<size_t>(t)];
            if (tileNodes[static_cast<size_t>(t)].empty() ||
                tm.success)
                continue;
            lastError = csprintf("tile %d: %s", t, tm.error.c_str());
            placed = false;
        }
        if (!placed)
            continue;

        // ---- Stage 3: merge and re-route globally ------------------
        Mapping m;
        m.peOf.assign(static_cast<size_t>(n), -1);
        m.routerOf.assign(static_cast<size_t>(n), -1);
        for (int t = 0; t < T; t++) {
            const Mapping &tm = tileMaps[static_cast<size_t>(t)];
            const auto &nodes = tileNodes[static_cast<size_t>(t)];
            for (size_t i = 0; i < nodes.size(); i++) {
                NodeId id = nodes[i];
                int pe = tm.peOf[i];
                int router = tm.routerOf[i];
                if (pe >= 0)
                    m.peOf[static_cast<size_t>(id)] =
                        globalPe(topo, t, pe);
                if (router >= 0)
                    m.routerOf[static_cast<size_t>(id)] =
                        globalPe(topo, t, router);
            }
        }

        const FabricConfig global = topo.globalConfig();
        const int W = global.width;
        auto posOf = [&](NodeId id) -> Coord {
            int p = m.peOf[static_cast<size_t>(id)];
            if (p < 0)
                p = m.routerOf[static_cast<size_t>(id)];
            if (p < 0)
                return {0, 0};
            return {p % W, p / W};
        };

        std::vector<int> load(routecost::linkCount(global), 0);
        routecost::ClaimScratch scratch;
        scratch.ensure(load.size());
        m.hopsOf.assign(static_cast<size_t>(n), {});
        int64_t totalHops = 0;
        int64_t edgeCount = 0;
        for (NodeId id = 0; id < n; id++) {
            m.hopsOf[static_cast<size_t>(id)].assign(
                static_cast<size_t>(graph.at(id).numInputs()), 0);
        }
        for (NodeId src = 0; src < n; src++) {
            const Node &node = graph.at(src);
            for (int port = 0; port < node.numOutputs(); port++) {
                routecost::traceTree(
                    graph, src, port, W, posOf, scratch,
                    [&](size_t l, const dfg::Consumer &) {
                        load[l]++;
                    },
                    [&](const dfg::Consumer &c, int hops) {
                        m.hopsOf[static_cast<size_t>(c.node)]
                                [static_cast<size_t>(c.inputIndex)] =
                            hops;
                        totalHops += hops;
                        edgeCount++;
                    });
            }
        }
        m.totalWireLength = totalHops;
        m.avgHops = edgeCount ? static_cast<double>(totalHops) /
                                    static_cast<double>(edgeCount)
                              : 0.0;
        m.maxLinkLoad = 0;
        m.congestionOverflow = 0;
        int boundaryMax = 0;
        for (size_t l = 0; l < load.size(); l++) {
            bool boundary = routecost::linkCrossesTile(topo, W, l);
            int capHere = boundary ? topo.interTileCapacity
                                   : topo.tile.linkCapacity;
            m.maxLinkLoad = std::max(m.maxLinkLoad, load[l]);
            m.congestionOverflow +=
                std::max(0, load[l] - capHere);
            if (boundary)
                boundaryMax = std::max(boundaryMax, load[l]);
        }
        m.cost = static_cast<double>(totalHops) +
                 kCongestionWeight *
                     static_cast<double>(m.congestionOverflow);
        if (m.congestionOverflow > 0) {
            lastError = csprintf(
                "tiled merge: %lld route(s) above capacity "
                "(inter-tile cap %d, link cap %d) after attempt %d",
                static_cast<long long>(m.congestionOverflow),
                topo.interTileCapacity, topo.tile.linkCapacity,
                attempt + 1);
            continue;
        }

        int64_t cut = 0;
        for (NodeId id = 0; id < n; id++) {
            const Node &node = graph.at(id);
            for (const auto &op : node.inputs) {
                if (!op.isWire())
                    continue;
                NodeId prod = op.port.node;
                int pt = tileOf[static_cast<size_t>(prod)];
                if (pt >= 0 &&
                    pt != tileOf[static_cast<size_t>(id)])
                    cut++;
            }
        }

        m.success = true;
        out.merged = std::move(m);
        out.tileOf = std::move(tileOf);
        out.cutEdges = cut;
        out.interTileLoadMax = boundaryMax;
        out.success = true;
        return out;
    }

    out.error = lastError.empty()
                    ? "tiled mapping failed"
                    : lastError;
    out.merged.error = out.error;
    return out;
}

} // namespace pipestitch::mapper

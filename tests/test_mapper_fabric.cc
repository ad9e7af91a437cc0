/**
 * @file
 * Fabric, area-model, and mapper tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/placement.hh"
#include "compiler/compile.hh"
#include "core/system.hh"
#include "fabric/area.hh"
#include "fabric/fabric.hh"
#include "mapper/mapper.hh"
#include "sir/parser.hh"
#include "trace/json_parse.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using namespace pipestitch::fabric;
using compiler::ArchVariant;

TEST(Fabric, PaperPeMix)
{
    Fabric fab;
    EXPECT_EQ(fab.numPes(), 64);
    EXPECT_EQ(fab.pesOfClass(PeClass::Arith).size(), 16u);
    EXPECT_EQ(fab.pesOfClass(PeClass::Multiplier).size(), 2u);
    EXPECT_EQ(fab.pesOfClass(PeClass::ControlFlow).size(), 28u);
    EXPECT_EQ(fab.pesOfClass(PeClass::Memory).size(), 14u);
    EXPECT_EQ(fab.pesOfClass(PeClass::Stream).size(), 4u);
}

TEST(Fabric, CoordRoundTrip)
{
    Fabric fab;
    for (int pe = 0; pe < fab.numPes(); pe++)
        EXPECT_EQ(fab.peAt(fab.coordOf(pe)), pe);
}

TEST(Fabric, Manhattan)
{
    EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
    EXPECT_EQ(manhattan({5, 2}, {5, 2}), 0);
    EXPECT_EQ(manhattan({7, 0}, {0, 7}), 14);
}

TEST(Fabric, DescribeShowsGrid)
{
    Fabric fab;
    std::string grid = fab.describe();
    EXPECT_EQ(std::count(grid.begin(), grid.end(), 'M'), 14);
    EXPECT_EQ(std::count(grid.begin(), grid.end(), 'S'), 4);
    EXPECT_EQ(std::count(grid.begin(), grid.end(), 'X'), 2);
}

TEST(Fabric, RejectsBadMix)
{
    FabricConfig cfg;
    cfg.peMix = {10, 2, 28, 14, 4}; // sums to 58, not 64
    EXPECT_DEATH({ Fabric fab(cfg); }, "PE mix");
}

// --- area ---------------------------------------------------------------

TEST(Area, PipestitchNearPaperBreakdown)
{
    Fabric fab;
    auto a = computeArea(fab, AreaVariant::Pipestitch);
    EXPECT_NEAR(a.totalMm2(), 1.0, 0.15); // ~1.0 mm²
    double pePct = a.peUm2 / a.totalUm2();
    double nocPct = a.nocUm2 / a.totalUm2();
    double memPct = a.memUm2 / a.totalUm2();
    EXPECT_NEAR(pePct, 0.23, 0.05);
    EXPECT_NEAR(nocPct, 0.40, 0.06);
    EXPECT_NEAR(memPct, 0.33, 0.05);
}

TEST(Area, PipestitchFabricCostsMoreThanRipTide)
{
    Fabric fab;
    auto pipe = computeArea(fab, AreaVariant::Pipestitch);
    auto rip = computeArea(fab, AreaVariant::RipTide);
    double ratio = (pipe.peUm2 + pipe.nocUm2) /
                   (rip.peUm2 + rip.nocUm2);
    EXPECT_GT(ratio, 1.04);
    EXPECT_LT(ratio, 1.15); // paper: 1.10x
}

TEST(Area, GrowsWithBufferDepth)
{
    Fabric fab;
    double d4 = computeArea(fab, AreaVariant::Pipestitch, 4).peUm2;
    double d8 = computeArea(fab, AreaVariant::Pipestitch, 8).peUm2;
    double d16 = computeArea(fab, AreaVariant::Pipestitch, 16).peUm2;
    EXPECT_LT(d4, d8);
    EXPECT_LT(d8, d16);
}

// --- mapper -------------------------------------------------------------

namespace {

dfg::Graph
compiledGraph(const workloads::KernelInstance &k, ArchVariant v)
{
    compiler::CompileOptions opts;
    opts.variant = v;
    return compiler::compileProgram(k.prog, k.liveIns, opts).graph;
}

} // namespace

TEST(Mapper, PlacesEveryPaperKernelEveryVariant)
{
    setQuiet(true);
    Fabric fab;
    for (auto &k : workloads::paperKernels(3)) {
        for (ArchVariant v :
             {ArchVariant::RipTide, ArchVariant::Pipestitch,
              ArchVariant::PipeCFiN, ArchVariant::PipeCFoP}) {
            auto g = compiledGraph(k, v);
            auto m = mapper::mapGraph(g, fab);
            ASSERT_TRUE(m.success)
                << k.name << " " << compiler::archVariantName(v)
                << ": " << m.error;
            EXPECT_LE(m.maxLinkLoad, fab.config().linkCapacity);
        }
    }
}

TEST(Mapper, RespectsPeClasses)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpMSpVd(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m = mapper::mapGraph(g, fab);
    ASSERT_TRUE(m.success);
    for (dfg::NodeId id = 0; id < g.size(); id++) {
        const auto &node = g.at(id);
        int pe = m.peOf[static_cast<size_t>(id)];
        if (node.kind == dfg::NodeKind::Trigger || node.cfInNoc) {
            EXPECT_EQ(pe, -1);
            continue;
        }
        ASSERT_GE(pe, 0);
        EXPECT_EQ(fab.classAt(pe), node.peClass())
            << "node " << id;
    }
    // No PE hosts two nodes.
    std::set<int> used;
    for (int pe : m.peOf) {
        if (pe < 0)
            continue;
        EXPECT_TRUE(used.insert(pe).second) << "PE " << pe;
    }
}

TEST(Mapper, DeterministicForFixedSeed)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeDither(16, 8, 2);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m1 = mapper::mapGraph(g, fab);
    auto m2 = mapper::mapGraph(g, fab);
    ASSERT_TRUE(m1.success && m2.success);
    EXPECT_EQ(m1.peOf, m2.peOf);
    EXPECT_EQ(m1.totalWireLength, m2.totalWireLength);
}

TEST(Mapper, FailsCleanlyWhenOverSubscribed)
{
    setQuiet(true);
    FabricConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.peMix = {1, 1, 1, 1, 0};
    Fabric tiny(cfg);
    auto k = workloads::makeSpMSpVd(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m = mapper::mapGraph(g, tiny);
    EXPECT_FALSE(m.success);
    EXPECT_FALSE(m.error.empty());
}

TEST(Mapper, AnnealImprovesWirelength)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpMSpMd(8, 0.8, 2);
    auto g = compiledGraph(k, ArchVariant::PipeCFoP);
    mapper::MapperOptions fast;
    fast.annealIterations = 0;
    mapper::MapperOptions slow;
    slow.annealIterations = 20000;
    auto m0 = mapper::mapGraph(g, fab, fast);
    auto m1 = mapper::mapGraph(g, fab, slow);
    // Annealed placement should not be worse.
    if (m0.success && m1.success) {
        EXPECT_LE(m1.totalWireLength, m0.totalWireLength);
    }
}

TEST(Mapper, BoundPruneTrimsPortfolioToOneSeed)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpmv(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::MapperOptions opts;
    opts.portfolioSeeds = 4;
    opts.boundPruneCycles = 100;
    auto m = mapper::mapGraph(g, fab, opts);
    ASSERT_TRUE(m.success);
    // With a certified throughput floor in hand, placement polish
    // cannot buy cycles: the portfolio collapses to one member
    // (the greedy incumbent or seed 0).
    EXPECT_LE(m.winningSeed, 0);
    EXPECT_EQ(m.seedsEarlyExited, 0);
}

TEST(Mapper, HopCountsFeedEnergy)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpmv(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m = mapper::mapGraph(g, fab);
    ASSERT_TRUE(m.success);
    EXPECT_GT(m.avgHops, 0.0);
    EXPECT_LT(m.avgHops, 14.0); // bounded by mesh diameter
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The mapper cost gate: every shipped kernel, compiled and mapped
 * with the defaults `pstool map` uses (live-ins 0, 4-seed portfolio,
 * rngSeed 1), must map, pass the placement lint, and cost no more
 * than the pre-portfolio mapper did (bench/mapper_seed_baseline.json).
 */
TEST(Mapper, CostNoWorseThanSeedBaseline)
{
    setQuiet(true);
    trace::JsonValue base;
    std::string err;
    ASSERT_TRUE(trace::parseJson(readFile(MAPPER_SEED_BASELINE), base,
                                 &err))
        << err;
    const trace::JsonValue *kernels = base.find("kernels");
    ASSERT_TRUE(kernels && kernels->isArray());
    ASSERT_EQ(kernels->elems.size(), 5u);
    Fabric fab;
    for (const trace::JsonValue &entry : kernels->elems) {
        std::string name = entry.find("kernel")->asString();
        std::string path = std::string(KERNEL_DIR) + "/" + name + ".sir";
        auto parsed = sir::parseSir(readFile(path), path);
        std::vector<sir::Word> liveIns(parsed.program.liveIns.size(), 0);
        auto res = compiler::compileProgram(parsed.program, liveIns,
                                            compiler::CompileOptions{});
        auto m = mapper::mapGraph(res.graph, fab);
        ASSERT_TRUE(m.success) << name << ": " << m.error;
        analysis::AnalysisReport report;
        analysis::lintPlacement(res.graph, fab, m, report);
        EXPECT_TRUE(report.ok()) << name << "\n"
                                 << report.toString(res.graph);
        EXPECT_LE(m.cost, entry.find("cost")->asDouble())
            << name << " maps worse than the seed mapper";
    }
}

TEST(Mapper, RngSeedReproduces)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpmv(16, 0.8, 2);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::MapperOptions opts;
    opts.rngSeed = 0xfeedbeef;
    auto m1 = mapper::mapGraph(g, fab, opts);
    auto m2 = mapper::mapGraph(g, fab, opts);
    ASSERT_TRUE(m1.success && m2.success);
    EXPECT_EQ(m1.peOf, m2.peOf);
    EXPECT_EQ(m1.routerOf, m2.routerOf);
    EXPECT_EQ(m1.totalWireLength, m2.totalWireLength);
}

TEST(Mapper, DeltaCostMatchesFromScratch)
{
    // Fuzz the incremental cost maintenance: with
    // verifyIncremental on, every anneal step cross-checks the
    // cached wirelength, per-node partials, link loads, and
    // overflow against a from-scratch recompute and aborts on any
    // divergence. Varied graphs, variants, and seeds exercise
    // swaps, NoC-hosted CF moves, and the congestion-armed tail.
    setQuiet(true);
    Fabric fab;
    const workloads::KernelInstance kernels[] = {
        workloads::makeSpmv(12, 0.7, 2),
        workloads::makeSpMSpVd(12, 0.8, 1),
        workloads::makeDither(8, 8, 2),
    };
    for (const auto &k : kernels) {
        for (ArchVariant v :
             {ArchVariant::Pipestitch, ArchVariant::PipeCFoP}) {
            auto g = compiledGraph(k, v);
            for (uint64_t seed : {1ull, 99ull}) {
                mapper::MapperOptions opts;
                opts.rngSeed = seed;
                opts.annealIterations = 600;
                opts.portfolioSeeds = 2;
                opts.congestionPhase = 0.5;
                opts.verifyIncremental = true;
                auto m = mapper::mapGraph(g, fab, opts);
                ASSERT_TRUE(m.success)
                    << k.name << " seed " << seed << ": "
                    << m.error;
            }
        }
    }
}

TEST(Mapper, UnmappableReportsImplicatedNodes)
{
    setQuiet(true);
    // A fabric whose links carry a single wire each cannot route a
    // real kernel's multicast trees; the mapper must fail with the
    // structured "unmappable" error naming the nodes on the
    // overloaded routes after its capped targeted restarts.
    FabricConfig cramped;
    cramped.width = 4;
    cramped.height = 4;
    cramped.peMix = {4, 1, 3, 6, 2};
    cramped.memBanks = 4;
    cramped.linkCapacity = 1;
    Fabric fab(cramped);
    auto k = workloads::makeSpmv(8, 0.7, 6);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::MapperOptions opts;
    opts.maxTargetedRestarts = 2;
    auto m = mapper::mapGraph(g, fab, opts);
    ASSERT_FALSE(m.success);
    EXPECT_NE(m.error.find("unmappable"), std::string::npos)
        << m.error;
    EXPECT_FALSE(m.failedNodes.empty());
    for (dfg::NodeId id : m.failedNodes) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, g.size());
    }
}

TEST(Fabric, CustomMixesWork)
{
    setQuiet(true);
    // A 4x4 edge fabric with a custom PE mix still runs kernels
    // that fit it.
    FabricConfig small;
    small.width = 4;
    small.height = 4;
    small.peMix = {4, 1, 3, 6, 2};
    small.memBanks = 4;
    Fabric fab(small);
    EXPECT_EQ(fab.numPes(), 16);

    auto kernel = workloads::makeSpmv(8, 0.7, 6);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.fabric = small;
    auto run = runOnFabric(kernel, cfg); // golden-checked
    EXPECT_TRUE(run.mapping().success);
    EXPECT_GT(run.cycles(), 0);
}

// --- mapper setup -------------------------------------------------------

namespace {

/** Reference move tables: each slot's other slots ordered by a
 *  comparison sort on (Manhattan distance, index). */
std::vector<int>
nearestFirstBySort(const std::vector<int> &slots,
                   const std::vector<Coord> &coord)
{
    std::vector<int> pool;
    for (int from : slots) {
        std::vector<int> list;
        for (int to : slots) {
            if (to != from)
                list.push_back(to);
        }
        Coord at = coord[static_cast<size_t>(from)];
        std::sort(list.begin(), list.end(), [&](int a, int b) {
            int da = manhattan(coord[static_cast<size_t>(a)], at);
            int db = manhattan(coord[static_cast<size_t>(b)], at);
            return da != db ? da < db : a < b;
        });
        pool.insert(pool.end(), list.begin(), list.end());
    }
    return pool;
}

Fabric
scaledGrid(int width, int height)
{
    FabricConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.peMix = scaleMixFor(width, height);
    return Fabric(cfg);
}

} // namespace

/**
 * The bucketed move-table builder must reproduce the sorted order
 * exactly: the anneal maps RNG draws to list positions, so any
 * reordering would change placements.
 */
TEST(MapperSetup, BucketedMoveTablesMatchSortedOrder)
{
    Topology tiled; // 2x2 grid of default 8x8 tiles
    tiled.tilesX = 2;
    tiled.tilesY = 2;
    const std::vector<std::pair<std::string, Fabric>> fabrics = {
        {"8x8", Fabric()},
        {"16x16", scaledGrid(16, 16)},
        {"8x8 tiles 2x2", Fabric(tiled)},
        {"5x3", scaledGrid(5, 3)},
        {"1x9", scaledGrid(1, 9)},
    };
    for (const auto &[name, fab] : fabrics) {
        std::vector<Coord> coord;
        std::vector<int> allPes;
        for (int pe = 0; pe < fab.numPes(); pe++) {
            coord.push_back(fab.coordOf(pe));
            allPes.push_back(pe);
        }
        // Every PE class, plus CF-in-NoC operators, which may sit on
        // any router.
        std::vector<std::vector<int>> classes;
        for (int c = 0; c < 5; c++)
            classes.push_back(fab.pesOfClass(static_cast<PeClass>(c)));
        classes.push_back(allPes);
        for (size_t c = 0; c < classes.size(); c++) {
            // The builder appends after whatever the pool holds.
            std::vector<int> pool = {-1};
            mapper::detail::appendNearestFirst(classes[c], coord, pool);
            std::vector<int> want = {-1};
            std::vector<int> ref = nearestFirstBySort(classes[c], coord);
            want.insert(want.end(), ref.begin(), ref.end());
            EXPECT_EQ(pool, want) << name << ", move class " << c;
        }
    }
}

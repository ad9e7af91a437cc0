/**
 * @file
 * fabric::Topology and non-8×8 fabric coverage: config validation
 * (including the peMix-sum check), the scaled default mixes, the
 * shared `--fabric=` spec grammar, and Fabric geometry (coordOf /
 * peAt round-trips, per-class totals, tiled layout replication) on
 * grids other than the paper's 8×8.
 */

#include <gtest/gtest.h>

#include "fabric/fabric.hh"

using namespace pipestitch;
using fabric::Coord;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::Topology;

namespace {

TEST(FabricConfigValidate, AcceptsDefault)
{
    FabricConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.validate(&err)) << err;
    EXPECT_TRUE(err.empty());
}

TEST(FabricConfigValidate, RejectsMixSumMismatch)
{
    FabricConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.peMix = {16, 2, 28, 14, 4}; // sums to 64, grid is 16
    std::string err;
    EXPECT_FALSE(cfg.validate(&err));
    EXPECT_NE(err.find("peMix"), std::string::npos) << err;
}

TEST(FabricConfigValidate, RejectsBadDimensions)
{
    FabricConfig cfg;
    cfg.width = 0;
    std::string err;
    EXPECT_FALSE(cfg.validate(&err));
    EXPECT_FALSE(err.empty());
}

TEST(TopologyValidate, RejectsBadTileGrid)
{
    Topology topo;
    topo.tilesX = 0;
    std::string err;
    EXPECT_FALSE(topo.validate(&err));
    EXPECT_FALSE(err.empty());
}

TEST(TopologyValidate, RejectsBadTileConfig)
{
    Topology topo;
    topo.tilesX = 2;
    topo.tile.peMix = {1, 1, 1, 1, 1}; // sums to 5, tile is 64
    std::string err;
    EXPECT_FALSE(topo.validate(&err));
    EXPECT_NE(err.find("peMix"), std::string::npos) << err;
}

TEST(TopologyValidate, RejectsSizesThatOverflowInt)
{
    // Each product once wrapped in int: 65536^2 to 0 PEs, a
    // 2147483647^2 tile grid to 1 tile.
    auto rejects = [](const Topology &topo, const char *field) {
        std::string err;
        EXPECT_FALSE(topo.validate(&err)) << field;
        EXPECT_NE(err.find(field), std::string::npos) << err;
    };
    Topology topo;
    topo.tile.width = topo.tile.height = 65536;
    rejects(topo, "grid");
    topo = Topology{};
    topo.tilesX = topo.tilesY = 2147483647;
    rejects(topo, "tiles");
    topo.tilesX = topo.tilesY = 65536;
    rejects(topo, "tiles");
    // 67M tiles fit an int; their 4.3G PEs do not.
    topo.tilesX = topo.tilesY = 8192;
    rejects(topo, "PEs");
    // 1x1 tiles: 2.1G PEs fit an int, 16 banks each do not.
    topo = Topology{};
    topo.tile.width = topo.tile.height = 1;
    topo.tile.peMix = fabric::scaleMixFor(1, 1);
    topo.tilesX = topo.tilesY = 46340;
    rejects(topo, "memBanks");
    topo.tilesX = topo.tilesY = 2;
    std::string err;
    EXPECT_TRUE(topo.validate(&err)) << err;

    EXPECT_FALSE(fabric::parseFabricSpec("65536x65536", topo, &err));
    EXPECT_NE(err.find("grid 65536x65536"), std::string::npos) << err;
    EXPECT_FALSE(fabric::parseFabricSpec("8x8,tiles=65536x65536", topo,
                                         &err));
    EXPECT_NE(err.find("tiles"), std::string::npos) << err;
}

TEST(TopologyGlobalConfig, ScalesWithTileCount)
{
    Topology topo;
    topo.tilesX = 2;
    topo.tilesY = 2;
    FabricConfig global = topo.globalConfig();
    EXPECT_EQ(global.width, 16);
    EXPECT_EQ(global.height, 16);
    EXPECT_EQ(global.numPes(), 4 * topo.tile.numPes());
    int sum = 0;
    for (int c : global.peMix)
        sum += c;
    EXPECT_EQ(sum, global.numPes());
    EXPECT_EQ(global.memBanks, 4 * topo.tile.memBanks);

    // 1×1 is exactly the tile config.
    Topology single;
    EXPECT_EQ(single.globalConfig(), single.tile);
}

TEST(ScaleMix, ExactForPaperGrid)
{
    EXPECT_EQ(fabric::scaleMixFor(8, 8),
              (std::vector<int>{16, 2, 28, 14, 4}));
}

TEST(ScaleMix, SumsToGridEverywhere)
{
    for (int w = 2; w <= 10; w++) {
        for (int h = 2; h <= 10; h++) {
            auto mix = fabric::scaleMixFor(w, h);
            ASSERT_EQ(mix.size(), 5u);
            int sum = 0;
            for (int c : mix)
                sum += c;
            EXPECT_EQ(sum, w * h) << w << "x" << h;
        }
    }
}

TEST(ParseFabricSpec, PlainGrid)
{
    Topology topo;
    std::string err;
    ASSERT_TRUE(fabric::parseFabricSpec("4x4", topo, &err)) << err;
    EXPECT_EQ(topo.tile.width, 4);
    EXPECT_EQ(topo.tile.height, 4);
    EXPECT_TRUE(topo.singleTile());
    EXPECT_EQ(topo.tile.peMix, fabric::scaleMixFor(4, 4));
}

TEST(ParseFabricSpec, TilesCapLatMix)
{
    Topology topo;
    std::string err;
    ASSERT_TRUE(fabric::parseFabricSpec(
        "4x4,tiles=2x2,cap=2,lat=8,mix=4:1:7:3:1", topo, &err))
        << err;
    EXPECT_EQ(topo.tilesX, 2);
    EXPECT_EQ(topo.tilesY, 2);
    EXPECT_EQ(topo.interTileCapacity, 2);
    EXPECT_EQ(topo.interTileLatency, 8);
    EXPECT_EQ(topo.tile.peMix, (std::vector<int>{4, 1, 7, 3, 1}));
}

TEST(ParseFabricSpec, RejectsMalformedAndInvalid)
{
    Topology topo;
    std::string err;
    EXPECT_FALSE(fabric::parseFabricSpec("axb", topo, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(fabric::parseFabricSpec("4x4,tiles=0x2", topo,
                                         &err));
    // A mix whose sum mismatches the grid fails validation with the
    // structured peMix message.
    err.clear();
    EXPECT_FALSE(fabric::parseFabricSpec("4x4,mix=1:1:1:1:1", topo,
                                         &err));
    EXPECT_NE(err.find("peMix"), std::string::npos) << err;
    EXPECT_FALSE(fabric::parseFabricSpec("4x4,bogus=3", topo,
                                         &err));
}

TEST(ParseFabricSpec, OverflowingIntegerIsAnError)
{
    // 4294967304 wraps to 8 in a 32-bit int.
    Topology topo;
    std::string err;
    EXPECT_FALSE(fabric::parseFabricSpec("4294967304x8", topo, &err));
    EXPECT_NE(err.find("4294967304"), std::string::npos) << err;
    EXPECT_FALSE(fabric::parseFabricSpec("4x4,tiles=1x4294967297", topo,
                                         &err));
    EXPECT_EQ(topo, Topology{}) << "a failed parse leaves out alone";

    int w = 0, h = 0;
    EXPECT_TRUE(fabric::parseDims("2x3", "tiles", w, h, &err));
    EXPECT_EQ(w, 2);
    EXPECT_EQ(h, 3);
    for (const char *bad : {"2x", "x2", "2", "0x2", "2x-1", "2x2x"})
        EXPECT_FALSE(fabric::parseDims(bad, "tiles", w, h, &err)) << bad;
}

void
expectRoundTrips(const Fabric &fab)
{
    const FabricConfig &cfg = fab.config();
    for (int pe = 0; pe < fab.numPes(); pe++) {
        Coord c = fab.coordOf(pe);
        EXPECT_GE(c.x, 0);
        EXPECT_LT(c.x, cfg.width);
        EXPECT_GE(c.y, 0);
        EXPECT_LT(c.y, cfg.height);
        EXPECT_EQ(fab.peAt(c), pe);
    }
    // Per-class rosters partition the PE set.
    int total = 0;
    for (int c = 0; c < 5; c++) {
        const auto &pes =
            fab.pesOfClass(static_cast<fabric::PeClass>(c));
        EXPECT_EQ(static_cast<int>(pes.size()), cfg.peMix[c]);
        for (int pe : pes)
            EXPECT_EQ(fab.classAt(pe),
                      static_cast<fabric::PeClass>(c));
        total += static_cast<int>(pes.size());
    }
    EXPECT_EQ(total, fab.numPes());
}

TEST(FabricGeometry, FourByFourRoundTrips)
{
    FabricConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.peMix = fabric::scaleMixFor(4, 4);
    expectRoundTrips(Fabric(cfg));
}

TEST(FabricGeometry, NonSquareRoundTrips)
{
    FabricConfig cfg;
    cfg.width = 8;
    cfg.height = 4;
    cfg.peMix = fabric::scaleMixFor(8, 4);
    expectRoundTrips(Fabric(cfg));
}

TEST(FabricGeometry, TiledGlobalRoundTrips)
{
    Topology topo;
    topo.tile.width = 4;
    topo.tile.height = 4;
    topo.tile.peMix = fabric::scaleMixFor(4, 4);
    topo.tilesX = 2;
    topo.tilesY = 2;
    expectRoundTrips(Fabric(topo));
}

TEST(FabricGeometry, TilesReplicateTheSingleTileLayout)
{
    Topology topo;
    topo.tile.width = 4;
    topo.tile.height = 4;
    topo.tile.peMix = fabric::scaleMixFor(4, 4);
    topo.tilesX = 2;
    topo.tilesY = 2;
    Fabric fab(topo);
    Fabric tile0(topo.tile);

    for (int t = 0; t < topo.numTiles(); t++) {
        Coord origin = fab.tileOrigin(t);
        for (int y = 0; y < topo.tile.height; y++) {
            for (int x = 0; x < topo.tile.width; x++) {
                int pe =
                    fab.peAt({origin.x + x, origin.y + y});
                EXPECT_EQ(fab.tileOfPe(pe), t);
                EXPECT_EQ(fab.classAt(pe),
                          tile0.classAt(tile0.peAt({x, y})))
                    << "tile " << t << " pe (" << x << "," << y
                    << ")";
            }
        }
    }
}

TEST(FabricGeometry, SingleTileTopologyIsLegacyFabric)
{
    Topology topo; // default 1×1 of the paper's 8×8
    Fabric tiled(topo);
    Fabric legacy{FabricConfig{}};
    ASSERT_EQ(tiled.numPes(), legacy.numPes());
    for (int pe = 0; pe < tiled.numPes(); pe++) {
        EXPECT_EQ(tiled.classAt(pe), legacy.classAt(pe));
        EXPECT_EQ(tiled.coordOf(pe), legacy.coordOf(pe));
        EXPECT_EQ(tiled.tileOfPe(pe), 0);
    }
}

} // namespace

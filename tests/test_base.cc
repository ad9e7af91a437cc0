/**
 * @file
 * Unit tests for base utilities: formatting, deterministic RNG,
 * table rendering.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/table.hh"

using namespace pipestitch;

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(csprintf("%.2f", 1.5), "1.50");
    EXPECT_EQ(csprintf("empty"), "empty");
}

TEST(Logging, CsprintfLongStrings)
{
    std::string big(5000, 'a');
    std::string out = csprintf("%s!", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 1);
    EXPECT_EQ(out.back(), '!');
    // Around the 256-byte stack buffer: the last byte must survive.
    for (size_t len : {254, 255, 256, 257}) {
        std::string s(len - 1, 'b');
        EXPECT_EQ(csprintf("%s!", s.c_str()), s + "!") << len;
    }
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; i++)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; i++)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; i++) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 1000; i++) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 1000, 0.5, 0.05);
}

TEST(Rng, BernoulliRespectsP)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 4000; i++)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 4000.0, 0.25, 0.03);
}

TEST(Table, AlignsColumns)
{
    Table t({"A", "Long header"});
    t.addRow({"value-longer-than-header", "x"});
    std::string out = t.render();
    // Header, separator, one row.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    // The separator must span both columns.
    size_t sep = out.find('-');
    ASSERT_NE(sep, std::string::npos);
    EXPECT_GT(out.find("value-longer"), sep);
}

TEST(Table, FmtDigits)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

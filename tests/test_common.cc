/**
 * @file
 * Unit tests for the common utilities: units, statistics, tables, RNG.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace
{

using namespace smart;

TEST(Units, TimeConversionsRoundTrip)
{
    EXPECT_DOUBLE_EQ(units::nsToPs(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(units::psToNs(units::nsToPs(3.25)), 3.25);
    EXPECT_DOUBLE_EQ(units::psToS(units::sToPs(1e-6)), 1e-6);
}

TEST(Units, EnergyConversions)
{
    EXPECT_DOUBLE_EQ(units::fjToJ(1.0).value(), 1e-15);
    EXPECT_DOUBLE_EQ(units::pjToJ(2.0).value(), 2e-12);
    EXPECT_DOUBLE_EQ(units::jToPj(units::pjToJ(7.5)), 7.5);
}

TEST(Units, FrequencyCycleDuality)
{
    // 52.6 GHz is a ~19 ps cycle (the paper rounds to 0.02 ns).
    EXPECT_NEAR(units::ghzToPs(52.6), 19.01, 0.01);
    EXPECT_NEAR(units::psToGhz(units::ghzToPs(9.6)), 9.6, 1e-9);
}

TEST(Units, CellAreaFromF2)
{
    // A 39 F^2 SHIFT cell at F = 28 nm.
    const double um2 = units::f2ToUm2(39.0, 28.0).value();
    EXPECT_NEAR(um2, 39.0 * 0.028 * 0.028, 1e-12);
}

TEST(Stats, MeanAndGeomean)
{
    std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Table, AlignedPrinting)
{
    Table t({"name", "value"});
    t.row().cell("alpha").num(1.5, 1);
    t.row().cell("b").integer(42);
    EXPECT_EQ(t.rowCount(), 2u);

    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.row().integer(1).integer(2);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatNum(3.14159, 2), "3.14");
    EXPECT_EQ(formatSci(1234.0, 1), "1.2e+03");
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double x = r.uniform(-1.0, 1.0);
        EXPECT_GE(x, -1.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, RangeBounds)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.range(10), 10u);
}

} // namespace

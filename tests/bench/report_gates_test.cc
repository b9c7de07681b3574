/**
 * @file
 * Unit tests for BenchReport's gate evaluator: point selection, bounds,
 * minimum point counts, any_of groups, and the verdict write() returns
 * whether or not the artifact could be written.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "harness.h"

namespace memif::bench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Runs each test in a fresh temporary directory, so the artifacts
 *  write() leaves behind go nowhere. */
class ReportGates : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        home_ = std::filesystem::current_path();
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "report_gatesXXXXXX")
                .string();
        ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
        std::filesystem::current_path(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::current_path(home_);
        std::filesystem::remove_all(dir_);
    }

    static std::string
    artifact(const std::string &name)
    {
        std::ifstream in("BENCH_" + name + ".json");
        return {std::istreambuf_iterator<char>(in), {}};
    }

    /** A speedup series at 4/16/64 pages: 1.1x, 1.5x, 2.0x. */
    static void
    add_speedups(BenchReport &r)
    {
        r.add("speedup", 4, 1.1);
        r.add("speedup", 16, 1.5);
        r.add("speedup", 64, 2.0);
    }

  private:
    std::filesystem::path home_;
    std::filesystem::path dir_;
};

TEST_F(ReportGates, PassingReportRecordsEveryGate)
{
    BenchReport r("pass");
    add_speedups(r);
    r.add("ratio", 1, 0.3);
    r.gate({.series = "speedup", .x_min = 16, .min = 1.25});
    r.gate({.series = "ratio", .max = 0.5});
    EXPECT_TRUE(r.write());
    EXPECT_TRUE(r.write());  // idempotent

    const std::string json = artifact("pass");
    EXPECT_NE(json.find("\"series\": {"), std::string::npos);
    EXPECT_NE(json.find("\"gates\": [\n    {\"series\": \"speedup\", "
                        "\"x_min\": 16, \"min\": 1.25, \"min_points\": 1, "
                        "\"points\": 2, \"pass\": true}"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("\"pass\": false"), std::string::npos);
}

TEST_F(ReportGates, BoundsAreInclusive)
{
    BenchReport r("inclusive");
    r.add("y", 1, 1.25);
    r.gate({.series = "y", .min = 1.25, .max = 1.25});
    EXPECT_TRUE(r.write());
}

TEST_F(ReportGates, PointJustBelowMinFails)
{
    BenchReport r("below_min");
    r.add("y", 1, std::nextafter(1.25, -kInf));
    r.gate({.series = "y", .min = 1.25});
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(r.write());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("bench below_min: gate failed"), std::string::npos);
    EXPECT_NE(err.find("y at x=1"), std::string::npos) << err;
    EXPECT_NE(artifact("below_min").find("\"pass\": false"),
              std::string::npos);
}

TEST_F(ReportGates, PointJustAboveMaxFails)
{
    BenchReport r("above_max");
    r.add("y", 1, std::nextafter(0.5, kInf));
    r.gate({.series = "y", .max = 0.5});
    EXPECT_FALSE(r.write());
}

TEST_F(ReportGates, NanNeverPasses)
{
    BenchReport r("nan");
    r.add("y", 1, std::nan(""));
    r.gate({.series = "y"});
    EXPECT_FALSE(r.write());
}

TEST_F(ReportGates, ExactXSelectsOnlyThatPoint)
{
    BenchReport holds("exact_holds");
    add_speedups(holds);
    holds.gate({.series = "speedup", .x = 16, .min = 1.4, .max = 1.6});
    EXPECT_TRUE(holds.write());

    BenchReport breaks("exact_breaks");
    add_speedups(breaks);
    breaks.gate({.series = "speedup", .x = 4, .min = 1.4});
    EXPECT_FALSE(breaks.write());
}

TEST_F(ReportGates, XMinSelectsThePointsFromThere)
{
    BenchReport holds("x_min_holds");
    add_speedups(holds);
    holds.gate({.series = "speedup", .x_min = 16, .min = 1.5});
    EXPECT_TRUE(holds.write());

    BenchReport breaks("x_min_breaks");
    add_speedups(breaks);
    breaks.gate({.series = "speedup", .x_min = 4, .min = 1.5});
    EXPECT_FALSE(breaks.write());
}

TEST_F(ReportGates, MissingSeriesFails)
{
    BenchReport r("missing");
    add_speedups(r);
    r.gate({.series = "no-such-series"});
    EXPECT_FALSE(r.write());
}

TEST_F(ReportGates, FewerPointsThanTheMinimumFail)
{
    BenchReport short_sweep("short");
    add_speedups(short_sweep);
    short_sweep.gate({.series = "speedup", .x_min = 16, .min_points = 3});
    EXPECT_FALSE(short_sweep.write());

    BenchReport empty("empty_selection");
    add_speedups(empty);
    empty.gate({.series = "speedup", .x = 256});
    EXPECT_FALSE(empty.write());

    BenchReport enough("enough");
    add_speedups(enough);
    enough.gate({.series = "speedup", .min_points = 3});
    EXPECT_TRUE(enough.write());
}

TEST_F(ReportGates, AnyOfHoldsWhenOnlyTheSecondAlternativeDoes)
{
    BenchReport r("any_of_second");
    r.add("a-vs-worst", 2, 1.1);
    r.add("a-vs-best", 2, 0.9);
    r.add("b-vs-worst", 2, 1.6);
    r.add("b-vs-best", 2, 0.8);
    r.any_of({{{.series = "a-vs-worst", .x = 2, .min = 1.3},
               {.series = "a-vs-best", .x = 2, .min = 0.7}},
              {{.series = "b-vs-worst", .x = 2, .min = 1.3},
               {.series = "b-vs-best", .x = 2, .min = 0.7}}});
    EXPECT_TRUE(r.write());
    const std::string json = artifact("any_of_second");
    EXPECT_NE(json.find("{\"any_of\": ["), std::string::npos) << json;
    EXPECT_NE(json.find("]], \"pass\": true}"), std::string::npos) << json;
}

TEST_F(ReportGates, AnyOfFailsWhenNoAlternativeHolds)
{
    BenchReport r("any_of_none");
    r.add("a-vs-worst", 2, 1.1);  // first alternative: worst too low
    r.add("a-vs-best", 2, 0.9);
    r.add("b-vs-worst", 2, 1.6);  // second: best too low
    r.add("b-vs-best", 2, 0.6);
    r.any_of({{{.series = "a-vs-worst", .x = 2, .min = 1.3},
               {.series = "a-vs-best", .x = 2, .min = 0.7}},
              {{.series = "b-vs-worst", .x = 2, .min = 1.3},
               {.series = "b-vs-best", .x = 2, .min = 0.7}}});
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(r.write());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("no any_of alternative holds"), std::string::npos);
    EXPECT_NE(err.find("a-vs-worst at x=2"), std::string::npos) << err;
    EXPECT_NE(err.find("b-vs-best at x=2"), std::string::npos) << err;
}

TEST_F(ReportGates, VerdictDoesNotNeedTheFile)
{
    // "missing/" does not exist, so the artifact cannot be opened.
    BenchReport holds("missing/holds");
    add_speedups(holds);
    holds.gate({.series = "speedup", .min = 1.0});
    EXPECT_TRUE(holds.write());

    BenchReport breaks("missing/breaks");
    add_speedups(breaks);
    breaks.gate({.series = "speedup", .min = 1.5});
    EXPECT_FALSE(breaks.write());
    EXPECT_FALSE(std::filesystem::exists("missing"));
}

TEST_F(ReportGates, NoGatesMeansAnEmptyGateList)
{
    BenchReport r("ungated");
    add_speedups(r);
    EXPECT_TRUE(r.write());
    EXPECT_NE(artifact("ungated").find("\"gates\": []"), std::string::npos);
}

}  // namespace
}  // namespace memif::bench

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/cli.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/sysinfo.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace scod {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, -5.0, 6.0};
  EXPECT_EQ(a + b, Vec3(5.0, -3.0, 9.0));
  EXPECT_EQ(a - b, Vec3(-3.0, 7.0, -3.0));
  EXPECT_EQ(a * 2.0, Vec3(2.0, 4.0, 6.0));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, Vec3(-1.0, -2.0, -3.0));
  EXPECT_DOUBLE_EQ(a.dot(b), 4.0 - 10.0 + 18.0);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-2.0, 0.5, 4.0};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
  EXPECT_EQ(Vec3(1, 0, 0).cross(Vec3(0, 1, 0)), Vec3(0, 0, 1));
}

TEST(Vec3, NormAndDistance) {
  const Vec3 v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(v.normalized().norm(), 1.0);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
  EXPECT_DOUBLE_EQ(Vec3(1, 1, 1).distance(Vec3(1, 1, 3)), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(5);
  int histogram[10] = {};
  for (int i = 0; i < 10000; ++i) {
    const auto idx = rng.uniform_index(10);
    ASSERT_LT(idx, 10u);
    ++histogram[idx];
  }
  for (int h : histogram) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RunningStats, Basics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Histogram2D, CountsAndClamping) {
  Histogram2D h(0.0, 10.0, 5, 0.0, 1.0, 4);
  h.add(1.0, 0.1);    // bin (0, 0)
  h.add(9.9, 0.99);   // bin (4, 3)
  h.add(-5.0, 2.0);   // clamped to (0, 3)
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.at(0, 0), 1u);
  EXPECT_EQ(h.at(4, 3), 1u);
  EXPECT_EQ(h.at(0, 3), 1u);
  EXPECT_EQ(h.max_count(), 1u);
  EXPECT_DOUBLE_EQ(h.x_bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.y_bin_center(3), 0.875);
}

TEST(Histogram2D, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram2D(0, 1, 0, 0, 1, 4), std::invalid_argument);
  EXPECT_THROW(Histogram2D(1, 1, 4, 0, 1, 4), std::invalid_argument);
}

TEST(CliArgs, ParsesAllForms) {
  const char* argv[] = {"prog", "--count", "42", "--name=xyz", "--flag", "--ratio", "2.5"};
  CliArgs args(7, argv, {"count", "name", "flag", "ratio"});
  EXPECT_EQ(args.get_int("count", 0), 42);
  EXPECT_EQ(args.get_string("name", ""), "xyz");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_TRUE(args.unknown().empty());
}

TEST(CliArgs, CollectsUnknownOptions) {
  const char* argv[] = {"prog", "--nope", "1", "stray"};
  CliArgs args(4, argv, {"count"});
  ASSERT_EQ(args.unknown().size(), 2u);
  EXPECT_EQ(args.unknown()[0], "--nope");
  EXPECT_EQ(args.unknown()[1], "stray");
}

TEST(CliArgs, ParsesIntegerLists) {
  const char* argv[] = {"prog", "--sizes", "1000,2000,4000"};
  CliArgs args(3, argv, {"sizes"});
  EXPECT_EQ(args.get_int_list("sizes", {}), (std::vector<std::int64_t>{1000, 2000, 4000}));
  EXPECT_EQ(args.get_int_list("other", {5}), (std::vector<std::int64_t>{5}));
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"x", TextTable::num(1.5, 2)});
  table.add_row({"longer", TextTable::integer(42)});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 42    |"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(CsvWriter, WritesAndEscapes) {
  const std::string path = testing::TempDir() + "/scod_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"1", "he,llo"});
    EXPECT_THROW(csv.add_row({"only-one"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"he,llo\"");
  std::remove(path.c_str());
}

TEST(CsvEscape, QuotesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.restart();
  EXPECT_LT(watch.seconds(), 1.0);
}

TEST(SystemInfo, QueriesHost) {
  const SystemInfo info = query_system_info();
  EXPECT_GE(info.logical_cpus, 1u);
  EXPECT_GT(info.memory_gib, 0.0);
  EXPECT_FALSE(info.os.empty());
}

TEST(Constants, PhysicallyConsistent) {
  EXPECT_GT(kGeoSemiMajorAxis, kEarthRadius);
  EXPECT_GT(kSimulationHalfExtent, kGeoSemiMajorAxis - 1000.0);
  EXPECT_NEAR(kTwoPi, 2.0 * kPi, 1e-15);
}


TEST(RunningStats, EmptyAndSingleSample) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  s.add(-3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), -3.5);
  EXPECT_DOUBLE_EQ(s.min(), -3.5);
  EXPECT_DOUBLE_EQ(s.max(), -3.5);
  // The unbiased variance needs two samples.
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, StableForLargeOffsets) {
  // Welford's update keeps the variance of {1e9 + 4, 1e9 + 7, 1e9 + 13,
  // 1e9 + 16} (= 30) where the naive sum-of-squares formula cancels.
  RunningStats s;
  for (double d : {4.0, 7.0, 13.0, 16.0}) s.add(1e9 + d);
  EXPECT_DOUBLE_EQ(s.mean(), 1e9 + 10.0);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 1e9 + 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 1e9 + 16.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({8.0, 1.0, 3.0, 6.0}), 4.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({-7.0}), -7.0);
  // (lo + hi) / 2 would overflow to infinity here; lo + (hi - lo) / 2 does not.
  const std::vector<double> large{1.5e308, 1.0e308};
  EXPECT_DOUBLE_EQ(median(large), 1.25e308);
  EXPECT_EQ(large, (std::vector<double>{1.5e308, 1.0e308}));  // sorts a copy
}

TEST(Histogram2D, BinsSumToTotalIncludingUpperEdges) {
  Histogram2D h(0.0, 1.0, 4, -1.0, 1.0, 2);
  // Upper range edges fall into the last bin, not past it.
  h.add(1.0, 1.0);
  h.add(0.0, -1.0);
  h.add(0.5, 0.0);
  h.add(1e9, -1e9);
  EXPECT_EQ(h.at(3, 1), 1u);
  EXPECT_EQ(h.at(0, 0), 1u);
  EXPECT_EQ(h.at(2, 1), 1u);
  EXPECT_EQ(h.at(3, 0), 1u);
  std::size_t sum = 0;
  for (std::size_t x = 0; x < h.x_bins(); ++x)
    for (std::size_t y = 0; y < h.y_bins(); ++y) sum += h.at(x, y);
  EXPECT_EQ(sum, h.total());
  EXPECT_EQ(h.total(), 4u);
  EXPECT_THROW(h.at(4, 0), std::out_of_range);
}

TEST(CliArgs, BareFlagBeforeAnotherOptionTakesNoValue) {
  const char* argv[] = {"prog", "--telemetry", "--count", "3", "--verbose"};
  CliArgs args(5, argv, {"telemetry", "count", "verbose"});
  EXPECT_TRUE(args.get_bool("telemetry", false));
  EXPECT_EQ(args.get_int("count", 0), 3);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.unknown().empty());
}

TEST(CliArgs, BoolSpellings) {
  const char* argv[] = {"prog", "--a=1", "--b=yes", "--c=true", "--d=0", "--e=no", "--f=on"};
  CliArgs args(7, argv, {"a", "b", "c", "d", "e", "f"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
  EXPECT_FALSE(args.get_bool("e", true));
  EXPECT_FALSE(args.get_bool("f", true));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(CliArgs, NegativeNumbersAreValues) {
  const char* argv[] = {"prog", "--count", "-5", "--offset", "-2.5"};
  CliArgs args(5, argv, {"count", "offset"});
  EXPECT_EQ(args.get_int("count", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -2.5);
  EXPECT_TRUE(args.unknown().empty());
}

TEST(CliArgs, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--count", "many", "--ratio=", "--sizes", "1,x"};
  CliArgs args(6, argv, {"count", "ratio", "sizes"});
  EXPECT_THROW(args.get_int("count", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_int_list("sizes", {}), std::invalid_argument);
  EXPECT_EQ(args.get_string("ratio", "fallback"), "");
}

TEST(CliArgs, LastValueWinsAndEmptyListEntriesAreSkipped) {
  const char* argv[] = {"prog", "--seed", "1", "--seed=9", "--sizes", "4,,8,"};
  CliArgs args(6, argv, {"seed", "sizes"});
  EXPECT_EQ(args.get_int("seed", 0), 9);
  EXPECT_EQ(args.get_int_list("sizes", {}), (std::vector<std::int64_t>{4, 8}));
  EXPECT_EQ(args.program(), "prog");
}

TEST(TextTable, PadsShortRowsAndFormatsNumbers) {
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-1.23456, 3), "-1.235");
  EXPECT_EQ(TextTable::num(0.5), "0.500");
  EXPECT_EQ(TextTable::integer(-7), "-7");

  TextTable table({"a", "b", "c"});
  table.add_row({"x"});
  table.add_row({"1", "2", "3", "dropped"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| x |   |   |"), std::string::npos) << out;
  EXPECT_NE(out.find("| 1 | 2 | 3 |"), std::string::npos) << out;
  EXPECT_EQ(out.find("dropped"), std::string::npos) << out;
  // Rule, header, rule, two rows, rule.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(CsvWriter, ThrowsWhenPathCannotBeOpened) {
  const std::string path = testing::TempDir() + "/no_such_dir_scod/out.csv";
  EXPECT_THROW(CsvWriter(path, {"a"}), std::runtime_error);
}

TEST(CsvEscape, EmptyAndCommaOnlyFields) {
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape(","), "\",\"");
  EXPECT_EQ(csv_escape("\""), "\"\"\"\"");
  EXPECT_EQ(csv_escape("a b;c"), "a b;c");
}

}  // namespace
}  // namespace scod

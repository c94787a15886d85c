#include <gtest/gtest.h>

#include "core/report.hpp"

namespace scod {
namespace {

TEST(Report, SortConjunctionsCanonicalOrder) {
  std::vector<Conjunction> cs{
      {2, 3, 50.0, 1.0}, {1, 2, 10.0, 1.0}, {1, 2, 5.0, 2.0}, {1, 3, 1.0, 0.5}};
  sort_conjunctions(cs);
  EXPECT_EQ(cs[0].sat_b, 2u);
  EXPECT_DOUBLE_EQ(cs[0].tca, 5.0);
  EXPECT_DOUBLE_EQ(cs[1].tca, 10.0);
  EXPECT_EQ(cs[2].sat_b, 3u);
  EXPECT_EQ(cs[3].sat_a, 2u);
}

TEST(Report, MergeConjunctionsCollapsesAdjacentSteps) {
  std::vector<Conjunction> raw{
      {1, 2, 100.0, 1.5},
      {1, 2, 100.4, 1.2},  // same minimum, refined from the next step
      {1, 2, 900.0, 1.9},  // a second, distinct encounter
      {3, 4, 100.2, 0.4},  // different pair at a similar time
  };
  const auto merged = merge_conjunctions(raw, 1.0);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].sat_a, 1u);
  EXPECT_DOUBLE_EQ(merged[0].pca, 1.2);  // kept the deeper minimum
  EXPECT_DOUBLE_EQ(merged[1].tca, 900.0);
  EXPECT_EQ(merged[2].sat_a, 3u);
}

TEST(Report, MergeConjunctionsOfNothingIsEmpty) {
  EXPECT_TRUE(merge_conjunctions({}, 1.0).empty());
}

TEST(Report, MergeConjunctionsKeepsASingleEvent) {
  const auto one = merge_conjunctions({{5, 6, 42.0, 1.0}}, 1.0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].sat_a, 5u);
  EXPECT_EQ(one[0].sat_b, 6u);
  EXPECT_DOUBLE_EQ(one[0].tca, 42.0);
  EXPECT_DOUBLE_EQ(one[0].pca, 1.0);
}

TEST(Report, MergeConjunctionsSortsUnorderedMinimaFirst) {
  // Out-of-order refinements of one pair: 99.8, 100.0 and 100.3 are one
  // minimum once sorted, 500.0 is a second encounter.
  const std::vector<Conjunction> raw{
      {1, 2, 100.0, 5.0}, {1, 2, 100.3, 4.0}, {1, 2, 500.0, 7.0}, {1, 2, 99.8, 6.0}};
  const auto merged = merge_conjunctions(raw, 1.0);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].tca, 100.3);  // kept the smallest PCA
  EXPECT_DOUBLE_EQ(merged[0].pca, 4.0);
  EXPECT_DOUBLE_EQ(merged[1].tca, 500.0);
  EXPECT_DOUBLE_EQ(merged[1].pca, 7.0);
}

TEST(Report, MergeChainsWithinTolerance) {
  // 100.0, 100.8, 101.6: each within 1.0 of the previous -> one event.
  std::vector<Conjunction> raw{
      {1, 2, 100.0, 3.0}, {1, 2, 100.8, 2.0}, {1, 2, 101.6, 2.5}};
  const auto merged = merge_conjunctions(raw, 1.0);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].pca, 2.0);
}

TEST(Report, CollidingPairsDeduplicates) {
  ScreeningReport report;
  report.conjunctions = {{1, 2, 10.0, 1.0}, {1, 2, 500.0, 0.5}, {3, 4, 1.0, 1.0}};
  const auto pairs = report.colliding_pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
  EXPECT_EQ(pairs[1], (std::pair<std::uint32_t, std::uint32_t>{3, 4}));
}

TEST(Report, ComparePairSets) {
  using P = std::pair<std::uint32_t, std::uint32_t>;
  const std::vector<P> a{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<P> b{{3, 4}, {5, 6}, {7, 8}, {9, 10}};
  const PairSetDiff diff = compare_pair_sets(a, b);
  EXPECT_EQ(diff.common, 2u);
  EXPECT_EQ(diff.only_in_first, 1u);
  EXPECT_EQ(diff.only_in_second, 2u);

  const PairSetDiff empty = compare_pair_sets({}, {});
  EXPECT_EQ(empty.common, 0u);
  EXPECT_EQ(empty.only_in_first, 0u);
}

TEST(Report, PhaseTimingsTotal) {
  PhaseTimings t;
  t.allocation = 1.0;
  t.insertion = 2.0;
  t.detection = 3.0;
  t.filtering = 4.0;
  t.refinement = 5.0;
  EXPECT_DOUBLE_EQ(t.total(), 15.0);
}

}  // namespace
}  // namespace scod

#include "sim/trace_analysis.h"

#include <vector>

#include "gtest/gtest.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

std::vector<AccessRecord> Refs(std::initializer_list<PageId> pages) {
  std::vector<AccessRecord> out;
  for (PageId p : pages) out.push_back({.page = p, .type = AccessType::kRead});
  return out;
}

TEST(ProfileTraceTest, CountsAndSorts) {
  auto refs = Refs({1, 2, 1, 3, 1, 2});
  refs[1].type = AccessType::kWrite;
  TraceProfile profile = ProfileTrace(refs);
  EXPECT_EQ(profile.total_references, 6u);
  EXPECT_EQ(profile.distinct_pages, 3u);
  EXPECT_EQ(profile.write_references, 1u);
  ASSERT_EQ(profile.sorted_page_counts.size(), 3u);
  EXPECT_EQ(profile.sorted_page_counts[0], 3u);  // Page 1.
  EXPECT_EQ(profile.sorted_page_counts[1], 2u);  // Page 2.
  EXPECT_EQ(profile.sorted_page_counts[2], 1u);  // Page 3.
}

TEST(AccessSkewTest, ExactSmallCase) {
  // Page 1: 6 refs, pages 2..5: 1 ref each. 60% of refs -> 1 of 5 pages.
  auto refs = Refs({1, 1, 1, 1, 1, 1, 2, 3, 4, 5});
  TraceProfile profile = ProfileTrace(refs);
  EXPECT_DOUBLE_EQ(AccessSkew(profile, 0.60), 0.2);
  // 70% needs the hot page plus one more.
  EXPECT_DOUBLE_EQ(AccessSkew(profile, 0.70), 0.4);
  EXPECT_DOUBLE_EQ(AccessSkew(profile, 1.00), 1.0);
  EXPECT_DOUBLE_EQ(AccessSkew(profile, 0.0), 0.0);
}

TEST(AccessSkewTest, MatchesZipfianConstruction) {
  // The 80-20 workload must measure as ~20% of pages taking 80% of refs.
  ZipfianOptions options;
  options.num_pages = 1000;
  options.seed = 5;
  ZipfianWorkload gen(options);
  auto refs = MaterializeRefs(gen, 200000);
  TraceProfile profile = ProfileTrace(refs);
  EXPECT_NEAR(AccessSkew(profile, 0.80), 0.20, 0.03);
}

TEST(PagesReReferencedWithinTest, HorizonBoundary) {
  // Page 7 recurs with gap 3; page 8 with gap 5; page 9 once.
  auto refs = Refs({7, 8, 1, 7, 2, 3, 8, 9});
  EXPECT_EQ(PagesReReferencedWithin(refs, 2), 0u);
  EXPECT_EQ(PagesReReferencedWithin(refs, 3), 1u);  // Page 7.
  EXPECT_EQ(PagesReReferencedWithin(refs, 5), 2u);  // Pages 7 and 8.
  EXPECT_EQ(PagesReReferencedWithin(refs, 1000), 2u);  // 9 never recurs.
}

TEST(PagesReReferencedWithinTest, MetronomeCensusIsExact) {
  // 10 pages on a strict period of 10: every page re-references at gap 10.
  std::vector<AccessRecord> refs;
  for (int round = 0; round < 5; ++round) {
    for (PageId p = 0; p < 10; ++p) {
      refs.push_back({.page = p, .type = AccessType::kRead});
    }
  }
  EXPECT_EQ(PagesReReferencedWithin(refs, 9), 0u);
  EXPECT_EQ(PagesReReferencedWithin(refs, 10), 10u);
}

TEST(MeanInterarrivalCensusTest, ThresholdArithmetic) {
  // Trace length 10. Horizon 5 -> need count >= 2. Horizon 2 -> count >= 5.
  auto refs = Refs({1, 1, 1, 1, 1, 2, 2, 3, 4, 5});
  TraceProfile profile = ProfileTrace(refs);
  EXPECT_EQ(PagesWithMeanInterarrivalWithin(profile, 5), 2u);  // 1 and 2.
  EXPECT_EQ(PagesWithMeanInterarrivalWithin(profile, 2), 1u);  // Only 1.
  EXPECT_EQ(PagesWithMeanInterarrivalWithin(profile, 1), 0u);  // Need 10.
  // Huge horizon: every recurring page (count >= 2) qualifies.
  EXPECT_EQ(PagesWithMeanInterarrivalWithin(profile, 1000000), 2u);
}

TEST(InterarrivalPercentilesTest, SimpleDistribution) {
  // Gaps: page 1 -> {2, 2}, page 2 -> {4}. Sorted gaps: {2, 2, 4}.
  auto refs = Refs({1, 2, 1, 9, 1, 2});
  auto pct = InterarrivalPercentiles(refs, {0, 50, 100});
  ASSERT_EQ(pct.size(), 3u);
  EXPECT_EQ(pct[0], 2u);
  EXPECT_EQ(pct[1], 2u);
  EXPECT_EQ(pct[2], 4u);
}

TEST(InterarrivalPercentilesTest, NoRepeatsGiveZeros) {
  auto refs = Refs({1, 2, 3});
  auto pct = InterarrivalPercentiles(refs, {50});
  ASSERT_EQ(pct.size(), 1u);
  EXPECT_EQ(pct[0], 0u);
}

}  // namespace
}  // namespace lruk

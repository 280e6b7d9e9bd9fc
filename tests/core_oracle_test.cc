// Tests for the two oracle policies: A0 (true probabilities) and Belady B0
// (true future).

#include <optional>
#include <vector>

#include "core/a0.h"
#include "core/belady.h"
#include "gtest/gtest.h"

namespace lruk {
namespace {

TEST(A0Test, EvictsSmallestProbabilityFirst) {
  A0Policy a0({0.5, 0.1, 0.3, 0.1});
  a0.Admit(0, AccessType::kRead);
  a0.Admit(1, AccessType::kRead);
  a0.Admit(2, AccessType::kRead);
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(1));  // beta = 0.1.
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(2));  // beta = 0.3.
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(0));  // beta = 0.5.
}

TEST(A0Test, TiesBrokenByPageId) {
  A0Policy a0({0.2, 0.2, 0.2});
  a0.Admit(2, AccessType::kRead);
  a0.Admit(0, AccessType::kRead);
  a0.Admit(1, AccessType::kRead);
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(0));
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(2));
}

TEST(A0Test, ReferencesDoNotChangeOrdering) {
  A0Policy a0({0.9, 0.1});
  a0.Admit(0, AccessType::kRead);
  a0.Admit(1, AccessType::kRead);
  for (int i = 0; i < 10; ++i) a0.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(1));  // Still lowest beta.
}

TEST(A0Test, UnknownPagesHaveZeroProbability) {
  A0Policy a0({0.5, 0.5});
  a0.Admit(0, AccessType::kRead);
  a0.Admit(99, AccessType::kRead);  // Outside the vector: beta = 0.
  EXPECT_DOUBLE_EQ(a0.ProbabilityOf(99), 0.0);
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(99));
}

TEST(A0Test, PinningRespected) {
  A0Policy a0({0.1, 0.9});
  a0.Admit(0, AccessType::kRead);
  a0.Admit(1, AccessType::kRead);
  a0.SetEvictable(0, false);
  EXPECT_EQ(a0.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(a0.Evict(), std::nullopt);
}

TEST(BeladyTest, EvictsFarthestFutureUse) {
  // Trace: 1 2 3 1 2 3 ... page order of next use after t=3 is 1,2,3.
  std::vector<PageId> trace = {1, 2, 3, 1, 2, 3};
  BeladyPolicy b0(trace);
  b0.Admit(1, AccessType::kRead);
  b0.Admit(2, AccessType::kRead);
  b0.Admit(3, AccessType::kRead);
  // Next uses: 1 -> pos 3, 2 -> pos 4, 3 -> pos 5. Farthest is 3.
  EXPECT_EQ(b0.Evict(), std::optional<PageId>(3));
}

TEST(BeladyTest, NeverUsedAgainIsPreferredVictim) {
  std::vector<PageId> trace = {1, 2, 3, 1, 1, 1};
  BeladyPolicy b0(trace);
  b0.Admit(1, AccessType::kRead);
  b0.Admit(2, AccessType::kRead);
  b0.Admit(3, AccessType::kRead);
  // Pages 2 and 3 never recur; the larger "infinity" set is drained first.
  auto v1 = b0.Evict();
  auto v2 = b0.Evict();
  ASSERT_TRUE(v1.has_value() && v2.has_value());
  EXPECT_TRUE((*v1 == 2 && *v2 == 3) || (*v1 == 3 && *v2 == 2));
  EXPECT_EQ(b0.Evict(), std::optional<PageId>(1));
}

TEST(BeladyTest, RecordAccessAdvancesOracle) {
  std::vector<PageId> trace = {1, 1, 2, 1};
  BeladyPolicy b0(trace);
  b0.Admit(1, AccessType::kRead);         // pos 0, next use 1.
  b0.RecordAccess(1, AccessType::kRead);  // pos 1, next use 3.
  b0.Admit(2, AccessType::kRead);         // pos 2, next use: never.
  EXPECT_EQ(b0.Position(), 3u);
  EXPECT_EQ(b0.Evict(), std::optional<PageId>(2));
}

TEST(BeladyTest, AchievesOptimalHitsOnKnownPattern) {
  // Capacity 2, trace 1 2 3 1 2 3 1 2 3: OPT hits 3 of 9 (keep 1 and 2,
  // stream 3 through); LRU would hit 0.
  std::vector<PageId> trace;
  for (int i = 0; i < 3; ++i) {
    trace.push_back(1);
    trace.push_back(2);
    trace.push_back(3);
  }
  BeladyPolicy b0(trace);
  size_t hits = 0;
  for (PageId p : trace) {
    if (ReferenceStep(b0, /*frames=*/2, {.page = p}).hit) ++hits;
  }
  // OPT on this trace with capacity 2: references 4..9 alternate hits.
  EXPECT_GE(hits, 3u);
}

}  // namespace
}  // namespace lruk

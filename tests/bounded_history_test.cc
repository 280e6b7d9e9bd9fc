// Tests for the bounded non-resident history (the Section 5 "history
// space" knob): HistoryTable-level bookkeeping and LruKPolicy-level
// behavior.

#include <optional>

#include "core/history_table.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"

namespace lruk {
namespace {

TEST(BoundedHistoryTableTest, NonResidentCountTracksTransitions) {
  HistoryTable table(2, kInfinitePeriod, /*max_nonresident_blocks=*/0);
  bool had = false;
  HistoryBlock& a = table.GetOrCreate(1, 1, &had);
  a.resident = true;
  a.last = 1;
  EXPECT_EQ(table.NonResidentCount(), 0u);
  a.resident = false;
  table.RetainEvicted(1, a);
  EXPECT_EQ(table.NonResidentCount(), 1u);
  // Re-admission removes the non-resident entry.
  table.GetOrCreate(1, 2, &had);
  EXPECT_TRUE(had);
  EXPECT_EQ(table.NonResidentCount(), 0u);
}

TEST(BoundedHistoryTableTest, BoundDropsOldestLast) {
  HistoryTable table(2, kInfinitePeriod, /*max_nonresident_blocks=*/2);
  bool had = false;
  for (PageId p = 1; p <= 3; ++p) {
    HistoryBlock& block = table.GetOrCreate(p, p, &had);
    block.resident = true;
    block.last = p;  // Page 1 has the oldest LAST.
    block.resident = false;
    table.RetainEvicted(p, block);
  }
  EXPECT_EQ(table.NonResidentCount(), 2u);
  EXPECT_EQ(table.Find(1), nullptr);  // Oldest dropped.
  EXPECT_NE(table.Find(2), nullptr);
  EXPECT_NE(table.Find(3), nullptr);
}

TEST(BoundedHistoryTableTest, EraseMaintainsIndex) {
  HistoryTable table(2, kInfinitePeriod, /*max_nonresident_blocks=*/4);
  bool had = false;
  HistoryBlock& block = table.GetOrCreate(1, 1, &had);
  block.resident = true;
  block.last = 1;
  block.resident = false;
  table.RetainEvicted(1, block);
  table.Erase(1);
  EXPECT_EQ(table.NonResidentCount(), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(BoundedHistoryTableTest, PurgeMaintainsIndex) {
  HistoryTable table(2, /*retained_information_period=*/5,
                     /*max_nonresident_blocks=*/10);
  bool had = false;
  HistoryBlock& block = table.GetOrCreate(1, 1, &had);
  block.resident = true;
  block.last = 1;
  block.resident = false;
  table.RetainEvicted(1, block);
  EXPECT_EQ(table.PurgeExpired(100), 1u);
  EXPECT_EQ(table.NonResidentCount(), 0u);
}

TEST(BoundedHistoryPolicyTest, HistoryBudgetIsEnforced) {
  LruKOptions options;
  options.k = 2;
  options.max_nonresident_history = 4;
  LruKPolicy policy(options);
  // Stream 32 distinct pages through a 2-frame buffer.
  for (PageId p = 0; p < 32; ++p) {
    if (policy.ResidentCount() == 2) {
      ASSERT_TRUE(policy.Evict().has_value());
    }
    policy.Admit(p, AccessType::kRead);
    ASSERT_LE(policy.NonResidentHistorySize(), 4u);
  }
  // Total blocks = residents + bounded non-residents.
  EXPECT_LE(policy.HistorySize(), 2u + 4u);
}

TEST(BoundedHistoryPolicyTest, BudgetedHistoryStillRecognizesRecentPages) {
  LruKOptions options;
  options.k = 2;
  options.max_nonresident_history = 8;
  LruKPolicy policy(options);
  // Page 100 faults in, is evicted, and refaults before 8 other distinct
  // pages pass: its history must survive.
  policy.Admit(100, AccessType::kRead);  // t=1.
  ASSERT_TRUE(policy.Evict().has_value());
  for (PageId p = 0; p < 4; ++p) {
    if (policy.ResidentCount() == 2) {
      ASSERT_TRUE(policy.Evict().has_value());
    }
    policy.Admit(p, AccessType::kRead);
  }
  if (policy.ResidentCount() == 2) {
    ASSERT_TRUE(policy.Evict().has_value());
  }
  policy.Admit(100, AccessType::kRead);
  EXPECT_TRUE(policy.BackwardKDistance(100).has_value())
      << "history within budget must be retained";
}

TEST(BoundedHistoryPolicyTest, OverflowedHistoryIsForgotten) {
  LruKOptions options;
  options.k = 2;
  options.max_nonresident_history = 2;
  LruKPolicy policy(options);
  policy.Admit(100, AccessType::kRead);
  ASSERT_TRUE(policy.Evict().has_value());
  // Push 6 distinct pages through a 1-page buffer: page 100's block (the
  // oldest) is squeezed out of the 2-block budget.
  for (PageId p = 0; p < 6; ++p) {
    if (policy.ResidentCount() == 1) {
      ASSERT_TRUE(policy.Evict().has_value());
    }
    policy.Admit(p, AccessType::kRead);
  }
  EXPECT_EQ(policy.DebugBlock(100), nullptr);
  policy.Admit(100, AccessType::kRead);
  EXPECT_EQ(policy.BackwardKDistance(100), std::nullopt);  // Looks new.
}

}  // namespace
}  // namespace lruk

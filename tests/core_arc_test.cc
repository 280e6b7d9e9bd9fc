#include "core/arc.h"

#include <optional>

#include "gtest/gtest.h"
#include "util/random.h"

namespace lruk {
namespace {

// A reference to the non-resident page `p` through ReferenceStep.
void Miss(ArcPolicy& arc, PageId p, size_t capacity) {
  ASSERT_FALSE(ReferenceStep(arc, capacity, {.page = p}).hit);
}

TEST(ArcTest, NewPagesEnterT1) {
  ArcPolicy arc(4);
  Miss(arc, 1, 4);
  Miss(arc, 2, 4);
  EXPECT_EQ(arc.T1Size(), 2u);
  EXPECT_EQ(arc.T2Size(), 0u);
}

TEST(ArcTest, HitPromotesToT2) {
  ArcPolicy arc(4);
  Miss(arc, 1, 4);
  Miss(arc, 2, 4);
  arc.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(arc.T1Size(), 1u);
  EXPECT_EQ(arc.T2Size(), 1u);
  arc.RecordAccess(1, AccessType::kRead);  // T2 hit stays in T2.
  EXPECT_EQ(arc.T2Size(), 1u);
}

TEST(ArcTest, EvictionFromT1GoesToGhostB1) {
  ArcPolicy arc(3);
  Miss(arc, 1, 3);
  arc.RecordAccess(1, AccessType::kRead);  // 1 -> T2, so |T1| < c later.
  Miss(arc, 2, 3);
  Miss(arc, 3, 3);
  Miss(arc, 4, 3);  // REPLACE evicts T1's LRU (page 2) into B1.
  EXPECT_FALSE(arc.IsResident(2));
  EXPECT_TRUE(arc.InGhostB1(2));
  EXPECT_EQ(arc.B1Size(), 1u);
}

TEST(ArcTest, FullT1CaseBypassesGhost) {
  // Megiddo-Modha Case IV with |T1| = c: the T1 LRU page leaves the
  // directory entirely (B1 stays empty).
  ArcPolicy arc(3);
  Miss(arc, 1, 3);
  Miss(arc, 2, 3);
  Miss(arc, 3, 3);
  Miss(arc, 4, 3);
  EXPECT_FALSE(arc.IsResident(1));
  EXPECT_FALSE(arc.InGhostB1(1));
  EXPECT_EQ(arc.B1Size(), 0u);
}

TEST(ArcTest, GhostB1HitRaisesTargetAndPromotes) {
  ArcPolicy arc(3);
  Miss(arc, 1, 3);
  arc.RecordAccess(1, AccessType::kRead);  // 1 -> T2.
  Miss(arc, 2, 3);
  Miss(arc, 3, 3);
  Miss(arc, 4, 3);  // 2 -> B1.
  ASSERT_TRUE(arc.InGhostB1(2));
  double p_before = arc.target_p();
  Miss(arc, 2, 3);  // Refault from B1.
  EXPECT_GT(arc.target_p(), p_before);
  EXPECT_FALSE(arc.InGhostB1(2));
  EXPECT_TRUE(arc.IsResident(2));
  EXPECT_EQ(arc.T2Size(), 2u);  // Straight into the frequency side.
}

TEST(ArcTest, GhostB2HitLowersTarget) {
  ArcPolicy arc(2);
  // Build a T2 page, evict it into B2, then refault it.
  Miss(arc, 1, 2);
  arc.RecordAccess(1, AccessType::kRead);  // 1 in T2.
  Miss(arc, 2, 2);
  Miss(arc, 3, 2);  // Evict: T1 has 2; p=0 -> T1 tail (2) -> B1.
  ASSERT_TRUE(arc.InGhostB1(2));
  // Raise p via the B1 ghost so T1 is preferred later.
  Miss(arc, 2, 2);
  double p_raised = arc.target_p();
  ASSERT_GT(p_raised, 0.0);
  // Now force an eviction out of T2 (T1 is empty or within target).
  // Current state: T2 = {1, 2}. A new page evicts from T2 -> B2.
  Miss(arc, 4, 2);
  ASSERT_EQ(arc.B2Size(), 1u);
  PageId ghost2 = arc.InGhostB2(1) ? 1 : 2;
  Miss(arc, ghost2, 2);  // B2 refault lowers p.
  EXPECT_LT(arc.target_p(), p_raised);
  EXPECT_TRUE(arc.IsResident(ghost2));
}

TEST(ArcTest, GhostListsAreBounded) {
  constexpr size_t kCapacity = 8;
  ArcPolicy arc(kCapacity);
  for (PageId p = 0; p < 200; ++p) Miss(arc, p, kCapacity);
  // |T1| + |B1| <= c and total directory <= 2c.
  EXPECT_LE(arc.T1Size() + arc.B1Size(), kCapacity);
  EXPECT_LE(arc.T1Size() + arc.T2Size() + arc.B1Size() + arc.B2Size(),
            2 * kCapacity);
}

TEST(ArcTest, ScanDoesNotFlushFrequentPages) {
  constexpr size_t kCapacity = 16;
  ArcPolicy arc(kCapacity);
  // Establish a frequent working set {100..103} in T2.
  for (PageId p = 100; p < 104; ++p) Miss(arc, p, kCapacity);
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 100; p < 104; ++p) {
      arc.RecordAccess(p, AccessType::kRead);
    }
  }
  ASSERT_EQ(arc.T2Size(), 4u);
  // One-touch scan of 100 cold pages.
  for (PageId p = 0; p < 100; ++p) Miss(arc, p, kCapacity);
  for (PageId p = 100; p < 104; ++p) {
    EXPECT_TRUE(arc.IsResident(p)) << "scan flushed hot page " << p;
  }
}

TEST(ArcTest, EvictWithoutHintStillWorks) {
  ArcPolicy arc(2);
  arc.Admit(1, AccessType::kRead);
  arc.Admit(2, AccessType::kRead);
  auto victim = arc.Evict();  // No PrepareAdmit: plain REPLACE.
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(arc.ResidentCount(), 1u);
}

TEST(ArcTest, PinnedPagesSurviveReplace) {
  ArcPolicy arc(3);
  Miss(arc, 1, 3);
  Miss(arc, 2, 3);
  Miss(arc, 3, 3);
  arc.SetEvictable(1, false);  // 1 is T1's LRU but pinned.
  arc.PrepareAdmit(9);
  auto victim = arc.Evict();
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, 1u);
  EXPECT_TRUE(arc.IsResident(1));
}

TEST(ArcTest, RandomizedDirectoryInvariants) {
  constexpr size_t kCapacity = 12;
  ArcPolicy arc(kCapacity);
  RandomEngine rng(88);
  for (int step = 0; step < 20000; ++step) {
    PageId p = rng.NextBounded(64);
    if (arc.IsResident(p)) {
      arc.RecordAccess(p, AccessType::kRead);
    } else {
      Miss(arc, p, kCapacity);
    }
    ASSERT_LE(arc.ResidentCount(), kCapacity);
    ASSERT_LE(arc.T1Size() + arc.B1Size(), kCapacity);
    ASSERT_LE(arc.T1Size() + arc.T2Size() + arc.B1Size() + arc.B2Size(),
              2 * kCapacity);
    ASSERT_GE(arc.target_p(), 0.0);
    ASSERT_LE(arc.target_p(), static_cast<double>(kCapacity));
  }
}

// A pool admits with no Evict when a free frame waits: one a deleted page
// left (Remove), or one an allocation batch emptied by evicting several
// pages ahead of their admissions. The directory bounds hold all the same.
TEST(ArcTest, DirectoryStaysBoundedWhenAdmissionsFindFreeFrames) {
  constexpr size_t kCapacity = 12;
  ArcPolicy arc(kCapacity);
  RandomEngine rng(89);
  for (int step = 0; step < 20000; ++step) {
    PageId p = rng.NextBounded(64);
    if (arc.IsResident(p)) {
      if (rng.NextBounded(8) == 0) {
        arc.Remove(p);
      } else {
        arc.RecordAccess(p, AccessType::kRead);
      }
    } else {
      arc.PrepareAdmit(p);
      if (arc.ResidentCount() >= kCapacity) {
        const uint64_t ahead = 1 + rng.NextBounded(4);
        for (uint64_t i = 0; i < ahead; ++i) {
          ASSERT_TRUE(arc.Evict().has_value());
        }
      }
      arc.Admit(p, AccessType::kRead);
    }
    ASSERT_LE(arc.ResidentCount(), kCapacity);
    ASSERT_LE(arc.T1Size() + arc.B1Size(), kCapacity);
    ASSERT_LE(arc.T1Size() + arc.T2Size() + arc.B1Size() + arc.B2Size(),
              2 * kCapacity);
  }
}

}  // namespace
}  // namespace lruk

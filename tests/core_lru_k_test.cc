// Semantics tests for LruKPolicy against hand-executed runs of the paper's
// Figure 2.1 pseudo-code. Time ticks once per RecordAccess/Admit, starting
// at 1.

#include "core/lru_k.h"

#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace lruk {
namespace {

LruKOptions Opts(int k, Timestamp crp = 0,
                 Timestamp rip = kInfinitePeriod) {
  LruKOptions o;
  o.k = k;
  o.correlated_reference_period = crp;
  o.retained_information_period = rip;
  return o;
}

TEST(LruKTest, NameReflectsK) {
  EXPECT_EQ(LruKPolicy(Opts(1)).Name(), "LRU-1");
  EXPECT_EQ(LruKPolicy(Opts(2)).Name(), "LRU-2");
  EXPECT_EQ(LruKPolicy(Opts(7)).Name(), "LRU-7");
}

TEST(LruKTest, SubsidiaryLruAmongInfiniteDistances) {
  // Three pages, one reference each: all have b_t(p,2) = infinity, so the
  // subsidiary LRU policy must order them by first reference.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(policy.Evict(), std::nullopt);
}

TEST(LruKTest, InfiniteDistanceEvictedBeforeFiniteDistance) {
  // Page 1 gets two references (finite b) while page 2 has one (infinite);
  // page 2 must go first even though page 1 is older by last reference.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);       // t=1
  policy.Admit(2, AccessType::kRead);       // t=2
  policy.RecordAccess(1, AccessType::kRead);  // t=3: HIST(1)=[3,1]
  ASSERT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
}

TEST(LruKTest, MaxBackwardKDistanceIsVictim) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);         // t=1
  policy.Admit(2, AccessType::kRead);         // t=2
  policy.RecordAccess(1, AccessType::kRead);  // t=3: HIST(1)=[3,1]
  policy.RecordAccess(2, AccessType::kRead);  // t=4: HIST(2)=[4,2]
  // b(1,2) = 4-1 = 3 > b(2,2) = 4-2 = 2: page 1 is the victim.
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(3));
  EXPECT_EQ(policy.BackwardKDistance(2), std::optional<Timestamp>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

TEST(LruKTest, RecencyOfLastReferenceDoesNotOverrideKDistance) {
  // The defining difference from LRU: page 2's most recent reference is
  // newer, but its second-most-recent is older, so page 2 is evicted.
  LruKPolicy policy(Opts(2));
  policy.Admit(2, AccessType::kRead);         // t=1
  policy.RecordAccess(2, AccessType::kRead);  // t=2: HIST(2)=[2,1]
  policy.Admit(1, AccessType::kRead);         // t=3
  policy.RecordAccess(1, AccessType::kRead);  // t=4: HIST(1)=[4,3]
  policy.RecordAccess(2, AccessType::kRead);  // t=5: HIST(2)=[5,2]
  // b(1,2) = 5-3 = 2; b(2,2) = 5-2 = 3. LRU would evict 1 (older LAST);
  // LRU-2 must evict 2.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
}

TEST(LruKTest, HistoryShiftKeepsKMostRecent) {
  LruKPolicy policy(Opts(3));
  policy.Admit(9, AccessType::kRead);  // t=1
  for (Timestamp t = 2; t <= 5; ++t) {
    policy.RecordAccess(9, AccessType::kRead);  // t=2..5
  }
  const HistoryBlock* block = policy.DebugBlock(9);
  ASSERT_NE(block, nullptr);
  // The three most recent of {1,2,3,4,5}.
  EXPECT_EQ(block->hist[0], 5u);
  EXPECT_EQ(block->hist[1], 4u);
  EXPECT_EQ(block->hist[2], 3u);
  EXPECT_EQ(policy.BackwardKDistance(9), std::optional<Timestamp>(2));
}

TEST(LruKTest, CorrelatedReferencesOnlyMoveLast) {
  LruKPolicy policy(Opts(2, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);         // t=1: HIST=[1,0], LAST=1
  policy.RecordAccess(1, AccessType::kRead);  // t=2: gap 1 <= 2, correlated
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 1u);
  EXPECT_EQ(block->hist[1], 0u);
  EXPECT_EQ(block->last, 2u);
}

TEST(LruKTest, UncorrelatedReferenceCollapsesCorrelationPeriod) {
  // Figure 2.1: on an uncorrelated reference, earlier history shifts by
  // the length of the closed correlated period so the burst counts as one
  // reference with zero width.
  LruKPolicy policy(Opts(2, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);         // t=1: HIST=[1,0], LAST=1
  policy.RecordAccess(1, AccessType::kRead);  // t=2: correlated, LAST=2
  policy.RecordAccess(1, AccessType::kRead);  // t=3: correlated, LAST=3
  policy.Admit(2, AccessType::kRead);         // t=4
  policy.Admit(3, AccessType::kRead);         // t=5
  policy.RecordAccess(1, AccessType::kRead);  // t=6: gap 3 > 2, uncorrelated
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  // correlation_period = LAST - HIST(1,1) = 3 - 1 = 2;
  // HIST(1,2) = old HIST(1,1) + 2 = 3; HIST(1,1) = 6.
  EXPECT_EQ(block->hist[0], 6u);
  EXPECT_EQ(block->hist[1], 3u);
  EXPECT_EQ(block->last, 6u);
  // Interarrival credited: 6 - 3 = 3, the gap between correlation periods.
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(3));
}

TEST(LruKTest, ShiftNeverFabricatesUnknownEntries) {
  // K=3 with a nonzero correlation adjustment: the literal Figure 2.1 loop
  // would set HIST(p,3) = 0 + correlation_period; ours must keep it 0.
  LruKPolicy policy(Opts(3, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);         // t=1
  policy.RecordAccess(1, AccessType::kRead);  // t=2: correlated
  policy.Admit(2, AccessType::kRead);         // t=3
  policy.Admit(3, AccessType::kRead);         // t=4
  policy.RecordAccess(1, AccessType::kRead);  // t=5: uncorrelated, corr=1
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 5u);
  EXPECT_EQ(block->hist[1], 2u);  // 1 + correlation period 1.
  EXPECT_EQ(block->hist[2], 0u);  // Still unknown.
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
}

TEST(LruKTest, EvictionEligibilityHonorsCorrelatedPeriod) {
  LruKPolicy policy(Opts(2, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);  // t=1
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(3, AccessType::kRead);  // t=3
  policy.Admit(4, AccessType::kRead);  // t=4
  // Eviction happens at prospective t=5: pages 3 (gap 2) and 4 (gap 1) are
  // inside the correlated period; among eligible {1,2} subsidiary LRU
  // picks 1.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.fallback_evictions(), 0u);
}

TEST(LruKTest, FallbackEvictionWhenNoPageEligible) {
  LruKPolicy policy(Opts(2, /*crp=*/10));
  policy.Admit(1, AccessType::kRead);  // t=1
  policy.Admit(2, AccessType::kRead);  // t=2
  // Prospective t=3: both pages are within the CRP. The paper's loop finds
  // nothing; we must still free a slot and count the fallback.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.fallback_evictions(), 1u);
}

TEST(LruKTest, HistoryRetainedPastResidence) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_FALSE(policy.IsResident(1));
  EXPECT_EQ(policy.HistorySize(), 1u);  // Block survives the eviction.

  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(1, AccessType::kRead);  // t=3: history shift -> HIST=[3,1]
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 3u);
  EXPECT_EQ(block->hist[1], 1u);
  // Page 1 now has finite b (=2) while page 2 is infinite: 2 is evicted,
  // which is exactly the behavior the Retained Information Problem section
  // motivates.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
}

TEST(LruKTest, RetainedInformationPeriodExpiresHistory) {
  // RIP = 3 ticks; after eviction at t=1, re-admitting at t=6 is too late:
  // the page must look brand new (infinite distance).
  LruKOptions options = Opts(2, 0, /*rip=*/3);
  options.purge_interval = 0;  // Exercise the lazy (GetOrCreate) path.
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(10, AccessType::kRead);  // t=2
  policy.Admit(11, AccessType::kRead);  // t=3
  policy.Admit(12, AccessType::kRead);  // t=4
  policy.Admit(13, AccessType::kRead);  // t=5
  policy.Admit(1, AccessType::kRead);   // t=6: 6-1 > 3, history expired
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 6u);
  EXPECT_EQ(block->hist[1], 0u);  // No second reference known.
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
}

TEST(LruKTest, ReAdmissionWithinRipKeepsHistory) {
  LruKOptions options = Opts(2, 0, /*rip=*/100);
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(1, AccessType::kRead);  // t=3: within RIP
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(2));
}

TEST(LruKTest, PurgeHistoryDropsExpiredBlocks) {
  LruKOptions options = Opts(2, 0, /*rip=*/2);
  options.purge_interval = 0;
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(3, AccessType::kRead);  // t=3
  policy.Admit(4, AccessType::kRead);  // t=4
  EXPECT_EQ(policy.HistorySize(), 4u);
  // Page 1's block (last=1) is stale at t=4; resident pages are immune.
  EXPECT_EQ(policy.PurgeHistory(), 1u);
  EXPECT_EQ(policy.HistorySize(), 3u);
  EXPECT_EQ(policy.DebugBlock(1), nullptr);
}

TEST(LruKTest, AutomaticDemonPurges) {
  LruKOptions options = Opts(2, 0, /*rip=*/1);
  options.purge_interval = 4;  // Demon runs when time % 4 == 0.
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(3, AccessType::kRead);  // t=3
  EXPECT_EQ(policy.HistorySize(), 3u);
  policy.Admit(4, AccessType::kRead);  // t=4: demon fires, page 1 purged.
  EXPECT_EQ(policy.DebugBlock(1), nullptr);
}

TEST(LruKTest, PinnedPagesAreNotVictims) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.SetEvictable(1, false);
  EXPECT_EQ(policy.EvictableCount(), 1u);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::nullopt);
  policy.SetEvictable(1, true);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

TEST(LruKTest, RemoveErasesHistory) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);
  policy.Remove(1);
  EXPECT_FALSE(policy.IsResident(1));
  EXPECT_EQ(policy.HistorySize(), 0u);
  EXPECT_EQ(policy.DebugBlock(1), nullptr);
}

TEST(LruKTest, CountsStayConsistent) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  EXPECT_EQ(policy.ResidentCount(), 3u);
  EXPECT_EQ(policy.EvictableCount(), 3u);
  policy.SetEvictable(2, false);
  EXPECT_EQ(policy.EvictableCount(), 2u);
  policy.Evict();
  EXPECT_EQ(policy.ResidentCount(), 2u);
  EXPECT_EQ(policy.EvictableCount(), 1u);
  policy.Remove(2);
  EXPECT_EQ(policy.ResidentCount(), 1u);
  EXPECT_EQ(policy.EvictableCount(), 1u);
}

TEST(LruKTest, CurrentTimeCountsAllReferences) {
  LruKPolicy policy(Opts(2, /*crp=*/5));
  policy.Admit(1, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);  // Correlated, still a tick.
  policy.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(policy.CurrentTime(), 3u);
}

TEST(LruKTest, EvictDoesNotTickClock) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Evict();
  EXPECT_EQ(policy.CurrentTime(), 1u);
}

TEST(LruKTest, K1BehavesAsClassicalLruOnBasicSequence) {
  LruKPolicy policy(Opts(1));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

// A page idle for longer than the RIP while resident keeps its history
// (only non-resident blocks expire), so a rolled-back eviction must hand
// it back exactly: same HIST/LAST, same backward K-distance, same next
// victim as a twin that was never evicted.
TEST(LruKTest, RestoreReinstatesHistoryIdlePastTheRip) {
  LruKOptions options = Opts(2, 0, /*rip=*/4);
  options.purge_interval = 0;
  LruKPolicy policy(options);
  LruKPolicy twin(options);
  for (LruKPolicy* p : {&policy, &twin}) {
    p->Admit(1, AccessType::kRead);         // t=1
    p->RecordAccess(1, AccessType::kRead);  // t=2: HIST(1)={2,1}
    p->Admit(2, AccessType::kRead);         // t=3
    p->Admit(3, AccessType::kRead);         // t=4
    for (int i = 0; i < 5; ++i) {           // t=5..14
      p->RecordAccess(2, AccessType::kRead);
      p->RecordAccess(3, AccessType::kRead);
    }
  }
  ASSERT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(13));

  // Page 1 has idled 12 > RIP ticks; the eviction fails and is undone.
  ASSERT_EQ(policy.Evict(), std::optional<PageId>(1));
  policy.Restore(1);
  const HistoryBlock* restored = policy.DebugBlock(1);
  const HistoryBlock* kept = twin.DebugBlock(1);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->hist[0], kept->hist[0]);
  EXPECT_EQ(restored->hist[1], kept->hist[1]);
  EXPECT_EQ(restored->last, kept->last);
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(13));
  EXPECT_EQ(policy.CurrentTime(), twin.CurrentTime());

  // HIST(1,2) = 2 is still the oldest second reference, so both pick 1.
  policy.RecordAccess(1, AccessType::kRead);  // t=15
  twin.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(twin.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

// Restore's other half: a block the non-resident budget dropped is gone,
// so the page restarts fresh (HIST(p,1) = LAST = now, infinite backward
// distance) without a clock tick, while a block still retained comes back
// as it was. An eviction's retention settles at the policy's next
// Evict/Admit, so the drop comes from settled evictions: a write-behind
// victim whose write fails after later admissions meets it this way.
TEST(LruKTest, RestoreRestartsFreshOnceTheBudgetDroppedTheBlock) {
  LruKOptions options = Opts(2);
  options.max_nonresident_history = 1;
  LruKPolicy policy(options);
  for (PageId p = 1; p <= 4; ++p) {
    policy.Admit(p, AccessType::kRead);         // t=2p-1
    policy.RecordAccess(p, AccessType::kRead);  // t=2p: HIST(p)={2p,2p-1}
    if (p == 3) {
      ASSERT_EQ(policy.Evict(), std::optional<PageId>(1));
    }
  }
  // Page 1's retention settled at Admit(4); it is within the budget.
  ASSERT_NE(policy.DebugBlock(1), nullptr);
  ASSERT_EQ(policy.NonResidentHistorySize(), 1u);
  ASSERT_EQ(policy.Evict(), std::optional<PageId>(2));
  policy.Admit(5, AccessType::kRead);  // t=9: settles page 2's retention.
  // Two history-only blocks over a budget of one: page 1's (older LAST)
  // was dropped.
  ASSERT_EQ(policy.DebugBlock(1), nullptr);
  ASSERT_EQ(policy.NonResidentHistorySize(), 1u);

  policy.Restore(2);
  const HistoryBlock* kept = policy.DebugBlock(2);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->hist[0], 4u);
  EXPECT_EQ(kept->hist[1], 3u);
  EXPECT_EQ(kept->last, 4u);

  policy.Restore(1);
  const HistoryBlock* fresh = policy.DebugBlock(1);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->hist[0], 9u);
  EXPECT_EQ(fresh->hist[1], 0u);
  EXPECT_EQ(fresh->last, 9u);
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
  EXPECT_EQ(policy.CurrentTime(), 9u);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);
  EXPECT_EQ(policy.ResidentCount(), 5u);

  // Infinite distance goes first (page 1 before page 5 on the page-id
  // tie-break: both have HIST(p,1) = 9), then the retained histories in
  // order.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(5));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(4));
}

// Likewise for a block the RIP demon purged between the Evict and the
// Restore, as when a write-behind write fails after later references. An
// expired block the demon has not reached yet is still in the table, so
// it comes back as it was.
TEST(LruKTest, RestoreRestartsFreshOnceTheDemonPurgedTheBlock) {
  LruKOptions options = Opts(2, 0, /*rip=*/4);
  options.purge_interval = 0;
  LruKPolicy purged(options);
  LruKPolicy unpurged(options);
  for (LruKPolicy* p : {&purged, &unpurged}) {
    p->Admit(1, AccessType::kRead);         // t=1: HIST(1)={1,0}
    p->Admit(2, AccessType::kRead);         // t=2
    p->RecordAccess(2, AccessType::kRead);  // t=3
    p->Admit(3, AccessType::kRead);         // t=4
    p->RecordAccess(3, AccessType::kRead);  // t=5
    ASSERT_EQ(p->Evict(), std::optional<PageId>(1));
    for (int i = 0; i < 3; ++i) {           // t=6..11
      p->RecordAccess(2, AccessType::kRead);
      p->RecordAccess(3, AccessType::kRead);
    }
  }
  // Page 1 has been idle 10 > RIP ticks out of the buffer.
  EXPECT_EQ(purged.PurgeHistory(), 1u);
  ASSERT_EQ(purged.DebugBlock(1), nullptr);

  purged.Restore(1);
  const HistoryBlock* fresh = purged.DebugBlock(1);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->hist[0], 11u);
  EXPECT_EQ(fresh->hist[1], 0u);
  EXPECT_EQ(fresh->last, 11u);
  EXPECT_EQ(purged.CurrentTime(), 11u);
  EXPECT_EQ(purged.ResidentCount(), 3u);

  unpurged.Restore(1);
  const HistoryBlock* kept = unpurged.DebugBlock(1);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->hist[0], 1u);
  EXPECT_EQ(kept->last, 1u);

  // Both are infinite-distance pages against finite ones, so both go
  // first whichever block they hold.
  EXPECT_EQ(purged.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(unpurged.Evict(), std::optional<PageId>(1));
}

// --- Lazy victim heap (DESIGN.md "Victim search") ---

TEST(LruKLazyHeapTest, HitsAddNoHeapEntries) {
  // The whole point of the lazy heap: a hit rewrites the history block and
  // touches nothing else. One entry per admitted page, zero growth across
  // an arbitrary number of re-references.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  EXPECT_EQ(policy.VictimHeapSize(), 2u);
  for (int i = 0; i < 1000; ++i) {
    policy.RecordAccess(1, AccessType::kRead);
    policy.RecordAccess(2, AccessType::kRead);
  }
  EXPECT_EQ(policy.VictimHeapSize(), 2u);
}

TEST(LruKLazyHeapTest, PinUnpinChurnDoesNotGrowHeapUnbounded) {
  // SetEvictable(true) re-pushes only when the page has no live heap entry
  // (in_victim_heap); a pin/unpin loop must not mint one entry per cycle.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  for (int i = 0; i < 1000; ++i) {
    policy.SetEvictable(1, false);
    policy.SetEvictable(1, true);
  }
  EXPECT_EQ(policy.VictimHeapSize(), 2u);
}

TEST(LruKLazyHeapTest, StaleEntriesStillYieldTheTrueMinimum) {
  // Reference pattern chosen so the heap's stored keys are stale for every
  // page at eviction time; the pop-and-rekey protocol must still surface
  // the true minimum (page 2: its second reference is oldest).
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);       // t=1
  policy.Admit(2, AccessType::kRead);       // t=2
  policy.Admit(3, AccessType::kRead);       // t=3
  policy.RecordAccess(2, AccessType::kRead);  // t=4: HIST(2)={4,2}
  policy.RecordAccess(1, AccessType::kRead);  // t=5: HIST(1)={5,1}
  policy.RecordAccess(3, AccessType::kRead);  // t=6: HIST(3)={6,3}
  policy.RecordAccess(1, AccessType::kRead);  // t=7: HIST(1)={7,5}
  policy.RecordAccess(3, AccessType::kRead);  // t=8: HIST(3)={8,6}
  // Backward-2 keys: 1 -> 5, 2 -> 2, 3 -> 6; minimum is page 2.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
}

TEST(LruKLazyHeapTest, FallbackIgnoresCrp) {
  // Every page inside its CRP: the heap's fallback must pick the best key
  // regardless of eligibility and count the event.
  LruKOptions options = Opts(2, /*crp=*/1000);
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.fallback_evictions(), 1u);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.fallback_evictions(), 2u);
}

TEST(LruKLazyHeapTest, RemoveAndReadmitKeepsHeapConsistent) {
  // Remove leaves a dangling heap entry (reaped lazily); re-admission must
  // push a fresh entry and eviction must still work.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Remove(1);
  policy.Admit(1, AccessType::kRead);  // New history, fresh heap entry.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::nullopt);
}

// ---------------------------------------------------------------------------
// EvictBatch exactness. One EvictBatch(k) call must nominate exactly the
// sequence k sequential Evict() calls would return, and restoring unused
// nominees must leave the policy as if they had never been nominated
// (deferred retention, no history churn). Run over three configurations:
// plain LRU-2; LRU-3 with a CRP, so the pages referenced last are
// ineligible and the batch ends on the fallback path; and LRU-2 with a RIP
// shorter than the nominees' idle time, which Restore must not treat as
// expiry.

// Mixed-distance state: 12 residents, skewed re-references so backward
// K-distances differ, two pinned pages mid-range, and one infinite-
// distance straggler re-referenced late.
void DriveBatchTrace(LruKPolicy& p) {
  for (PageId q = 1; q <= 12; ++q) p.Admit(q, AccessType::kRead);
  for (int lap = 0; lap < 3; ++lap) {
    for (PageId q = 1; q <= 6; ++q) {
      if ((q + lap) % 2 == 0) p.RecordAccess(q, AccessType::kRead);
    }
  }
  p.RecordAccess(9, AccessType::kRead);
  p.SetEvictable(4, false);
  p.SetEvictable(10, false);
}

class LruKEvictBatchTest : public ::testing::TestWithParam<LruKOptions> {};

TEST_P(LruKEvictBatchTest, MatchesSequentialEvictsExactly) {
  LruKPolicy sequential(GetParam());
  LruKPolicy batched(GetParam());
  DriveBatchTrace(sequential);
  DriveBatchTrace(batched);

  std::vector<PageId> expected;
  while (auto v = sequential.Evict()) expected.push_back(*v);
  ASSERT_EQ(expected.size(), 10u);  // 12 resident, 2 pinned.

  std::vector<PageId> batch;
  EXPECT_EQ(batched.EvictBatch(4, &batch), 4u);  // A prefix...
  std::vector<PageId> rest;
  EXPECT_EQ(batched.EvictBatch(64, &rest), 6u);  // ...then a short tail.
  batch.insert(batch.end(), rest.begin(), rest.end());
  EXPECT_EQ(batch, expected);
  EXPECT_EQ(batched.fallback_evictions(), sequential.fallback_evictions());
  if (GetParam().correlated_reference_period != 0) {
    EXPECT_GT(sequential.fallback_evictions(), 0u);
  }
}

TEST_P(LruKEvictBatchTest, RestoredNomineesAreAsIfNeverNominated) {
  LruKPolicy policy(GetParam());
  DriveBatchTrace(policy);
  const size_t residents = policy.ResidentCount();

  std::vector<PageId> first;
  ASSERT_EQ(policy.EvictBatch(5, &first), 5u);
  for (size_t i = first.size(); i-- > 0;) policy.Restore(first[i]);
  EXPECT_EQ(policy.ResidentCount(), residents);

  // Nominating again yields the exact same sequence: no clock tick
  // happened, and every Restore reattached the retained history block
  // instead of re-admitting fresh.
  std::vector<PageId> second;
  ASSERT_EQ(policy.EvictBatch(5, &second), 5u);
  EXPECT_EQ(second, first);
}

TEST_P(LruKEvictBatchTest, ConsumedMidSequenceMatchesEvictRestore) {
  // Batched caller: nominate 3, consume the middle nominee, hand the
  // other two back in reverse nomination order. Reference caller: two
  // sequential Evicts to reach the same victim, then Restore the skipped
  // first nominee. Both policies must agree on every later eviction.
  LruKPolicy batched(GetParam());
  LruKPolicy reference(GetParam());
  DriveBatchTrace(batched);
  DriveBatchTrace(reference);

  std::vector<PageId> nominees;
  ASSERT_EQ(batched.EvictBatch(3, &nominees), 3u);
  batched.Restore(nominees[2]);
  batched.Restore(nominees[0]);

  ASSERT_EQ(reference.Evict(), std::optional<PageId>(nominees[0]));
  ASSERT_EQ(reference.Evict(), std::optional<PageId>(nominees[1]));
  reference.Restore(nominees[0]);

  EXPECT_EQ(batched.ResidentCount(), reference.ResidentCount());
  while (true) {
    auto a = batched.Evict();
    auto b = reference.Evict();
    EXPECT_EQ(a, b);
    if (!a.has_value() || !b.has_value()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LruKEvictBatchTest,
    ::testing::Values(Opts(2), Opts(3, /*crp=*/5), Opts(2, 0, /*rip=*/4)),
    [](const auto& info) {
      const LruKOptions& o = info.param;
      std::string name = "K" + std::to_string(o.k);
      if (o.correlated_reference_period != 0) {
        name += "Crp" + std::to_string(o.correlated_reference_period);
      }
      if (o.retained_information_period != kInfinitePeriod) {
        name += "Rip" + std::to_string(o.retained_information_period);
      }
      return name;
    });

}  // namespace
}  // namespace lruk

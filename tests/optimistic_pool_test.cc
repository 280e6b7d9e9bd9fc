// The optimistic hit path (BufferPoolOptions::optimistic_hits),
// deterministic half (the threaded half lives in
// optimistic_concurrency_test.cc).
//
// Coverage layers:
//  * PageTable units — insert/find/erase round-trips against a reference
//    map under heavy id reuse (backward-shift clusters), version growth,
//    LockBucket forcing optimistic readers to fall back, UnlockErased
//    removing the mapping, OptimisticFind/Validate agreeing with the
//    latched surface when nothing is mutating.
//  * Differential battery — with optimistic_hits ON, both pools produce
//    BYTE-IDENTICAL single-threaded behaviour to the latched path over the
//    same 20k-op mixed workload async_io_test.cc uses: same counters, same
//    victim sequence, same IoStats, same residency, same disk images —
//    with the inline dispatcher off and on, and with the auto-bumped
//    default batch_capacity.
//  * Zero-mutex hit — a warm optimistic fetch/unpin pair acquires the pool
//    latch ZERO times, asserted via the latch_acquires counter.
//  * Readahead interaction — readahead and the optimistic fast path
//    compose on both pool shapes (the voting detector's Observe is
//    wait-free), staying byte-identical to the latched pool with the
//    same detector; a non-triggering warm hit stays at zero latches.
//  * StatsSnapshot — the lock-free snapshot equals the draining stats()
//    when the pool is quiescent.
//  * Error paths — optimistic UnpinPage/DeletePage report the same status
//    codes as the latched pool (NotFound, InvalidArgument), pinned pages
//    are never victims (pin counts as ground truth), ResourceExhausted
//    when every frame is pinned, and id reuse after delete works.

#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_table.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using difftest::AllocateDb;
using difftest::DiffScenarioConfig;
using difftest::DiffScenarioResult;
using difftest::ExpectPoolStatsEq;
using difftest::ExpectScenarioEq;
using difftest::RunDiffScenario;

// ---------------------------------------------------------------------------
// PageTable units.

TEST(OptimisticPageTableTest, InsertFindEraseRoundTrip) {
  PageTable table(16);
  EXPECT_GE(table.bucket_count(), 32u);  // Load factor <= 1/2.
  EXPECT_EQ(table.size(), 0u);

  for (PageId p = 0; p < 16; ++p) table.Insert(p, static_cast<FrameId>(p * 7));
  EXPECT_EQ(table.size(), 16u);
  for (PageId p = 0; p < 16; ++p) {
    FrameId frame = kInvalidFrameId;
    ASSERT_TRUE(table.Find(p, &frame));
    EXPECT_EQ(frame, static_cast<FrameId>(p * 7));
    EXPECT_TRUE(table.contains(p));
  }
  FrameId frame = kInvalidFrameId;
  EXPECT_FALSE(table.Find(99, &frame));
  EXPECT_FALSE(table.contains(99));

  for (PageId p = 0; p < 16; p += 2) table.Erase(p);
  EXPECT_EQ(table.size(), 8u);
  for (PageId p = 0; p < 16; ++p) {
    EXPECT_EQ(table.contains(p), p % 2 == 1) << "page " << p;
  }
}

// Backward-shift deletion against a reference map: a small table under
// heavy id reuse keeps probe clusters dense, so erases constantly relocate
// entries. Every surviving mapping must stay findable — by the latched
// probe AND by the optimistic one (single-threaded, a stable table must
// always yield consistent snapshots that validate).
TEST(OptimisticPageTableTest, BackwardShiftChurnMatchesReferenceMap) {
  constexpr size_t kCapacity = 12;
  PageTable table(kCapacity);
  std::unordered_map<PageId, FrameId> reference;
  RandomEngine rng(/*seed=*/20260809);

  for (int step = 0; step < 4000; ++step) {
    bool insert = reference.size() < kCapacity &&
                  (reference.empty() || rng.NextBernoulli(0.5));
    if (insert) {
      PageId p = rng.NextBounded(64);  // Narrow id range: reuse + clustering.
      if (reference.contains(p)) continue;
      FrameId frame = static_cast<FrameId>(rng.NextBounded(kCapacity));
      table.Insert(p, frame);
      reference[p] = frame;
    } else {
      size_t skip = rng.NextBounded(reference.size());
      auto it = reference.begin();
      std::advance(it, skip);
      table.Erase(it->first);
      reference.erase(it);
    }
    ASSERT_EQ(table.size(), reference.size());
    for (const auto& [p, frame] : reference) {
      FrameId found = kInvalidFrameId;
      ASSERT_TRUE(table.Find(p, &found)) << "page " << p;
      ASSERT_EQ(found, frame);
      PageTable::Snapshot snap;
      ASSERT_TRUE(table.OptimisticFind(p, &snap)) << "page " << p;
      ASSERT_EQ(snap.frame, frame);
      ASSERT_TRUE(table.Validate(snap));
      ASSERT_EQ(snap.version % 2, 0u);  // Stable buckets are always even.
    }
  }
}

TEST(OptimisticPageTableTest, LockBucketForcesOptimisticFallback) {
  PageTable table(8);
  table.Insert(5, 3);
  PageTable::Snapshot before;
  ASSERT_TRUE(table.OptimisticFind(5, &before));
  EXPECT_EQ(before.frame, 3u);

  size_t bucket = table.LockBucket(5);
  EXPECT_EQ(bucket, before.bucket);
  // Locked (odd) bucket: no optimistic reader may claim a hit, and a pin
  // taken against the old snapshot must fail validation.
  PageTable::Snapshot during;
  EXPECT_FALSE(table.OptimisticFind(5, &during));
  EXPECT_FALSE(table.Validate(before));

  table.UnlockUnchanged(bucket);
  // Mapping intact, but the version moved on: old snapshots stay dead.
  FrameId frame = kInvalidFrameId;
  ASSERT_TRUE(table.Find(5, &frame));
  EXPECT_EQ(frame, 3u);
  EXPECT_FALSE(table.Validate(before));
  PageTable::Snapshot after;
  ASSERT_TRUE(table.OptimisticFind(5, &after));
  EXPECT_GT(after.version, before.version);  // Versions only grow.
  EXPECT_TRUE(table.Validate(after));
}

TEST(OptimisticPageTableTest, UnlockErasedRemovesTheMapping) {
  PageTable table(8);
  for (PageId p = 0; p < 8; ++p) table.Insert(p, static_cast<FrameId>(p));
  PageTable::Snapshot snap;
  ASSERT_TRUE(table.OptimisticFind(2, &snap));

  size_t bucket = table.LockBucket(2);
  table.UnlockErased(bucket);
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.size(), 7u);
  EXPECT_FALSE(table.Validate(snap));
  // The backward shift left every other mapping findable.
  for (PageId p = 0; p < 8; ++p) {
    if (p == 2) continue;
    FrameId frame = kInvalidFrameId;
    ASSERT_TRUE(table.Find(p, &frame)) << "page " << p;
    EXPECT_EQ(frame, static_cast<FrameId>(p));
  }
}

// ---------------------------------------------------------------------------
// Differential battery: optimistic_hits vs the latched path —
// byte-identical single-threaded. Workload and scaffolding live in
// differential_harness.h (shared with async_io_test.cc and
// batched_access_test.cc); this suite runs it with batch_capacity 64 —
// the auto-bump default optimistic mode implies.

DiffScenarioResult RunScenario(DiffScenarioConfig config) {
  if (config.batch_capacity == 0) config.batch_capacity = 64;
  return RunDiffScenario(config);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathPlainPool) {
  DiffScenarioResult latched = RunScenario({.optimistic = false});
  DiffScenarioResult optimistic = RunScenario({.optimistic = true});
  ExpectScenarioEq(latched, optimistic);
  // The fast path actually ran (warm hits dominate a skewed workload) and
  // never misfired: single-threaded, nothing invalidates a probe
  // mid-flight, so every fallback is an honest probe miss (the page was
  // simply absent) — never a version conflict or a displacement-bound
  // overflow — and the attribution split is exact.
  EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
  EXPECT_EQ(optimistic.stats.optimistic_fallbacks, optimistic.stats.misses);
  EXPECT_EQ(optimistic.stats.fallback_probe_miss, optimistic.stats.misses);
  EXPECT_EQ(optimistic.stats.fallback_version_conflict, 0u);
  EXPECT_EQ(optimistic.stats.fallback_resize, 0u);
  EXPECT_EQ(optimistic.stats.optimistic_fallbacks,
            optimistic.stats.fallback_probe_miss +
                optimistic.stats.fallback_version_conflict +
                optimistic.stats.fallback_resize);
  EXPECT_EQ(optimistic.stats.access_drops, 0u);
  EXPECT_EQ(optimistic.stats.pin_cas_retries, 0u);
  EXPECT_EQ(latched.stats.optimistic_hits, 0u);
  EXPECT_EQ(latched.stats.access_drops, 0u);
  // Latch-free hits show up as the acquisition gap between the modes.
  EXPECT_LT(optimistic.stats.latch_acquires, latched.stats.latch_acquires);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathShardedPool) {
  DiffScenarioResult latched = RunScenario({.sharded = true, .optimistic = false});
  DiffScenarioResult optimistic =
      RunScenario({.sharded = true, .optimistic = true});
  ExpectScenarioEq(latched, optimistic);
  EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathUnderAsyncStack) {
  // Inline dispatcher: misses run through IoDispatcher::Run and the
  // per-page tracker, with the latch released across the read.
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "plain");
    DiffScenarioResult latched = RunScenario(
        {.sharded = sharded, .optimistic = false, .dispatcher = true});
    DiffScenarioResult optimistic = RunScenario(
        {.sharded = sharded, .optimistic = true, .dispatcher = true});
    ExpectScenarioEq(latched, optimistic);
    EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
  }
}

TEST(OptimisticDifferentialTest, DefaultBatchAutoBumpMatchesExplicit) {
  // optimistic_hits with batch_capacity left 0 implies batch_capacity 64
  // (a latch-free hit can only publish through the AccessBuffer).
  DiffScenarioResult defaulted =
      RunDiffScenario({.batch_capacity = 0, .optimistic = true});
  DiffScenarioResult explicit_batch =
      RunDiffScenario({.batch_capacity = 64, .optimistic = true});
  ExpectScenarioEq(defaulted, explicit_batch);

  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  EXPECT_EQ(pool.options().batch_capacity, 64u);
}

TEST(OptimisticDifferentialTest, ReadaheadComposesAndStaysIdentical) {
  // Readahead + optimistic_hits COMPOSE on both pool shapes: the voting
  // detector's Observe is wait-free, so warm hits stay latch-free while
  // the detector watches the full fetch stream — and the combined pool is
  // still byte-identical to the latched pool with the same detector.
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "plain");
    DiffScenarioResult latched = RunScenario(
        {.sharded = sharded, .optimistic = false, .readahead = true});
    DiffScenarioResult optimistic = RunScenario(
        {.sharded = sharded, .optimistic = true, .readahead = true});
    ExpectScenarioEq(latched, optimistic);
    EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
    EXPECT_GT(optimistic.stats.prefetch_issued, 0u);
    EXPECT_EQ(optimistic.stats.access_drops, 0u);
  }
}

TEST(OptimisticDifferentialTest, TinyRingRefusalPathStaysIdentical) {
  // batch_capacity 1: nearly every publish lands on the ring-full refusal
  // path (drain under the latch + apply directly). The FIFO contract must
  // hold across the refusals — byte-identical again — and single-threaded
  // nothing is ever dropped, even with zero capacity headroom.
  DiffScenarioResult latched =
      RunScenario({.batch_capacity = 1, .optimistic = false});
  DiffScenarioResult optimistic =
      RunScenario({.batch_capacity = 1, .optimistic = true});
  ExpectScenarioEq(latched, optimistic);
  EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
  EXPECT_EQ(optimistic.stats.access_drops, 0u);
  EXPECT_EQ(latched.stats.access_drops, 0u);
}

// ---------------------------------------------------------------------------
// The zero-mutex hit: the acceptance criterion of the optimistic path.

TEST(OptimisticHitPathTest, WarmHitAcquiresNoLatch) {
  constexpr size_t kPages = 64;
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  // Room for every record this loop publishes, so no drain is triggered.
  options.batch_capacity = 256;
  BufferPool pool(128, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, kPages);

  // Everything resident (capacity > kPages): from here on, every fetch is
  // a warm hit and every unpin balances a latch-free pin.
  BufferPoolStats before = pool.StatsSnapshot();
  for (PageId p : pages) {
    auto page = pool.FetchPage(p, AccessType::kRead);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->id(), p);
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  BufferPoolStats after = pool.StatsSnapshot();

  // ZERO pool-latch acquisitions across 64 fetch/unpin pairs.
  EXPECT_EQ(after.latch_acquires, before.latch_acquires);
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kPages);
  EXPECT_EQ(after.hits - before.hits, kPages);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.optimistic_fallbacks, before.optimistic_fallbacks);

  // The buffered references land in the policy at the next drain point.
  (void)pool.stats();
  EXPECT_EQ(pool.policy().ResidentCount(), kPages);
}

TEST(OptimisticHitPathTest, WarmHitStaysLatchFreeWithReadaheadOn) {
  // The detector no longer forces warm hits onto the latched path: its
  // Observe is wait-free, so a hit that triggers nothing touches no
  // mutex. A single hot page re-referenced in a loop (diff 0 never votes)
  // is the detector's cheapest case — and must stay at zero latches.
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  options.batch_capacity = 256;
  options.io_dispatcher = true;  // Inline workers.
  options.readahead = {.enabled = true, .window = 4, .min_run = 3};
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, 8);

  constexpr uint64_t kLoops = 64;
  BufferPoolStats before = pool.StatsSnapshot();
  for (uint64_t i = 0; i < kLoops; ++i) {
    auto page = pool.FetchPage(pages[0], AccessType::kRead);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  }
  BufferPoolStats after = pool.StatsSnapshot();

  EXPECT_EQ(after.latch_acquires, before.latch_acquires);
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kLoops);
  EXPECT_EQ(after.prefetch_issued, before.prefetch_issued);
  EXPECT_EQ(after.optimistic_fallbacks, before.optimistic_fallbacks);
}

TEST(OptimisticHitPathTest, StatsSnapshotMatchesStatsWhenQuiescent) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, 48);
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(/*seed=*/11);
  for (int i = 0; i < 2000; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(0.25);
    auto page =
        pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(p, write).ok());
  }

  // Quiescent pool: the lock-free snapshot and the draining stats() agree
  // on every counter. stats() itself takes the latch once, which is the
  // only drift the proxy counter may show.
  BufferPoolStats snap = pool.StatsSnapshot();
  BufferPoolStats full = pool.stats();
  ExpectPoolStatsEq(snap, full);
  EXPECT_EQ(snap.optimistic_hits, full.optimistic_hits);
  EXPECT_EQ(snap.optimistic_fallbacks, full.optimistic_fallbacks);
  EXPECT_EQ(snap.pin_cas_retries, full.pin_cas_retries);
  EXPECT_EQ(full.latch_acquires, snap.latch_acquires + 1);
  EXPECT_GT(snap.optimistic_hits, 0u);
}

// ---------------------------------------------------------------------------
// Error paths and the pin protocol.

TEST(OptimisticHitPathTest, UnpinErrorsMatchLatchedCodes) {
  SimDiskManager latched_disk;
  SimDiskManager optimistic_disk;
  BufferPoolOptions optimistic_options;
  optimistic_options.optimistic_hits = true;
  BufferPool latched(4, &latched_disk,
                     std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  BufferPool optimistic(4, &optimistic_disk,
                        std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                        optimistic_options);

  for (BufferPool* pool : {&latched, &optimistic}) {
    std::vector<PageId> pages = AllocateDb(*pool, 2);
    // Non-resident page: NotFound through both paths.
    EXPECT_EQ(pool->UnpinPage(999, false).code(), StatusCode::kNotFound);
    // Resident but unpinned: InvalidArgument through both paths (the
    // optimistic probe sees pin == 0 and defers to the latched path for
    // the authoritative error).
    EXPECT_EQ(pool->UnpinPage(pages[0], false).code(),
              StatusCode::kInvalidArgument);
    // Balanced unpin still works afterwards.
    auto page = pool->FetchPage(pages[0]);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE(pool->UnpinPage(pages[0], false).ok());
  }
}

TEST(OptimisticHitPathTest, PinCountsAreEvictionGroundTruth) {
  // In optimistic mode SetEvictable is never used — AcquireFrame trusts
  // the atomic pin counts. Pinned pages must survive eviction pressure
  // and exhaust the pool exactly like the latched mode.
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, 8);

  std::vector<Page*> pinned;
  for (size_t i = 0; i < 4; ++i) {
    auto page = pool.FetchPage(pages[i]);
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
  }
  // Every frame pinned: the next distinct fetch finds no victim.
  auto exhausted = pool.FetchPage(pages[7]);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  // The pinned pages were untouched by the failed eviction hunt.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.IsResident(pages[i]));
    EXPECT_EQ(pinned[i]->pin_count(), 1);
  }
  // Releasing one pin re-enables eviction.
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  auto fetched = pool.FetchPage(pages[7]);
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.UnpinPage(pages[7], false).ok());
  for (size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(pool.UnpinPage(pages[i], false).ok());
  }
}

TEST(OptimisticHitPathTest, DeleteRefusesPinnedAndReusesIds) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, 4);

  auto page = pool.FetchPage(pages[0]);
  ASSERT_TRUE(page.ok());
  // Pinned: the bucket-locked delete sees pin > 0 and refuses.
  EXPECT_EQ(pool.DeletePage(pages[0]).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());

  // Unpinned: the delete lands, the frame returns to the free list, and
  // the allocator hands the id out again.
  ASSERT_TRUE(pool.DeletePage(pages[0]).ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  EXPECT_EQ(pool.DeletePage(pages[0]).code(), StatusCode::kNotFound);
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->id(), pages[0]);
  EXPECT_TRUE(pool.UnpinPage((*fresh)->id(), true).ok());
}

}  // namespace
}  // namespace lruk

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
//    in inline mode, with worker-mode write-behind, and through the
//    publish ring's full-stripe path.
//  * Zero-mutex hit — a warm optimistic fetch/unpin pair acquires the pool
//    latch ZERO times, asserted via the latch_acquires counter. Only such
//    hits publish through the ring: a latched pool has none and applies
//    each hit's reference before FetchPage returns.
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
using difftest::RecordingPolicy;
using difftest::RunDiffScenario;
using difftest::kDiffDbPages;

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
// differential_harness.h (shared with async_io_test.cc).

TEST(OptimisticDifferentialTest, MatchesLatchedPathPlainPool) {
  DiffScenarioResult latched = RunDiffScenario({.optimistic = false});
  DiffScenarioResult optimistic = RunDiffScenario({.optimistic = true});
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
  // Closed-form clock: every reference was applied exactly once — one
  // tick per fetch, per initial NewPage admission, and per delete/new
  // cycle's replacement admission — except the correlated re-fixes, which
  // never reach the policy. The skewed stream repeats pages back to back,
  // so there are some.
  EXPECT_GT(latched.stats.correlated_refs, 0u);
  EXPECT_EQ(latched.clocks[0] + latched.stats.correlated_refs,
            latched.stats.hits + latched.stats.misses + kDiffDbPages +
                static_cast<uint64_t>(latched.delete_cycles));
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathShardedPool) {
  DiffScenarioResult latched =
      RunDiffScenario({.sharded = true, .optimistic = false});
  DiffScenarioResult optimistic =
      RunDiffScenario({.sharded = true, .optimistic = true});
  ExpectScenarioEq(latched, optimistic);
  EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathUnderWriteBehind) {
  // Worker-mode dispatcher with write-behind, driven by one thread: the
  // pool's policy calls stay sequential, so everything matches except
  // which dirty victims the Flush lane wrote and which (lane full) the
  // evicting thread wrote itself.
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "plain");
    DiffScenarioConfig config{.sharded = sharded, .io_workers = 2};
    DiffScenarioResult latched = RunDiffScenario(config);
    config.optimistic = true;
    DiffScenarioResult optimistic = RunDiffScenario(config);
    EXPECT_EQ(latched.evictions, optimistic.evictions);
    EXPECT_EQ(latched.residency, optimistic.residency);
    EXPECT_EQ(latched.images, optimistic.images);
    EXPECT_EQ(latched.clocks, optimistic.clocks);
    EXPECT_EQ(latched.stats.hits, optimistic.stats.hits);
    EXPECT_EQ(latched.stats.misses, optimistic.stats.misses);
    EXPECT_EQ(latched.stats.evictions, optimistic.stats.evictions);
    EXPECT_EQ(latched.stats.correlated_refs, optimistic.stats.correlated_refs);
    EXPECT_EQ(
        latched.stats.dirty_writebacks + latched.stats.writebehind_writes,
        optimistic.stats.dirty_writebacks +
            optimistic.stats.writebehind_writes);
    EXPECT_EQ(latched.io.reads, optimistic.io.reads);
    EXPECT_EQ(latched.io.writes, optimistic.io.writes);
    EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
    EXPECT_GT(optimistic.stats.writebehind_writes, 0u);
    EXPECT_EQ(optimistic.stats.access_drops, 0u);
  }
}

TEST(OptimisticDifferentialTest, ReadaheadComposesAndStaysIdentical) {
  // Readahead + optimistic_hits COMPOSE on both pool shapes: the voting
  // detector's Observe is wait-free, so warm hits stay latch-free while
  // the detector watches the full fetch stream — and the combined pool is
  // still byte-identical to the latched pool with the same detector.
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "plain");
    DiffScenarioResult latched = RunDiffScenario(
        {.sharded = sharded, .optimistic = false, .readahead = true});
    DiffScenarioResult optimistic = RunDiffScenario(
        {.sharded = sharded, .optimistic = true, .readahead = true});
    ExpectScenarioEq(latched, optimistic);
    EXPECT_GT(optimistic.stats.optimistic_hits, 0u);
    EXPECT_GT(optimistic.stats.prefetch_issued, 0u);
    EXPECT_EQ(optimistic.stats.access_drops, 0u);
  }
}

TEST(OptimisticDifferentialTest, RingFullPathStaysIdentical) {
  // Alternating hits on two resident pages with no miss, hence no drain,
  // in between: the thread's 64-record stripe fills and every 65th
  // publish takes the ring-full path (drain, then apply under the latch).
  // Ending on such a publish makes its reference the policy's newest. The
  // FIFO contract must hold across the path: the policy's clock, backward
  // K-distances and next victims end exactly where the latched pool's do.
  constexpr uint64_t kHits = 3 * 65;
  struct Side {
    explicit Side(bool optimistic) {
      auto policy = std::make_unique<RecordingPolicy>(
          std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
      recorder = policy.get();
      pool = std::make_unique<BufferPool>(
          8, &disk, std::move(policy),
          BufferPoolOptions{.optimistic_hits = optimistic});
      pages = AllocateDb(*pool, 8);
    }
    const LruKPolicy& Lruk() const {
      return static_cast<const LruKPolicy&>(recorder->inner());
    }
    SimDiskManager disk;
    RecordingPolicy* recorder = nullptr;
    std::unique_ptr<BufferPool> pool;
    std::vector<PageId> pages;
  };
  Side latched(false);
  Side optimistic(true);
  BufferPoolStats before = optimistic.pool->StatsSnapshot();
  for (Side* side : {&latched, &optimistic}) {
    for (uint64_t i = 0; i < kHits; ++i) {
      PageId p = side->pages[i & 1];
      ASSERT_TRUE(side->pool->FetchPage(p).ok());
      ASSERT_TRUE(side->pool->UnpinPage(p, false).ok());
    }
  }
  BufferPoolStats after = optimistic.pool->StatsSnapshot();
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kHits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(optimistic.pool->access_buffer_stats().full_pushes, 0u);
  EXPECT_EQ(optimistic.pool->stats().access_drops, 0u);  // Drains.
  EXPECT_EQ(optimistic.Lruk().CurrentTime(), latched.Lruk().CurrentTime());
  ASSERT_EQ(optimistic.pages, latched.pages);
  for (PageId p : latched.pages) {
    EXPECT_EQ(optimistic.Lruk().BackwardKDistance(p),
              latched.Lruk().BackwardKDistance(p))
        << "page " << p;
  }

  // The next victims: admissions that evict every page but the two hot
  // ones, then some of the fresh pages themselves.
  for (Side* side : {&latched, &optimistic}) {
    AllocateDb(*side->pool, 8);
  }
  EXPECT_EQ(optimistic.recorder->evictions(), latched.recorder->evictions());
  EXPECT_EQ(optimistic.recorder->evictions().size(), 8u);
  EXPECT_EQ(optimistic.Lruk().CurrentTime(), latched.Lruk().CurrentTime());
}

// ---------------------------------------------------------------------------
// The zero-mutex hit: the acceptance criterion of the optimistic path.

TEST(OptimisticHitPathTest, WarmHitAcquiresNoLatch) {
  constexpr size_t kPages = 64;
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = true;
  BufferPool pool(128, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, kPages);

  // Everything resident (capacity > kPages): from here on, every fetch is
  // a warm hit and every unpin balances a latch-free pin. The loop
  // publishes kPages records, exactly one ring stripe's 64, so no drain
  // is triggered.
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
  options.readahead = true;
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

TEST(OptimisticHitPathTest, OnlyLatchFreeHitsPublishThroughTheRing) {
  // A pool holds the publish ring exactly when optimistic_hits is set. A
  // latched hit applies its reference under the latch before FetchPage
  // returns, so the policy clock ticks once per hit; a latch-free hit
  // leaves its reference in the ring until the next drain.
  constexpr uint64_t kHits = 10;
  for (bool optimistic : {false, true}) {
    SCOPED_TRACE(optimistic ? "optimistic" : "latched");
    SimDiskManager disk;
    auto policy = std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
    const LruKPolicy* lruk = policy.get();
    BufferPool pool(8, &disk, std::move(policy),
                    BufferPoolOptions{.optimistic_hits = optimistic});
    std::vector<PageId> pages = AllocateDb(pool, 2);
    BufferPoolStats before = pool.stats();  // Drains.
    const Timestamp start = lruk->CurrentTime();
    for (uint64_t i = 0; i < kHits; ++i) {
      PageId p = pages[i & 1];  // Alternate: no correlated re-fix.
      ASSERT_TRUE(pool.FetchPage(p).ok());
      ASSERT_TRUE(pool.UnpinPage(p, false).ok());
      EXPECT_EQ(lruk->CurrentTime(), optimistic ? start : start + i + 1)
          << "hit " << i;
    }
    BufferPoolStats after = pool.stats();  // Drains.
    EXPECT_EQ(after.hits - before.hits, kHits);
    EXPECT_EQ(after.optimistic_hits - before.optimistic_hits,
              optimistic ? kHits : 0u);
    EXPECT_EQ(lruk->CurrentTime(), start + kHits);
    EXPECT_EQ(after.access_drops, 0u);
    AccessBufferStats ring = pool.access_buffer_stats();
    EXPECT_EQ(ring.drained_records, optimistic ? kHits : 0u);
    EXPECT_EQ(ring.drains > 0, optimistic);  // A latched pool has no ring.
  }
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

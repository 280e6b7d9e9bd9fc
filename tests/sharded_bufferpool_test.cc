// ShardedBufferPool tests.
//
// The anchor is a differential test: with a single shard the sharded pool
// routes every page to one unmodified BufferPool, so on any deterministic
// trace it must produce byte-for-byte identical hit/miss/eviction/
// write-back counters to a standalone BufferPool — the sharding layer adds
// routing, never behaviour. Multi-shard runs then check the invariants
// that survive partitioning: resident count bounded by capacity, stats
// summing across shards, pinned pages never evicted, FlushAll leaving no
// dirty residents, and the hit-counting semantics matching BufferPool's
// (re-pins of already-pinned pages count as hits).

#include <memory>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_guard.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

constexpr uint64_t kDbPages = 192;
constexpr size_t kCapacity = 48;
constexpr int kTraceLen = 30000;

ShardPolicyFactory LruK2Factory() {
  auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
  EXPECT_TRUE(factory.ok());
  return *factory;
}

// One step of the deterministic trace applied to any pool: mostly fetch/
// unpin (20% writes), occasional explicit flushes. Returns false on an
// unexpected failure.
template <typename Pool>
void DriveTrace(Pool& pool, const std::vector<PageId>& pages, uint64_t seed) {
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(seed);
  for (int i = 0; i < kTraceLen; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(0.2);
    auto page = pool.FetchPage(
        p, write ? AccessType::kWrite : AccessType::kRead);
    ASSERT_TRUE(page.ok()) << i;
    ASSERT_TRUE(pool.UnpinPage(p, false).ok()) << i;
    if (i % 997 == 0) {
      ASSERT_TRUE(pool.FlushPage(p).ok()) << i;
    }
  }
}

using difftest::AllocateDb;

TEST(ShardedDifferentialTest, OneShardMatchesBufferPoolExactly) {
  SimDiskManager flat_disk;
  BufferPool flat(kCapacity, &flat_disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));

  SimDiskManager sharded_disk;
  ShardedBufferPool sharded(kCapacity, /*num_shards=*/1, &sharded_disk,
                            LruK2Factory());
  ASSERT_EQ(sharded.shard_count(), 1u);
  ASSERT_EQ(sharded.shard(0).capacity(), kCapacity);

  std::vector<PageId> flat_pages = AllocateDb(flat, kDbPages);
  std::vector<PageId> sharded_pages = AllocateDb(sharded, kDbPages);
  ASSERT_EQ(flat_pages, sharded_pages);  // Same allocator, same ids.

  DriveTrace(flat, flat_pages, /*seed=*/20260806);
  DriveTrace(sharded, sharded_pages, /*seed=*/20260806);

  BufferPoolStats a = flat.stats();
  BufferPoolStats b = sharded.stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
  EXPECT_GT(a.hits, 0u);
  EXPECT_GT(a.evictions, 0u);

  // Same resident set, not just same counters.
  EXPECT_EQ(flat.ResidentCount(), sharded.ResidentCount());
  for (PageId p : flat_pages) {
    EXPECT_EQ(flat.IsResident(p), sharded.IsResident(p)) << "page " << p;
  }
}

TEST(ShardedBufferPoolTest, FramesPartitionWithRemainderHandling) {
  SimDiskManager disk;
  // 37 frames over 8 shards: 5,5,5,5,5,4,4,4.
  ShardedBufferPool pool(37, 8, &disk, LruK2Factory());
  size_t total = 0;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    size_t c = pool.shard(i).capacity();
    EXPECT_EQ(c, i < 5 ? 5u : 4u) << "shard " << i;
    total += c;
  }
  EXPECT_EQ(total, 37u);
  EXPECT_EQ(pool.capacity(), 37u);
}

TEST(ShardedBufferPoolTest, RoutingIsStableAndConsistent) {
  SimDiskManager disk;
  ShardedBufferPool pool(32, 4, &disk, LruK2Factory());
  std::vector<PageId> pages = AllocateDb(pool, 64);
  for (PageId p : pages) {
    size_t s = pool.ShardOf(p);
    ASSERT_LT(s, pool.shard_count());
    EXPECT_EQ(pool.ShardOf(p), s);  // Pure function of the id.
    EXPECT_EQ(pool.IsResident(p), pool.shard(s).IsResident(p));
    for (size_t other = 0; other < pool.shard_count(); ++other) {
      if (other != s) {
        EXPECT_FALSE(pool.shard(other).IsResident(p));
      }
    }
  }
}

TEST(ShardedBufferPoolTest, MultiShardInvariantsUnderZipfianTraffic) {
  SimDiskManager disk;
  ShardedBufferPool pool(kCapacity, 4, &disk, LruK2Factory());
  std::vector<PageId> pages = AllocateDb(pool, kDbPages);

  // Pin a handful of pages for the whole run; their payloads must survive
  // any amount of eviction pressure around them.
  std::vector<PageId> pinned(pages.begin(), pages.begin() + 8);
  for (PageId p : pinned) {
    auto page = pool.FetchPage(p, AccessType::kWrite);
    ASSERT_TRUE(page.ok());
    *(*page)->As<PageId>() = p ^ 0xABCDEF;
  }

  DriveTrace(pool, pages, /*seed=*/99);

  // Resident count never exceeds capacity (checked at the end and per
  // shard, whose pools enforce it structurally).
  EXPECT_LE(pool.ResidentCount(), pool.capacity());
  size_t resident_sum = 0;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    EXPECT_LE(pool.shard(i).ResidentCount(), pool.shard(i).capacity());
    resident_sum += pool.shard(i).ResidentCount();
  }
  EXPECT_EQ(resident_sum, pool.ResidentCount());

  // Aggregate stats are exactly the per-shard sum, and every shard saw
  // traffic (the id mix spreads a Zipfian head across shards).
  BufferPoolStats sum;
  for (const BufferPoolStats& s : pool.ShardStats()) {
    EXPECT_GT(s.hits + s.misses, 0u);
    sum += s;
  }
  BufferPoolStats aggregate = pool.stats();
  EXPECT_EQ(sum.hits, aggregate.hits);
  EXPECT_EQ(sum.misses, aggregate.misses);
  EXPECT_EQ(sum.evictions, aggregate.evictions);
  EXPECT_EQ(sum.dirty_writebacks, aggregate.dirty_writebacks);

  // Pinned pages were never evicted and kept their payloads.
  for (PageId p : pinned) {
    ASSERT_TRUE(pool.IsResident(p));
    auto page = pool.FetchPage(p);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->pin_count(), 2);  // Original pin + this fetch.
    EXPECT_EQ(*(*page)->As<PageId>(), p ^ 0xABCDEF);
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
    ASSERT_TRUE(pool.UnpinPage(p, true).ok());  // Drop the long-lived pin.
  }

  // FlushAll leaves no dirty resident page in any shard.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId p : pages) {
    if (!pool.IsResident(p)) continue;
    auto page = pool.FetchPage(p);  // kRead: does not re-dirty.
    ASSERT_TRUE(page.ok());
    EXPECT_FALSE((*page)->is_dirty()) << "page " << p;
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
}

TEST(ShardedBufferPoolTest, RePinningAPinnedPageCountsAsAHitLikeBufferPool) {
  // The documented BufferPoolStats semantics: every fetch of a resident
  // page is a hit, pinned or not. The sharded pool must count identically.
  SimDiskManager disk;
  ShardedBufferPool pool(8, 2, &disk, LruK2Factory());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  EXPECT_EQ(pool.stats().hits, 0u);   // NewPage counts neither.
  EXPECT_EQ(pool.stats().misses, 0u);

  auto repin = pool.FetchPage(p);     // Still pinned by NewPage.
  ASSERT_TRUE(repin.ok());
  EXPECT_EQ((*repin)->pin_count(), 2);
  auto repin2 = pool.FetchPage(p);
  ASSERT_TRUE(repin2.ok());
  EXPECT_EQ((*repin2)->pin_count(), 3);

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 1.0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST(ShardedBufferPoolTest, DeletePageFreesTheFrameAndTheDiskPage) {
  SimDiskManager disk;
  ShardedBufferPool pool(8, 2, &disk, LruK2Factory());
  std::vector<PageId> pages = AllocateDb(pool, 4);
  EXPECT_EQ(disk.NumAllocatedPages(), 4u);

  // Pinned pages cannot be deleted.
  auto held = pool.FetchPage(pages[0]);
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(pool.DeletePage(pages[0]).ok());
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());

  ASSERT_TRUE(pool.DeletePage(pages[0]).ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  EXPECT_EQ(disk.NumAllocatedPages(), 3u);
  EXPECT_FALSE(pool.FetchPage(pages[0]).ok());  // Gone from disk too.
}

TEST(ShardedBufferPoolTest, PageGuardWorksOverTheSharedInterface) {
  SimDiskManager disk;
  ShardedBufferPool pool(8, 2, &disk, LruK2Factory());
  PageId p;
  {
    auto guard = PageGuard::New(pool);
    ASSERT_TRUE(guard.ok());
    p = guard->id();
    *guard->AsMut<uint64_t>() = 7777;
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    auto guard = PageGuard::Fetch(pool, p);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(*guard->As<uint64_t>(), 7777u);
  }
  auto check = pool.FetchPage(p);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ((*check)->pin_count(), 1);  // Guards balanced their pins.
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST(ShardedBufferPoolTest, ResourceExhaustedWhenOwningShardFullyPinned) {
  SimDiskManager disk;
  ShardedBufferPool pool(4, 2, &disk, LruK2Factory());
  // Allocate until one shard is fully pinned, keeping everything pinned.
  std::vector<PageId> held;
  Status failure = Status::Ok();
  for (int i = 0; i < 64; ++i) {
    auto page = pool.NewPage();
    if (!page.ok()) {
      failure = page.status();
      break;
    }
    held.push_back((*page)->id());
  }
  EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted);
  // The documented weakening: the pool as a whole may still have free
  // frames — only the owning shard matters.
  EXPECT_LE(held.size(), pool.capacity());
  for (PageId p : held) ASSERT_TRUE(pool.UnpinPage(p, true).ok());
}

}  // namespace
}  // namespace lruk

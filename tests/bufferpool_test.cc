#include "bufferpool/buffer_pool.h"

#include <barrier>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bufferpool/page_guard.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"

namespace lruk {
namespace {

std::unique_ptr<ReplacementPolicy> MakeLru() {
  return std::make_unique<LruPolicy>();
}

TEST(BufferPoolTest, NewPageIsPinnedZeroedAndDirty) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->pin_count(), 1);
  EXPECT_TRUE((*page)->is_dirty());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ((*page)->Data()[i], 0);
  ASSERT_TRUE(pool.UnpinPage((*page)->id(), false).ok());
}

TEST(BufferPoolTest, DataRoundTripsThroughEviction) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  std::strcpy((*page)->Data(), "hello buffer pool");
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());

  // Evict p by filling the pool with other pages.
  for (int i = 0; i < 2; ++i) {
    auto filler = pool.NewPage();
    ASSERT_TRUE(filler.ok());
    ASSERT_TRUE(pool.UnpinPage((*filler)->id(), false).ok());
  }
  EXPECT_FALSE(pool.IsResident(p));

  // Fetch back from disk: content must have been written back.
  auto again = pool.FetchPage(p);
  ASSERT_TRUE(again.ok());
  EXPECT_STREQ((*again)->Data(), "hello buffer pool");
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
}

TEST(BufferPoolTest, FetchCountsHitsAndMisses) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());

  ASSERT_TRUE(pool.FetchPage(p).ok());  // Hit.
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, RePinningAPinnedPageCountsAsAHit) {
  // The documented BufferPoolStats semantics: every FetchPage of a
  // resident page is a hit, even when the page is already pinned — hits
  // count fetches that avoided disk I/O, not pin-count 0->1 transitions.
  // NewPage counts neither a hit nor a miss. ShardedBufferPool asserts
  // the same semantics in its own suite.
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 0u);

  auto repin = pool.FetchPage(p);  // Still pinned by NewPage.
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

TEST(BufferPoolTest, AllFramesPinnedExhaustsPool) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto a = pool.NewPage();
  auto b = pool.NewPage();
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = pool.NewPage();  // No evictable frame.
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing one pin frees a frame again.
  ASSERT_TRUE(pool.UnpinPage((*a)->id(), false).ok());
  auto d = pool.NewPage();
  EXPECT_TRUE(d.ok());
  ASSERT_TRUE(pool.UnpinPage((*b)->id(), false).ok());
  ASSERT_TRUE(pool.UnpinPage((*d)->id(), false).ok());
}

TEST(BufferPoolTest, PinCountNestsAcrossFetches) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  auto again = pool.FetchPage(p);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*page, *again);  // Same frame.
  EXPECT_EQ((*page)->pin_count(), 2);
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ((*page)->pin_count(), 1);
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ((*page)->pin_count(), 0);
  EXPECT_FALSE(pool.UnpinPage(p, false).ok());  // Over-unpin rejected.
}

TEST(BufferPoolTest, WriteAccessMarksDirty) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  ASSERT_TRUE(pool.FlushPage(p).ok());

  auto w = pool.FetchPage(p, AccessType::kWrite);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE((*w)->is_dirty());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST(BufferPoolTest, FlushClearsDirtyAndWritesThrough) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  std::strcpy((*page)->Data(), "flushed");
  ASSERT_TRUE(pool.FlushPage(p).ok());
  EXPECT_FALSE((*page)->is_dirty());
  char buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage(p, buf).ok());
  EXPECT_STREQ(buf, "flushed");
  EXPECT_EQ(disk.stats().writes, 1u);
  ASSERT_TRUE(pool.FlushPage(p).ok());  // Clean now: nothing to write.
  EXPECT_EQ(disk.stats().writes, 1u);
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST(BufferPoolTest, FlushAllWritesEveryDirtyPage) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru());
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->Data()[0] = static_cast<char>('a' + i);
    ids.push_back((*page)->id());
    ASSERT_TRUE(pool.UnpinPage(ids.back(), true).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  for (int i = 0; i < 3; ++i) {
    char buf[kPageSize];
    ASSERT_TRUE(disk.ReadPage(ids[i], buf).ok());
    EXPECT_EQ(buf[0], static_cast<char>('a' + i));
  }
}

TEST(BufferPoolTest, DeletePageRemovesEverywhere) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  EXPECT_FALSE(pool.DeletePage(p).ok());  // Still pinned.
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  ASSERT_TRUE(pool.DeletePage(p).ok());
  EXPECT_FALSE(pool.IsResident(p));
  EXPECT_FALSE(pool.FetchPage(p).ok());  // Deallocated on disk too.
}

TEST(BufferPoolTest, DeleteNonResidentPageStillDeallocates) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId p = (*page)->id();
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  // Push p out of the pool.
  for (int i = 0; i < 2; ++i) {
    auto filler = pool.NewPage();
    ASSERT_TRUE(filler.ok());
    ASSERT_TRUE(pool.UnpinPage((*filler)->id(), false).ok());
  }
  ASSERT_FALSE(pool.IsResident(p));
  ASSERT_TRUE(pool.DeletePage(p).ok());
  EXPECT_FALSE(pool.FetchPage(p).ok());
}

TEST(BufferPoolTest, LruKPolicyDrivesEviction) {
  // With LRU-2 driving the pool, a once-referenced page is evicted before
  // a twice-referenced one even if the latter is older.
  SimDiskManager disk;
  BufferPool pool(2, &disk, std::make_unique<LruKPolicy>(LruKOptions{}));
  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  ASSERT_TRUE(pool.UnpinPage(pa, false).ok());
  // A back-to-back re-fix of a would be one correlated reference, so fix
  // a filler page in between, then delete it to free its frame.
  auto x = pool.NewPage();
  ASSERT_TRUE(x.ok());
  PageId px = (*x)->id();
  ASSERT_TRUE(pool.UnpinPage(px, false).ok());
  ASSERT_TRUE(pool.FetchPage(pa).ok());  // Second reference to a.
  ASSERT_TRUE(pool.UnpinPage(pa, false).ok());
  ASSERT_TRUE(pool.DeletePage(px).ok());

  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  PageId pb = (*b)->id();
  ASSERT_TRUE(pool.UnpinPage(pb, false).ok());

  auto c = pool.NewPage();  // Must evict pb (one ref), not pa (two refs).
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(pool.IsResident(pa));
  EXPECT_FALSE(pool.IsResident(pb));
  ASSERT_TRUE(pool.UnpinPage((*c)->id(), false).ok());
}

TEST(PageGuardTest, UnpinsOnDestruction) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  PageId p;
  {
    auto guard = PageGuard::New(pool);
    ASSERT_TRUE(guard.ok());
    p = guard->id();
    std::strcpy(guard->MutableData(), "guarded");
  }
  // Guard released: page unpinned and dirty.
  auto page = pool.FetchPage(p);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->pin_count(), 1);
  EXPECT_STREQ((*page)->Data(), "guarded");
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST(PageGuardTest, MoveTransfersOwnership) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  auto guard = PageGuard::New(pool);
  ASSERT_TRUE(guard.ok());
  PageId p = guard->id();
  PageGuard moved = std::move(*guard);
  EXPECT_FALSE(guard->valid());
  EXPECT_TRUE(moved.valid());
  moved.Release();
  auto page = pool.FetchPage(p);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->pin_count(), 1);  // Exactly one pin: no double unpin.
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

// Flushes a new page p of a 2-frame LRU pool, runs `touch` on a fresh read
// guard of p, then evicts p with two new pages and stores in `*writes` the
// device writes that followed the flush. The first new page takes the free
// frame and the second evicts p, so every write counted is a write of p.
void CountWritesOfPAfterTouch(const std::function<void(PageGuard&)>& touch,
                              uint64_t* writes) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru());
  PageId p;
  {
    auto guard = PageGuard::New(pool);
    ASSERT_TRUE(guard.ok());
    p = guard->id();
  }
  ASSERT_TRUE(pool.FlushPage(p).ok());
  uint64_t writes_before = disk.stats().writes;
  {
    auto guard = PageGuard::Fetch(pool, p);
    ASSERT_TRUE(guard.ok());
    touch(*guard);
  }
  for (int i = 0; i < 2; ++i) {
    auto filler = pool.NewPage();
    ASSERT_TRUE(filler.ok());
    ASSERT_TRUE(pool.UnpinPage((*filler)->id(), false).ok());
  }
  ASSERT_FALSE(pool.IsResident(p));
  ASSERT_EQ(pool.stats().evictions, 1u);
  *writes = disk.stats().writes - writes_before;
  EXPECT_EQ(pool.stats().dirty_writebacks, *writes);
}

TEST(PageGuardTest, ConstAccessStaysClean) {
  uint64_t writes = 0;
  // Reads through a const or a non-const guard never dirty the page.
  ASSERT_NO_FATAL_FAILURE(CountWritesOfPAfterTouch(
      [](PageGuard& guard) {
        const PageGuard& const_ref = guard;
        (void)const_ref.Data();
        (void)const_ref.As<uint64_t>();
        (void)guard.Data();
        (void)guard.As<uint64_t>();
      },
      &writes));
  EXPECT_EQ(writes, 0u);
  // The mutable views do, so the eviction writes p back.
  ASSERT_NO_FATAL_FAILURE(CountWritesOfPAfterTouch(
      [](PageGuard& guard) { guard.MutableData()[0] = 'm'; }, &writes));
  EXPECT_EQ(writes, 1u);
  ASSERT_NO_FATAL_FAILURE(CountWritesOfPAfterTouch(
      [](PageGuard& guard) { *guard.AsMut<uint64_t>() = 7; }, &writes));
  EXPECT_EQ(writes, 1u);
}

// ---------------------------------------------------------------------------
// Correlated re-fixes: a thread's FetchPage of the page its previous fix on
// the same pool named is one reference (the paper's §2.1.1), not two.

std::unique_ptr<ReplacementPolicy> MakeLru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

const LruKPolicy& LruKOf(BufferPool& pool) {
  return static_cast<const LruKPolicy&>(pool.policy());
}

PageId NewUnpinned(PoolInterface& pool) {
  auto page = pool.NewPage();
  EXPECT_TRUE(page.ok());
  if (!page.ok()) return kInvalidPageId;
  PageId p = (*page)->id();
  EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  return p;
}

void FixAndUnpin(PoolInterface& pool, PageId p) {
  ASSERT_TRUE(pool.FetchPage(p).ok()) << "page " << p;
  ASSERT_TRUE(pool.UnpinPage(p, false).ok()) << "page " << p;
}

TEST(CorrelatedRefixTest, BackToBackFetchIsOneReference) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru2());
  PageId p = NewUnpinned(pool);
  (void)NewUnpinned(pool);  // The thread's previous fix is now q, not p.
  ASSERT_TRUE(pool.FlushAll().ok());  // Clean, so the kWrite below shows.
  pool.ResetStats();
  const Timestamp t0 = LruKOf(pool).CurrentTime();

  FixAndUnpin(pool, p);
  const HistoryBlock before = *LruKOf(pool).DebugBlock(p);
  // The re-fix still pins (and, as kWrite, dirties) exactly as a hit does.
  auto again = pool.FetchPage(p, AccessType::kWrite);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->pin_count(), 1);
  EXPECT_TRUE((*again)->is_dirty());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.correlated_refs, 1u);
  EXPECT_EQ(LruKOf(pool).CurrentTime() - t0, 1u);  // One policy reference.
  // The collapsed re-fix ticked no clock and left HIST/LAST untouched.
  const HistoryBlock* after = LruKOf(pool).DebugBlock(p);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->last, before.last);
  EXPECT_EQ(after->hist[0], before.hist[0]);
  EXPECT_EQ(after->hist[1], before.hist[1]);
}

TEST(CorrelatedRefixTest, InterleavedFetchStaysIndependent) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru2());
  PageId p = NewUnpinned(pool);
  PageId q = NewUnpinned(pool);
  pool.ResetStats();
  const Timestamp t0 = LruKOf(pool).CurrentTime();
  FixAndUnpin(pool, p);
  FixAndUnpin(pool, q);
  FixAndUnpin(pool, p);  // An A-B-A interleaving: three references.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.correlated_refs, 0u);
  EXPECT_EQ(LruKOf(pool).CurrentTime() - t0, 3u);
}

TEST(CorrelatedRefixTest, OtherThreadsFixesStayIndependent) {
  // Two clients take barrier-ordered turns so the pool's fetch stream is
  // p(A) p(B) a(A) b(B), repeated: p arrives back to back, but never
  // twice in a row from the same thread, so nothing collapses.
  constexpr int kRounds = 50;
  SimDiskManager disk;
  BufferPool pool(8, &disk, MakeLru2());
  PageId p = NewUnpinned(pool);
  PageId own[2] = {NewUnpinned(pool), NewUnpinned(pool)};
  pool.ResetStats();
  const Timestamp t0 = LruKOf(pool).CurrentTime();

  std::barrier turn(2);
  auto client = [&](int me) {
    for (int round = 0; round < kRounds; ++round) {
      for (int step = 0; step < 4; ++step) {
        if (step % 2 == me) FixAndUnpin(pool, step < 2 ? p : own[me]);
        turn.arrive_and_wait();
      }
    }
  };
  std::thread a(client, 0);
  std::thread b(client, 1);
  a.join();
  b.join();

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 4u * kRounds);
  EXPECT_EQ(stats.correlated_refs, 0u);
  EXPECT_EQ(LruKOf(pool).CurrentTime() - t0, 4u * kRounds);
}

TEST(CorrelatedRefixTest, RefixThatMissesIsAdmitted) {
  // Another thread evicts p between this thread's two fixes of it: the
  // re-fix misses and is admitted like any miss.
  SimDiskManager disk;
  BufferPool pool(2, &disk, MakeLru2());
  PageId p = NewUnpinned(pool);
  std::thread([&] {
    (void)NewUnpinned(pool);
    (void)NewUnpinned(pool);
  }).join();
  ASSERT_FALSE(pool.IsResident(p));
  pool.ResetStats();
  const Timestamp t0 = LruKOf(pool).CurrentTime();
  FixAndUnpin(pool, p);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.correlated_refs, 0u);
  EXPECT_EQ(LruKOf(pool).CurrentTime() - t0, 1u);
  EXPECT_TRUE(pool.IsResident(p));
}

TEST(CorrelatedRefixTest, ShardedPoolJudgesThePreviousFixAcrossShards) {
  SimDiskManager disk;
  auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
  ASSERT_TRUE(factory.ok());
  ShardedBufferPool pool(16, /*num_shards=*/4, &disk, *factory);
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(NewUnpinned(pool));
  PageId p = pages[0];
  PageId q = kInvalidPageId;
  for (PageId candidate : pages) {
    if (pool.ShardOf(candidate) != pool.ShardOf(p)) q = candidate;
  }
  ASSERT_NE(q, kInvalidPageId) << "no two shards among 8 pages";
  auto clock_sum = [&] {
    (void)pool.stats();  // Drain, so the clocks are current.
    Timestamp sum = 0;
    for (size_t i = 0; i < pool.shard_count(); ++i) {
      sum += LruKOf(pool.shard(i)).CurrentTime();
    }
    return sum;
  };

  // p,q,p with q on another shard: q's fix separates the two fixes of p
  // even though p's shard never saw it. (The thread's previous fix was
  // the last page allocated, pages[7] != p.)
  pool.ResetStats();
  Timestamp t0 = clock_sum();
  FixAndUnpin(pool, p);
  FixAndUnpin(pool, q);
  FixAndUnpin(pool, p);
  EXPECT_EQ(pool.stats().correlated_refs, 0u);
  EXPECT_EQ(clock_sum() - t0, 3u);

  // ...while p,p collapses on the owning shard.
  t0 = clock_sum();
  FixAndUnpin(pool, p);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.correlated_refs, 1u);
  EXPECT_EQ(pool.shard(pool.ShardOf(p)).stats().correlated_refs, 1u);
  EXPECT_EQ(clock_sum() - t0, 0u);
}

TEST(CorrelatedRefixTest, OptimisticHitPublishesNoReference) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, MakeLru2(),
                  BufferPoolOptions{.optimistic_hits = true});
  PageId p = NewUnpinned(pool);
  (void)NewUnpinned(pool);
  pool.ResetStats();
  const Timestamp t0 = LruKOf(pool).CurrentTime();
  const uint64_t pushed_before = pool.access_buffer_stats().drained_records;
  FixAndUnpin(pool, p);
  FixAndUnpin(pool, p);
  BufferPoolStats stats = pool.stats();  // Drains the access buffer.
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.optimistic_hits, 2u);  // Both latch-free.
  EXPECT_EQ(stats.correlated_refs, 1u);
  EXPECT_EQ(pool.access_buffer_stats().drained_records - pushed_before, 1u);
  EXPECT_EQ(LruKOf(pool).CurrentTime() - t0, 1u);
}

}  // namespace
}  // namespace lruk

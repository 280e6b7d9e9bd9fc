#include "bufferpool/buffer_pool.h"

#include <algorithm>
#include <barrier>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
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

// ---------------------------------------------------------------------------
// Pins under every policy. The pool never tells the policy of a pin: the
// frames' pin counts are the ground truth, so a policy may nominate a
// pinned page, which the pool skips and hands back with Restore. Restore
// is exact only for LRU-K (the others re-admit the page), so these cases
// check what must hold under any policy: no pinned page is ever evicted,
// and a fetch that finds every frame pinned fails with RESOURCE_EXHAUSTED
// and leaves every page resident and fetchable.

class PolicyPinTest : public ::testing::TestWithParam<const char*> {
 protected:
  static constexpr size_t kFrames = 4;

  std::unique_ptr<BufferPool> MakePool(SimDiskManager* disk) const {
    auto config = ParsePolicySpec(GetParam());
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    auto factory = MakeShardPolicyFactory(*config);
    EXPECT_TRUE(factory.ok()) << factory.status().ToString();
    return std::make_unique<BufferPool>(kFrames, disk,
                                        (*factory)(0, kFrames));
  }

  // Fetches every page of `pinned` once more (a hit on the same frame,
  // pinned twice now) and drops that extra pin: each is resident in the
  // pool and the policy, and fetchable.
  static void ExpectResidentAndFetchable(BufferPool& pool,
                                         const std::vector<Page*>& pinned) {
    for (Page* page : pinned) {
      const PageId p = page->id();
      EXPECT_TRUE(pool.IsResident(p)) << "page " << p;
      EXPECT_TRUE(pool.policy().IsResident(p)) << "page " << p;
      auto again = pool.FetchPage(p);
      ASSERT_TRUE(again.ok()) << "page " << p;
      EXPECT_EQ(*again, page);
      EXPECT_EQ(page->pin_count(), 2);
      ASSERT_TRUE(pool.UnpinPage(p, false).ok());
    }
  }
};

TEST_P(PolicyPinTest, AllFramesPinnedExhaustsPool) {
  SimDiskManager disk;
  auto pool = MakePool(&disk);
  std::vector<Page*> pinned;
  for (size_t i = 0; i < kFrames; ++i) {
    auto page = pool->NewPage();
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
  }
  auto on_disk = disk.AllocatePage();
  ASSERT_TRUE(on_disk.ok());
  // No evictable frame: every nominee is pinned, skipped and restored,
  // on each of several attempts.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto fresh = pool->NewPage();
    ASSERT_FALSE(fresh.ok());
    EXPECT_EQ(fresh.status().code(), StatusCode::kResourceExhausted);
    auto fetched = pool->FetchPage(*on_disk);
    ASSERT_FALSE(fetched.ok());
    EXPECT_EQ(fetched.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(pool->ResidentCount(), kFrames);
  EXPECT_EQ(pool->policy().ResidentCount(), kFrames);
  EXPECT_EQ(pool->stats().evictions, 0u);
  ExpectResidentAndFetchable(*pool, pinned);

  // Releasing one pin frees its frame, and only it.
  const PageId released = pinned.front()->id();
  ASSERT_TRUE(pool->UnpinPage(released, false).ok());
  pinned.erase(pinned.begin());
  auto fetched = pool->FetchPage(*on_disk);
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE(pool->IsResident(released));
  ExpectResidentAndFetchable(*pool, pinned);
  ASSERT_TRUE(pool->UnpinPage(*on_disk, false).ok());
  for (Page* page : pinned) {
    ASSERT_TRUE(pool->UnpinPage(page->id(), false).ok());
  }
}

TEST_P(PolicyPinTest, PinnedFirstRankedPageIsNeverEvicted) {
  // Four resident pages with a mixed history; the last fix of `hold` keeps
  // its pin. Unpins never reach the policy, so a twin pool driven through
  // the same calls with every pin released names the page this policy
  // ranks first: the one its next miss evicts.
  constexpr size_t kRefs[] = {0, 1, 2, 1, 3, 0, 2, 3, 1, 0};
  auto set_up = [&](BufferPool& pool, PageId hold) {
    std::vector<PageId> pages;
    for (size_t i = 0; i < kFrames; ++i) {
      auto page = pool.NewPage();
      EXPECT_TRUE(page.ok());
      pages.push_back((*page)->id());
      EXPECT_TRUE(pool.UnpinPage(pages.back(), true).ok());
    }
    for (size_t r = 0; r < std::size(kRefs); ++r) {
      const PageId p = pages[kRefs[r]];
      EXPECT_TRUE(pool.FetchPage(p).ok());
      const bool last_fix = std::find(std::begin(kRefs) + r + 1,
                                      std::end(kRefs),
                                      kRefs[r]) == std::end(kRefs);
      if (!(last_fix && p == hold)) {
        EXPECT_TRUE(pool.UnpinPage(p, false).ok());
      }
    }
    return pages;
  };
  SimDiskManager twin_disk;
  auto twin = MakePool(&twin_disk);
  const std::vector<PageId> twin_pages = set_up(*twin, kInvalidPageId);
  auto fresh = twin->NewPage();
  ASSERT_TRUE(fresh.ok());
  PageId first = kInvalidPageId;
  for (PageId p : twin_pages) {
    if (!twin->IsResident(p)) first = p;
  }
  ASSERT_NE(first, kInvalidPageId);

  SimDiskManager disk;
  auto pool = MakePool(&disk);
  const std::vector<PageId> pages = set_up(*pool, first);
  ASSERT_EQ(pages, twin_pages);  // The same ids, so `first` names a page.
  ASSERT_TRUE(pool->IsResident(first));
  // Misses on pages never seen: each evicts an unpinned page, never the
  // pinned first-ranked one.
  std::vector<PageId> misses;
  for (int i = 0; i < 8; ++i) {
    auto p = disk.AllocatePage();
    ASSERT_TRUE(p.ok());
    misses.push_back(*p);
    ASSERT_TRUE(pool->FetchPage(*p).ok()) << "miss " << i;
    ASSERT_TRUE(pool->UnpinPage(*p, false).ok());
    ASSERT_TRUE(pool->IsResident(first)) << "after miss " << i;
  }
  EXPECT_EQ(pool->stats().evictions, 8u);

  // Pin every other resident page too: a miss now finds no victim.
  // (`first` keeps the one pin it has.)
  std::vector<Page*> pinned;
  for (PageId p : pages) {
    if (!pool->IsResident(p)) continue;
    auto page = pool->FetchPage(p);
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
    if (p == first) {
      ASSERT_TRUE(pool->UnpinPage(p, false).ok());
    }
  }
  for (PageId p : misses) {
    if (!pool->IsResident(p)) continue;
    auto page = pool->FetchPage(p);
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
  }
  ASSERT_EQ(pinned.size(), kFrames);
  auto never_seen = disk.AllocatePage();
  ASSERT_TRUE(never_seen.ok());
  auto exhausted = pool->FetchPage(*never_seen);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool->stats().evictions, 8u);
  ExpectResidentAndFetchable(*pool, pinned);
  for (Page* page : pinned) {
    ASSERT_TRUE(pool->UnpinPage(page->id(), false).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyPinTest,
                         ::testing::Values("LRU", "FIFO", "MRU", "LFU",
                                           "CLOCK", "2Q", "ARC", "LRU-2"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name == "2Q" ? std::string("TwoQ") : name;
                         });

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
  (void)pool.stats();  // Applies the latch-free hit's reference.
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
  BufferPool pool(4, &disk, MakeLru2());
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

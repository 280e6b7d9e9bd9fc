// Threaded half of the latch-free hit-path battery (the deterministic
// half lives in optimistic_pool_test.cc), on default pools, whose hits
// and unpins all take that path. Runs under TSan/ASan in CI's sanitizer
// matrix (test names match the 'Optimistic' ctest regex) — these are the
// tests that prove the seqlock/pin handshake, not just exercise it: TSan
// sees every optimistic probe, speculative pin and bucket-version dance.
//
// Coverage:
//  * Hot-page hammer — 8 threads fetch/unpin ONE page in a tight loop:
//    the worst case for the old design (every hit serialized on the pool
//    latch) and the best case for this one (all CAS traffic on one pin
//    count). Bytes stay readable throughout; every fetch resolves.
//  * Mixed churn, full stack — 8 threads of skewed read/write traffic
//    over a pool with a worker-mode dispatcher and
//    write-behind: evictions, victim-image copies and latch-free hits
//    race continuously; frame accounting balances after quiesce.
//  * Delete/reuse churn — concurrent DeletePage + NewPage cycles recycle
//    page ids under live latch-free readers: the eviction/delete bucket
//    handshake (version odd before the pin check) is what keeps a reader
//    from validating a pin on a reused frame.
//  * Sharded churn — shards sharing one worker-mode
//    dispatcher: latch-free hits race the shards' worker reads and
//    write-behind; frame accounting balances after quiesce.

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

constexpr int kThreads = 8;

using difftest::AllocateDb;

// ---------------------------------------------------------------------------
// Hot-page hammer: maximal contention on one pin count.

TEST(OptimisticConcurrencyTest, HotPageHammerStaysCoherent) {
  SimDiskManager disk;
  BufferPool pool(8, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 8);
  PageId hot = pages[0];

  // Stamp the hot page once; readers verify the bytes on every hit (no
  // concurrent writers, so TSan-clean by the pin protocol alone).
  constexpr uint64_t kStamp = 0x0DDBA11CAFEF00DULL;
  {
    auto page = pool.FetchPage(hot, AccessType::kWrite);
    ASSERT_TRUE(page.ok());
    std::memcpy((*page)->Data(), &kStamp, sizeof(kStamp));
    ASSERT_TRUE(pool.UnpinPage(hot, true).ok());
  }

  constexpr int kOpsPerThread = 20000;
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        attempts.fetch_add(1, std::memory_order_relaxed);
        auto page = pool.FetchPage(hot, AccessType::kRead);
        ASSERT_TRUE(page.ok());
        uint64_t got;
        std::memcpy(&got, (*page)->Data(), sizeof(got));
        if (got != kStamp) mismatches.fetch_add(1, std::memory_order_relaxed);
        EXPECT_TRUE(pool.UnpinPage(hot, false).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  BufferPoolStats stats = pool.stats();
  // Every fetch resolved to exactly one hit or one miss (+1: the stamping
  // fetch; NewPage admissions count neither).
  EXPECT_EQ(stats.hits + stats.misses, attempts.load() + 1);
  // The hammer ran latch-free: nearly every op is an optimistic hit (the
  // pool never evicts here, so nothing invalidates the hot bucket).
  EXPECT_GT(stats.optimistic_hits, stats.hits / 2);

  // All pins released: a fresh fetch is the only one.
  auto page = pool.FetchPage(hot, AccessType::kRead);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->pin_count(), 1);
  EXPECT_TRUE(pool.UnpinPage(hot, false).ok());
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

// ---------------------------------------------------------------------------
// Mixed churn over the full async stack.

struct ChurnTotals {
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> failures{0};
  // Fetches refused with RESOURCE_EXHAUSTED: every frame of the owning
  // pool or shard was pinned at that moment.
  std::atomic<uint64_t> exhausted{0};
};

// Same traffic shape as async_io_concurrency_test.cc's ChurnThread: skewed
// fetches with sequential stretches, 40% writes. Each writer stamps its
// own seed-indexed 8-byte slot — the pin protocol stabilizes the frame,
// writer/writer coordination on the bytes stays the caller's job.
void ChurnThread(PoolInterface& pool, const std::vector<PageId>& pages,
                 uint64_t seed, int ops, ChurnTotals& totals) {
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(seed);
  for (int i = 0; i < ops; ++i) {
    PageId p;
    if (rng.NextBernoulli(0.2)) {
      p = pages[(static_cast<size_t>(i) * 3 + seed) % pages.size()];
    } else {
      p = pages[dist.Sample(rng) - 1];
    }
    bool write = rng.NextBernoulli(0.4);
    totals.attempts.fetch_add(1, std::memory_order_relaxed);
    auto page =
        pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    if (!page.ok()) {
      auto& counter = page.status().code() == StatusCode::kResourceExhausted
                          ? totals.exhausted
                          : totals.failures;
      counter.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (write) {
      uint64_t stamp = seed * 1000003 + static_cast<uint64_t>(i);
      std::memcpy((*page)->Data() + (seed % 64) * sizeof(stamp), &stamp,
                  sizeof(stamp));
    }
    EXPECT_TRUE(pool.UnpinPage(p, write).ok());
  }
}

TEST(OptimisticConcurrencyTest, MixedChurnKeepsPlainPoolInvariants) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.io_workers = 4;  // Worker mode: dirty victims are written behind.

  BufferPoolStats stats;
  {
    BufferPool pool(24, &disk,
                    std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                    options);
    std::vector<PageId> pages = AllocateDb(pool, 64);
    ChurnTotals totals;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ChurnThread(pool, pages, /*seed=*/400 + t, /*ops=*/3000, totals);
      });
    }
    for (auto& t : threads) t.join();

    pool.Quiesce();
    EXPECT_EQ(totals.failures.load(), 0u);  // No faults in this battery.
    // Each client pins at most one of 24 frames: a full pool means a leak.
    EXPECT_EQ(totals.exhausted.load(), 0u);
    stats = pool.stats();
    // Every fetch resolved to exactly one hit or one miss — latch-free
    // hits included (NewPage admissions count neither).
    EXPECT_EQ(stats.hits + stats.misses, totals.attempts.load());
    EXPECT_GT(stats.optimistic_hits, 0u);

    // Frame accounting balances after quiesce; all pins released.
    EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
    EXPECT_EQ(pool.PendingIoCount(), 0u);
    EXPECT_TRUE(pool.FlushAll().ok());
  }
  // Write-behind engaged against the latch-free pin/bucket handshake.
  EXPECT_GT(stats.writebehind_writes, 0u);
}

// ---------------------------------------------------------------------------
// Delete/reuse churn: page ids recycle under live latch-free readers.

TEST(OptimisticConcurrencyTest, DeleteReuseChurnUnderOptimisticReaders) {
  constexpr size_t kSlots = 48;
  constexpr int kAccessThreads = 6;
  constexpr int kDeleteThreads = 2;

  SimDiskManager disk;
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> initial = AllocateDb(pool, kSlots);
  // Readers sample slots while delete threads swap fresh ids in; a stale
  // id may be deleted (NotFound), mid-recycle, or already reincarnated by
  // the time the fetch lands — all tolerated, the invariant under test is
  // that no interleaving corrupts pins, frames or the page table.
  std::vector<std::atomic<PageId>> slots(kSlots);
  for (size_t i = 0; i < kSlots; ++i) slots[i].store(initial[i]);

  std::vector<std::thread> threads;
  threads.reserve(kAccessThreads + kDeleteThreads);
  for (int t = 0; t < kAccessThreads; ++t) {
    threads.emplace_back([&, t] {
      RandomEngine rng(/*seed=*/500 + t);
      for (int i = 0; i < 4000; ++i) {
        PageId p = slots[rng.NextBounded(kSlots)].load();
        auto page = pool.FetchPage(p, AccessType::kRead);
        if (!page.ok()) continue;  // Raced with a delete: tolerated.
        EXPECT_TRUE(pool.UnpinPage(p, false).ok());
      }
    });
  }
  // Each delete thread owns a disjoint slot range (ids may still collide
  // across threads through the allocator's free list — also tolerated).
  for (int t = 0; t < kDeleteThreads; ++t) {
    threads.emplace_back([&, t] {
      RandomEngine rng(/*seed=*/600 + t);
      size_t lo = t * (kSlots / kDeleteThreads);
      size_t hi = lo + kSlots / kDeleteThreads;
      for (int i = 0; i < 1500; ++i) {
        size_t idx = lo + rng.NextBounded(hi - lo);
        PageId p = slots[idx].load();
        Status deleted = pool.DeletePage(p);
        if (deleted.code() == StatusCode::kInvalidArgument) {
          continue;  // Pinned by a racing reader: retry another round.
        }
        // Ok, or NotFound when a free-list collision let the other delete
        // thread reap this id first; either way the slot needs a fresh id.
        auto fresh = pool.NewPage();
        ASSERT_TRUE(fresh.ok());
        slots[idx].store((*fresh)->id());
        EXPECT_TRUE(pool.UnpinPage((*fresh)->id(), true).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // Structure survived the id churn: balanced frames, no stuck pins.
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
  EXPECT_TRUE(pool.FlushAll().ok());
  for (size_t i = 0; i < kSlots; ++i) {
    PageId p = slots[i].load();
    auto page = pool.FetchPage(p, AccessType::kRead);
    ASSERT_TRUE(page.ok()) << "slot " << i;
    EXPECT_EQ((*page)->pin_count(), 1);
    EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  }
  EXPECT_GT(pool.stats().optimistic_hits, 0u);
}

// ---------------------------------------------------------------------------
// Sharded churn: shards sharing one worker-mode dispatcher.

TEST(OptimisticConcurrencyTest, ShardedChurnSharesOneWorkerDispatcher) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.io_workers = 4;

  ShardedBufferPool pool(
      32, /*num_shards=*/4, &disk,
      [](size_t, size_t) {
        return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
      },
      options);
  std::vector<PageId> pages = AllocateDb(pool, 96);
  ChurnTotals totals;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ChurnThread(pool, pages, /*seed=*/700 + t, /*ops=*/3000, totals);
    });
  }
  for (auto& t : threads) t.join();

  pool.Quiesce();
  EXPECT_EQ(totals.failures.load(), 0u);
  // totals.exhausted may be non-zero: 8 clients can pin every frame of an
  // 8-frame shard, the sharded pool's documented RESOURCE_EXHAUSTED
  // outcome (also accepted by the other concurrency tests).
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, totals.attempts.load());
  EXPECT_GT(stats.optimistic_hits, 0u);

  size_t free_frames = 0;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    BufferPool& shard = pool.shard(i);
    EXPECT_EQ(shard.PendingIoCount(), 0u);
    free_frames += shard.FreeFrameCount();
  }
  EXPECT_EQ(pool.ResidentCount() + free_frames, pool.capacity());
  EXPECT_TRUE(pool.FlushAll().ok());
}

}  // namespace
}  // namespace lruk

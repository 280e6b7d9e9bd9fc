// Threaded half of the miss-path and write-behind battery (the
// deterministic half lives in async_io_test.cc). Runs under TSan/ASan in
// CI's sanitizer matrix (test names match its ctest regex).
//
// Coverage:
//  * The default pool's clean miss — with default options (an inline
//    pool), a miss that takes a clean victim reads with the pool
//    latch released: while its read is held in the device, another
//    thread's hit and its miss of another page complete, and a second
//    miss of the same page waits on the held read instead of reading it
//    again.
//  * Request coalescing — 8 threads missing on the same page while its
//    read is parked behind a gate produce exactly ONE physical read; every
//    waiter gets the same pinned page, stats account one primary miss plus
//    seven coalesced ones.
//  * FetchPages runs — a FetchPage of a page a run is reading waits on the
//    run's read; a run that finds another thread's read of its page in
//    flight reads its own claims before it waits; runs over the same
//    pages in opposite orders, beside single fetches, never deadlock.
//  * Coalesced failure — the same setup with an injected read fault: every
//    waiter observes the same error status, no frame is leaked, nothing is
//    admitted, and the page is fetchable after Heal().
//  * Concurrency + fault churn — 8 threads of mixed traffic over both
//    pools with probabilistic read/write faults: after Heal + quiesce,
//    frame accounting balances to capacity, every fetch resolved to
//    exactly one hit or miss, all pins were released, and FlushAll
//    converges.
//  * Same-page churn — a page-id range smaller than the thread count over
//    a tiny pool forces constant coalesce/evict cycles without deadlock.
//  * Write-behind fault churn — threaded dirty-heavy traffic with
//    probabilistic write faults over a write-behind pool: failed victim
//    writes re-admit or park without losing images, frames, or counts,
//    and a restart oracle finds every client's last acknowledged write on
//    the disk itself. Fault-free, every foreground victim write is a
//    counted refusal of a full write-behind queue.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "io/io_dispatcher.h"
#include "scripted_disk.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using difftest::AllocateDb;

constexpr int kThreads = 8;

// ---------------------------------------------------------------------------
// The default pool's clean miss: its read runs with the latch released.

// How long a check waits for what the held read must not block, before it
// fails instead of hanging.
constexpr std::chrono::milliseconds kHeldReadTimeout{10000};

// Four resident pages, all clean, in four frames: every miss evicts a
// clean victim. The last page allocated survives the next two misses.
std::vector<PageId> FillWithCleanPages(BufferPool& pool) {
  std::vector<PageId> pages = AllocateDb(pool, 4);
  EXPECT_TRUE(pool.FlushAll().ok());
  return pages;
}

TEST(DefaultMissConcurrencyTest, HitAndOtherMissCompleteWhileACleanMissReads) {
  SimDiskManager inner;
  ScriptedDisk gate(&inner);
  BufferPool pool(4, &gate, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  const PageId resident = FillWithCleanPages(pool).back();
  auto held = inner.AllocatePage();
  auto other = inner.AllocatePage();
  ASSERT_TRUE(held.ok() && other.ok());

  gate.Hold(ScriptedDisk::Reads(*held));
  std::thread reader([&] {
    auto page = pool.FetchPage(*held);
    EXPECT_TRUE(page.ok());
    if (page.ok()) {
      EXPECT_TRUE(pool.UnpinPage(*held, false).ok());
    }
  });
  EXPECT_TRUE(gate.AwaitHeld(ScriptedDisk::Reads()))
      << "the miss never reached the device";
  auto others = std::async(std::launch::async, [&] {
    auto hit = pool.FetchPage(resident);
    bool ok = hit.ok() && pool.UnpinPage(resident, false).ok();
    auto miss = pool.FetchPage(*other);
    return ok && miss.ok() && pool.UnpinPage(*other, false).ok();
  });
  EXPECT_EQ(others.wait_for(kHeldReadTimeout), std::future_status::ready)
      << "a hit or another page's miss waited for the held read";
  gate.OpenAll();
  reader.join();
  EXPECT_TRUE(others.get());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_TRUE(pool.IsResident(*held));
  EXPECT_TRUE(pool.IsResident(*other));
}

TEST(DefaultMissConcurrencyTest, SecondMissOfThePageWaitsOnTheHeldRead) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  FillWithCleanPages(pool);
  auto held = inner.AllocatePage();
  ASSERT_TRUE(held.ok());
  std::vector<char> stamp(kPageSize, 'h');
  ASSERT_TRUE(inner.WritePage(*held, stamp.data()).ok());

  disk.Hold(ScriptedDisk::Reads(*held));
  auto fetch = [&] {
    auto page = pool.FetchPage(*held);
    EXPECT_TRUE(page.ok());
    if (!page.ok()) return;
    EXPECT_EQ((*page)->Data()[0], 'h');
    EXPECT_EQ((*page)->Data()[kPageSize - 1], 'h');
    EXPECT_TRUE(pool.UnpinPage(*held, false).ok());
  };
  std::thread first(fetch);
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Reads()))
      << "the miss never reached the device";
  std::thread second(fetch);
  // The second miss finds the held read in the tracker and waits on it.
  const auto deadline = std::chrono::steady_clock::now() + kHeldReadTimeout;
  while (pool.StatsSnapshot().coalesced_reads == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.StatsSnapshot().coalesced_reads, 1u)
      << "the second miss did not wait on the held read";
  disk.OpenAll();
  first.join();
  second.join();

  EXPECT_EQ(disk.ReadsOf(*held), 1u);  // The device served one read.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.coalesced_reads, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
}

// ---------------------------------------------------------------------------
// FetchPages runs: a run's claimed reads are tracked like any miss's, and a
// run issues its claims before it waits on another thread's read.

TEST(FetchPagesConcurrencyTest, FetchPageOfARunsPageCoalescesOntoItsRead) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  FillWithCleanPages(pool);
  auto a = inner.AllocatePage();
  auto b = inner.AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());
  const PageId run[] = {*a, *b};

  disk.Hold(ScriptedDisk::Reads(*a));
  std::thread runner([&] {
    std::array<Page*, 2> out{};
    EXPECT_TRUE(pool.FetchPages(run, out).ok());
    for (PageId p : run) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Reads()))
      << "the run's read never reached the device";
  std::thread fetcher([&] {
    auto page = pool.FetchPage(*a);
    EXPECT_TRUE(page.ok());
    if (page.ok()) {
      EXPECT_TRUE(pool.UnpinPage(*a, false).ok());
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + kHeldReadTimeout;
  while (pool.StatsSnapshot().coalesced_reads == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.StatsSnapshot().coalesced_reads, 1u)
      << "the FetchPage did not wait on the run's read";
  disk.OpenAll();
  runner.join();
  fetcher.join();

  EXPECT_EQ(disk.ReadsOf(*a), 1u);
  EXPECT_EQ(disk.ReadsOf(*b), 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.coalesced_reads, 1u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

TEST(FetchPagesConcurrencyTest, RunIssuesItsClaimsBeforeWaitingOnAnotherRead) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  FillWithCleanPages(pool);
  auto a = inner.AllocatePage();
  auto b = inner.AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());

  // Another thread's miss of b is held in the device.
  disk.Hold(ScriptedDisk::Reads(*b));
  std::thread fetcher([&] {
    auto page = pool.FetchPage(*b);
    EXPECT_TRUE(page.ok());
    if (page.ok()) {
      EXPECT_TRUE(pool.UnpinPage(*b, false).ok());
    }
  });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Reads()))
      << "the miss never reached the device";
  // The run claims a, finds b's read in flight, and reads a before it
  // waits on b: a is admitted while b's read is still held.
  std::thread runner([&] {
    const PageId run[] = {*a, *b};
    std::array<Page*, 2> out{};
    EXPECT_TRUE(pool.FetchPages(run, out).ok());
    for (PageId p : run) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  });
  const auto deadline = std::chrono::steady_clock::now() + kHeldReadTimeout;
  while (!(pool.IsResident(*a) &&
           pool.StatsSnapshot().coalesced_reads == 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.IsResident(*a))
      << "the run waited on b holding its unissued claim of a";
  EXPECT_EQ(pool.StatsSnapshot().coalesced_reads, 1u);
  disk.OpenAll();
  fetcher.join();
  runner.join();

  EXPECT_EQ(disk.ReadsOf(*a), 1u);
  EXPECT_EQ(disk.ReadsOf(*b), 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.coalesced_reads, 1u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

// Two threads fix runs [p, q] and [q, p] over the same few pages while a
// third fetches them one at a time, through a pool that evicts: every
// call completes (a deadlock aborts the binary at the deadline instead of
// hanging it), and every fix is one hit or one miss.
TEST(FetchPagesConcurrencyTest, OppositeRunsNeverDeadlock) {
  constexpr int kRounds = 1500;
  constexpr uint64_t kPages = 8;
  SimDiskManager inner;
  // Reads that take a few microseconds on a device that overlaps
  // operations, so runs and misses of one page meet in the tracker.
  ScriptedDisk disk(&inner);
  disk.Delay(ScriptedDisk::Reads(), std::chrono::microseconds(20));
  BufferPool pool(6, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  const std::vector<PageId> pages = AllocateDb(pool, kPages);
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.ResetStats();

  auto fix_runs = [&](uint64_t seed, bool reversed) {
    RandomEngine rng(seed);
    for (int i = 0; i < kRounds; ++i) {
      const size_t first = rng.NextBounded(kPages - 1);
      PageId run[] = {pages[first], pages[first + 1]};
      if (reversed) std::swap(run[0], run[1]);
      std::array<Page*, 2> out{};
      Status fixed = pool.FetchPages(run, out);
      if (!fixed.ok()) return fixed;
      for (PageId p : run) LRUK_RETURN_IF_ERROR(pool.UnpinPage(p, false));
    }
    return Status::Ok();
  };
  auto forward = std::async(std::launch::async, fix_runs, 1, false);
  auto backward = std::async(std::launch::async, fix_runs, 2, true);
  auto single = std::async(std::launch::async, [&] {
    RandomEngine rng(3);
    for (int i = 0; i < kRounds; ++i) {
      const PageId p = pages[rng.NextBounded(kPages)];
      auto page = pool.FetchPage(p);
      if (!page.ok()) return page.status();
      LRUK_RETURN_IF_ERROR(pool.UnpinPage(p, false));
    }
    return Status::Ok();
  });
  const auto deadline = std::chrono::steady_clock::now() + kHeldReadTimeout;
  for (auto* done : {&forward, &backward, &single}) {
    if (done->wait_until(deadline) != std::future_status::ready) {
      // Deadlocked threads can never be joined (a future's destructor
      // would wait for them forever): end the binary with the failure.
      std::fprintf(stderr, "a run or fetch never completed: deadlock\n");
      std::abort();
    }
    EXPECT_TRUE(done->get().ok());
  }

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 5u * kRounds);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

// ---------------------------------------------------------------------------
// Coalescing: one physical read per group.

TEST(AsyncIoCoalescingTest, ConcurrentMissesOnSamePageShareOneRead) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPoolOptions options;
  options.io_workers = 2;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);

  auto target = inner.AllocatePage();
  ASSERT_TRUE(target.ok());
  PageId p = *target;

  // Park the primary's read in the device; once it is parked, the pool
  // latch is free and the other 7 threads enqueue as coalesced waiters.
  disk.Hold(ScriptedDisk::Reads(p));
  std::atomic<int> entered{0};
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      entered.fetch_add(1);
      auto page = pool.FetchPage(p);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ((*page)->id(), p);
      ok_count.fetch_add(1);
      EXPECT_TRUE(pool.UnpinPage(p, false).ok());
    });
  }
  // The primary is mid-read.
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Reads()));
  // Give the remaining threads time to reach the waiter branch: they need
  // only the pool latch, which the primary released before reading.
  while (entered.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  disk.OpenAll();
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_EQ(disk.ReadsOf(p), 1u);  // One physical read for the group.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.coalesced_reads, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  // Frame accounting balances: one resident page, the rest free.
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

TEST(AsyncIoCoalescingTest, EveryWaiterSeesTheSameFailureAndNoFrameLeaks) {
  SimDiskManager inner;
  FaultInjectingDiskManager faulty(&inner, /*seed=*/5);
  ScriptedDisk disk(&faulty);
  BufferPoolOptions options;
  options.io_workers = 2;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);

  auto target = inner.AllocatePage();
  ASSERT_TRUE(target.ok());
  PageId p = *target;
  faulty.AddRule(FaultRule::FailPage(FaultOp::kRead, p));  // Permanent.

  disk.Hold(ScriptedDisk::Reads(p));
  std::atomic<int> entered{0};
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      entered.fetch_add(1);
      auto page = pool.FetchPage(p);
      ASSERT_FALSE(page.ok());
      statuses[t] = page.status();
    });
  }
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Reads()));
  while (entered.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  disk.OpenAll();
  for (auto& t : threads) t.join();

  // Every thread failed with the same status code. (A straggler that
  // missed the coalescing window would retry as its own primary against
  // the permanent fault and still observe kIoError.)
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  // No admission, no leaked frame, no stuck tracker entry.
  EXPECT_FALSE(pool.IsResident(p));
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.FreeFrameCount(), pool.capacity());
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_GE(stats.coalesced_reads, 1u);
  EXPECT_GE(stats.read_failures, 1u);
  // Total fetch attempts all resolved: hits + misses == kThreads.
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));

  // The page is fetchable once the fault clears.
  faulty.Heal();
  auto page = pool.FetchPage(p);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(pool.UnpinPage(p, false).ok());
}

// ---------------------------------------------------------------------------
// Concurrency + fault churn.

struct ChurnTotals {
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> failures{0};
};

void ChurnThread(PoolInterface& pool, const std::vector<PageId>& pages,
                 uint64_t seed, int ops, ChurnTotals& totals) {
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(seed);
  for (int i = 0; i < ops; ++i) {
    PageId p;
    if (rng.NextBernoulli(0.2)) {
      // Short sequential stretches sweep pages past the skewed hot set.
      p = pages[(static_cast<size_t>(i) * 3 + seed) % pages.size()];
    } else {
      p = pages[dist.Sample(rng) - 1];
    }
    bool write = rng.NextBernoulli(0.4);
    totals.attempts.fetch_add(1, std::memory_order_relaxed);
    auto page =
        pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    if (!page.ok()) {
      totals.failures.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (write) {
      // Page contents are accessed outside the pool latch; the pin
      // protocol makes the frame stable but leaves writer/writer
      // coordination to the caller, so each thread stamps its own
      // seed-indexed 8-byte slot instead of a shared offset.
      uint64_t stamp = seed * 1000003 + static_cast<uint64_t>(i);
      std::memcpy((*page)->Data() + (seed % 64) * sizeof(stamp), &stamp,
                  sizeof(stamp));
    }
    EXPECT_TRUE(pool.UnpinPage(p, write).ok());
  }
}

TEST(AsyncIoConcurrencyTest, FaultChurnKeepsPlainPoolInvariants) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/31);

  BufferPoolOptions options;
  options.io_workers = 4;

  BufferPool pool(24, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> pages = AllocateDb(pool, 64);
  // Arm the faults only once the DB exists (allocation itself must not
  // fail; the churn tolerates fetch failures).
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.03));
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.03));
  ChurnTotals totals;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ChurnThread(pool, pages, /*seed=*/100 + t, /*ops=*/3000, totals);
    });
  }
  for (auto& t : threads) t.join();

  disk.Heal();
  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  // Every fetch resolved to exactly one hit or one miss.
  EXPECT_EQ(stats.hits + stats.misses, totals.attempts.load());
  // A failed fetch is a miss; coalesced waiters of a failed read are
  // misses too, but only primaries count read_failures.
  EXPECT_LE(stats.read_failures, totals.failures.load());
  EXPECT_GE(stats.misses, totals.failures.load());

  // All pins released: every resident page is evictable again.
  EXPECT_EQ(pool.policy().EvictableCount(), pool.policy().ResidentCount());
  // Frame accounting balances after quiesce.
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
  EXPECT_EQ(pool.PendingIoCount(), 0u);

  EXPECT_TRUE(pool.FlushAll().ok());
}

TEST(AsyncIoConcurrencyTest, FaultChurnKeepsShardedPoolInvariants) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/37);

  BufferPoolOptions options;
  options.io_workers = 4;

  ShardedBufferPool pool(
      32, /*num_shards=*/4, &disk,
      [](size_t, size_t) {
        return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
      },
      options);
  std::vector<PageId> pages = AllocateDb(pool, 96);
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.03));
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.03));
  ChurnTotals totals;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ChurnThread(pool, pages, /*seed=*/200 + t, /*ops=*/3000, totals);
    });
  }
  for (auto& t : threads) t.join();

  disk.Heal();
  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, totals.attempts.load());
  EXPECT_LE(stats.read_failures, totals.failures.load());

  size_t free_frames = 0;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    BufferPool& shard = pool.shard(i);
    EXPECT_EQ(shard.policy().EvictableCount(), shard.policy().ResidentCount());
    EXPECT_EQ(shard.PendingIoCount(), 0u);
    free_frames += shard.FreeFrameCount();
  }
  EXPECT_EQ(pool.ResidentCount() + free_frames, pool.capacity());
  EXPECT_TRUE(pool.FlushAll().ok());
}

TEST(AsyncIoConcurrencyTest, SamePageChurnOverTinyPoolCoalescesConstantly) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPoolOptions options;
  options.io_workers = 2;
  BufferPool pool(2, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> pages = AllocateDb(pool, 4);
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> exhausted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RandomEngine rng(/*seed=*/300 + t);
      for (int i = 0; i < 2000; ++i) {
        PageId p = pages[rng.NextUint64() % pages.size()];
        attempts.fetch_add(1, std::memory_order_relaxed);
        auto page = pool.FetchPage(p, AccessType::kRead);
        if (!page.ok()) {
          // Capacity 2 with 8 threads: transient RESOURCE_EXHAUSTED (all
          // frames pinned) is legitimate; nothing else is.
          EXPECT_EQ(page.status().code(), StatusCode::kResourceExhausted);
          exhausted.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        EXPECT_TRUE(pool.UnpinPage(p, false).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
  EXPECT_EQ(stats.hits + stats.misses, attempts.load());
  // Read accounting brackets: a fetch issues at most one physical read, so
  // reads <= misses; and every miss-counted fetch either read, coalesced,
  // or bounced off a full pool (a fetch can both coalesce and then retry
  // as a primary, hence >= rather than ==). The exact one-read-per-group
  // semantics are proven by the gated coalescing tests above.
  const uint64_t reads = disk.counts(PageIo::Kind::kRead).landed;
  EXPECT_LE(reads, stats.misses);
  EXPECT_GE(reads + stats.coalesced_reads + exhausted.load(), stats.misses);
  EXPECT_TRUE(pool.FlushAll().ok());
}

// ---------------------------------------------------------------------------
// Write-behind under threaded churn.

// Worker mode, so dirty victims are written behind.
BufferPoolOptions WriteBehindChurnOptions() {
  BufferPoolOptions options;
  options.io_workers = 2;
  return options;
}

// kThreads clients of uniform, 60%-write traffic. Client t stamps its own
// 8-byte slot t of each page it writes (writers never share bytes) and
// records the stamp in (*last)[t][page index] once the dirty unpin has
// returned, i.e. once the pool acknowledged the write. Stamps are never 0,
// the image of a page no client wrote. Returns the fetches attempted.
uint64_t WriteBehindChurn(PoolInterface& pool, const std::vector<PageId>& pages,
                          std::vector<std::vector<uint64_t>>* last) {
  last->assign(kThreads, std::vector<uint64_t>(pages.size(), 0));
  std::atomic<uint64_t> attempts{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RandomEngine rng(/*seed=*/400 + t);
      for (int i = 0; i < 2000; ++i) {
        size_t idx = rng.NextUint64() % pages.size();
        PageId p = pages[idx];
        bool write = rng.NextBernoulli(0.6);
        attempts.fetch_add(1, std::memory_order_relaxed);
        auto page = pool.FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        if (!page.ok()) {
          EXPECT_EQ(page.status().code(), StatusCode::kResourceExhausted);
          continue;
        }
        uint64_t stamp = static_cast<uint64_t>(t) * 1000003 +
                         static_cast<uint64_t>(i) + 1;
        if (write) {
          std::memcpy((*page)->Data() + t * sizeof(stamp), &stamp,
                      sizeof(stamp));
        }
        EXPECT_TRUE(pool.UnpinPage(p, write).ok());
        if (write) (*last)[t][idx] = stamp;
      }
    });
  }
  for (auto& t : threads) t.join();
  return attempts.load();
}

// Restart oracle: no acknowledged write was lost. The disk alone, read
// without the pool, holds every client's last stamp on every page.
void ExpectDiskHoldsLastStamps(DiskManager& disk,
                               const std::vector<PageId>& pages,
                               const std::vector<std::vector<uint64_t>>& last) {
  char image[kPageSize];
  for (size_t idx = 0; idx < pages.size(); ++idx) {
    ASSERT_TRUE(disk.ReadPage(pages[idx], image).ok());
    for (int t = 0; t < kThreads; ++t) {
      uint64_t on_disk = 0;
      std::memcpy(&on_disk, image + t * sizeof(on_disk), sizeof(on_disk));
      EXPECT_EQ(on_disk, last[t][idx]) << "page " << pages[idx] << " client "
                                       << t;
    }
  }
}

TEST(WriteBehindConcurrencyTest, FaultChurnKeepsWriteBehindInvariants) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/41);
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  WriteBehindChurnOptions());
  std::vector<PageId> pages = AllocateDb(pool, 48);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Write faults only: every fetch failure must then be a full pool (a
  // parked image that cannot re-admit), never an I/O error surfacing on
  // the read path.
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.1));

  std::vector<std::vector<uint64_t>> last;
  uint64_t attempts = WriteBehindChurn(pool, pages, &last);

  disk.Heal();
  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  // Every fetch resolved to exactly one hit or one miss — including
  // parked re-admits (counted as misses) and victim-write waiters.
  EXPECT_EQ(stats.hits + stats.misses, attempts);
  // The write-behind machinery engaged, and failures were re-absorbed:
  // either re-admitted or parked, never dropped.
  EXPECT_GT(stats.writebehind_writes, 0u);
  EXPECT_GT(stats.write_failures, 0u);
  // Settled: no in-flight victim writes, all pins released, frame
  // accounting balances (parked pages hold no frame).
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.policy().EvictableCount(), pool.policy().ResidentCount());
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
  // FlushAll persists every surviving dirty page AND every parked image.
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.ParkedVictimCount(), 0u);
  ExpectDiskHoldsLastStamps(inner, pages, last);
  // Every page is readable through the pool afterwards.
  for (PageId p : pages) {
    auto page = pool.FetchPage(p, AccessType::kRead);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
}

// Parks every writer of a dispatcher inside a closure until released, so
// the queue behind them can be filled deterministically.
class WorkerPark {
 public:
  void Park(IoDispatcher& io, int workers) {
    for (int i = 0; i < workers; ++i) {
      ASSERT_TRUE(io.TryPost([this] {
        std::unique_lock<std::mutex> guard(mutex_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(guard, [&] { return open_; });
      }));
    }
    std::unique_lock<std::mutex> guard(mutex_);
    cv_.wait(guard, [&] { return parked_ == workers; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int parked_ = 0;
  bool open_ = false;
};

TEST(WriteBehindConcurrencyTest, ForegroundVictimWritesAreFlushLaneRefusals) {
  // Fault-free, the only way a dirty victim write lands on the miss path
  // is a refused write-behind post: each refusal runs its write on the
  // evicting thread, and nothing else does. Those writes are durable too.
  SimDiskManager disk;
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  WriteBehindChurnOptions());
  std::vector<PageId> pages = AllocateDb(pool, 48);
  ASSERT_TRUE(pool.FlushAll().ok());
  const BufferPoolStats loaded = pool.stats();

  // Refusals on demand: park both writers and fill the queue with
  // kIoLaneDepth closures, then admit new (dirty) pages. Once the clean
  // residents are gone, each admission evicts a dirty new page and its
  // refused post writes it on this thread.
  WorkerPark park;
  park.Park(*pool.io_dispatcher(), /*workers=*/2);
  for (size_t i = 0; i < kIoLaneDepth; ++i) {
    ASSERT_TRUE(pool.io_dispatcher()->TryPost([] {}));
  }
  std::vector<PageId> fresh;
  for (int i = 0; i < 32; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    fresh.push_back((*page)->id());
    std::memset((*page)->Data(), 'a' + i % 26, kPageSize);
    ASSERT_TRUE(pool.UnpinPage(fresh.back(), true).ok());
  }
  BufferPoolStats parked = pool.stats();
  EXPECT_GT(parked.io_drops_flush, loaded.io_drops_flush);
  EXPECT_EQ(parked.dirty_writebacks - loaded.dirty_writebacks,
            parked.io_drops_flush - loaded.io_drops_flush);
  EXPECT_EQ(parked.writebehind_writes, loaded.writebehind_writes);
  park.Open();

  // Then churn with the writers serving: write-behind takes the victims,
  // and any further refusal is still the only foreground write.
  std::vector<std::vector<uint64_t>> last;
  uint64_t attempts = WriteBehindChurn(pool, pages, &last);

  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, attempts);
  EXPECT_GT(stats.writebehind_writes, 0u);
  EXPECT_GE(stats.io_drops_flush, parked.io_drops_flush);
  EXPECT_EQ(stats.dirty_writebacks, stats.io_drops_flush);
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_EQ(stats.writebehind_readmits, 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  ExpectDiskHoldsLastStamps(disk, pages, last);
  char image[kPageSize];
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_TRUE(disk.ReadPage(fresh[i], image).ok());
    EXPECT_EQ(image[0], static_cast<char>('a' + i % 26)) << fresh[i];
    EXPECT_EQ(image[kPageSize - 1], static_cast<char>('a' + i % 26))
        << fresh[i];
  }
}

TEST(WriteBehindConcurrencyTest, ShardedPoolChurnsWithWriteBehind) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/43);

  BufferPoolOptions options;
  options.io_workers = 4;

  ShardedBufferPool pool(
      32, /*num_shards=*/4, &disk,
      [](size_t, size_t) {
        return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
      },
      options);
  std::vector<PageId> pages = AllocateDb(pool, 96);
  ASSERT_TRUE(pool.FlushAll().ok());
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.05));

  std::atomic<uint64_t> attempts{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
      RandomEngine rng(/*seed=*/500 + t);
      for (int i = 0; i < 2000; ++i) {
        PageId p = pages[dist.Sample(rng) - 1];
        bool write = rng.NextBernoulli(0.6);
        attempts.fetch_add(1, std::memory_order_relaxed);
        auto page = pool.FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        if (!page.ok()) {
          EXPECT_EQ(page.status().code(), StatusCode::kResourceExhausted);
          continue;
        }
        EXPECT_TRUE(pool.UnpinPage(p, write).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  disk.Heal();
  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, attempts.load());
  EXPECT_GT(stats.writebehind_writes, 0u);
  EXPECT_TRUE(pool.FlushAll().ok());
  size_t free_frames = 0;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    BufferPool& shard = pool.shard(i);
    EXPECT_EQ(shard.PendingVictimWriteCount(), 0u);
    EXPECT_EQ(shard.ParkedVictimCount(), 0u);
    EXPECT_EQ(shard.PendingIoCount(), 0u);
    free_frames += shard.FreeFrameCount();
  }
  EXPECT_EQ(pool.ResidentCount() + free_frames, pool.capacity());
}

}  // namespace
}  // namespace lruk

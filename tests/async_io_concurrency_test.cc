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
//  * Coalesced failure — the same setup with an injected read fault: every
//    waiter observes the same error status, no frame is leaked, nothing is
//    admitted, and the page is fetchable after Heal().
//  * Concurrency + fault churn — 8 threads of mixed traffic over both
//    pools with probabilistic read/write faults: after Heal + quiesce, frame accounting balances to capacity, every
//    fetch resolved to exactly one hit or miss, all pins were released,
//    and FlushAll converges.
//  * Same-page churn — a page-id range smaller than the thread count over
//    a tiny pool forces constant coalesce/evict cycles without deadlock.
//  * Write-behind fault churn — threaded dirty-heavy traffic with
//    probabilistic write faults over a write-behind pool: failed victim
//    writes re-admit or park without losing images, frames, or counts,
//    and a restart oracle finds every client's last acknowledged write on
//    the disk itself. Fault-free, every foreground victim write is a
//    counted refusal of a full write-behind queue.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "io/io_dispatcher.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

// Forwarding disk manager counting physical reads per page — the witness
// for "one coalesced group, one physical read". Outermost wrapper, so it
// sees exactly what the pool issued (including retry re-issues).
class CountingDiskManager final : public DiskManager {
 public:
  explicit CountingDiskManager(DiskManager* inner) : inner_(inner) {}

  uint64_t ReadsOf(PageId p) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = reads_.find(p);
    return it == reads_.end() ? 0 : it->second;
  }
  uint64_t TotalReads() const {
    std::lock_guard<std::mutex> guard(mutex_);
    uint64_t total = 0;
    for (const auto& [p, n] : reads_) total += n;
    return total;
  }

  Status ReadPage(PageId p, char* out) override {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++reads_[p];
    }
    return inner_->ReadPage(p, out);
  }
  Status WritePage(PageId p, const char* data) override {
    return inner_->WritePage(p, data);
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status DeallocatePage(PageId p) override {
    return inner_->DeallocatePage(p);
  }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  DiskManager* inner_;
  mutable std::mutex mutex_;
  std::unordered_map<PageId, uint64_t> reads_;
};

// Blocks reads of one chosen page until released (same shape as the gate
// in async_io_test.cc; duplicated to keep the test binaries standalone).
class GateDiskManager final : public DiskManager {
 public:
  explicit GateDiskManager(DiskManager* inner) : inner_(inner) {}

  void Close(PageId p) {
    std::lock_guard<std::mutex> guard(mutex_);
    gated_ = p;
    open_ = false;
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void AwaitReader() {
    std::unique_lock<std::mutex> guard(mutex_);
    cv_.wait(guard, [&] { return waiting_ > 0; });
  }
  // AwaitReader with a deadline: false if no reader reached the gate.
  bool AwaitReaderFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> guard(mutex_);
    return cv_.wait_for(guard, timeout, [&] { return waiting_ > 0; });
  }

  Status ReadPage(PageId p, char* out) override {
    {
      std::unique_lock<std::mutex> guard(mutex_);
      if (!open_ && p == gated_) {
        ++waiting_;
        cv_.notify_all();
        cv_.wait(guard, [&] { return open_; });
        --waiting_;
      }
    }
    return inner_->ReadPage(p, out);
  }
  Status WritePage(PageId p, const char* data) override {
    return inner_->WritePage(p, data);
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status DeallocatePage(PageId p) override {
    return inner_->DeallocatePage(p);
  }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  DiskManager* inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  PageId gated_ = kInvalidPageId;
  bool open_ = true;
  int waiting_ = 0;
};

std::vector<PageId> AllocateDb(PoolInterface& pool, uint64_t n) {
  std::vector<PageId> pages;
  for (uint64_t i = 0; i < n; ++i) {
    auto page = pool.NewPage();
    EXPECT_TRUE(page.ok());
    pages.push_back((*page)->id());
    EXPECT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
  }
  return pages;
}

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
  GateDiskManager gate(&inner);
  BufferPool pool(4, &gate, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  const PageId resident = FillWithCleanPages(pool).back();
  auto held = inner.AllocatePage();
  auto other = inner.AllocatePage();
  ASSERT_TRUE(held.ok() && other.ok());

  gate.Close(*held);
  std::thread reader([&] {
    auto page = pool.FetchPage(*held);
    EXPECT_TRUE(page.ok());
    if (page.ok()) {
      EXPECT_TRUE(pool.UnpinPage(*held, false).ok());
    }
  });
  EXPECT_TRUE(gate.AwaitReaderFor(kHeldReadTimeout))
      << "the miss never reached the device";
  auto others = std::async(std::launch::async, [&] {
    auto hit = pool.FetchPage(resident);
    bool ok = hit.ok() && pool.UnpinPage(resident, false).ok();
    auto miss = pool.FetchPage(*other);
    return ok && miss.ok() && pool.UnpinPage(*other, false).ok();
  });
  EXPECT_EQ(others.wait_for(kHeldReadTimeout), std::future_status::ready)
      << "a hit or another page's miss waited for the held read";
  gate.Open();
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
  GateDiskManager gate(&inner);
  CountingDiskManager disk(&gate);
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  FillWithCleanPages(pool);
  auto held = inner.AllocatePage();
  ASSERT_TRUE(held.ok());
  std::vector<char> stamp(kPageSize, 'h');
  ASSERT_TRUE(inner.WritePage(*held, stamp.data()).ok());

  gate.Close(*held);
  auto fetch = [&] {
    auto page = pool.FetchPage(*held);
    EXPECT_TRUE(page.ok());
    if (!page.ok()) return;
    EXPECT_EQ((*page)->Data()[0], 'h');
    EXPECT_EQ((*page)->Data()[kPageSize - 1], 'h');
    EXPECT_TRUE(pool.UnpinPage(*held, false).ok());
  };
  std::thread first(fetch);
  EXPECT_TRUE(gate.AwaitReaderFor(kHeldReadTimeout))
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
  gate.Open();
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
// Coalescing: one physical read per group.

TEST(AsyncIoCoalescingTest, ConcurrentMissesOnSamePageShareOneRead) {
  SimDiskManager inner;
  GateDiskManager gate(&inner);
  CountingDiskManager disk(&gate);
  BufferPoolOptions options;
  options.io_workers = 2;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);

  auto target = inner.AllocatePage();
  ASSERT_TRUE(target.ok());
  PageId p = *target;

  // Park the primary's read behind the gate; once it is parked, the pool
  // latch is free and the other 7 threads enqueue as coalesced waiters.
  gate.Close(p);
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
  gate.AwaitReader();  // The primary is mid-read.
  // Give the remaining threads time to reach the waiter branch: they need
  // only the pool latch, which the primary released before reading.
  while (entered.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();
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
  GateDiskManager gate(&faulty);
  CountingDiskManager disk(&gate);
  BufferPoolOptions options;
  options.io_workers = 2;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);

  auto target = inner.AllocatePage();
  ASSERT_TRUE(target.ok());
  PageId p = *target;
  faulty.AddRule(FaultRule::FailPage(FaultOp::kRead, p));  // Permanent.

  gate.Close(p);
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
  gate.AwaitReader();
  while (entered.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();
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
  CountingDiskManager disk(&inner);
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
  EXPECT_LE(disk.TotalReads(), stats.misses);
  EXPECT_GE(disk.TotalReads() + stats.coalesced_reads + exhausted.load(),
            stats.misses);
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

// The async I/O dispatcher (src/io/) and its buffer-pool integration,
// deterministic half (the threaded half lives in
// async_io_concurrency_test.cc).
//
// Coverage layers:
//  * IoDispatcher units — inline mode runs synchronously in issue order;
//    worker mode executes Run() to completion, bounds the queue, rejects
//    TryPost when full, and drains on destruction.
//  * ReadaheadDetector units — stride-run detection, window emission,
//    re-triggering, run breaks, backward scans, Reset.
//  * Differential battery — with the dispatcher in inline mode (and in
//    worker mode driven single-threaded), both pools produce BYTE-IDENTICAL
//    behaviour to the direct path over a 20k-op mixed workload: same pool
//    counters, same victim sequence, same IoStats, same residency, same
//    disk images. Batch recording on and off.
//  * Replay determinism — the inline dispatcher with readahead over a
//    seeded fault schedule reproduces the identical fault trace, stats and
//    disk images run-to-run (fault replay survives the dispatcher).
//  * Prefetch + readahead integration — a sequential scan faults only
//    until the detector locks on; prefetched pages land unpinned, clean,
//    and count prefetch_used on first demand touch; failed or rejected
//    prefetches are dropped without surfacing errors or leaking frames.
//  * Retry — with the dispatcher, a demand read retries a transient
//    failure with the pool latch released: hits keep completing while the
//    retry is in the disk.
//  * Quiesce/fence — DeletePage waits out an in-flight prefetch of the
//    same page (no resurrection after the delete); FlushAll quiesces the
//    whole dispatcher; a worker-mode prefetch blocked in the disk is
//    fenced deterministically via a gate disk manager.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "io/io_dispatcher.h"
#include "io/readahead.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

// ---------------------------------------------------------------------------
// Helpers. The shared 20k-op differential scaffolding (stats comparators,
// AllocateDb, the victim-recording wrapper, DriveMixedWorkload and the
// scenario driver) lives in differential_harness.h.

using difftest::AllocateDb;
using difftest::DiffScenarioConfig;
using difftest::DiffScenarioResult;
using difftest::ExpectScenarioEq;
using difftest::RunDiffScenario;
using difftest::kDiffCapacity;
using difftest::kDiffDbPages;

// Forwarding disk manager that blocks reads of one chosen page until
// released — pins a worker-mode prefetch mid-flight so fences can be
// exercised deterministically.
class GateDiskManager final : public DiskManager {
 public:
  explicit GateDiskManager(DiskManager* inner) : inner_(inner) {}

  // Future reads of `p` block until Open().
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
  // Blocks until a reader has reached the gate.
  void AwaitReader() {
    std::unique_lock<std::mutex> guard(mutex_);
    cv_.wait(guard, [&] { return waiting_ > 0; });
  }

  Status ReadPage(PageId p, char* out) override {
    {
      std::unique_lock<std::mutex> guard(mutex_);
      if (!open_ && p == gated_) {
        ++waiting_;
        cv_.notify_all();  // Wake AwaitReader.
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

// ---------------------------------------------------------------------------
// IoDispatcher units.

TEST(AsyncIoDispatcherTest, InlineModeRunsSynchronouslyInOrder) {
  IoDispatcher io;  // workers = 0.
  EXPECT_TRUE(io.inline_mode());
  std::vector<int> order;
  io.Run([&] { order.push_back(1); });
  EXPECT_TRUE(io.TryPost([&] { order.push_back(2); }));
  io.Run([&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  IoDispatcherStats stats = io.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.posted, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.executed_inline, 3u);
  EXPECT_EQ(stats.executed_async, 0u);
}

TEST(AsyncIoDispatcherTest, WorkerModeRunReturnsAfterExecution) {
  IoDispatcher io(IoDispatcherOptions{/*workers=*/2, /*queue_depth=*/4});
  EXPECT_FALSE(io.inline_mode());
  std::atomic<int> ran{0};
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id executor;
  io.Run([&] {
    executor = std::this_thread::get_id();
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);  // Run() waited for completion.
  EXPECT_NE(executor, caller);
  EXPECT_EQ(io.stats().executed_async, 1u);
}

TEST(AsyncIoDispatcherTest, WorkerModeBoundsQueueAndRejectsTryPost) {
  IoDispatcher io(IoDispatcherOptions{/*workers=*/1, /*queue_depth=*/2});
  // Park the single worker on a gate, then fill the queue.
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> parked{false};
  ASSERT_TRUE(io.TryPost([&] {
    parked.store(true);
    std::unique_lock<std::mutex> guard(m);
    cv.wait(guard, [&] { return open; });
  }));
  // Wait until the worker has dequeued the parked item, so the two posts
  // below are what fills the depth-2 queue.
  while (!parked.load()) std::this_thread::yield();
  std::atomic<int> done{0};
  ASSERT_TRUE(io.TryPost([&] { done.fetch_add(1); }));
  ASSERT_TRUE(io.TryPost([&] { done.fetch_add(1); }));
  // Queue now holds 2 items (depth 2) with the worker parked: full.
  EXPECT_FALSE(io.TryPost([&] { done.fetch_add(1); }));
  EXPECT_EQ(io.stats().rejected, 1u);
  {
    std::lock_guard<std::mutex> guard(m);
    open = true;
  }
  cv.notify_all();
  io.Drain();
  EXPECT_EQ(done.load(), 2);  // The rejected closure never ran.
}

TEST(AsyncIoDispatcherTest, DestructorDrainsAcceptedWork) {
  std::atomic<int> ran{0};
  {
    IoDispatcher io(IoDispatcherOptions{/*workers=*/2, /*queue_depth=*/16});
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(io.TryPost([&] { ran.fetch_add(1); }));
    }
  }  // Destructor joins only after every accepted item executed.
  EXPECT_EQ(ran.load(), 10);
}

// ---------------------------------------------------------------------------
// ReadaheadDetector units.

TEST(AsyncIoReadaheadTest, TriggersAfterMinRunAndEmitsWindow) {
  ReadaheadDetector det({.enabled = true, .window = 4, .min_run = 3});
  std::vector<PageId> out;
  det.Observe(10, &out);
  EXPECT_TRUE(out.empty());
  det.Observe(11, &out);  // Run of 2 (10, 11).
  EXPECT_TRUE(out.empty());
  det.Observe(12, &out);  // Run of 3: trigger.
  EXPECT_EQ(out, (std::vector<PageId>{13, 14, 15, 16}));
  det.Observe(13, &out);  // Re-trigger keeps the horizon ahead.
  EXPECT_EQ(out, (std::vector<PageId>{14, 15, 16, 17}));
}

TEST(AsyncIoReadaheadTest, NonUnitStrideIsDetected) {
  ReadaheadDetector det(
      {.enabled = true, .window = 3, .min_run = 3, .max_stride = 4});
  std::vector<PageId> out;
  det.Observe(0, &out);
  det.Observe(2, &out);
  det.Observe(4, &out);
  EXPECT_EQ(out, (std::vector<PageId>{6, 8, 10}));
}

TEST(AsyncIoReadaheadTest, BackwardScanEmitsDescendingAndStopsAtZero) {
  ReadaheadDetector det({.enabled = true, .window = 4, .min_run = 3});
  std::vector<PageId> out;
  det.Observe(5, &out);
  det.Observe(4, &out);
  det.Observe(3, &out);
  EXPECT_EQ(out, (std::vector<PageId>{2, 1, 0}));  // -1 underflows: dropped.
}

TEST(AsyncIoReadaheadTest, StrideBreakPausesUntilRunReestablishes) {
  ReadaheadDetector det({.enabled = true, .window = 2, .min_run = 3});
  std::vector<PageId> out;
  det.Observe(10, &out);
  det.Observe(11, &out);
  det.Observe(12, &out);
  ASSERT_FALSE(out.empty());
  det.Observe(500, &out);  // Interleaved random reference breaks the run.
  EXPECT_TRUE(out.empty());
  det.Observe(501, &out);  // New pair...
  EXPECT_TRUE(out.empty());
  det.Observe(502, &out);  // ...run of 3 again: trigger.
  EXPECT_EQ(out, (std::vector<PageId>{503, 504}));
}

TEST(AsyncIoReadaheadTest, LargeJumpsAndRepeatsAreNotSequential) {
  ReadaheadDetector det(
      {.enabled = true, .window = 2, .min_run = 2, .max_stride = 4});
  std::vector<PageId> out;
  det.Observe(0, &out);
  det.Observe(100, &out);  // |stride| 100 > max_stride.
  det.Observe(200, &out);  // Same large stride: still not sequential.
  EXPECT_TRUE(out.empty());
  det.Observe(200, &out);  // Stride 0 (a re-reference): never a run.
  det.Observe(200, &out);
  EXPECT_TRUE(out.empty());
}

TEST(AsyncIoReadaheadTest, ResetForgetsTheRun) {
  ReadaheadDetector det({.enabled = true, .window = 2, .min_run = 3});
  std::vector<PageId> out;
  det.Observe(10, &out);
  det.Observe(11, &out);
  det.Reset();
  det.Observe(12, &out);
  det.Observe(13, &out);
  EXPECT_TRUE(out.empty());  // Only a run of 2 since Reset.
  det.Observe(14, &out);
  EXPECT_FALSE(out.empty());
}

// ---------------------------------------------------------------------------
// Differential battery: dispatcher (inline, and worker-mode driven
// single-threaded) vs the direct path — byte-identical.

TEST(AsyncIoDifferentialTest, InlineDispatcherIsByteIdenticalPlainPool) {
  for (bool optimistic : {false, true}) {
    SCOPED_TRACE(optimistic ? "optimistic" : "latched");
    DiffScenarioResult direct = RunDiffScenario({.optimistic = optimistic});
    DiffScenarioResult inline_mode =
        RunDiffScenario({.optimistic = optimistic, .dispatcher = true});
    ExpectScenarioEq(direct, inline_mode);
    EXPECT_EQ(inline_mode.stats.coalesced_reads, 0u);  // Single-threaded.
  }
}

TEST(AsyncIoDifferentialTest, InlineDispatcherIsByteIdenticalShardedPool) {
  for (bool optimistic : {false, true}) {
    SCOPED_TRACE(optimistic ? "optimistic" : "latched");
    DiffScenarioResult direct =
        RunDiffScenario({.sharded = true, .optimistic = optimistic});
    DiffScenarioResult inline_mode = RunDiffScenario(
        {.sharded = true, .optimistic = optimistic, .dispatcher = true});
    ExpectScenarioEq(direct, inline_mode);
  }
}

TEST(AsyncIoDifferentialTest, SingleThreadedWorkerModeMatchesDirectPath) {
  // A foreground Run() blocks until its read completes, so a
  // single-threaded driver is sequential even with workers — the whole
  // differential holds, not just the counters.
  DiffScenarioResult direct = RunDiffScenario({});
  DiffScenarioResult workers =
      RunDiffScenario({.dispatcher = true, .io_workers = 2});
  ExpectScenarioEq(direct, workers);
  DiffScenarioResult sharded_direct = RunDiffScenario({.sharded = true});
  DiffScenarioResult sharded_workers = RunDiffScenario(
      {.sharded = true, .dispatcher = true, .io_workers = 2});
  ExpectScenarioEq(sharded_direct, sharded_workers);
}

// ---------------------------------------------------------------------------
// Replay determinism: the inline dispatcher over a fault schedule.

TEST(AsyncIoDifferentialTest, FaultScheduleReplayIsDeterministicInline) {
  auto run = [](std::string* trace) {
    SimDiskManager inner;
    FaultInjectingDiskManager disk(&inner, /*seed=*/42);
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.02));
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.02));

    BufferPoolOptions options;
    options.io_dispatcher = true;  // Inline: io_workers = 0.
    options.readahead = {.enabled = true, .window = 4, .min_run = 3};
    BufferPool pool(kDiffCapacity, &disk,
                    std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                    options);

    std::vector<PageId> pages = AllocateDb(pool, kDiffDbPages);
    RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
    RandomEngine rng(/*seed=*/7);
    for (int i = 0; i < 8000; ++i) {
      PageId p;
      if (i % 10 < 3) {
        // Interleave scan stretches so the readahead path fires.
        p = pages[static_cast<size_t>(i / 10 * 3 + i % 10) % pages.size()];
      } else {
        p = pages[dist.Sample(rng) - 1];
      }
      bool write = rng.NextBernoulli(0.3);
      auto page =
          pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
      if (!page.ok()) continue;  // Injected read failure: tolerated.
      if (write) std::memcpy((*page)->Data(), &i, sizeof(i));
      (void)pool.UnpinPage(p, write);
    }
    disk.Heal();
    EXPECT_TRUE(pool.FlushAll().ok());

    BufferPoolStats stats = pool.stats();
    EXPECT_GT(stats.prefetch_issued, 0u);
    EXPECT_GT(stats.prefetch_used, 0u);
    for (const FaultEvent& e : disk.Trace()) {
      *trace += FaultEventToString(e);
      *trace += "\n";
    }
    char buf[kPageSize];
    for (PageId p : pages) {
      EXPECT_TRUE(inner.ReadPage(p, buf).ok());
      trace->append(buf, kPageSize);
    }
    std::string counters;
    counters += std::to_string(stats.hits) + "/" +
                std::to_string(stats.misses) + "/" +
                std::to_string(stats.evictions) + "/" +
                std::to_string(stats.prefetch_issued) + "/" +
                std::to_string(stats.prefetch_used) + "/" +
                std::to_string(stats.prefetch_dropped);
    *trace += counters;
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Prefetch + readahead integration (inline mode: fully deterministic).

BufferPoolOptions InlineDispatcherOptions() {
  BufferPoolOptions options;
  options.io_dispatcher = true;
  return options;
}

TEST(AsyncIoPrefetchTest, RequestPrefetchAdmitsUnpinnedCleanPage) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  InlineDispatcherOptions());
  // A raw allocation is on disk but not resident — prefetchable.
  auto raw = disk.AllocatePage();
  ASSERT_TRUE(raw.ok());
  std::vector<PageId> pages{*raw};

  IoStats before = disk.stats();
  pool.RequestPrefetch(pages[0]);
  EXPECT_TRUE(pool.IsResident(pages[0]));
  EXPECT_EQ(disk.stats().reads, before.reads + 1);

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_used, 0u);
  EXPECT_EQ(stats.misses, 0u);  // Prefetches are not demand misses.

  // Unpinned (evictable) and clean: a DeletePage succeeds immediately and
  // triggers no write-back.
  // First, the demand touch counts prefetch_used exactly once.
  auto page = pool.FetchPage(pages[0]);
  ASSERT_TRUE(page.ok());
  stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.prefetch_used, 1u);
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  auto again = pool.FetchPage(pages[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.stats().prefetch_used, 1u);  // Not double counted.
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
}

TEST(AsyncIoPrefetchTest, PrefetchOfResidentPageIsANoOp) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  InlineDispatcherOptions());
  std::vector<PageId> pages = AllocateDb(pool, 1);
  pool.RequestPrefetch(pages[0]);  // Resident: no tracker entry, no read.
  EXPECT_EQ(pool.stats().prefetch_issued, 0u);
  EXPECT_EQ(disk.stats().reads, 0u);
}

TEST(AsyncIoPrefetchTest, FailedPrefetchIsDroppedWithoutLeakingFrames) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/3);
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  InlineDispatcherOptions());
  std::vector<PageId> pages = AllocateDb(pool, 2);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Make both non-resident by deleting... instead, use a raw allocation
  // that was never admitted.
  auto raw = disk.AllocatePage();
  ASSERT_TRUE(raw.ok());

  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, *raw));
  size_t free_before = pool.FreeFrameCount();
  pool.RequestPrefetch(*raw);
  EXPECT_FALSE(pool.IsResident(*raw));
  EXPECT_EQ(pool.FreeFrameCount(), free_before);
  EXPECT_EQ(pool.PendingIoCount(), 0u);

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_dropped, 1u);
  EXPECT_EQ(stats.read_failures, 0u);  // Not a demand-read failure.

  // The page is perfectly fetchable once the fault clears.
  disk.Heal();
  auto page = pool.FetchPage(*raw);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(*raw, false).ok());
}

TEST(AsyncIoPrefetchTest, SequentialScanFaultsOnlyUntilDetectorLocksOn) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.readahead = {.enabled = true, .window = 4, .min_run = 3};

  // 80 allocated, first 64 scanned: the readahead window never runs past
  // the end of the allocated range. Warm the disk through one pool, then
  // scan cold through a second. Capacity >= scan length keeps the test
  // eviction-free, so the counter arithmetic below is exact (under CRP=0,
  // once-referenced prefetched pages are LRU-K's preferred victims — the
  // eviction interplay is bench territory, not unit-test arithmetic).
  std::vector<PageId> pages;
  {
    BufferPool warm(16, &disk,
                    std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
    pages = AllocateDb(warm, 80);
    EXPECT_TRUE(warm.FlushAll().ok());
  }
  BufferPool scan_pool(80, &disk,
                       std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                       options);
  for (size_t i = 0; i < 64; ++i) {
    auto page = scan_pool.FetchPage(pages[i]);
    ASSERT_TRUE(page.ok()) << i;
    ASSERT_TRUE(scan_pool.UnpinPage(pages[i], false).ok());
  }
  BufferPoolStats stats = scan_pool.stats();
  // Pages 0..2 establish the run (3 demand misses); every later page was
  // prefetched before its demand reference arrived.
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 61u);
  EXPECT_EQ(stats.prefetch_used, 61u);
  EXPECT_EQ(stats.prefetch_issued, 65u);  // Window of 4 ahead at the end.
  EXPECT_EQ(stats.prefetch_dropped, 0u);
}

TEST(AsyncIoPrefetchTest, ShardedScanUsesPoolLevelDetector) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.readahead = {.enabled = true, .window = 4, .min_run = 3};
  // Warm the disk through a plain pool, then scan through a sharded one.
  {
    BufferPool warm(16, &disk,
                    std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
    std::vector<PageId> pages = AllocateDb(warm, 80);
    ASSERT_TRUE(warm.FlushAll().ok());
  }
  ShardedBufferPool pool(
      128, /*num_shards=*/4, &disk,  // Eviction-free: exact counters.
      [](size_t, size_t) {
        return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
      },
      options);
  for (PageId p = 0; p < 64; ++p) {
    auto page = pool.FetchPage(p);
    ASSERT_TRUE(page.ok()) << p;
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  // Hash routing scatters the pages, but the pool-level detector sees the
  // sequential stream: everything past the lock-on is prefetched.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 61u);
  EXPECT_EQ(stats.prefetch_used, 61u);
  EXPECT_GT(stats.prefetch_issued, 0u);
}

// ---------------------------------------------------------------------------
// Retry through the dispatcher.

TEST(AsyncIoRetryTest, DemandReadRetriesWithTheLatchReleased) {
  SimDiskManager inner;
  GateDiskManager gate(&inner);
  FaultInjectingDiskManager disk(&gate, /*seed=*/29);
  BufferPoolOptions options;
  options.io_dispatcher = true;  // Inline: the fetching thread retries.
  options.io_retry.max_attempts = 2;  // Null sleep: immediate re-issue.
  BufferPool pool(2, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> pages = AllocateDb(pool, 3);
  PageId target = pages[0];    // Evicted by the third admission.
  PageId resident = pages[2];  // Survives the target's admission below.
  ASSERT_FALSE(pool.IsResident(target));
  ASSERT_TRUE(pool.IsResident(resident));
  std::vector<char> stamp(kPageSize, 'x');
  ASSERT_TRUE(inner.WritePage(target, stamp.data()).ok());

  // The first read of the target fails; the retry parks at the gate.
  disk.AddRule(FaultRule::FailNth(FaultOp::kRead, 1));
  gate.Close(target);
  std::thread fetcher([&] {
    auto page = pool.FetchPage(target, AccessType::kRead);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->Data()[0], 'x');
    EXPECT_EQ((*page)->Data()[kPageSize - 1], 'x');
    EXPECT_TRUE(pool.UnpinPage(target, false).ok());
  });
  gate.AwaitReader();

  // The retry holds no latch: a hit on another thread completes meanwhile.
  auto hit = std::async(std::launch::async, [&] {
    auto page = pool.FetchPage(resident, AccessType::kRead);
    return page.ok() && pool.UnpinPage(resident, false).ok();
  });
  EXPECT_EQ(hit.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a hit waited for the retrying demand read";
  gate.Open();
  fetcher.join();
  EXPECT_TRUE(hit.get());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.read_failures, 0u);  // Absorbed, not surfaced.
  EXPECT_TRUE(pool.IsResident(target));
  EXPECT_TRUE(pool.IsResident(resident));
}

// ---------------------------------------------------------------------------
// Quiesce / fence.

TEST(AsyncIoQuiesceTest, DeletePageFencesAnInFlightPrefetch) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = 1;
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);

  auto target = disk.AllocatePage();
  ASSERT_TRUE(target.ok());
  PageId p = *target;

  disk.Close(p);
  pool.RequestPrefetch(p);
  disk.AwaitReader();  // The worker is mid-read of p.
  EXPECT_EQ(pool.PendingIoCount(), 1u);

  std::thread deleter([&] {
    // Fences: waits for the prefetch to settle, then deletes.
    EXPECT_TRUE(pool.DeletePage(p).ok());
  });
  disk.Open();
  deleter.join();

  // The prefetch could NOT resurrect the deleted page.
  EXPECT_FALSE(pool.IsResident(p));
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.FreeFrameCount(), 4u);  // No leaked frame.
  EXPECT_EQ(inner.NumAllocatedPages(), 0u);
  char buf[kPageSize];
  EXPECT_FALSE(inner.ReadPage(p, buf).ok());  // Gone on disk too.
}

TEST(AsyncIoQuiesceTest, FlushAllQuiescesInFlightBackgroundWork) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = 2;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> pages = AllocateDb(pool, 2);
  ASSERT_TRUE(pool.FlushAll().ok());

  auto raw = disk.AllocatePage();
  ASSERT_TRUE(raw.ok());
  disk.Close(*raw);
  pool.RequestPrefetch(*raw);
  disk.AwaitReader();

  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    disk.Open();
  });
  ASSERT_TRUE(pool.FlushAll().ok());  // Blocks until the prefetch settles.
  opener.join();
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_TRUE(pool.IsResident(*raw));  // The prefetch completed first.
}

TEST(AsyncIoQuiesceTest, QuiesceDrainsQueuedPrefetches) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = 1;
  options.io_queue_depth = 8;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> raws;
  for (int i = 0; i < 4; ++i) {
    auto raw = disk.AllocatePage();
    ASSERT_TRUE(raw.ok());
    raws.push_back(*raw);
  }
  disk.Close(raws[0]);  // Park the worker on the first prefetch...
  for (PageId p : raws) pool.RequestPrefetch(p);
  disk.AwaitReader();
  EXPECT_EQ(pool.PendingIoCount(), 4u);  // ...three more queued behind it.

  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    disk.Open();
  });
  pool.Quiesce();
  opener.join();
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  for (PageId p : raws) EXPECT_TRUE(pool.IsResident(p));
  EXPECT_EQ(pool.stats().prefetch_issued, 4u);
}

TEST(AsyncIoQuiesceTest, QueueFullPrefetchIsDroppedNotLost) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = 1;
  options.io_queue_depth = 1;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> raws;
  for (int i = 0; i < 3; ++i) {
    auto raw = disk.AllocatePage();
    ASSERT_TRUE(raw.ok());
    raws.push_back(*raw);
  }
  disk.Close(raws[0]);
  pool.RequestPrefetch(raws[0]);  // Parks the worker.
  disk.AwaitReader();
  pool.RequestPrefetch(raws[1]);  // Fills the depth-1 queue.
  pool.RequestPrefetch(raws[2]);  // Rejected: dropped cleanly.

  disk.Open();
  pool.Quiesce();
  EXPECT_TRUE(pool.IsResident(raws[0]));
  EXPECT_TRUE(pool.IsResident(raws[1]));
  EXPECT_FALSE(pool.IsResident(raws[2]));
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetch_issued, 3u);
  EXPECT_EQ(stats.prefetch_dropped, 1u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);

  // The dropped page is still perfectly fetchable on demand.
  auto page = pool.FetchPage(raws[2]);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(raws[2], false).ok());
}

}  // namespace
}  // namespace lruk

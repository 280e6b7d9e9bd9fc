// The write-behind queue (src/io/) and the pools' miss path, deterministic
// half (the threaded half lives in async_io_concurrency_test.cc).
//
// Coverage layers:
//  * IoDispatcher units — the queue bounds itself and refuses TryPost when
//    full, counts its queued items and their waits, and drains (Drain(),
//    destruction) only once every accepted item ran; TryPost returns
//    without running its closure, one writer runs the queue in post
//    order, and `writers` threads run items at once.
//  * Demand misses — every miss reads on the calling thread: an inline
//    pool (plain or sharded), which has no dispatcher, and a worker-mode
//    pool, whose queue carries only the dirty victims' writes (a sharded
//    pool's shards share one queue) and whose reads go on with its writer
//    parked; a failed read in worker mode gives its frame back.
//  * Scans (plain, worker and sharded pools) — a cold scan
//    reads each page once and nothing ahead of it, and, as in the paper's
//    Example 1.2, leaves an LRU-2 pool's hot set resident where LRU
//    (K = 1) loses all of it.
//  * Differential battery — driven single-threaded, a worker-mode pool
//    (plain or sharded) produces BYTE-IDENTICAL behaviour to the inline
//    pool over a 20k-op mixed workload: same pool counters, same victim
//    sequence, same IoStats, same residency, same disk images, except
//    that write-behind moves dirty victim writes from dirty_writebacks to
//    writebehind_writes.
//  * Replay determinism — the inline dispatcher over a seeded fault
//    schedule reproduces the identical fault trace, stats and disk images
//    run-to-run (fault replay survives the dispatcher).
//  * Retry — a clean miss's read retries a transient failure with the
//    pool latch released: hits keep completing while the retry is in the
//    disk.
//  * Quiesce/fence — demand reads are held in the disk by a gate disk
//    manager: DeletePage waits out the read of the same page (no
//    resurrection after the delete), FlushAll waits for it, and Quiesce
//    waits for reads in flight on several client threads and for a
//    victim write queued behind a parked writer.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "io/io_dispatcher.h"
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
using difftest::DiffScenarioResult;
using difftest::ExpectMatchesModel;
using difftest::ExpectScenarioEq;
using difftest::RunDiffScenario;
using difftest::kDiffCapacity;
using difftest::kDiffDbPages;

// Forwarding disk manager that blocks reads of chosen pages until
// released — pins demand reads mid-flight so fences can be exercised
// deterministically — and records which thread issued each operation.
class GateDiskManager final : public DiskManager {
 public:
  explicit GateDiskManager(DiskManager* inner) : inner_(inner) {}

  // Future reads of `p` block until Open(); each Close adds a page.
  void Close(PageId p) {
    std::lock_guard<std::mutex> guard(mutex_);
    gated_.insert(p);
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mutex_);
    gated_.clear();
    cv_.notify_all();
  }
  // Blocks until `readers` reads wait at the gate at once, or `timeout`
  // passes: false if they did not.
  bool AwaitReadersFor(int readers, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> guard(mutex_);
    return cv_.wait_for(guard, timeout, [&] { return waiting_ >= readers; });
  }
  bool AwaitReaderFor(std::chrono::milliseconds timeout) {
    return AwaitReadersFor(1, timeout);
  }

  // The thread of every read (write) so far, in issue order.
  std::vector<std::thread::id> ReaderThreads() {
    std::lock_guard<std::mutex> guard(mutex_);
    return reader_threads_;
  }
  std::vector<std::thread::id> WriterThreads() {
    std::lock_guard<std::mutex> guard(mutex_);
    return writer_threads_;
  }

  Status ReadPage(PageId p, char* out) override {
    {
      std::unique_lock<std::mutex> guard(mutex_);
      reader_threads_.push_back(std::this_thread::get_id());
      if (gated_.contains(p)) {
        ++waiting_;
        cv_.notify_all();  // Wake AwaitReadersFor.
        cv_.wait(guard, [&] { return !gated_.contains(p); });
        --waiting_;
      }
    }
    return inner_->ReadPage(p, out);
  }
  Status WritePage(PageId p, const char* data) override {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      writer_threads_.push_back(std::this_thread::get_id());
    }
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
  std::unordered_set<PageId> gated_;
  int waiting_ = 0;
  std::vector<std::thread::id> reader_threads_;
  std::vector<std::thread::id> writer_threads_;
};

// How long a check waits for a held read to reach the gate, before it
// fails instead of hanging.
constexpr std::chrono::milliseconds kHeldReadTimeout{10000};

// ---------------------------------------------------------------------------
// IoDispatcher units.

TEST(AsyncIoDispatcherTest, WorkerModeBoundsQueueAndRejectsTryPost) {
  IoDispatcher io(/*writers=*/1);
  // Park the single writer on a gate, then fill the queue.
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> parked{false};
  ASSERT_TRUE(io.TryPost([&] {
    parked.store(true);
    std::unique_lock<std::mutex> guard(m);
    cv.wait(guard, [&] { return open; });
  }));
  // Wait until the writer has dequeued the parked item, so the posts
  // below are what fills the queue.
  while (!parked.load()) std::this_thread::yield();
  std::atomic<int> done{0};
  for (size_t i = 0; i < kIoLaneDepth; ++i) {
    ASSERT_TRUE(io.TryPost([&] { done.fetch_add(1); }));
  }
  // The queue now holds kIoLaneDepth items with the writer parked: full.
  EXPECT_FALSE(io.TryPost([&] { done.fetch_add(1); }));
  EXPECT_EQ(io.stats().lane(IoClass::kFlush).rejected, 1u);
  {
    std::lock_guard<std::mutex> guard(m);
    open = true;
  }
  cv.notify_all();
  io.Drain();
  // The rejected closure never ran.
  EXPECT_EQ(done.load(), static_cast<int>(kIoLaneDepth));
}

TEST(AsyncIoDispatcherTest, DestructorDrainsAcceptedWork) {
  std::atomic<int> ran{0};
  {
    IoDispatcher io(/*writers=*/2);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(io.TryPost([&] { ran.fetch_add(1); }));
    }
  }  // Destructor joins only after every accepted item executed.
  EXPECT_EQ(ran.load(), 10);
}

// Parks a dispatcher's single writer inside a closure until Open(), so
// what queues behind it can be staged deterministically.
class ParkedWorker {
 public:
  // Posts the parking closure and waits until the writer runs it.
  void Park(IoDispatcher& io) {
    ASSERT_TRUE(io.TryPost([this] {
      std::unique_lock<std::mutex> guard(mutex_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(guard, [&] { return open_; });
    }));
    std::unique_lock<std::mutex> guard(mutex_);
    cv_.wait(guard, [&] { return parked_; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool open_ = false;
};

TEST(AsyncIoDispatcherTest, QueueDepthCountsQueuedItems) {
  IoDispatcher io(/*writers=*/1);
  ParkedWorker worker;
  worker.Park(io);
  EXPECT_EQ(io.QueueDepth(), 0u);  // Running, not queued.

  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(io.TryPost([&] { ran.fetch_add(1); }));
  }
  EXPECT_EQ(io.QueueDepth(), 5u);
  // Hold the queued items for at least 5 ms of the clock the dispatcher
  // measures waits with.
  const auto queued = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - queued <
         std::chrono::milliseconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.Open();
  io.Drain();

  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(io.QueueDepth(), 0u);
  const IoDispatcherStats stats = io.stats();
  const IoLaneStats& queue = stats.lane(IoClass::kFlush);
  EXPECT_EQ(queue.accepted, 6u);  // The parking closure too.
  EXPECT_EQ(queue.executed, 6u);
  EXPECT_EQ(queue.queue_highwater, 5u);
  EXPECT_GE(queue.max_wait_micros, 5000.0);
  EXPECT_GE(queue.wait_micros, 5 * 5000.0);
  // Nothing ever counts in the demand slot.
  EXPECT_EQ(stats.lane(IoClass::kDemand).accepted, 0u);
  EXPECT_EQ(stats.lane(IoClass::kDemand).wait_micros, 0.0);
}

TEST(AsyncIoDispatcherTest, DrainWaitsForQueuedAndRunningWork) {
  IoDispatcher io(/*writers=*/1);
  ParkedWorker worker;
  worker.Park(io);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(io.TryPost([&] { ran.fetch_add(1); }));
  }

  auto drained = std::async(std::launch::async, [&] { io.Drain(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout)
      << "Drain returned with the writer parked and four items queued";
  EXPECT_EQ(ran.load(), 0);
  worker.Open();
  drained.get();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(io.QueueDepth(), 0u);
  // The parked closure too.
  EXPECT_EQ(io.stats().lane(IoClass::kFlush).executed, 5u);
}

// A post hands its closure to a writer and returns at once: the poster
// neither runs it nor waits for it.
TEST(AsyncIoDispatcherTest, TryPostReturnsBeforeAWriterRunsIt) {
  IoDispatcher io(/*writers=*/1);
  ParkedWorker worker;
  worker.Park(io);
  std::atomic<bool> ran{false};
  std::thread::id runner;
  ASSERT_TRUE(io.TryPost([&] {
    runner = std::this_thread::get_id();
    ran.store(true);
  }));
  EXPECT_FALSE(ran.load());  // The only writer is parked.
  worker.Open();
  io.Drain();
  EXPECT_TRUE(ran.load());
  EXPECT_NE(runner, std::this_thread::get_id());
}

// One queue, first in, first out: no item overtakes another.
TEST(AsyncIoDispatcherTest, OneWriterRunsTheQueueInPostOrder) {
  IoDispatcher io(/*writers=*/1);
  ParkedWorker worker;
  worker.Park(io);
  std::vector<int> order;  // Appended to by the one writer only.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(io.TryPost([&order, i] { order.push_back(i); }));
  }
  worker.Open();
  io.Drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// `writers` threads serve the queue at once: three closures that each
// wait for the other two all run together, on three distinct threads.
TEST(AsyncIoDispatcherTest, WritersServeTheQueueTogether) {
  constexpr int kWriters = 3;
  IoDispatcher io(kWriters);
  std::mutex m;
  std::condition_variable cv;
  int entered = 0;
  bool all_met = true;
  std::unordered_set<std::thread::id> threads;
  for (int i = 0; i < kWriters; ++i) {
    ASSERT_TRUE(io.TryPost([&] {
      std::unique_lock<std::mutex> guard(m);
      threads.insert(std::this_thread::get_id());
      ++entered;
      cv.notify_all();
      if (!cv.wait_for(guard, kHeldReadTimeout,
                       [&] { return entered == kWriters; })) {
        all_met = false;
      }
    }));
  }
  io.Drain();
  EXPECT_TRUE(all_met) << "fewer than " << kWriters << " writers ran at once";
  EXPECT_EQ(threads.size(), static_cast<size_t>(kWriters));
  EXPECT_FALSE(threads.contains(std::this_thread::get_id()));
}

// ---------------------------------------------------------------------------
// Differential battery: worker mode driven single-threaded vs the inline
// pool — byte-identical but for who wrote the dirty victims.

TEST(AsyncIoDifferentialTest, SingleThreadedWorkerModeMatchesInlinePool) {
  // Every miss reads on the calling thread, so a single-threaded driver
  // is sequential even with writers — the whole differential holds, not
  // just the counters. Worker mode writes dirty victims behind, so the
  // inline pool's victim writes are split between the write-behind queue
  // (writebehind_writes) and the evicting thread (a refused post,
  // dirty_writebacks); every other field still matches.
  auto expect_matches = [](DiffScenarioResult inline_pool,
                           DiffScenarioResult workers) {
    EXPECT_GT(workers.stats.writebehind_writes, 0u);
    EXPECT_EQ(workers.stats.writebehind_readmits, 0u);
    EXPECT_EQ(inline_pool.stats.dirty_writebacks,
              workers.stats.dirty_writebacks +
                  workers.stats.writebehind_writes);
    workers.stats.dirty_writebacks = inline_pool.stats.dirty_writebacks;
    ExpectScenarioEq(inline_pool, workers);
    ExpectMatchesModel(workers);  // As OptimisticDifferentialTest's pools.
  };
  expect_matches(RunDiffScenario({}), RunDiffScenario({.io_workers = 2}));
  expect_matches(RunDiffScenario({.sharded = true}),
                 RunDiffScenario({.sharded = true, .io_workers = 2}));
}

// ---------------------------------------------------------------------------
// Replay determinism: the inline pool over a fault schedule.

TEST(AsyncIoDifferentialTest, FaultScheduleReplayIsDeterministicInline) {
  auto run = [](std::string* trace) {
    SimDiskManager inner;
    FaultInjectingDiskManager disk(&inner, /*seed=*/42);
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.02));
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.02));

    BufferPool pool(kDiffCapacity, &disk,
                    std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));

    std::vector<PageId> pages = AllocateDb(pool, kDiffDbPages);
    RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
    RandomEngine rng(/*seed=*/7);
    for (int i = 0; i < 8000; ++i) {
      PageId p;
      if (i % 10 < 3) {
        // Interleave scan stretches with the skewed references.
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
    *trace += FormatCounters(stats);
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Retry on the miss path.

TEST(AsyncIoRetryTest, DemandReadRetriesWithTheLatchReleased) {
  SimDiskManager inner;
  GateDiskManager gate(&inner);
  FaultInjectingDiskManager disk(&gate, /*seed=*/29);
  BufferPoolOptions options;
  options.io_max_attempts = 2;  // Immediate re-issue.
  BufferPool pool(2, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> pages = AllocateDb(pool, 3);
  // AllocateDb leaves its pages dirty, and a miss whose victim is dirty
  // reads as one batch with the write-back, under the latch. A clean
  // victim leaves the read (and its retry) to run without it.
  ASSERT_TRUE(pool.FlushAll().ok());
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
  EXPECT_TRUE(gate.AwaitReaderFor(kHeldReadTimeout))
      << "the retry never reached the device";

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
// Demand misses: which thread reads, and what the queue carries.

std::unique_ptr<LruKPolicy> Lru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

// `n` pages allocated on `disk` that no pool holds: each one's first fetch
// is a clean miss.
std::vector<PageId> AllocateRaw(DiskManager& disk, size_t n) {
  std::vector<PageId> pages;
  for (size_t i = 0; i < n; ++i) {
    auto raw = disk.AllocatePage();
    EXPECT_TRUE(raw.ok());
    if (raw.ok()) pages.push_back(*raw);
  }
  return pages;
}

// The byte FixAndUnpin's dirtying fetch fills page `p` with.
char FillOf(PageId p) { return static_cast<char>('a' + p % 26); }

// Fetches and unpins `p`; a `dirty` fetch fills it with FillOf(p) first.
void FixAndUnpin(PoolInterface& pool, PageId p, bool dirty = false) {
  auto page = pool.FetchPage(p, dirty ? AccessType::kWrite : AccessType::kRead);
  ASSERT_TRUE(page.ok()) << "page " << p;
  if (dirty) std::memset((*page)->Data(), FillOf(p), kPageSize);
  ASSERT_TRUE(pool.UnpinPage(p, dirty).ok()) << "page " << p;
}

TEST(AsyncIoMissTest, InlineMissReadsOnTheCallingThread) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPool pool(4, &disk, Lru2());
  EXPECT_EQ(pool.io_dispatcher(), nullptr);  // An inline pool has none.
  for (PageId p : AllocateRaw(disk, 3)) FixAndUnpin(pool, p);

  EXPECT_EQ(disk.ReaderThreads(),
            std::vector<std::thread::id>(3, std::this_thread::get_id()));
}

TEST(AsyncIoMissTest, WorkerMissReadsOnTheCallingThread) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPool pool(2, &disk, Lru2(), BufferPoolOptions{.io_workers = 1});
  const std::vector<PageId> pages = AllocateRaw(disk, 3);
  FixAndUnpin(pool, pages[0], /*dirty=*/true);
  FixAndUnpin(pool, pages[1], /*dirty=*/true);
  FixAndUnpin(pool, pages[2]);  // Evicts a dirty page: written behind.
  pool.Quiesce();

  // Every read on this thread, the dirty victim's write on a writer.
  EXPECT_EQ(disk.ReaderThreads(),
            std::vector<std::thread::id>(3, std::this_thread::get_id()));
  const std::vector<std::thread::id> writers = disk.WriterThreads();
  ASSERT_EQ(writers.size(), 1u);
  EXPECT_NE(writers[0], std::this_thread::get_id());
  EXPECT_EQ(pool.stats().writebehind_writes, 1u);
  IoDispatcherStats io = pool.io_dispatcher()->stats();
  EXPECT_EQ(io.lane(IoClass::kDemand).accepted, 0u);
  EXPECT_EQ(io.lane(IoClass::kFlush).accepted, 1u);  // The victim write.
  EXPECT_EQ(io.lane(IoClass::kFlush).executed, 1u);
}

TEST(AsyncIoMissTest, WorkerModePostsDirtyVictimsOnTheFlushLane) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, Lru2(), BufferPoolOptions{.io_workers = 1});
  const std::vector<PageId> pages = AllocateRaw(disk, 3);
  FixAndUnpin(pool, pages[0], /*dirty=*/true);
  FixAndUnpin(pool, pages[1], /*dirty=*/true);
  FixAndUnpin(pool, pages[2]);  // Evicts a dirty page: written behind.
  pool.Quiesce();

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.writebehind_writes, 1u);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  IoDispatcherStats io = pool.io_dispatcher()->stats();
  EXPECT_EQ(io.lane(IoClass::kDemand).accepted, 0u);  // Reads never queue.
  EXPECT_EQ(io.lane(IoClass::kFlush).accepted, 1u);   // The victim write.
  EXPECT_EQ(io.lane(IoClass::kFlush).executed, 1u);
  EXPECT_EQ(io.lane(IoClass::kFlush).rejected, 0u);
  EXPECT_EQ(disk.stats().writes, 1u);
  const PageId victim = pool.IsResident(pages[0]) ? pages[1] : pages[0];
  EXPECT_FALSE(pool.IsResident(victim));
  char image[kPageSize];
  ASSERT_TRUE(disk.ReadPage(victim, image).ok());
  EXPECT_EQ(image[0], FillOf(victim));
  EXPECT_EQ(image[kPageSize - 1], FillOf(victim));
}

TEST(AsyncIoMissTest, FailedReadInWorkerModeGivesItsFrameBack) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool(4, &disk, Lru2(), BufferPoolOptions{.io_workers = 1});
  const PageId p = AllocateRaw(disk, 1).at(0);
  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, p));

  auto page = pool.FetchPage(p);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(pool.IsResident(p));
  EXPECT_EQ(pool.FreeFrameCount(), 4u);
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.read_failures, 1u);

  // The page is fetchable once the fault clears.
  disk.Heal();
  FixAndUnpin(pool, p);
  EXPECT_TRUE(pool.IsResident(p));
  EXPECT_EQ(pool.FreeFrameCount(), 3u);
}

// Reads never wait for a writer: with the pool's one writer parked, a
// miss still reads on the calling thread while its dirty victim's write
// waits in the queue, and once the queue is full the next dirty victim is
// written on the evicting thread.
TEST(AsyncIoMissTest, WorkerMissReadsWhileTheWriterIsParked) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPool pool(2, &disk, Lru2(), BufferPoolOptions{.io_workers = 1});
  const std::vector<PageId> pages = AllocateRaw(disk, 4);
  ParkedWorker writer;
  writer.Park(*pool.io_dispatcher());

  FixAndUnpin(pool, pages[0], /*dirty=*/true);
  FixAndUnpin(pool, pages[1], /*dirty=*/true);
  FixAndUnpin(pool, pages[2], /*dirty=*/true);  // Its victim's write queues.
  EXPECT_EQ(pool.PendingVictimWriteCount(), 1u);
  EXPECT_TRUE(disk.WriterThreads().empty());
  for (size_t i = 1; i < kIoLaneDepth; ++i) {  // Fill the queue behind it.
    ASSERT_TRUE(pool.io_dispatcher()->TryPost([] {}));
  }
  FixAndUnpin(pool, pages[3]);  // Its victim's post is refused.

  EXPECT_EQ(disk.ReaderThreads(),
            std::vector<std::thread::id>(4, std::this_thread::get_id()));
  EXPECT_EQ(disk.WriterThreads(),
            std::vector<std::thread::id>(1, std::this_thread::get_id()));
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_EQ(stats.writebehind_writes, 0u);
  EXPECT_EQ(pool.PendingVictimWriteCount(), 1u);
  EXPECT_EQ(pool.io_dispatcher()->stats().lane(IoClass::kFlush).rejected, 1u);

  writer.Open();
  pool.Quiesce();
  EXPECT_EQ(pool.stats().writebehind_writes, 1u);
  const std::vector<std::thread::id> writers = disk.WriterThreads();
  ASSERT_EQ(writers.size(), 2u);
  EXPECT_NE(writers[1], std::this_thread::get_id());
}

// A sharded inline pool has no dispatcher either, in the pool or in any
// shard: every miss reads on the calling thread, and every dirty victim is
// written back on the miss path.
TEST(AsyncIoMissTest, InlineShardedPoolHasNoDispatcher) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  ShardedBufferPool pool(4, /*num_shards=*/4, &disk,
                         [](size_t, size_t) { return Lru2(); });
  EXPECT_EQ(pool.io_dispatcher(), nullptr);
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    EXPECT_EQ(pool.shard(i).io_dispatcher(), nullptr) << "shard " << i;
  }
  const std::vector<PageId> pages = AllocateRaw(disk, 32);
  for (PageId p : pages) FixAndUnpin(pool, p, /*dirty=*/true);

  EXPECT_EQ(disk.ReaderThreads(),
            std::vector<std::thread::id>(pages.size(),
                                         std::this_thread::get_id()));
  const BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.dirty_writebacks, stats.evictions);
  EXPECT_EQ(stats.writebehind_writes, 0u);
  EXPECT_EQ(disk.WriterThreads().size(), stats.evictions);
}

// In worker mode the shards share the pool's one queue: its one writer
// writes every shard's dirty victims, and every miss reads on the calling
// thread.
TEST(AsyncIoMissTest, ShardedWorkerPoolSharesOneWriteBehindQueue) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  ShardedBufferPool pool(4, /*num_shards=*/4, &disk,
                         [](size_t, size_t) { return Lru2(); },
                         BufferPoolOptions{.io_workers = 1});
  IoDispatcher* io = pool.io_dispatcher();
  ASSERT_NE(io, nullptr);
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    EXPECT_EQ(pool.shard(i).io_dispatcher(), io) << "shard " << i;
  }
  const std::vector<PageId> pages = AllocateRaw(disk, 32);
  for (PageId p : pages) FixAndUnpin(pool, p, /*dirty=*/true);
  pool.Quiesce();

  EXPECT_EQ(disk.ReaderThreads(),
            std::vector<std::thread::id>(pages.size(),
                                         std::this_thread::get_id()));
  const BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  // Fewer victims than the queue holds: none was refused.
  EXPECT_EQ(stats.writebehind_writes, stats.evictions);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(io->stats().lane(IoClass::kFlush).accepted, stats.evictions);
  size_t posting_shards = 0;
  for (const BufferPoolStats& shard : pool.ShardStats()) {
    posting_shards += shard.writebehind_writes > 0 ? 1 : 0;
  }
  EXPECT_GT(posting_shards, 1u);
  const std::vector<std::thread::id> writers = disk.WriterThreads();
  ASSERT_EQ(writers.size(), stats.evictions);
  const std::unordered_set<std::thread::id> writer_threads(writers.begin(),
                                                           writers.end());
  EXPECT_EQ(writer_threads.size(), 1u);
  EXPECT_FALSE(writer_threads.contains(std::this_thread::get_id()));
}

// ---------------------------------------------------------------------------
// Scans, on every pool shape a scan can meet.

struct ScanPool {
  const char* name;
  bool sharded;
  size_t io_workers;
};

// An LRU-`k` pool of `capacity` frames over `disk`, shaped as `shape`
// says (a sharded pool has 4 shards).
std::unique_ptr<PoolInterface> MakeScanPool(const ScanPool& shape,
                                            size_t capacity,
                                            DiskManager* disk, int k) {
  BufferPoolOptions options{.io_workers = shape.io_workers};
  if (shape.sharded) {
    auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(k));
    EXPECT_TRUE(factory.ok());
    return std::make_unique<ShardedBufferPool>(capacity, /*num_shards=*/4,
                                               disk, *factory, options);
  }
  return std::make_unique<BufferPool>(
      capacity, disk, std::make_unique<LruKPolicy>(LruKOptions{.k = k}),
      options);
}

class ScanTest : public ::testing::TestWithParam<ScanPool> {};

// No page is read twice and none is read before its demand: the pages
// just past the scan stay on disk.
TEST_P(ScanTest, ColdScanReadsEachPageOnceAndNothingAhead) {
  constexpr size_t kScanned = 64;
  constexpr size_t kPastTheScan = 16;
  SimDiskManager disk;
  // Every shard can hold the whole scan: nothing is evicted.
  auto pool = MakeScanPool(GetParam(), 4 * kScanned, &disk, /*k=*/2);
  const std::vector<PageId> pages = AllocateRaw(disk, kScanned + kPastTheScan);

  for (size_t i = 0; i < kScanned; ++i) FixAndUnpin(*pool, pages[i]);
  EXPECT_EQ(disk.stats().reads, kScanned);
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pool->IsResident(pages[i]), i < kScanned) << "page " << i;
  }
  BufferPoolStats stats = pool->stats();
  EXPECT_EQ(stats.misses, kScanned);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_used, 0u);

  // A second pass hits every page and reads nothing.
  for (size_t i = 0; i < kScanned; ++i) FixAndUnpin(*pool, pages[i]);
  EXPECT_EQ(disk.stats().reads, kScanned);
  EXPECT_EQ(pool->stats().misses, kScanned);
}

// The paper's Example 1.2: a hot set referenced twice, then a scan of
// four times the pool's size. Under LRU-2 every scanned page has an
// infinite backward 2-distance, so the scan replaces only its own pages
// and the hot set is still resident; under LRU (K = 1) the scan flushes
// it all out.
TEST_P(ScanTest, ColdScanLeavesTheHotSetResident) {
  constexpr size_t kCapacity = 64;
  constexpr size_t kHot = 8;
  constexpr size_t kScanned = 4 * kCapacity;
  for (int k : {2, 1}) {
    SCOPED_TRACE(k == 2 ? "LRU-2" : "LRU");
    SimDiskManager disk;
    auto pool = MakeScanPool(GetParam(), kCapacity, &disk, k);
    const std::vector<PageId> hot = AllocateRaw(disk, kHot);
    const std::vector<PageId> scan = AllocateRaw(disk, kScanned);
    for (int pass = 0; pass < 2; ++pass) {
      for (PageId p : hot) FixAndUnpin(*pool, p);
    }
    for (PageId p : scan) FixAndUnpin(*pool, p);

    BufferPoolStats stats = pool->stats();
    EXPECT_EQ(stats.misses, kHot + kScanned);
    EXPECT_EQ(disk.stats().reads, kHot + kScanned);
    // Every frame (in a sharded pool, every shard) filled, so each miss
    // past the capacity evicted one page.
    EXPECT_EQ(pool->ResidentCount(), kCapacity);
    EXPECT_EQ(stats.evictions, kHot + kScanned - kCapacity);

    size_t hot_resident = 0;
    for (PageId p : hot) hot_resident += pool->IsResident(p) ? 1 : 0;
    EXPECT_EQ(hot_resident, k == 2 ? kHot : 0u);
    // Under LRU-2 the hot set's next references all hit.
    for (PageId p : hot) FixAndUnpin(*pool, p);
    EXPECT_EQ(pool->stats().misses,
              kHot + kScanned + (k == 2 ? 0 : kHot));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, ScanTest,
    ::testing::Values(ScanPool{"Plain", false, 0},
                      ScanPool{"Workers", false, 2},
                      ScanPool{"Sharded", true, 0}),
    [](const ::testing::TestParamInfo<ScanPool>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Quiesce / fence.

TEST(AsyncIoQuiesceTest, DeletePageFencesAnInFlightRead) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  auto target = disk.AllocatePage();
  ASSERT_TRUE(target.ok());
  const PageId p = *target;

  disk.Close(p);
  std::promise<void> delete_returned;
  std::thread reader([&] {
    auto page = pool.FetchPage(p);
    EXPECT_TRUE(page.ok());
    // Holds its pin until the fenced delete has returned.
    delete_returned.get_future().wait();
    if (page.ok()) {
      EXPECT_TRUE(pool.UnpinPage(p, false).ok());
    }
  });
  EXPECT_TRUE(disk.AwaitReaderFor(kHeldReadTimeout))
      << "the miss never reached the device";
  EXPECT_EQ(pool.PendingIoCount(), 1u);

  auto deleter = std::async(std::launch::async, [&] {
    return pool.DeletePage(p);  // Fenced: waits for the read to settle.
  });
  EXPECT_EQ(deleter.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout)
      << "the delete did not wait for the in-flight read";
  disk.Open();
  // The delete saw the read's admission (p resident, the reader's pin on
  // it), not a non-resident page it could deallocate under the read.
  EXPECT_EQ(deleter.get().code(), StatusCode::kInvalidArgument);
  delete_returned.set_value();
  reader.join();

  ASSERT_TRUE(pool.DeletePage(p).ok());
  EXPECT_FALSE(pool.IsResident(p));
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_EQ(pool.FreeFrameCount(), 4u);  // No leaked frame.
  EXPECT_EQ(inner.NumAllocatedPages(), 0u);
  char buf[kPageSize];
  EXPECT_FALSE(inner.ReadPage(p, buf).ok());  // Gone on disk too.
}

TEST(AsyncIoQuiesceTest, FlushAllQuiescesAnInFlightRead) {
  SimDiskManager inner;
  GateDiskManager disk(&inner);
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  AllocateDb(pool, 2);
  ASSERT_TRUE(pool.FlushAll().ok());

  auto raw = disk.AllocatePage();
  ASSERT_TRUE(raw.ok());
  disk.Close(*raw);
  std::thread reader([&] {
    auto page = pool.FetchPage(*raw);
    EXPECT_TRUE(page.ok());
    if (page.ok()) {
      EXPECT_TRUE(pool.UnpinPage(*raw, false).ok());
    }
  });
  EXPECT_TRUE(disk.AwaitReaderFor(kHeldReadTimeout))
      << "the miss never reached the device";

  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    disk.Open();
  });
  ASSERT_TRUE(pool.FlushAll().ok());  // Blocks until the read settles.
  EXPECT_EQ(pool.PendingIoCount(), 0u);
  EXPECT_TRUE(pool.IsResident(*raw));  // The read completed first.
  opener.join();
  reader.join();
}

// Four misses on four client threads, every read held in the device at
// once (worker mode too: reads never wait for a writer thread), and
// Quiesce waits for all of them.
TEST(AsyncIoQuiesceTest, QuiesceDrainsReadsInFlightOnClientThreads) {
  constexpr int kReaders = 4;
  for (size_t workers : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE(workers == 0 ? "inline" : "worker mode");
    SimDiskManager inner;
    GateDiskManager disk(&inner);
    BufferPool pool(8, &disk, Lru2(), BufferPoolOptions{.io_workers = workers});
    const std::vector<PageId> raws = AllocateRaw(disk, kReaders);
    for (PageId p : raws) disk.Close(p);
    std::vector<std::thread> readers;
    for (PageId p : raws) {
      readers.emplace_back([&pool, p] { FixAndUnpin(pool, p); });
    }
    EXPECT_TRUE(disk.AwaitReadersFor(kReaders, kHeldReadTimeout))
        << "the misses' reads never were in the device together";
    EXPECT_EQ(pool.PendingIoCount(), raws.size());

    std::thread opener([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      disk.Open();
    });
    pool.Quiesce();
    EXPECT_EQ(pool.PendingIoCount(), 0u);
    for (PageId p : raws) EXPECT_TRUE(pool.IsResident(p));
    opener.join();
    for (std::thread& reader : readers) reader.join();
    EXPECT_EQ(pool.stats().misses, raws.size());
    // Each read ran on its own client thread.
    const std::vector<std::thread::id> threads = disk.ReaderThreads();
    EXPECT_EQ(std::unordered_set<std::thread::id>(threads.begin(),
                                                  threads.end())
                  .size(),
              raws.size());
  }
}

// Quiesce waits for victim writes too: one queued behind a parked writer
// holds it until the writer has run it.
TEST(AsyncIoQuiesceTest, QuiesceWaitsForAQueuedVictimWrite) {
  SimDiskManager disk;
  BufferPool pool(1, &disk, Lru2(), BufferPoolOptions{.io_workers = 1});
  const std::vector<PageId> pages = AllocateRaw(disk, 2);
  ParkedWorker writer;
  writer.Park(*pool.io_dispatcher());
  FixAndUnpin(pool, pages[0], /*dirty=*/true);
  FixAndUnpin(pool, pages[1]);  // Evicts pages[0]: its write queues.
  ASSERT_EQ(pool.PendingVictimWriteCount(), 1u);

  auto quiesced = std::async(std::launch::async, [&] { pool.Quiesce(); });
  EXPECT_EQ(quiesced.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout)
      << "Quiesce returned with a victim write queued behind a parked writer";
  EXPECT_EQ(disk.stats().writes, 0u);
  writer.Open();
  quiesced.get();
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  EXPECT_EQ(pool.stats().writebehind_writes, 1u);
  char image[kPageSize];
  ASSERT_TRUE(disk.ReadPage(pages[0], image).ok());
  EXPECT_EQ(image[0], FillOf(pages[0]));
  EXPECT_EQ(image[kPageSize - 1], FillOf(pages[0]));
}

}  // namespace
}  // namespace lruk

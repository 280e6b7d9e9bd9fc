// The device batch (DiskManager::RunBatch) and the dirty miss that uses it
// (DESIGN.md §6 "The miss path" and §7 "Failed write-back"), on the
// default (inline-dispatcher) pool.
//
// Coverage:
//  * RunBatch — it keeps at most kMaxIoInFlight operations in flight,
//    reads and writes alike, and reports each entry's status; a batch of
//    one runs on the caller's thread; a manager whose MaxConcurrentIo is 1
//    gets its batch in order on the caller's thread and never reads after
//    a failed write of the batch.
//  * Runners — the same few persistent runner threads serve a thousand
//    batches; a batch finishes, on its caller alone, while every runner
//    is held by another; a destroyed manager has joined every runner.
//  * Overlap — on a device that declares concurrency, a dirty miss's
//    write-back is held until its demand read has started, so both are in
//    flight at once; the run's counters and page bytes equal a serial
//    device's. The demand read runs on the fetching thread, the write-back
//    on a runner.
//  * Serial order — a device that declares 1 sees the write-back, then
//    the read (and the write's retries before it), and no read after a
//    failed write-back.
//  * Rollback — a failed write-back on a concurrent device leaves the
//    victim resident and dirty with its exact image and the policy exactly
//    as before its Evict; a failed read after a landed write-back leaves
//    the eviction standing and the frame free.
//
// Every suite name carries "Concurren", so the sanitizer CI matrix runs it.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

namespace lruk {
namespace {

// ---------------------------------------------------------------------------
// RunBatch.

// Counts concurrent ReadPage/WritePage calls, each held ~1 ms, and fails
// writes of one chosen page. Reads fill the page with its id's low byte.
class InFlightDiskManager final : public DiskManager {
 public:
  explicit InFlightDiskManager(PageId failing) : failing_(failing) {}

  size_t max_in_flight() const { return max_in_flight_.load(); }
  // Whether a read and a write were ever in flight at the same moment.
  bool mixed() const { return mixed_.load(); }
  uint64_t WritesOf(PageId p) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = writes_.find(p);
    return it == writes_.end() ? 0 : it->second;
  }

  Status ReadPage(PageId p, char* out) override {
    Enter(reads_in_flight_, writes_in_flight_);
    std::memset(out, static_cast<char>(p), kPageSize);
    Leave(reads_in_flight_);
    return Status::Ok();
  }
  Status WritePage(PageId p, const char*) override {
    Enter(writes_in_flight_, reads_in_flight_);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++writes_[p];
    }
    Leave(writes_in_flight_);
    if (p == failing_) return Status::IoError("injected");
    return Status::Ok();
  }
  Result<PageId> AllocatePage() override {
    return Status::Internal("batch-only test device");
  }
  Status DeallocatePage(PageId) override { return Status::Ok(); }
  uint64_t NumAllocatedPages() const override { return 0; }

 private:
  void Enter(std::atomic<size_t>& mine, const std::atomic<size_t>& other) {
    mine.fetch_add(1);
    size_t now = in_flight_.fetch_add(1) + 1;
    size_t seen = max_in_flight_.load();
    while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (other.load() > 0) mixed_.store(true);
  }
  void Leave(std::atomic<size_t>& mine) {
    in_flight_.fetch_sub(1);
    mine.fetch_sub(1);
  }

  PageId failing_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> reads_in_flight_{0};
  std::atomic<size_t> writes_in_flight_{0};
  std::atomic<size_t> max_in_flight_{0};
  std::atomic<bool> mixed_{false};
  mutable std::mutex mutex_;
  std::unordered_map<PageId, uint64_t> writes_;
};

PageIo Write(PageId p, char* data, Status status = Status::Ok()) {
  return {PageIo::Kind::kWrite, p, data, std::move(status)};
}

PageIo Read(PageId p, char* data) {
  return {PageIo::Kind::kRead, p, data, Status::Internal("not read")};
}

TEST(RunBatchConcurrencyTest, BaseKeepsAtMost16WritesInFlight) {
  constexpr PageId kPages = 100;
  constexpr PageId kFailing = 37;
  InFlightDiskManager disk(kFailing);
  std::vector<char> image(kPageSize, 'x');
  std::vector<PageIo> writes;
  for (PageId p = 0; p < kPages; ++p) {
    writes.push_back(Write(p, image.data(), Status::Internal("not written")));
  }
  disk.RunBatch(writes);

  EXPECT_LE(disk.max_in_flight(), DiskManager::kMaxIoInFlight);
  EXPECT_GT(disk.max_in_flight(), 1u) << "the batch never overlapped";
  for (PageId p = 0; p < kPages; ++p) {
    EXPECT_EQ(disk.WritesOf(p), 1u) << "page " << p;
    if (p == kFailing) {
      EXPECT_EQ(writes[p].status.code(), StatusCode::kIoError);
    } else {
      EXPECT_TRUE(writes[p].status.ok()) << "page " << p;
    }
  }
}

TEST(RunBatchConcurrencyTest, BatchOfOneRunsOnTheCallersThread) {
  struct ThreadRecorder final : public DiskManager {
    std::thread::id writer;
    Status ReadPage(PageId, char*) override { return Status::Ok(); }
    Status WritePage(PageId, const char*) override {
      writer = std::this_thread::get_id();
      return Status::Ok();
    }
    Result<PageId> AllocatePage() override { return PageId{0}; }
    Status DeallocatePage(PageId) override { return Status::Ok(); }
    uint64_t NumAllocatedPages() const override { return 0; }
  } disk;
  std::vector<char> image(kPageSize, 'x');
  PageIo write = Write(3, image.data(), Status::Internal("not written"));
  disk.RunBatch(std::span<PageIo>(&write, 1));
  EXPECT_TRUE(write.status.ok());
  EXPECT_EQ(disk.writer, std::this_thread::get_id());
}

TEST(RunBatchConcurrencyTest, OneWriteAtATimeRunsInBatchOrderOnTheCaller) {
  struct OrderRecorder final : public DiskManager {
    std::vector<PageId> order;
    std::vector<std::thread::id> writers;
    size_t MaxConcurrentIo() const override { return 1; }
    Status ReadPage(PageId, char*) override { return Status::Ok(); }
    Status WritePage(PageId p, const char*) override {
      order.push_back(p);
      writers.push_back(std::this_thread::get_id());
      return Status::Ok();
    }
    Result<PageId> AllocatePage() override { return PageId{0}; }
    Status DeallocatePage(PageId) override { return Status::Ok(); }
    uint64_t NumAllocatedPages() const override { return 0; }
  } disk;
  std::vector<char> image(kPageSize, 'x');
  std::vector<PageIo> writes;
  const std::vector<PageId> batch = {9, 4, 7, 1, 30, 2};
  for (PageId p : batch) writes.push_back(Write(p, image.data()));
  disk.RunBatch(writes);
  EXPECT_EQ(disk.order, batch);
  for (std::thread::id writer : disk.writers) {
    EXPECT_EQ(writer, std::this_thread::get_id());
  }
}

// Reads and writes share the one bound and overlap each other, and each
// read lands in its own buffer.
TEST(RunBatchConcurrencyTest, MixedReadsAndWritesOverlapUnderOneBound) {
  constexpr PageId kPages = 64;
  InFlightDiskManager disk(/*failing=*/kInvalidPageId);
  std::vector<char> image(kPageSize, 'x');
  std::vector<std::vector<char>> buffers(kPages, std::vector<char>(kPageSize));
  std::vector<PageIo> batch;
  for (PageId p = 0; p < kPages; ++p) {
    batch.push_back(p % 2 == 0 ? Read(p, buffers[p].data())
                               : Write(p, image.data()));
  }
  disk.RunBatch(batch);

  EXPECT_LE(disk.max_in_flight(), DiskManager::kMaxIoInFlight);
  EXPECT_GT(disk.max_in_flight(), 1u) << "the batch never overlapped";
  EXPECT_TRUE(disk.mixed()) << "no read ever overlapped a write";
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_TRUE(batch[p].status.ok()) << "page " << p;
    if (p % 2 == 1) {
      EXPECT_EQ(disk.WritesOf(p), 1u) << "page " << p;
    } else {
      EXPECT_EQ(buffers[p], std::vector<char>(kPageSize, static_cast<char>(p)))
          << "page " << p;
    }
  }
}

// A manager that declares 1 runs the batch in order and issues no read
// after a failed write; the writes after it still run.
TEST(RunBatchConcurrencyTest, SerialBatchReadsNothingAfterAFailedWrite) {
  struct Recorder final : public DiskManager {
    std::vector<std::pair<PageIo::Kind, PageId>> ops;
    size_t MaxConcurrentIo() const override { return 1; }
    Status ReadPage(PageId p, char*) override {
      ops.emplace_back(PageIo::Kind::kRead, p);
      return Status::Ok();
    }
    Status WritePage(PageId p, const char*) override {
      ops.emplace_back(PageIo::Kind::kWrite, p);
      return p == 2 ? Status::IoError("injected") : Status::Ok();
    }
    Result<PageId> AllocatePage() override { return PageId{0}; }
    Status DeallocatePage(PageId) override { return Status::Ok(); }
    uint64_t NumAllocatedPages() const override { return 0; }
  } disk;
  std::vector<char> buffer(kPageSize);
  std::vector<PageIo> batch = {Read(1, buffer.data()),
                               Write(2, buffer.data()),
                               Read(3, buffer.data()),
                               Write(4, buffer.data())};
  disk.RunBatch(batch);
  const std::vector<std::pair<PageIo::Kind, PageId>> expected = {
      {PageIo::Kind::kRead, 1},
      {PageIo::Kind::kWrite, 2},
      {PageIo::Kind::kWrite, 4}};
  EXPECT_EQ(disk.ops, expected);
  EXPECT_TRUE(batch[0].status.ok());
  EXPECT_EQ(batch[1].status.code(), StatusCode::kIoError);
  EXPECT_EQ(batch[2].status.code(), StatusCode::kAborted);
  EXPECT_TRUE(batch[3].status.ok());
}

// The threads other than a test's own that have run a BarrierDisk
// operation: each is counted on its first one (a thread_local, since a
// joined thread's id may be reused) and leaves `live` when it exits.
std::atomic<int> census_started{0};
std::atomic<int> census_live{0};

void EnterCensus() {
  struct Entry {
    Entry() {
      census_started.fetch_add(1);
      census_live.fetch_add(1);
    }
    ~Entry() { census_live.fetch_sub(1); }
  };
  thread_local Entry entry;
  (void)entry;
}

// A device without storage whose operations on pages below kFreePages
// wait for each other: each waits until `group` of them, counted in
// arrival order, have arrived (so a batch of `group` such entries must run
// all at once, on as many threads), or until Release. A wait that lasts
// 10 s is counted and ends the waiting, so the test fails instead of
// hanging. Operations on other pages never wait. It records the thread of
// each page's last operation, and enters the census from every thread but
// the one that made it.
class BarrierDisk final : public DiskManager {
 public:
  static constexpr PageId kFreePages = 1000;

  explicit BarrierDisk(size_t group) : group_(group) {}

  // Starts counting groups afresh, of `group` operations each.
  void SetGroup(size_t group) {
    std::lock_guard<std::mutex> guard(mutex_);
    group_ = group;
    arrived_ = 0;
  }
  void Release() {
    std::lock_guard<std::mutex> guard(mutex_);
    released_ = true;
    cv_.notify_all();
  }
  // Waits up to 10 s for `n` operations to have arrived since SetGroup.
  bool AwaitArrivals(uint64_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return arrived_ >= n; });
  }
  uint64_t timeouts() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return timeouts_;
  }
  std::thread::id ThreadOf(PageId p) const {
    std::lock_guard<std::mutex> guard(mutex_);
    return threads_.at(p);
  }

  Status ReadPage(PageId p, char*) override { return Meet(p); }
  Status WritePage(PageId p, const char*) override { return Meet(p); }
  Result<PageId> AllocatePage() override {
    return Status::Internal("batch-only test device");
  }
  Status DeallocatePage(PageId) override { return Status::Ok(); }
  uint64_t NumAllocatedPages() const override { return 0; }

 private:
  Status Meet(PageId p) {
    if (std::this_thread::get_id() != owner_) EnterCensus();
    std::unique_lock<std::mutex> lock(mutex_);
    threads_[p] = std::this_thread::get_id();
    if (p >= kFreePages) return Status::Ok();
    const uint64_t quorum = (arrived_++ / group_ + 1) * group_;
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return released_ || arrived_ >= quorum; })) {
      ++timeouts_;
      released_ = true;
      cv_.notify_all();
    }
    return Status::Ok();
  }

  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  size_t group_;
  uint64_t arrived_ = 0;
  bool released_ = false;
  uint64_t timeouts_ = 0;
  std::unordered_map<PageId, std::thread::id> threads_;
};

// Batch entries of pages [first, first + n), writes and reads alternating.
std::vector<PageIo> Entries(PageId first, size_t n, char* buffer) {
  std::vector<PageIo> batch;
  for (PageId p = first; p < first + n; ++p) {
    batch.push_back(p % 2 == 0 ? Write(p, buffer) : Read(p, buffer));
  }
  return batch;
}

bool AllOk(const std::vector<PageIo>& batch) {
  for (const PageIo& io : batch) {
    if (!io.status.ok()) return false;
  }
  return true;
}

// A thousand two-entry batches whose entries must run at once: every one
// gets a runner, and the same few runners serve them all.
TEST(RunBatchConcurrencyTest, RunnersPersistAcrossBatches) {
  BarrierDisk disk(/*group=*/2);
  std::vector<char> buffer(kPageSize);
  const int started_before = census_started.load();
  for (int i = 0; i < 1000; ++i) {
    std::vector<PageIo> pair = Entries(0, 2, buffer.data());
    disk.RunBatch(pair);
    ASSERT_TRUE(AllOk(pair)) << "batch " << i;
  }
  EXPECT_EQ(disk.timeouts(), 0u) << "a pair's entries did not run at once";
  const int runners = census_started.load() - started_before;
  EXPECT_GE(runners, 1);
  EXPECT_LE(runners, static_cast<int>(disk.MaxConcurrentIo()) - 1);
}

// Every runner holds an entry of one batch that cannot finish yet; another
// thread's batch still finishes, on that thread alone and in batch order.
TEST(RunBatchConcurrencyTest, CallerCompletesWhileEveryRunnerIsBusy) {
  const size_t width = DiskManager::kMaxIoInFlight;
  BarrierDisk disk(/*group=*/width + 1);  // A quorum never reached.
  std::vector<char> buffer(kPageSize);
  std::vector<PageIo> held = Entries(0, width, buffer.data());
  std::thread holder([&] { disk.RunBatch(held); });
  ASSERT_TRUE(disk.AwaitArrivals(width)) << "the held batch never spread";

  std::vector<PageIo> pair =
      Entries(BarrierDisk::kFreePages, 2, buffer.data());
  std::thread::id caller;
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread other([&] {
    caller = std::this_thread::get_id();
    disk.RunBatch(pair);
    finished.set_value();
  });
  const bool in_time =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  disk.Release();
  other.join();
  holder.join();

  EXPECT_TRUE(in_time) << "a batch waited for another batch's runners";
  EXPECT_TRUE(AllOk(pair));
  EXPECT_TRUE(AllOk(held));
  EXPECT_EQ(disk.ThreadOf(BarrierDisk::kFreePages), caller);
  EXPECT_EQ(disk.ThreadOf(BarrierDisk::kFreePages + 1), caller);
  EXPECT_EQ(disk.timeouts(), 0u);
}

// A manager's runners are gone once its destructor returns: each round
// starts every runner (a full-width batch must run all at once), reuses
// them, and destroys the manager.
TEST(RunBatchConcurrencyTest, DestroyedManagerJoinsItsRunners) {
  const size_t width = DiskManager::kMaxIoInFlight;
  std::vector<char> buffer(kPageSize);
  for (int round = 0; round < 100; ++round) {
    const int started_before = census_started.load();
    auto disk = std::make_unique<BarrierDisk>(/*group=*/width);
    std::vector<PageIo> wide = Entries(0, width, buffer.data());
    disk->RunBatch(wide);
    disk->SetGroup(2);
    for (int i = 0; i < 3; ++i) {
      std::vector<PageIo> pair = Entries(0, 2, buffer.data());
      disk->RunBatch(pair);
      ASSERT_TRUE(AllOk(pair));
    }
    ASSERT_TRUE(AllOk(wide));
    ASSERT_EQ(disk->timeouts(), 0u) << "round " << round;
    disk.reset();
    ASSERT_EQ(census_started.load() - started_before,
              static_cast<int>(width) - 1)
        << "round " << round;
    ASSERT_EQ(census_live.load(), 0) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// The dirty miss.

// A device over SimDiskManager that logs every operation and the thread
// that ran it, fails the ones it is told to, and, while HoldWrites is on,
// holds the k-th write since until the k-th read since has started: for a
// run of paired dirty misses, each write-back until its own miss's read is
// in flight. HoldReads holds reads for writes the same way. An operation
// that waits 10 s instead is counted and ends the holding, so the test
// fails instead of hanging. It declares `max_concurrent_io`.
class PairDevice final : public DiskManager {
 public:
  using Op = std::pair<PageIo::Kind, PageId>;

  PairDevice(DiskManager* inner, size_t max_concurrent_io)
      : inner_(inner), max_concurrent_io_(max_concurrent_io) {}

  void HoldWrites(bool on) {
    std::lock_guard<std::mutex> guard(mutex_);
    hold_writes_ = on;
    held_writes_ = 0;
    reads_started_ = 0;
  }
  void HoldReads(bool on) {
    std::lock_guard<std::mutex> guard(mutex_);
    hold_reads_ = on;
    held_reads_ = 0;
    writes_started_ = 0;
  }
  // Writes of `p` fail with kIoError: the next `times` of them, or all.
  void FailWrites(PageId p, int times = -1) {
    std::lock_guard<std::mutex> guard(mutex_);
    failing_writes_[p] = times;
  }
  void FailReads(PageId p) {
    std::lock_guard<std::mutex> guard(mutex_);
    failing_reads_.insert(p);
  }
  void Heal() {
    std::lock_guard<std::mutex> guard(mutex_);
    failing_writes_.clear();
    failing_reads_.clear();
  }
  std::vector<Op> TakeOps() {
    std::lock_guard<std::mutex> guard(mutex_);
    op_threads_.clear();
    return std::exchange(ops_, {});
  }
  // The thread of each operation TakeOps would return.
  std::vector<std::thread::id> OpThreads() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return op_threads_;
  }
  // Held writes that a read released, and held writes that timed out.
  uint64_t overlapped_writes() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return overlapped_writes_;
  }
  uint64_t timed_out_writes() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return timed_out_writes_;
  }
  uint64_t timed_out_reads() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return timed_out_reads_;
  }

  size_t MaxConcurrentIo() const override { return max_concurrent_io_; }
  Status ReadPage(PageId p, char* out) override {
    {
      std::unique_lock<std::mutex> guard(mutex_);
      Log(PageIo::Kind::kRead, p);
      ++reads_started_;
      cv_.notify_all();
      if (hold_reads_) {
        const uint64_t k = ++held_reads_;
        if (!cv_.wait_for(guard, std::chrono::seconds(10),
                          [&] { return writes_started_ >= k; })) {
          ++timed_out_reads_;
          hold_reads_ = false;
        }
      }
      if (failing_reads_.contains(p)) {
        return Status::IoError("injected read failure");
      }
    }
    return inner_->ReadPage(p, out);
  }
  Status WritePage(PageId p, const char* data) override {
    {
      std::unique_lock<std::mutex> guard(mutex_);
      Log(PageIo::Kind::kWrite, p);
      ++writes_started_;
      cv_.notify_all();
      if (hold_writes_) {
        const uint64_t k = ++held_writes_;
        if (cv_.wait_for(guard, std::chrono::seconds(10),
                         [&] { return reads_started_ >= k; })) {
          ++overlapped_writes_;
        } else {
          ++timed_out_writes_;
          hold_writes_ = false;
        }
      }
      auto failing = failing_writes_.find(p);
      if (failing != failing_writes_.end() && failing->second != 0) {
        if (failing->second > 0) --failing->second;
        return Status::IoError("injected write failure");
      }
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
  void Log(PageIo::Kind kind, PageId p) {
    ops_.emplace_back(kind, p);
    op_threads_.push_back(std::this_thread::get_id());
  }

  DiskManager* inner_;
  size_t max_concurrent_io_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool hold_writes_ = false;
  uint64_t held_writes_ = 0;
  uint64_t reads_started_ = 0;
  uint64_t overlapped_writes_ = 0;
  uint64_t timed_out_writes_ = 0;
  bool hold_reads_ = false;
  uint64_t held_reads_ = 0;
  uint64_t writes_started_ = 0;
  uint64_t timed_out_reads_ = 0;
  std::unordered_map<PageId, int> failing_writes_;
  std::unordered_set<PageId> failing_reads_;
  std::vector<Op> ops_;
  std::vector<std::thread::id> op_threads_;
};

std::unique_ptr<LruKPolicy> Lru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

// Allocates `n` pages on `disk` directly, so the pool has written nothing.
std::vector<PageId> AllocatePages(DiskManager& disk, size_t n) {
  std::vector<PageId> pages;
  for (size_t i = 0; i < n; ++i) {
    auto p = disk.AllocatePage();
    EXPECT_TRUE(p.ok());
    pages.push_back(*p);
  }
  return pages;
}

// Fetches `p` for writing, fills it with `fill` and unpins it dirty.
void Dirty(BufferPool& pool, PageId p, char fill) {
  auto page = pool.FetchPage(p, AccessType::kWrite);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  std::memset((*page)->Data(), fill, kPageSize);
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
}

void Touch(BufferPool& pool, PageId p) {
  ASSERT_TRUE(pool.FetchPage(p).ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

// Everything LruKRollbackEquivalence compares, for pages [0, pages).
struct PolicyState {
  Timestamp time = 0;
  size_t history = 0;
  size_t resident = 0;
  size_t evictable = 0;
  std::vector<std::vector<Timestamp>> hist;
  std::vector<Timestamp> last;
  std::vector<int> flags;  // -1: no block; else resident * 2 + evictable.

  static PolicyState Of(const LruKPolicy& policy, PageId pages) {
    PolicyState s;
    s.time = policy.CurrentTime();
    s.history = policy.HistorySize();
    s.resident = policy.ResidentCount();
    s.evictable = policy.EvictableCount();
    for (PageId p = 0; p < pages; ++p) {
      const HistoryBlock* block = policy.DebugBlock(p);
      std::vector<Timestamp> hist;
      if (block != nullptr) {
        for (size_t i = 0; i < block->hist.size(); ++i) {
          hist.push_back(block->hist[i]);
        }
      }
      s.hist.push_back(hist);
      s.last.push_back(block == nullptr ? 0 : block->last);
      s.flags.push_back(block == nullptr
                            ? -1
                            : int{block->resident} * 2 + block->evictable);
    }
    return s;
  }
  bool operator==(const PolicyState&) const = default;
};

// A seeded single-threaded churn of dirtying fetches over 12 pages in 4
// frames, once on a device that overlaps (each write-back held until its
// miss's read has started) and once on one that declares 1: the same
// counters and the same bytes on disk, and on the first every write-back
// overlapped its read.
TEST(DirtyMissConcurrencyTest, WriteBackAndReadOverlapWithSerialResults) {
  constexpr size_t kFrames = 4;
  constexpr size_t kPages = 12;
  struct Run {
    BufferPoolStats stats;
    std::vector<std::vector<char>> images;
    uint64_t overlapped = 0;
    uint64_t timed_out = 0;
  };
  auto run = [&](size_t max_concurrent_io) {
    Run r;
    SimDiskManager inner;
    PairDevice disk(&inner, max_concurrent_io);
    std::vector<PageId> pages = AllocatePages(disk, kPages);
    {
      BufferPool pool(kFrames, &disk, Lru2());
      // Every fetch dirties its page, so once the frames are full every
      // miss evicts a dirty victim: the device sees only pairs, each a
      // write-back and then (or alongside) its miss's read.
      for (size_t i = 0; i < kFrames; ++i) Dirty(pool, pages[i], 'z');
      disk.HoldWrites(max_concurrent_io > 1);
      RandomEngine rng(42);
      for (int i = 0; i < 300; ++i) {
        Dirty(pool, pages[rng.NextBounded(kPages)],
              static_cast<char>('a' + i % 26));
      }
      disk.HoldWrites(false);
      r.stats = pool.stats();
      EXPECT_TRUE(pool.FlushAll().ok());
    }
    r.overlapped = disk.overlapped_writes();
    r.timed_out = disk.timed_out_writes();
    for (PageId p : pages) {
      std::vector<char> image(kPageSize);
      EXPECT_TRUE(inner.ReadPage(p, image.data()).ok());
      r.images.push_back(std::move(image));
    }
    return r;
  };
  const Run concurrent = run(DiskManager::kMaxIoInFlight);
  const Run serial = run(1);

  EXPECT_EQ(concurrent.timed_out, 0u) << "a write-back waited for no read";
  EXPECT_GT(concurrent.stats.dirty_writebacks, 10u);
  EXPECT_EQ(concurrent.overlapped, concurrent.stats.dirty_writebacks);
  EXPECT_EQ(concurrent.stats.hits, serial.stats.hits);
  EXPECT_EQ(concurrent.stats.misses, serial.stats.misses);
  EXPECT_EQ(concurrent.stats.evictions, serial.stats.evictions);
  EXPECT_EQ(concurrent.stats.dirty_writebacks, serial.stats.dirty_writebacks);
  EXPECT_EQ(concurrent.stats.read_failures + concurrent.stats.write_failures,
            0u);
  EXPECT_EQ(concurrent.images, serial.images);
}

// On a device that overlaps, each dirty miss's demand read runs on the
// thread that fetches, and its victim's write-back on a runner: each read
// is held until its write-back has started, so the two run at once.
TEST(DirtyMissConcurrencyTest, DemandReadRunsOnTheFetchingThread) {
  constexpr size_t kFrames = 4;
  SimDiskManager inner;
  PairDevice disk(&inner, DiskManager::kMaxIoInFlight);
  std::vector<PageId> pages = AllocatePages(disk, 12);
  BufferPool pool(kFrames, &disk, Lru2());
  for (size_t i = 0; i < kFrames; ++i) Dirty(pool, pages[i], 'z');
  (void)disk.TakeOps();
  disk.HoldReads(true);  // Every miss from here on evicts a dirty page.
  for (size_t i = kFrames; i < pages.size(); ++i) Dirty(pool, pages[i], 'y');
  disk.HoldReads(false);
  const std::vector<std::thread::id> threads = disk.OpThreads();
  const std::vector<PairDevice::Op> ops = disk.TakeOps();
  ASSERT_EQ(ops.size(), threads.size());

  EXPECT_EQ(disk.timed_out_reads(), 0u) << "a read ran without its write";
  EXPECT_EQ(pool.stats().dirty_writebacks, pages.size() - kFrames);
  size_t reads = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].first == PageIo::Kind::kRead) {
      ++reads;
      EXPECT_EQ(threads[i], std::this_thread::get_id()) << "read " << i;
    } else {
      EXPECT_NE(threads[i], std::this_thread::get_id()) << "write " << i;
    }
  }
  EXPECT_EQ(reads, pages.size() - kFrames);
}

// The three-frame set-up shared by the cases below: resident dirty victim
// `a` (filled with 'A' and referenced once, so LRU-2's next victim) and
// clean `c` and `d` (referenced alternately, four times each); `b` waits
// on disk.
constexpr size_t kSetUpFrames = 3;
constexpr PageId kSetUpPages = 4;
struct VictimSetUp {
  PageId a = 0;
  PageId b = 0;
  PageId c = 0;
  PageId d = 0;
};

VictimSetUp SetUpVictim(BufferPool& pool, DiskManager& disk) {
  VictimSetUp t;
  std::vector<PageId> ids = AllocatePages(disk, kSetUpPages);
  t.a = ids[0];
  t.b = ids[1];
  t.c = ids[2];
  t.d = ids[3];
  Dirty(pool, t.a, 'A');
  for (int i = 0; i < 4; ++i) {
    Touch(pool, t.c);
    Touch(pool, t.d);
  }
  return t;
}

// On a device that declares 1, a dirty miss is the write-back, then the
// read (with the write's retries first), and a failed write-back issues
// no read at all.
TEST(DirtyMissConcurrencyTest, SerialDeviceSeesWriteBackThenRead) {
  SimDiskManager inner;
  PairDevice disk(&inner, 1);
  BufferPool pool(kSetUpFrames, &disk, Lru2(),
                  BufferPoolOptions{.io_max_attempts = 3});
  VictimSetUp t = SetUpVictim(pool, disk);
  (void)disk.TakeOps();
  using Ops = std::vector<PairDevice::Op>;
  constexpr PageIo::Kind kR = PageIo::Kind::kRead;
  constexpr PageIo::Kind kW = PageIo::Kind::kWrite;

  // Permanent failure: three attempts at the write, no read.
  disk.FailWrites(t.a);
  auto failed = pool.FetchPage(t.b);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.TakeOps(), (Ops{{kW, t.a}, {kW, t.a}, {kW, t.a}}));

  // Two transient failures: the retries, the landed write, then the read.
  disk.Heal();
  disk.FailWrites(t.a, 2);
  ASSERT_TRUE(pool.FetchPage(t.b).ok());
  ASSERT_TRUE(pool.UnpinPage(t.b, false).ok());
  EXPECT_EQ(disk.TakeOps(),
            (Ops{{kW, t.a}, {kW, t.a}, {kW, t.a}, {kR, t.b}}));

  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.write_failures, 1u);
  EXPECT_EQ(stats.retries, 4u);
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(pool.IsResident(t.a));
  EXPECT_TRUE(pool.IsResident(t.b));
}

// A failed write-back on a device that overlaps: the read was in flight
// (the write waits for it) and is discarded, and the pool and the policy
// are exactly as before the eviction.
TEST(DirtyMissConcurrencyTest, FailedWriteBackRollsBackExactly) {
  SimDiskManager inner;
  PairDevice disk(&inner, DiskManager::kMaxIoInFlight);
  auto policy = Lru2();
  LruKPolicy* lruk = policy.get();
  BufferPool pool(kSetUpFrames, &disk, std::move(policy));
  VictimSetUp t = SetUpVictim(pool, disk);
  (void)pool.stats();  // Drains the published hits.
  const PolicyState before = PolicyState::Of(*lruk, kSetUpPages);
  const BufferPoolStats stats_before = pool.stats();
  const uint64_t reads_before = disk.stats().reads;

  disk.HoldWrites(true);
  disk.FailWrites(t.a);
  auto fetched = pool.FetchPage(t.b);
  disk.HoldWrites(false);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.overlapped_writes(), 1u);
  EXPECT_EQ(disk.timed_out_writes(), 0u);

  // The policy is as it was before Evict; the discarded read reached the
  // device, where it counts like any other read.
  EXPECT_TRUE(PolicyState::Of(*lruk, kSetUpPages) == before);
  EXPECT_EQ(disk.stats().reads, reads_before + 1);
  EXPECT_TRUE(pool.IsResident(t.a));
  EXPECT_FALSE(pool.IsResident(t.b));
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, stats_before.misses + 1);
  EXPECT_EQ(stats.evictions, stats_before.evictions);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(stats.write_failures, 1u);
  EXPECT_EQ(stats.read_failures, 0u);

  // The victim's frame still holds its image, dirty: after healing, the
  // same fetch writes it back byte for byte and then evicts it.
  disk.Heal();
  ASSERT_TRUE(pool.FetchPage(t.b).ok());
  ASSERT_TRUE(pool.UnpinPage(t.b, false).ok());
  EXPECT_FALSE(pool.IsResident(t.a));
  std::vector<char> image(kPageSize);
  ASSERT_TRUE(inner.ReadPage(t.a, image.data()).ok());
  EXPECT_EQ(image, std::vector<char>(kPageSize, 'A'));
  stats = pool.stats();
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_EQ(stats.evictions, stats_before.evictions + 1);
}

// The write-back lands and the read fails: the eviction stands (the
// victim is on disk and gone from the pool), the frame is free again, and
// the fetch reports the read's error.
TEST(DirtyMissConcurrencyTest, FailedReadAfterLandedWriteBackFreesTheFrame) {
  SimDiskManager inner;
  PairDevice disk(&inner, DiskManager::kMaxIoInFlight);
  auto policy = Lru2();
  LruKPolicy* lruk = policy.get();
  BufferPool pool(kSetUpFrames, &disk, std::move(policy));
  VictimSetUp t = SetUpVictim(pool, disk);
  const BufferPoolStats stats_before = pool.stats();

  disk.FailReads(t.b);
  auto fetched = pool.FetchPage(t.b);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);
  EXPECT_NE(fetched.status().message().find("read"), std::string::npos);

  EXPECT_FALSE(pool.IsResident(t.a));
  EXPECT_FALSE(pool.IsResident(t.b));
  EXPECT_FALSE(lruk->IsResident(t.b));
  EXPECT_EQ(pool.FreeFrameCount(), 1u);
  std::vector<char> image(kPageSize);
  ASSERT_TRUE(inner.ReadPage(t.a, image.data()).ok());
  EXPECT_EQ(image, std::vector<char>(kPageSize, 'A'));
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, stats_before.evictions + 1);
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_EQ(stats.read_failures, 1u);
  EXPECT_EQ(stats.write_failures, 0u);

  // The free frame serves the next fetch of b without an eviction.
  disk.Heal();
  ASSERT_TRUE(pool.FetchPage(t.b).ok());
  ASSERT_TRUE(pool.UnpinPage(t.b, false).ok());
  EXPECT_EQ(pool.stats().evictions, stats_before.evictions + 1);
}

}  // namespace
}  // namespace lruk

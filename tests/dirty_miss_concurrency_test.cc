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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "scripted_disk.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

namespace lruk {
namespace {

// ---------------------------------------------------------------------------
// RunBatch.

// Allocates pages [0, n) on `disk`, each filled with its id's low byte.
void AllocateIdFilledPages(DiskManager& disk, PageId n) {
  for (PageId p = 0; p < n; ++p) {
    auto page = disk.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(*page, p);
    std::vector<char> image(kPageSize, static_cast<char>(p));
    ASSERT_TRUE(disk.WritePage(p, image.data()).ok());
  }
}

using KindAndPage = std::pair<PageIo::Kind, PageId>;

std::vector<KindAndPage> KindsAndPages(
    const std::vector<ScriptedDisk::Op>& ops) {
  std::vector<KindAndPage> out;
  for (const ScriptedDisk::Op& op : ops) out.emplace_back(op.kind, op.page);
  return out;
}

PageIo Write(PageId p, char* data, Status status = Status::Ok()) {
  return {PageIo::Kind::kWrite, p, data, std::move(status)};
}

PageIo Read(PageId p, char* data) {
  return {PageIo::Kind::kRead, p, data, Status::Internal("not read")};
}

// Every operation is held ~1 ms in the device, so a batch's operations
// overlap wherever RunBatch lets them; writes of one page fail.
TEST(RunBatchConcurrencyTest, BaseKeepsAtMost16WritesInFlight) {
  constexpr PageId kPages = 100;
  constexpr PageId kFailing = 37;
  SimDiskManager inner;
  AllocateIdFilledPages(inner, kPages);
  FaultInjectingDiskManager faults(&inner);
  faults.AddRule(FaultRule::FailPage(FaultOp::kWrite, kFailing));
  ScriptedDisk disk(&faults);
  disk.Delay(ScriptedDisk::Any(), std::chrono::milliseconds(1));
  std::vector<char> image(kPageSize, 'x');
  std::vector<PageIo> writes;
  for (PageId p = 0; p < kPages; ++p) {
    writes.push_back(Write(p, image.data(), Status::Internal("not written")));
  }
  disk.RunBatch(writes);

  const uint64_t peak = disk.counts(PageIo::Kind::kWrite).peak;
  EXPECT_LE(peak, DiskManager::kMaxIoInFlight);
  EXPECT_GT(peak, 1u) << "the batch never overlapped";
  std::vector<uint64_t> issued(kPages);
  for (const ScriptedDisk::Op& op : disk.ops()) ++issued[op.page];
  for (PageId p = 0; p < kPages; ++p) {
    EXPECT_EQ(issued[p], 1u) << "page " << p;
    if (p == kFailing) {
      EXPECT_EQ(writes[p].status.code(), StatusCode::kIoError);
      EXPECT_EQ(disk.WritesOf(p), 0u);
    } else {
      EXPECT_TRUE(writes[p].status.ok()) << "page " << p;
      EXPECT_EQ(disk.WritesOf(p), 1u) << "page " << p;
    }
  }
}

TEST(RunBatchConcurrencyTest, BatchOfOneRunsOnTheCallersThread) {
  SimDiskManager inner;
  AllocateIdFilledPages(inner, 4);
  ScriptedDisk disk(&inner);
  std::vector<char> image(kPageSize, 'x');
  PageIo write = Write(3, image.data(), Status::Internal("not written"));
  disk.RunBatch(std::span<PageIo>(&write, 1));
  EXPECT_TRUE(write.status.ok());
  const std::vector<ScriptedDisk::Op> ops = disk.ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].thread, std::this_thread::get_id());
}

TEST(RunBatchConcurrencyTest, OneWriteAtATimeRunsInBatchOrderOnTheCaller) {
  SimDiskManager inner;
  AllocateIdFilledPages(inner, 31);
  ScriptedDisk disk(&inner, /*max_concurrent_io=*/1);
  std::vector<char> image(kPageSize, 'x');
  std::vector<PageIo> writes;
  const std::vector<PageId> batch = {9, 4, 7, 1, 30, 2};
  for (PageId p : batch) writes.push_back(Write(p, image.data()));
  disk.RunBatch(writes);
  std::vector<PageId> order;
  for (const ScriptedDisk::Op& op : disk.ops()) {
    order.push_back(op.page);
    EXPECT_EQ(op.thread, std::this_thread::get_id());
  }
  EXPECT_EQ(order, batch);
}

// Reads and writes share the one bound and overlap each other, and each
// read lands in its own buffer.
TEST(RunBatchConcurrencyTest, MixedReadsAndWritesOverlapUnderOneBound) {
  constexpr PageId kPages = 64;
  SimDiskManager inner;
  AllocateIdFilledPages(inner, kPages);
  ScriptedDisk disk(&inner);
  disk.Delay(ScriptedDisk::Any(), std::chrono::milliseconds(1));
  // The most operations in flight at once, of both kinds, and whether a
  // read and a write were ever in flight at once.
  uint64_t peak = 0;
  bool mixed = false;
  disk.OnArrival([&](const auto&, const auto& reads, const auto& writes) {
    peak = std::max(peak, reads.in_flight + writes.in_flight);
    mixed = mixed || (reads.in_flight > 0 && writes.in_flight > 0);
  });
  std::vector<char> image(kPageSize, 'x');
  std::vector<std::vector<char>> buffers(kPages, std::vector<char>(kPageSize));
  std::vector<PageIo> batch;
  for (PageId p = 0; p < kPages; ++p) {
    batch.push_back(p % 2 == 0 ? Read(p, buffers[p].data())
                               : Write(p, image.data()));
  }
  disk.RunBatch(batch);

  EXPECT_LE(peak, DiskManager::kMaxIoInFlight);
  EXPECT_GT(peak, 1u) << "the batch never overlapped";
  EXPECT_TRUE(mixed) << "no read ever overlapped a write";
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
  SimDiskManager inner;
  AllocateIdFilledPages(inner, 5);
  FaultInjectingDiskManager faults(&inner);
  faults.AddRule(FaultRule::FailPage(FaultOp::kWrite, 2));
  ScriptedDisk disk(&faults, /*max_concurrent_io=*/1);
  std::vector<char> buffer(kPageSize);
  std::vector<PageIo> batch = {Read(1, buffer.data()),
                               Write(2, buffer.data()),
                               Read(3, buffer.data()),
                               Write(4, buffer.data())};
  disk.RunBatch(batch);
  const std::vector<KindAndPage> expected = {{PageIo::Kind::kRead, 1},
                                             {PageIo::Kind::kWrite, 2},
                                             {PageIo::Kind::kWrite, 4}};
  EXPECT_EQ(KindsAndPages(disk.ops()), expected);
  EXPECT_TRUE(batch[0].status.ok());
  EXPECT_EQ(batch[1].status.code(), StatusCode::kIoError);
  EXPECT_EQ(batch[2].status.code(), StatusCode::kAborted);
  EXPECT_TRUE(batch[3].status.ok());
}

// The threads other than a test's own that have run an operation on a
// barrier device: each is counted on its first one (a thread_local, since a
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

// Operations on pages below kFreePages meet in groups; the others never
// wait. A barrier device's inner device holds pages [0, kFreePages + 2).
constexpr PageId kFreePages = 64;

// Starts counting groups afresh, of `group` operations each: each
// operation on a page below kFreePages waits until `group` of them,
// counted in arrival order, have arrived, so a batch of `group` such
// entries must run all at once, on as many threads.
void MeetInGroupsOf(ScriptedDisk& disk, size_t group) {
  disk.OpenAll();
  disk.HoldUntil(ScriptedDisk::Pages(0, kFreePages - 1),
                 ScriptedDisk::InGroupsOf(group));
}

// A barrier device: one over `inner` whose operations meet in groups of
// `group`, and that enters the census from every thread but the caller's.
std::unique_ptr<ScriptedDisk> NewBarrierDisk(DiskManager* inner,
                                             size_t group) {
  auto disk = std::make_unique<ScriptedDisk>(inner);
  disk->OnArrival([owner = std::this_thread::get_id()](
                      const ScriptedDisk::Op& op, const auto&, const auto&) {
    if (op.thread != owner) EnterCensus();
  });
  MeetInGroupsOf(*disk, group);
  return disk;
}

// The thread of the last operation on `p`.
std::thread::id ThreadOf(const ScriptedDisk& disk, PageId p) {
  const std::vector<ScriptedDisk::Op> ops = disk.ops();
  auto last = std::find_if(ops.rbegin(), ops.rend(),
                           [p](const ScriptedDisk::Op& op) {
                             return op.page == p;
                           });
  return last == ops.rend() ? std::thread::id() : last->thread;
}

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
  SimDiskManager inner;
  AllocateIdFilledPages(inner, kFreePages + 2);
  std::unique_ptr<ScriptedDisk> disk = NewBarrierDisk(&inner, /*group=*/2);
  std::vector<char> buffer(kPageSize);
  const int started_before = census_started.load();
  for (int i = 0; i < 1000; ++i) {
    std::vector<PageIo> pair = Entries(0, 2, buffer.data());
    disk->RunBatch(pair);
    ASSERT_TRUE(AllOk(pair)) << "batch " << i;
  }
  EXPECT_EQ(disk->timeouts(), 0u) << "a pair's entries did not run at once";
  const int runners = census_started.load() - started_before;
  EXPECT_GE(runners, 1);
  EXPECT_LE(runners, static_cast<int>(disk->MaxConcurrentIo()) - 1);
}

// Every runner holds an entry of one batch that cannot finish yet; another
// thread's batch still finishes, on that thread alone and in batch order.
TEST(RunBatchConcurrencyTest, CallerCompletesWhileEveryRunnerIsBusy) {
  const size_t width = DiskManager::kMaxIoInFlight;
  SimDiskManager inner;
  AllocateIdFilledPages(inner, kFreePages + 2);
  // A quorum never reached.
  std::unique_ptr<ScriptedDisk> disk = NewBarrierDisk(&inner, width + 1);
  std::vector<char> buffer(kPageSize);
  std::vector<PageIo> held = Entries(0, width, buffer.data());
  std::thread holder([&] { disk->RunBatch(held); });
  ASSERT_TRUE(disk->AwaitHeld(ScriptedDisk::Any(), width))
      << "the held batch never spread";

  std::vector<PageIo> pair = Entries(kFreePages, 2, buffer.data());
  std::thread::id caller;
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread other([&] {
    caller = std::this_thread::get_id();
    disk->RunBatch(pair);
    finished.set_value();
  });
  const bool in_time =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  disk->OpenAll();
  other.join();
  holder.join();

  EXPECT_TRUE(in_time) << "a batch waited for another batch's runners";
  EXPECT_TRUE(AllOk(pair));
  EXPECT_TRUE(AllOk(held));
  EXPECT_EQ(ThreadOf(*disk, kFreePages), caller);
  EXPECT_EQ(ThreadOf(*disk, kFreePages + 1), caller);
  EXPECT_EQ(disk->timeouts(), 0u);
}

// A manager's runners are gone once its destructor returns: each round
// starts every runner (a full-width batch must run all at once), reuses
// them, and destroys the manager.
TEST(RunBatchConcurrencyTest, DestroyedManagerJoinsItsRunners) {
  const size_t width = DiskManager::kMaxIoInFlight;
  SimDiskManager inner;
  AllocateIdFilledPages(inner, kFreePages + 2);
  std::vector<char> buffer(kPageSize);
  for (int round = 0; round < 100; ++round) {
    const int started_before = census_started.load();
    std::unique_ptr<ScriptedDisk> disk = NewBarrierDisk(&inner, width);
    std::vector<PageIo> wide = Entries(0, width, buffer.data());
    disk->RunBatch(wide);
    MeetInGroupsOf(*disk, 2);
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

// The cases below run a ScriptedDisk, which logs every operation and the
// thread that ran it; those that fail operations stack a
// FaultInjectingDiskManager under it. On a device that overlaps, a hold
// of writes until AfterKth(kRead) holds the k-th write from then on until
// the k-th read from then on has started: for a run of paired dirty
// misses, each write-back until its own miss's read is in flight. Holding
// reads until AfterKth(kWrite) holds reads for writes the same way.

std::unique_ptr<LruKPolicy> Lru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

// Fails the next `times` writes of `p`.
FaultRule FailWritesOf(PageId p, uint64_t times) {
  FaultRule rule = FaultRule::FailPage(FaultOp::kWrite, p);
  rule.max_fires = times;
  return rule;
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
    ScriptedDisk disk(&inner, max_concurrent_io);
    std::vector<PageId> pages = AllocatePages(disk, kPages);
    {
      BufferPool pool(kFrames, &disk, Lru2());
      // Every fetch dirties its page, so once the frames are full every
      // miss evicts a dirty victim: the device sees only pairs, each a
      // write-back and then (or alongside) its miss's read.
      for (size_t i = 0; i < kFrames; ++i) Dirty(pool, pages[i], 'z');
      std::optional<ScriptedDisk::ScriptId> hold;
      if (max_concurrent_io > 1) {
        hold = disk.HoldUntil(ScriptedDisk::Writes(),
                              ScriptedDisk::AfterKth(PageIo::Kind::kRead));
      }
      RandomEngine rng(42);
      for (int i = 0; i < 300; ++i) {
        Dirty(pool, pages[rng.NextBounded(kPages)],
              static_cast<char>('a' + i % 26));
      }
      if (hold.has_value()) {
        r.overlapped = disk.matched(*hold);
        disk.Open(*hold);
      }
      r.stats = pool.stats();
      EXPECT_TRUE(pool.FlushAll().ok());
    }
    r.timed_out = disk.timeouts();
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
  ScriptedDisk disk(&inner);
  std::vector<PageId> pages = AllocatePages(disk, 12);
  BufferPool pool(kFrames, &disk, Lru2());
  for (size_t i = 0; i < kFrames; ++i) Dirty(pool, pages[i], 'z');
  (void)disk.TakeOps();
  // Every miss from here on evicts a dirty page.
  const ScriptedDisk::ScriptId hold = disk.HoldUntil(
      ScriptedDisk::Reads(), ScriptedDisk::AfterKth(PageIo::Kind::kWrite));
  for (size_t i = kFrames; i < pages.size(); ++i) Dirty(pool, pages[i], 'y');
  disk.Open(hold);
  const std::vector<ScriptedDisk::Op> ops = disk.TakeOps();

  EXPECT_EQ(disk.timeouts(), 0u) << "a read ran without its write";
  EXPECT_EQ(pool.stats().dirty_writebacks, pages.size() - kFrames);
  size_t reads = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == PageIo::Kind::kRead) {
      ++reads;
      EXPECT_EQ(ops[i].thread, std::this_thread::get_id()) << "read " << i;
    } else {
      EXPECT_NE(ops[i].thread, std::this_thread::get_id()) << "write " << i;
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
  FaultInjectingDiskManager faults(&inner);
  ScriptedDisk disk(&faults, 1);
  BufferPool pool(kSetUpFrames, &disk, Lru2(),
                  BufferPoolOptions{.io_max_attempts = 3});
  VictimSetUp t = SetUpVictim(pool, disk);
  (void)disk.TakeOps();
  using Ops = std::vector<KindAndPage>;
  constexpr PageIo::Kind kR = PageIo::Kind::kRead;
  constexpr PageIo::Kind kW = PageIo::Kind::kWrite;

  // Every attempt fails: three attempts at the write, no read.
  faults.AddRule(FailWritesOf(t.a, 3));
  auto failed = pool.FetchPage(t.b);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(KindsAndPages(disk.TakeOps()),
            (Ops{{kW, t.a}, {kW, t.a}, {kW, t.a}}));

  // Two transient failures: the retries, the landed write, then the read.
  faults.AddRule(FailWritesOf(t.a, 2));
  ASSERT_TRUE(pool.FetchPage(t.b).ok());
  ASSERT_TRUE(pool.UnpinPage(t.b, false).ok());
  EXPECT_EQ(KindsAndPages(disk.TakeOps()),
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
  FaultInjectingDiskManager faults(&inner);
  ScriptedDisk disk(&faults);
  auto policy = Lru2();
  LruKPolicy* lruk = policy.get();
  BufferPool pool(kSetUpFrames, &disk, std::move(policy));
  VictimSetUp t = SetUpVictim(pool, disk);
  (void)pool.stats();  // Drains the published hits.
  const PolicyState before = PolicyState::Of(*lruk, kSetUpPages);
  const BufferPoolStats stats_before = pool.stats();
  const uint64_t reads_before = disk.stats().reads;

  const ScriptedDisk::ScriptId hold = disk.HoldUntil(
      ScriptedDisk::Writes(), ScriptedDisk::AfterKth(PageIo::Kind::kRead));
  faults.AddRule(FaultRule::FailPage(FaultOp::kWrite, t.a));
  auto fetched = pool.FetchPage(t.b);
  const uint64_t overlapped = disk.matched(hold);
  disk.Open(hold);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);
  EXPECT_EQ(overlapped, 1u);
  EXPECT_EQ(disk.timeouts(), 0u);

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
  faults.Heal();
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
  FaultInjectingDiskManager faults(&inner);
  ScriptedDisk disk(&faults);
  auto policy = Lru2();
  LruKPolicy* lruk = policy.get();
  BufferPool pool(kSetUpFrames, &disk, std::move(policy));
  VictimSetUp t = SetUpVictim(pool, disk);
  const BufferPoolStats stats_before = pool.stats();

  faults.AddRule(FaultRule::FailPage(FaultOp::kRead, t.b));
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
  faults.Heal();
  ASSERT_TRUE(pool.FetchPage(t.b).ok());
  ASSERT_TRUE(pool.UnpinPage(t.b, false).ok());
  EXPECT_EQ(pool.stats().evictions, stats_before.evictions + 1);
}

}  // namespace
}  // namespace lruk

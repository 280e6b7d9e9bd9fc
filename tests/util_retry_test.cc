// Unit tests for util/retry.h and the pool's one retry loop: attempt
// counting, immediate re-issue, the pool's retries-off default and the
// retryable-error taxonomy. Each pool case reads or writes through a
// FaultInjectingDiskManager, whose trace holds one event per failed
// attempt that reached it. The loop's batch side is covered too: every
// entry of a batch (a FlushAll's writes, a dirty miss's write-back and
// read) gets its own attempts, only the failed entries are re-issued, and
// a read its write-back never let through counts as no failure.

#include "util/retry.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"

namespace lruk {
namespace {

constexpr size_t kFrames = 4;

std::unique_ptr<LruKPolicy> Lru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

// An allocated page the pool does not hold: its first fetch is a clean
// miss into a free frame.
PageId AllocateRaw(DiskManager& disk) {
  auto raw = disk.AllocatePage();
  EXPECT_TRUE(raw.ok());
  return *raw;
}

BufferPool MakePool(FaultInjectingDiskManager& disk, int max_attempts,
                    size_t frames = kFrames) {
  return BufferPool(frames, &disk, Lru2(),
                    BufferPoolOptions{.io_max_attempts = max_attempts});
}

// A new page filled with `fill`, unpinned dirty: the next flush or
// eviction writes it.
PageId NewDirtyPage(BufferPool& pool, char fill) {
  auto page = pool.NewPage();
  EXPECT_TRUE(page.ok());
  if (!page.ok()) return kInvalidPageId;
  std::memset((*page)->Data(), fill, kPageSize);
  const PageId p = (*page)->id();
  EXPECT_TRUE(pool.UnpinPage(p, true).ok());
  return p;
}

// Whether the device's image of `p` is `fill` throughout.
bool DiskHolds(DiskManager& disk, PageId p, char fill) {
  std::vector<char> image(kPageSize);
  if (!disk.ReadPage(p, image.data()).ok()) return false;
  for (char c : image) {
    if (c != fill) return false;
  }
  return true;
}

// The (op, page) of every failed attempt the device saw, in order.
std::vector<std::pair<FaultOp, PageId>> FailedAttempts(
    const FaultInjectingDiskManager& disk) {
  std::vector<std::pair<FaultOp, PageId>> attempts;
  for (const FaultEvent& e : disk.Trace()) attempts.emplace_back(e.op, e.page);
  return attempts;
}

TEST(RetryTest, DefaultOptionsRunOnce) {
  BufferPoolOptions options;  // io_max_attempts = 1: retries off.
  EXPECT_EQ(options.io_max_attempts, 1);
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool(kFrames, &disk, Lru2(), options);
  PageId p = AllocateRaw(disk);
  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, p));

  auto page = pool.FetchPage(p);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.TraceSize(), 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.read_failures, 1u);
  EXPECT_EQ(pool.FreeFrameCount(), kFrames);  // The frame went back.
}

TEST(RetryTest, SingleAttemptRunsOnce) {
  // The write path: a flush's failed write is not re-issued either.
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 1);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  const PageId p = (*page)->id();
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, p));

  EXPECT_EQ(pool.FlushPage(p).code(), StatusCode::kIoError);
  EXPECT_EQ(disk.TraceSize(), 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.write_failures, 1u);
  // Still dirty: the next flush after the fault clears writes it.
  disk.Heal();
  EXPECT_TRUE(pool.FlushPage(p).ok());
  EXPECT_EQ(disk.stats().writes, 1u);
}

TEST(RetryTest, SucceedsFirstTry) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 5);
  PageId p = AllocateRaw(disk);

  auto page = pool.FetchPage(p);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(disk.stats().reads, 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.read_failures, 0u);
}

TEST(RetryTest, AbsorbsTransientFailure) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 3);
  PageId p = AllocateRaw(disk);
  std::vector<char> stamp(kPageSize, 's');
  ASSERT_TRUE(inner.WritePage(p, stamp.data()).ok());
  FaultRule twice = FaultRule::FailPage(FaultOp::kRead, p);
  twice.max_fires = 2;  // The third attempt gets through.
  disk.AddRule(twice);

  auto page = pool.FetchPage(p);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->Data()[0], 's');
  EXPECT_EQ((*page)->Data()[kPageSize - 1], 's');
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(disk.TraceSize(), 2u);
  EXPECT_EQ(disk.stats().reads, 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.read_failures, 0u);  // Absorbed, not surfaced.
}

TEST(RetryTest, ExhaustsAttemptsOnPermanentFailure) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 4);
  PageId p = AllocateRaw(disk);
  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, p));

  auto page = pool.FetchPage(p);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.TraceSize(), 4u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.read_failures, 1u);  // One failed fetch, not four.
  EXPECT_EQ(pool.FreeFrameCount(), kFrames);

  disk.Heal();
  auto healed = pool.FetchPage(p);
  ASSERT_TRUE(healed.ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 5);
  PageId p = AllocateRaw(disk);
  FaultRule semantic = FaultRule::FailPage(FaultOp::kRead, p);
  semantic.error_code = StatusCode::kNotFound;
  disk.AddRule(semantic);

  auto page = pool.FetchPage(p);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.TraceSize(), 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.read_failures, 1u);
}

TEST(RetryTest, NullSleepRetriesWithoutWaiting) {
  // There is no backoff: every retry re-issues at once. 10,000 failing
  // attempts take well under a second; a sleep of even 100 us between
  // attempts would take a full second.
  constexpr int kAttempts = 10000;
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, kAttempts);
  PageId p = AllocateRaw(disk);
  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, p));

  auto start = std::chrono::steady_clock::now();
  auto page = pool.FetchPage(p);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(page.ok());
  EXPECT_EQ(disk.TraceSize(), static_cast<size_t>(kAttempts));
  EXPECT_EQ(pool.stats().retries, static_cast<uint64_t>(kAttempts - 1));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(RetryTest, ZeroAndNegativeAttemptsClampToOne) {
  for (int attempts : {0, -3}) {
    SimDiskManager inner;
    FaultInjectingDiskManager disk(&inner);
    BufferPool pool = MakePool(disk, attempts);
    PageId p = AllocateRaw(disk);
    disk.AddRule(FaultRule::FailPage(FaultOp::kRead, p));

    EXPECT_FALSE(pool.FetchPage(p).ok());
    EXPECT_EQ(disk.TraceSize(), 1u) << attempts;
    EXPECT_EQ(pool.stats().retries, 0u) << attempts;
  }
}

TEST(RetryTest, NonRetryableWriteReturnsImmediately) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 5);
  const PageId p = NewDirtyPage(pool, 'w');
  FaultRule semantic = FaultRule::FailPage(FaultOp::kWrite, p);
  semantic.error_code = StatusCode::kNotFound;
  disk.AddRule(semantic);

  EXPECT_EQ(pool.FlushPage(p).code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.TraceSize(), 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.write_failures, 1u);
}

// A FlushAll is one batch: each failed write is re-issued on its own, and
// the writes that landed are not issued again.
TEST(RetryTest, FlushAllRetriesEachFailedWriteOnItsOwn) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 2);
  const std::vector<PageId> pages = {NewDirtyPage(pool, 'a'),
                                     NewDirtyPage(pool, 'b'),
                                     NewDirtyPage(pool, 'c')};
  for (PageId p : {pages[0], pages[2]}) {
    FaultRule once = FaultRule::FailPage(FaultOp::kWrite, p);
    once.max_fires = 1;
    disk.AddRule(once);
  }

  EXPECT_TRUE(pool.FlushAll().ok());
  // One failed attempt at each of the two pages, in the batch's order.
  auto failed = FailedAttempts(disk);
  std::sort(failed.begin(), failed.end());
  EXPECT_EQ(failed,
            (std::vector<std::pair<FaultOp, PageId>>{
                {FaultOp::kWrite, pages[0]}, {FaultOp::kWrite, pages[2]}}));
  EXPECT_EQ(disk.stats().writes, 3u);  // One landed write per page.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_TRUE(DiskHolds(inner, pages[0], 'a'));
  EXPECT_TRUE(DiskHolds(inner, pages[1], 'b'));
  EXPECT_TRUE(DiskHolds(inner, pages[2], 'c'));

  // Every page is clean now: another FlushAll writes nothing.
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, 3u);
}

// A write that fails on every attempt exhausts its own attempts without
// holding back the batch's other writes, and only it stays dirty.
TEST(RetryTest, FlushAllSurfacesOnlyTheExhaustedWrite) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 3);
  const std::vector<PageId> pages = {NewDirtyPage(pool, 'a'),
                                     NewDirtyPage(pool, 'b'),
                                     NewDirtyPage(pool, 'c')};
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pages[1]));

  EXPECT_EQ(pool.FlushAll().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.TraceSize(), 3u);     // Three attempts at pages[1]...
  EXPECT_EQ(disk.stats().writes, 2u);  // ...and the other two landed.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.write_failures, 1u);  // One failed page, not three.

  disk.Heal();
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, 3u);  // Only pages[1] was still dirty.
  EXPECT_TRUE(DiskHolds(inner, pages[1], 'b'));
}

// A synchronous eviction write-back (NewPage over a full inline pool)
// retries under the latch and the eviction goes ahead.
TEST(RetryTest, EvictionWriteBackAbsorbsTransientFailure) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 2, /*frames=*/1);
  const PageId victim = NewDirtyPage(pool, 'v');
  FaultRule once = FaultRule::FailPage(FaultOp::kWrite, victim);
  once.max_fires = 1;
  disk.AddRule(once);

  const PageId admitted = NewDirtyPage(pool, 'n');
  EXPECT_NE(admitted, kInvalidPageId);
  EXPECT_EQ(disk.TraceSize(), 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(pool.IsResident(victim));
  EXPECT_TRUE(pool.IsResident(admitted));
  EXPECT_TRUE(DiskHolds(inner, victim, 'v'));
}

// A dirty miss's write-back and read are one batch. When the write-back
// fails for good, the read is never issued: it counts as no read failure,
// and the eviction is rolled back with the victim still dirty.
TEST(RetryTest, LostWriteBackIssuesNoReadAndCountsOneFailure) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 3, /*frames=*/1);
  const PageId victim = NewDirtyPage(pool, 'v');
  const PageId wanted = AllocateRaw(disk);
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, victim));

  auto page = pool.FetchPage(wanted);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIoError);
  EXPECT_EQ(FailedAttempts(disk),
            (std::vector<std::pair<FaultOp, PageId>>(
                3, {FaultOp::kWrite, victim})));
  EXPECT_EQ(disk.stats().reads, 0u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.write_failures, 1u);
  EXPECT_EQ(stats.read_failures, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_TRUE(pool.IsResident(victim));
  EXPECT_FALSE(pool.IsResident(wanted));

  // The victim kept its dirty image: a flush after the fault clears
  // writes it.
  disk.Heal();
  EXPECT_TRUE(pool.FlushPage(victim).ok());
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_TRUE(DiskHolds(inner, victim, 'v'));
}

// When the write-back lands and the read fails, only the read is
// re-issued: the victim is written once.
TEST(RetryTest, DirtyMissRetriesOnlyItsFailedRead) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool = MakePool(disk, 2, /*frames=*/1);
  const PageId victim = NewDirtyPage(pool, 'v');
  const PageId wanted = AllocateRaw(disk);
  std::vector<char> stamp(kPageSize, 'r');
  ASSERT_TRUE(inner.WritePage(wanted, stamp.data()).ok());
  disk.ResetStats();
  FaultRule once = FaultRule::FailPage(FaultOp::kRead, wanted);
  once.max_fires = 1;
  disk.AddRule(once);

  auto page = pool.FetchPage(wanted);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->Data()[0], 'r');
  EXPECT_EQ((*page)->Data()[kPageSize - 1], 'r');
  ASSERT_TRUE(pool.UnpinPage(wanted, false).ok());
  EXPECT_EQ(FailedAttempts(disk),
            (std::vector<std::pair<FaultOp, PageId>>{
                {FaultOp::kRead, wanted}}));
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.read_failures, 0u);
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_FALSE(pool.IsResident(victim));
  EXPECT_TRUE(DiskHolds(inner, victim, 'v'));
}

TEST(RetryTest, IsRetryableErrorTaxonomy) {
  EXPECT_TRUE(IsRetryableError(StatusCode::kIoError));
  EXPECT_FALSE(IsRetryableError(StatusCode::kOk));
  EXPECT_FALSE(IsRetryableError(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableError(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableError(StatusCode::kResourceExhausted));
}

}  // namespace
}  // namespace lruk

// Flushes without the pool latch (DESIGN.md §7 "Failed FlushPage/FlushAll"
// and §8 "Quiesce and fencing").
//
// Coverage:
//  * The dirty bit — a flush clears it before the write, so a page
//    modified and unpinned dirty while its flush write is in flight stays
//    dirty, and the next FlushAll persists the newer image.
//  * The latch is free during the write — while a flush write is held at a
//    gate, a hit on another page and a miss that finds a clean frame
//    complete.
//  * Flush pins are never a caller's — a miss in a pool whose every frame
//    is flush-pinned, and a DeletePage of the page under flush, wait for
//    the flush and then succeed.
//  * A settled FlushAll — one that waits behind another flush while a
//    write-behind miss evicts a dirty page returns only after that victim
//    write lands.
//  * Determinism — FlushAll under a probabilistic write-fault rule replays
//    the same fault trace (FaultInjectingDiskManager writes a batch in
//    batch order).
//  * Churn — 8 threads fetch, modify and unpin while another thread
//    flushes throughout; a fresh pool over the same disk then reads every
//    acknowledged stamp (the restart oracle).
//
// Every suite name carries "Concurren", so the sanitizer CI matrix runs it.

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "scripted_disk.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

namespace lruk {
namespace {

using difftest::PageStamp;
using difftest::ReadStamp;
using difftest::WriteStamp;

uint64_t DiskStamp(DiskManager& disk, PageId p) {
  auto image = std::make_unique<char[]>(kPageSize);
  EXPECT_TRUE(disk.ReadPage(p, image.get()).ok()) << "page " << p;
  return ReadStamp(image.get()).value;
}

std::unique_ptr<LruKPolicy> Lru2(size_t capacity) {
  return std::make_unique<LruKPolicy>(
      LruKOptions{.k = 2, .capacity_hint = capacity});
}

// NewPage `n` pages, stamp each with value 1, unpin dirty.
std::vector<PageId> NewStampedPages(BufferPool& pool, size_t n) {
  std::vector<PageId> pages;
  for (size_t i = 0; i < n; ++i) {
    auto page = pool.NewPage();
    EXPECT_TRUE(page.ok());
    if (!page.ok()) return pages;
    PageId p = (*page)->id();
    WriteStamp((*page)->Data(), p, 1);
    EXPECT_TRUE(pool.UnpinPage(p, true).ok());
    pages.push_back(p);
  }
  return pages;
}

// In a two-frame pool, NewPage three stamped pages, unpinned dirty, of
// which the third's allocation evicts pages[0] alone: pages[1] stays
// pinned meanwhile, since on a device that overlaps writes an unpinned
// dirty pages[1] would be written back in the same batch.
std::vector<PageId> ThreePagesEvictingTheFirst(BufferPool& pool) {
  std::vector<PageId> pages = NewStampedPages(pool, 1);
  auto second = pool.NewPage();
  EXPECT_TRUE(second.ok());
  if (!second.ok()) return pages;
  pages.push_back((*second)->id());
  WriteStamp((*second)->Data(), pages[1], 1);
  std::vector<PageId> third = NewStampedPages(pool, 1);
  pages.insert(pages.end(), third.begin(), third.end());
  EXPECT_TRUE(pool.UnpinPage(pages[1], true).ok());
  return pages;
}

// Waits long enough that a call which could complete would have; used
// only to assert that a call is still blocked.
void GiveItTime() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}


TEST(FlushConcurrencyTest, ModificationDuringTheWriteLeavesThePageDirty) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(4, &disk, Lru2(4));
  PageId a = NewStampedPages(pool, 1)[0];

  disk.Hold(ScriptedDisk::Writes(a));
  Status flushed;
  std::thread flusher([&] { flushed = pool.FlushPage(a); });
  // The write of stamp 1 is in flight, held.
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(a)));

  // Modify and unpin dirty while the flush write is held. The page is
  // resident and pinned by the flush, so this is a hit.
  auto page = pool.FetchPage(a);
  ASSERT_TRUE(page.ok());
  WriteStamp((*page)->Data(), a, 2);
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());

  disk.OpenAll();
  flusher.join();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(DiskStamp(inner, a), 1u);  // The flush wrote the older image.
  // Clearing the dirty bit after the write would lose stamp 2 here.
  EXPECT_TRUE((*page)->is_dirty());

  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(DiskStamp(inner, a), 2u);
  EXPECT_FALSE((*page)->is_dirty());
}

TEST(FlushConcurrencyTest, HitOnAnotherPageCompletesDuringTheWrite) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(4, &disk, Lru2(4));
  std::vector<PageId> pages = NewStampedPages(pool, 2);
  ASSERT_TRUE(pool.FlushPage(pages[1]).ok());  // pages[1] is clean.

  disk.Hold(ScriptedDisk::Writes(pages[0]));
  std::thread flusher([&] { EXPECT_TRUE(pool.FlushAll().ok()); });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(pages[0])));

  // With the write held, a flush under the latch would block this hit.
  auto hit = pool.FetchPage(pages[1]);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(ReadStamp((*hit)->Data()).value, 1u);
  ASSERT_TRUE(pool.UnpinPage(pages[1], false).ok());

  disk.OpenAll();
  flusher.join();
  EXPECT_EQ(DiskStamp(inner, pages[0]), 1u);
}

TEST(FlushConcurrencyTest, MissThatFindsACleanFrameCompletesDuringTheWrite) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(2, &disk, Lru2(2));
  std::vector<PageId> pages = ThreePagesEvictingTheFirst(pool);
  ASSERT_FALSE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.FlushPage(pages[2]).ok());  // pages[2] is clean.

  disk.Hold(ScriptedDisk::Writes(pages[1]));
  std::thread flusher([&] { EXPECT_TRUE(pool.FlushPage(pages[1]).ok()); });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(pages[1])));

  // The miss on pages[0] evicts clean pages[2], the only unpinned frame.
  auto miss = pool.FetchPage(pages[0]);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(ReadStamp((*miss)->Data()).value, 1u);
  EXPECT_FALSE(pool.IsResident(pages[2]));
  EXPECT_TRUE(pool.IsResident(pages[1]));  // Flush-pinned, not a victim.
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());

  disk.OpenAll();
  flusher.join();
  EXPECT_EQ(DiskStamp(inner, pages[1]), 1u);
}

TEST(FlushConcurrencyTest, MissWhenEveryFrameIsFlushPinnedWaitsForTheFlush) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(2, &disk, Lru2(2));
  std::vector<PageId> pages = ThreePagesEvictingTheFirst(pool);
  ASSERT_FALSE(pool.IsResident(pages[0]));

  // Both resident pages are dirty: FlushAll pins both frames, and the
  // batch (so every pin) lasts until the held write of pages[1] finishes.
  disk.Hold(ScriptedDisk::Writes(pages[1]));
  std::thread flusher([&] { EXPECT_TRUE(pool.FlushAll().ok()); });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(pages[1])));

  std::atomic<bool> done{false};
  Result<Page*> miss = Status::Internal("not run");
  std::thread fetcher([&] {
    miss = pool.FetchPage(pages[0]);
    done.store(true);
  });
  GiveItTime();
  // Not ResourceExhausted: the only pins are the flush's, so it waits.
  EXPECT_FALSE(done.load());

  disk.OpenAll();
  flusher.join();
  fetcher.join();
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(ReadStamp((*miss)->Data()).value, 1u);
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  EXPECT_EQ(DiskStamp(inner, pages[1]), 1u);
  EXPECT_EQ(DiskStamp(inner, pages[2]), 1u);
}

TEST(FlushConcurrencyTest, DeleteOfThePageUnderFlushWaitsForTheFlush) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(4, &disk, Lru2(4));
  PageId a = NewStampedPages(pool, 1)[0];

  disk.Hold(ScriptedDisk::Writes(a));
  std::thread flusher([&] { EXPECT_TRUE(pool.FlushPage(a).ok()); });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(a)));

  std::atomic<bool> done{false};
  Status deleted = Status::Internal("not run");
  std::thread deleter([&] {
    deleted = pool.DeletePage(a);
    done.store(true);
  });
  GiveItTime();
  // Not "delete of pinned page": the only pin is the flush's.
  EXPECT_FALSE(done.load());

  disk.OpenAll();
  flusher.join();
  deleter.join();
  EXPECT_TRUE(deleted.ok()) << deleted.ToString();
  EXPECT_FALSE(pool.IsResident(a));
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

// A FlushAll that waits behind another flush must not miss a dirty page
// that a write-behind miss evicts meanwhile: it returns only once that
// victim write has landed.
TEST(FlushConcurrencyTest, FlushAllWaitsForAVictimWritePostedWhileItWaits) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  // Worker mode writes victims behind; two workers, so the held victim
  // write must not block the read.
  BufferPool pool(3, &disk, Lru2(3), BufferPoolOptions{.io_workers = 2});
  // d goes to disk clean and is evicted by c's admission; a, b and c stay
  // resident and dirty.
  PageId d = NewStampedPages(pool, 1)[0];
  ASSERT_TRUE(pool.FlushPage(d).ok());
  std::vector<PageId> pages = NewStampedPages(pool, 3);
  const PageId a = pages[0], b = pages[1], c = pages[2];
  ASSERT_FALSE(pool.IsResident(d));
  // A second reference to a and c leaves b, with one, the LRU-2 victim.
  for (PageId p : {a, c}) {
    ASSERT_TRUE(pool.FetchPage(p).ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }

  const ScriptedDisk::ScriptId gate_a = disk.Hold(ScriptedDisk::Writes(a));
  const ScriptedDisk::ScriptId gate_b = disk.Hold(ScriptedDisk::Writes(b));
  std::thread page_flusher([&] { EXPECT_TRUE(pool.FlushPage(a).ok()); });
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(a)));
  std::atomic<bool> done{false};
  Status flushed_all = Status::Internal("not run");
  std::thread all_flusher([&] {
    flushed_all = pool.FlushAll();
    done.store(true);
  });
  GiveItTime();  // FlushAll is waiting for the flush of a.

  // The miss evicts dirty b; its write is posted and held at the gate.
  auto miss = pool.FetchPage(d);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_TRUE(pool.UnpinPage(d, false).ok());
  EXPECT_FALSE(pool.IsResident(b));
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes(b)));

  disk.Open(gate_a);
  page_flusher.join();
  GiveItTime();
  // b was dirty when FlushAll was called, and its write has not landed.
  EXPECT_FALSE(done.load());
  EXPECT_EQ(disk.WritesOf(b), 0u);

  disk.Open(gate_b);
  all_flusher.join();
  EXPECT_TRUE(flushed_all.ok()) << flushed_all.ToString();
  EXPECT_EQ(disk.WritesOf(b), 1u);
  EXPECT_EQ(DiskStamp(inner, b), 1u);
  EXPECT_EQ(DiskStamp(inner, c), 1u);
}

// One FlushAll-heavy run under a probabilistic write-fault rule: every
// page dirtied, then flushed, three times, with one batch retry.
struct FaultRun {
  std::vector<FaultEvent> trace;
  std::vector<StatusCode> flushes;
  BufferPoolStats stats;
};

FaultRun RunFaultedFlushes() {
  FaultRun run;
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/0xF1A5);
  BufferPool pool(32, &disk, Lru2(32),
                  BufferPoolOptions{.io_max_attempts = 2});  // Re-issue.
  std::vector<PageId> pages = NewStampedPages(pool, 32);
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.3));
  for (uint64_t round = 2; round <= 4; ++round) {
    for (PageId p : pages) {
      auto page = pool.FetchPage(p, AccessType::kWrite);
      EXPECT_TRUE(page.ok());
      if (!page.ok()) return run;
      WriteStamp((*page)->Data(), p, round);
      EXPECT_TRUE(pool.UnpinPage(p, true).ok());
    }
    run.flushes.push_back(pool.FlushAll().code());
  }
  disk.Heal();
  EXPECT_TRUE(pool.FlushAll().ok());
  for (PageId p : pages) EXPECT_EQ(DiskStamp(inner, p), 4u) << "page " << p;
  run.trace = disk.Trace();
  run.stats = pool.stats();
  return run;
}

TEST(FlushConcurrencyTest, FaultScheduleReplaysUnderFlushAll) {
  FaultRun first = RunFaultedFlushes();
  FaultRun second = RunFaultedFlushes();
  ASSERT_FALSE(first.trace.empty()) << "no write fault fired";
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (size_t i = 0; i < first.trace.size(); ++i) {
    EXPECT_EQ(first.trace[i], second.trace[i])
        << FaultEventToString(first.trace[i]) << " vs "
        << FaultEventToString(second.trace[i]);
  }
  EXPECT_EQ(first.flushes, second.flushes);
  EXPECT_GT(first.stats.retries, 0u);
  EXPECT_EQ(first.stats.retries, second.stats.retries);
  EXPECT_EQ(first.stats.write_failures, second.stats.write_failures);
}

// 8 threads fetch, modify and unpin; a ninth flushes throughout (FlushAll
// and FlushPage). Each page is written only by its owner thread, so its
// last acknowledged stamp is well defined; a FlushPage reads the whole
// image, so page writers and flushes coordinate through striped
// test-level page latches (the pool leaves that to the caller).
TEST(FlushConcurrencyTest, ChurnKeepsEveryAcknowledgedStamp) {
  constexpr size_t kCapacity = 32;
  constexpr size_t kDbPages = 128;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;
  constexpr size_t kStripes = 16;

  SimDiskManager inner;
  auto pool =
      std::make_unique<BufferPool>(kCapacity, &inner, Lru2(kCapacity));
  std::vector<PageId> pages = NewStampedPages(*pool, kDbPages);
  ASSERT_EQ(pages.size(), kDbPages);
  std::array<std::mutex, kStripes> stripes;
  auto stripe = [&](PageId p) -> std::mutex& { return stripes[p % kStripes]; };
  // shadow[i]: the last stamp pages[i]'s owner acknowledged (unpinned).
  std::vector<uint64_t> shadow(kDbPages, 1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> flushes{0};
  std::thread flusher([&] {
    RandomEngine rng(0xF105);
    while (!stop.load()) {
      if (rng.NextBernoulli(0.25)) {
        std::vector<std::unique_lock<std::mutex>> held;
        for (std::mutex& m : stripes) held.emplace_back(m);
        if (!pool->FlushAll().ok()) ++failures;
      } else {
        PageId p = pages[rng.NextBounded(kDbPages)];
        std::lock_guard<std::mutex> latch(stripe(p));
        Status s = pool->FlushPage(p);
        if (!s.ok() && s.code() != StatusCode::kNotFound) ++failures;
      }
      ++flushes;
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RandomEngine rng(0xC4A5 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        size_t idx = rng.NextBounded(kDbPages);
        const bool write = idx % kThreads == static_cast<size_t>(t) &&
                           rng.NextBernoulli(0.7);
        PageId p = pages[idx];
        auto page =
            pool->FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
        if (!page.ok()) {
          // 8 client pins plus flush pins never leave a miss without a
          // frame for good: it waits out the flush instead.
          ++failures;
          continue;
        }
        if (write) {
          uint64_t value = shadow[idx] + 1;
          {
            std::lock_guard<std::mutex> latch(stripe(p));
            WriteStamp((*page)->Data(), p, value);
          }
          if (!pool->UnpinPage(p, true).ok()) ++failures;
          shadow[idx] = value;
        } else if (!pool->UnpinPage(p, false).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true);
  flusher.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(flushes.load(), 0u);

  ASSERT_TRUE(pool->FlushAll().ok());
  // No flush pin outlives its flush.
  EXPECT_EQ(pool->ResidentCount() + pool->FreeFrameCount(), kCapacity);
  for (size_t i = 0; i < kDbPages; ++i) {
    if (!pool->IsResident(pages[i])) continue;
    auto page = pool->FetchPage(pages[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->pin_count(), 1) << "leaked pin on page " << pages[i];
    ASSERT_TRUE(pool->UnpinPage(pages[i], false).ok());
  }
  pool.reset();

  // The restart oracle: a fresh pool over the same disk reads every
  // acknowledged stamp.
  BufferPool fresh(kCapacity, &inner, Lru2(kCapacity));
  for (size_t i = 0; i < kDbPages; ++i) {
    auto page = fresh.FetchPage(pages[i]);
    ASSERT_TRUE(page.ok());
    PageStamp stamp = ReadStamp((*page)->Data());
    EXPECT_EQ(stamp.page, pages[i]);
    EXPECT_EQ(stamp.value, shadow[i]) << "page " << pages[i];
    ASSERT_TRUE(fresh.UnpinPage(pages[i], false).ok());
  }
}

}  // namespace
}  // namespace lruk

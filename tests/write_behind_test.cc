// Write-behind eviction (deterministic half; the threaded property tests
// live in async_io_concurrency_test.cc).
//
// Coverage:
//  * Write-behind — in worker mode a dirty victim's write-back leaves the
//    miss path: the admission returns while the victim write is still
//    parked behind a gate; a re-fetch of the in-flight victim waits the
//    write out and then reads the freshly written image; inline mode
//    (io_workers = 0) keeps the synchronous path, including its exact
//    rollback of a failed victim write.
//  * Decision neutrality — single-threaded, write-behind replays the
//    inline pool's victim sequence, residency and disk images for every
//    policy under test, not only the ones whose Restore is exact.
//  * Failure semantics — a failed victim write re-admits the page exactly
//    (resident, dirty, original image, policy Restore) when a frame can be
//    found, or parks the image when every frame is pinned; parked images
//    are authoritative and are resolved by FetchPage (re-admit), FlushPage
//    / FlushAll (persist), or DeletePage (discard). No frame is ever
//    leaked, no image is ever dropped. A transient victim-write failure
//    is retried on a write-behind writer with the pool latch released.

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "scripted_disk.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"

namespace lruk {
namespace {

using difftest::DiffScenarioResult;
using difftest::ExpectMatchesModel;
using difftest::RecordingPolicy;
using difftest::RunDiffScenario;

void StampPage(Page* page, char fill) {
  std::memset(page->Data(), fill, kPageSize);
}

void ExpectDiskImage(DiskManager& disk, PageId p, char fill) {
  auto image = std::make_unique<char[]>(kPageSize);
  ASSERT_TRUE(disk.ReadPage(p, image.get()).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(image[i], fill) << "disk image of page " << p
                              << " wrong at byte " << i;
  }
}

// Worker mode (workers > 0) writes dirty victims behind; inline mode
// (workers = 0) writes them back on the miss path.
BufferPoolOptions WriteBehindOptions(size_t workers) {
  BufferPoolOptions options;
  options.io_workers = workers;
  return options;
}

std::unique_ptr<LruKPolicy> Lru2(size_t capacity) {
  return std::make_unique<LruKPolicy>(
      LruKOptions{.k = 2, .capacity_hint = capacity});
}

// ---------------------------------------------------------------------------
// Write-behind: the dirty write-back leaves the miss path.

TEST(WriteBehindTest, DirtyVictimWriteRunsOffTheMissPath) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(1, &disk, Lru2(1), WriteBehindOptions(/*workers=*/1));

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  disk.Hold(ScriptedDisk::Writes(pa));  // Park pa's eventual victim write.
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());

  // The admission evicts dirty pa. With write-behind the write is handed
  // to the write-behind queue and NewPage returns immediately — with a
  // synchronous write-back this call would hang on the gate forever.
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  PageId pb = (*b)->id();
  // The victim write is in flight, parked.
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes()));
  EXPECT_EQ(pool.PendingVictimWriteCount(), 1u);
  EXPECT_FALSE(pool.IsResident(pa));
  BufferPoolStats mid = pool.stats();
  EXPECT_EQ(mid.dirty_writebacks, 0u);  // Nothing written in the foreground.
  EXPECT_EQ(mid.writebehind_writes, 0u);  // Not finished yet either.
  EXPECT_EQ(mid.evictions, 1u);  // The eviction itself is counted.

  disk.OpenAll();
  pool.Quiesce();
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(stats.writebehind_writes, 1u);
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  ExpectDiskImage(inner, pa, 'a');  // The pinned copy reached disk intact.
  EXPECT_TRUE(pool.UnpinPage(pb, false).ok());
}

TEST(WriteBehindTest, FetchOfInFlightVictimWaitsForTheWrite) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  BufferPool pool(2, &disk, Lru2(2), WriteBehindOptions(/*workers=*/2));

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  PageId pb = (*b)->id();
  ASSERT_TRUE(pool.UnpinPage(pb, false).ok());

  // pa is the LRU victim (oldest single reference). Park its write.
  disk.Hold(ScriptedDisk::Writes(pa));
  auto c = pool.NewPage();
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(disk.AwaitHeld(ScriptedDisk::Writes()));
  ASSERT_EQ(pool.PendingVictimWriteCount(), 1u);

  // A re-fetch of pa must wait the in-flight write out (the only current
  // copy is the pinned copy being written) and then read it back.
  std::atomic<bool> fetched{false};
  std::thread fetcher([&] {
    auto page = pool.FetchPage(pa, AccessType::kRead);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->Data()[0], 'a');
    EXPECT_EQ((*page)->Data()[kPageSize - 1], 'a');
    fetched.store(true);
    EXPECT_TRUE(pool.UnpinPage(pa, false).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fetched.load());  // Still parked behind the gate.
  disk.OpenAll();
  fetcher.join();
  EXPECT_TRUE(fetched.load());
  pool.Quiesce();
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  EXPECT_TRUE(pool.UnpinPage((*c)->id(), false).ok());
}

TEST(WriteBehindTest, InlineModeKeepsSynchronousWritebacks) {
  SimDiskManager disk;
  // io_workers = 0: inline mode writes victims back synchronously, on the
  // miss path.
  BufferPool pool(1, &disk, Lru2(1), WriteBehindOptions(/*workers=*/0));

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.dirty_writebacks, 1u);  // Synchronous, on the miss path.
  EXPECT_EQ(stats.writebehind_writes, 0u);
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  ExpectDiskImage(disk, pa, 'a');
  EXPECT_TRUE(pool.UnpinPage((*b)->id(), false).ok());
}

TEST(WriteBehindTest, InlineModeFailedVictimWriteRollsBackTheEviction) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/17);
  auto policy = std::make_unique<RecordingPolicy>(Lru2(4));
  RecordingPolicy* recorder = policy.get();
  BufferPool pool(4, &disk, std::move(policy),
                  WriteBehindOptions(/*workers=*/0));

  std::vector<PageId> pages;
  for (char fill : {'a', 'b', 'c', 'd'}) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    StampPage(*page, fill);
    pages.push_back((*page)->id());
    ASSERT_TRUE(pool.UnpinPage(pages.back(), true).ok());
  }
  // pages[0] is the victim (oldest single reference). Inline mode writes
  // it back on the miss path, so a failed write fails the admission and
  // the eviction rolls back: resident, dirty, restored in the policy.
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pages[0]));
  auto refused = pool.NewPage();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.write_failures, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(stats.writebehind_writes, 0u);
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  EXPECT_TRUE(recorder->evictions().empty());
  EXPECT_TRUE(pool.IsResident(pages[0]));

  // Still the next victim and still dirty: once the fault heals, the same
  // admission writes the acknowledged image back and takes the frame.
  disk.Heal();
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(recorder->evictions(), std::vector<PageId>{pages[0]});
  stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.dirty_writebacks, 1u);
  EXPECT_FALSE(pool.IsResident(pages[0]));
  ExpectDiskImage(inner, pages[0], 'a');
  EXPECT_TRUE(pool.UnpinPage((*page)->id(), false).ok());
}

// ---------------------------------------------------------------------------
// Write-behind changes who writes a dirty victim back, never which page is
// the victim.

std::unique_ptr<ReplacementPolicy> SpecPolicy(const std::string& spec,
                                              size_t capacity) {
  auto config = ParsePolicySpec(spec);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  PolicyContext context;
  context.capacity = capacity;
  auto policy = MakePolicy(*config, context);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(*policy);
}

class WriteBehindDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

// Single-threaded, a worker-mode pool (which writes behind) makes the
// inline pool's policy calls in the same order: a successful victim write
// never touches the policy, so the victim sequence holds even for policies
// whose Restore is a fresh re-admission (plain LRU, 2Q, ARC, CLOCK).
TEST_P(WriteBehindDifferentialTest, VictimOrderMatchesInlinePool) {
  const std::string spec = GetParam();
  auto make_policy = [&](size_t, size_t capacity) {
    return SpecPolicy(spec, capacity);
  };
  DiffScenarioResult inline_pool =
      RunDiffScenario({.make_policy = make_policy});
  DiffScenarioResult behind =
      RunDiffScenario({.io_workers = 2, .make_policy = make_policy});
  EXPECT_EQ(inline_pool.evictions, behind.evictions);
  EXPECT_EQ(inline_pool.residency, behind.residency);
  // No acknowledged write lost.
  EXPECT_EQ(inline_pool.images, behind.images);
  EXPECT_EQ(inline_pool.clocks, behind.clocks);
  EXPECT_EQ(inline_pool.stats.hits, behind.stats.hits);
  EXPECT_EQ(inline_pool.stats.misses, behind.stats.misses);
  EXPECT_EQ(inline_pool.stats.evictions, behind.stats.evictions);
  EXPECT_EQ(inline_pool.stats.correlated_refs,
            behind.stats.correlated_refs);
  // Each dirty victim is written exactly once, by a writer or (queue
  // full) by the evicting thread.
  EXPECT_GT(behind.stats.writebehind_writes, 0u);
  EXPECT_EQ(behind.stats.dirty_writebacks + behind.stats.writebehind_writes,
            inline_pool.stats.dirty_writebacks);
  EXPECT_EQ(behind.stats.writebehind_readmits, 0u);
  EXPECT_EQ(behind.stats.background_cleans, 0u);
  EXPECT_EQ(inline_pool.io.reads, behind.io.reads);
  EXPECT_EQ(inline_pool.io.writes, behind.io.writes);
  // And both end where the naive model of the pool does, under this
  // policy too.
  ExpectMatchesModel(inline_pool);
}

INSTANTIATE_TEST_SUITE_P(Policies, WriteBehindDifferentialTest,
                         ::testing::Values("LRU", "LRU-2", "2Q", "ARC",
                                           "CLOCK"),
                         [](const auto& info) {
                           std::string name;
                           for (const char* c = info.param; *c != '\0'; ++c) {
                             if (std::isalnum(static_cast<unsigned char>(*c))) {
                               name += *c;
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Write-behind failure semantics.

TEST(WriteBehindTest, FailedVictimWriteReadmitsThePageDirtyAndIntact) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/7);
  BufferPool pool(2, &disk, Lru2(2), WriteBehindOptions(/*workers=*/1));

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  PageId pb = (*b)->id();
  ASSERT_TRUE(pool.UnpinPage(pb, false).ok());
  ASSERT_TRUE(pool.FlushPage(pb).ok());  // pb clean: its eviction is free.

  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pa));  // Permanent.
  // The admission evicts pa (oldest single reference); its write-behind
  // write fails; the re-admit evicts clean pb to make room and restores
  // pa — resident, dirty, and byte-identical — via ReplacementPolicy::
  // Restore (delayed: unrelated admissions happened in between).
  auto c = pool.NewPage();
  ASSERT_TRUE(c.ok());
  pool.Quiesce();

  BufferPoolStats stats = pool.stats();
  EXPECT_GE(stats.write_failures, 1u);
  EXPECT_EQ(stats.writebehind_readmits, 1u);
  EXPECT_EQ(stats.writebehind_writes, 0u);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(pool.ParkedVictimCount(), 0u);
  EXPECT_TRUE(pool.IsResident(pa));
  EXPECT_FALSE(pool.IsResident(pb));  // Sacrificed for the re-admit.

  // The image survived the failed write exactly (it travelled out through
  // the pinned copy and back into a frame), and it is still dirty: after
  // the fault heals, a flush persists it.
  auto again = pool.FetchPage(pa, AccessType::kRead);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->Data()[0], 'a');
  EXPECT_EQ((*again)->Data()[kPageSize - 1], 'a');
  EXPECT_TRUE(pool.UnpinPage(pa, false).ok());
  disk.Heal();
  EXPECT_TRUE(pool.FlushPage(pa).ok());
  ExpectDiskImage(inner, pa, 'a');
  EXPECT_TRUE(pool.UnpinPage((*c)->id(), false).ok());
}

TEST(WriteBehindTest, FailedVictimWriteParksWhenEveryFrameIsPinned) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/9);
  BufferPool pool(1, &disk, Lru2(1), WriteBehindOptions(/*workers=*/1));

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pa));

  // The only frame stays pinned by pb, so the failed write-behind write
  // has nowhere to re-admit pa: its image is parked, never dropped.
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  PageId pb = (*b)->id();
  pool.Quiesce();
  EXPECT_EQ(pool.ParkedVictimCount(), 1u);
  EXPECT_EQ(pool.stats().writebehind_readmits, 0u);
  EXPECT_FALSE(pool.IsResident(pa));

  // A fetch while the pool is still full cannot re-admit it...
  auto full = pool.FetchPage(pa, AccessType::kRead);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.ParkedVictimCount(), 1u);  // Still parked, still safe.

  // ...but once a frame frees up, the fetch re-admits the parked image —
  // authoritative over the stale disk copy — dirty and intact.
  ASSERT_TRUE(pool.UnpinPage(pb, false).ok());
  auto again = pool.FetchPage(pa, AccessType::kRead);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->Data()[0], 'a');
  EXPECT_EQ((*again)->Data()[kPageSize - 1], 'a');
  EXPECT_EQ(pool.ParkedVictimCount(), 0u);
  EXPECT_EQ(pool.stats().writebehind_readmits, 1u);
  EXPECT_TRUE(pool.UnpinPage(pa, false).ok());

  // No leaks anywhere: the pool still balances and settles.
  pool.Quiesce();
  disk.Heal();
  EXPECT_TRUE(pool.FlushAll().ok());
  ExpectDiskImage(inner, pa, 'a');
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

TEST(WriteBehindTest, FlushPersistsAndDeleteDiscardsParkedImages) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/11);
  BufferPool pool(1, &disk, Lru2(1), WriteBehindOptions(/*workers=*/1));

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pa));
  auto b = pool.NewPage();  // Pinned: the failed write parks pa.
  ASSERT_TRUE(b.ok());
  pool.Quiesce();
  ASSERT_EQ(pool.ParkedVictimCount(), 1u);

  // FlushPage persists the parked image directly — that IS the flush.
  disk.Heal();
  EXPECT_TRUE(pool.FlushPage(pa).ok());
  EXPECT_EQ(pool.ParkedVictimCount(), 0u);
  EXPECT_FALSE(pool.IsResident(pa));
  ExpectDiskImage(inner, pa, 'a');

  // Park it again (the rule re-arms via AddRule), then delete: the parked
  // image is discarded with the page.
  auto a2 = pool.FetchPage(pa, AccessType::kWrite);
  {
    // Make room first: unpin b so pa can come back in.
    ASSERT_FALSE(a2.ok());  // b still pinned when we tried.
    ASSERT_TRUE(pool.UnpinPage((*b)->id(), false).ok());
    a2 = pool.FetchPage(pa, AccessType::kWrite);
    ASSERT_TRUE(a2.ok());
  }
  StampPage(*a2, 'z');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pa));
  auto c = pool.NewPage();  // Pinned: parks pa again.
  ASSERT_TRUE(c.ok());
  pool.Quiesce();
  ASSERT_EQ(pool.ParkedVictimCount(), 1u);
  disk.Heal();
  EXPECT_TRUE(pool.DeletePage(pa).ok());
  EXPECT_EQ(pool.ParkedVictimCount(), 0u);
  EXPECT_TRUE(pool.UnpinPage((*c)->id(), false).ok());
}

TEST(WriteBehindTest, TransientVictimWriteFailureRetriesOffTheMissPath) {
  SimDiskManager inner;
  ScriptedDisk gate(&inner);
  FaultInjectingDiskManager disk(&gate, /*seed=*/5);
  BufferPoolOptions options = WriteBehindOptions(/*workers=*/1);
  options.io_max_attempts = 2;  // Immediate re-issue.
  BufferPool pool(1, &disk, Lru2(1), options);

  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageId pa = (*a)->id();
  StampPage(*a, 'a');
  ASSERT_TRUE(pool.UnpinPage(pa, true).ok());

  // The admission evicts dirty pa. The first attempt at its victim write
  // fails; the retry parks at the gate — while NewPage has returned.
  disk.AddRule(FaultRule::FailNth(FaultOp::kWrite, 1));
  gate.Hold(ScriptedDisk::Writes(pa));
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  PageId pb = (*b)->id();
  EXPECT_TRUE(gate.AwaitHeld(ScriptedDisk::Writes()));

  // The retry holds no latch: a hit on another thread completes meanwhile.
  auto hit = std::async(std::launch::async, [&] {
    auto page = pool.FetchPage(pb, AccessType::kRead);
    return page.ok() && pool.UnpinPage(pb, false).ok();
  });
  EXPECT_EQ(hit.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a hit waited for the retrying victim write";
  gate.OpenAll();
  EXPECT_TRUE(hit.get());
  ASSERT_TRUE(pool.UnpinPage(pb, false).ok());
  pool.Quiesce();

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.write_failures, 0u);  // Absorbed, not surfaced.
  EXPECT_EQ(stats.writebehind_writes, 1u);
  EXPECT_EQ(stats.writebehind_readmits, 0u);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(pool.PendingVictimWriteCount(), 0u);
  EXPECT_EQ(pool.ParkedVictimCount(), 0u);
  ExpectDiskImage(inner, pa, 'a');
}

}  // namespace
}  // namespace lruk

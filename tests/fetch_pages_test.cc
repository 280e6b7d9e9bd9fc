// PoolInterface::FetchPages: BufferPool's run (its misses read as one
// device batch, on FetchPage's own claim and install steps) and the
// interface's page-by-page default. Threaded cases
// (FetchPagesConcurrencyTest) live in async_io_concurrency_test.cc.
//
// Coverage:
//  * Two misses on a device that overlaps operations are read in one
//    device round: both reads are in flight at once.
//  * A run mixing a hit and a miss, in either order.
//  * A read that fails in the run's second page: the first page is
//    admitted but unpinned, the failed page's frame is free again, and
//    read_failures is exact.
//  * RESOURCE_EXHAUSTED when the pool can spare one frame for a run of two
//    misses: no pin and no frame leaked.
//  * Dirty victims in a run: each claim's paired read leaves the pool's
//    read scratch before the next claim can pair a read there.
//  * Worker mode: a run's dirty victims are written behind.
//  * ShardedBufferPool's default: page by page, the same counts as
//    FetchPage calls, and no pin left on a failure.
//  * PoolModel's run step: single-threaded mixes of FetchPage and two-page
//    runs end where the model does, under LRU-2 and LRU.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "scripted_disk.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

std::unique_ptr<ReplacementPolicy> Lru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

// Allocates `n` pages on `disk` directly (not resident in any pool), each
// stamped with its own byte.
std::vector<PageId> PagesOnDisk(DiskManager& disk, size_t n, char first) {
  std::vector<PageId> pages;
  std::vector<char> image(kPageSize);
  for (size_t i = 0; i < n; ++i) {
    auto p = disk.AllocatePage();
    EXPECT_TRUE(p.ok());
    std::fill(image.begin(), image.end(), static_cast<char>(first + i));
    EXPECT_TRUE(disk.WritePage(*p, image.data()).ok());
    pages.push_back(*p);
  }
  return pages;
}

// Frames neither resident nor free are held by a read in flight, or lost.
void ExpectNoFrameLeaked(const BufferPool& pool) {
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
  EXPECT_EQ(pool.PendingIoCount(), 0u);
}

// On a device that overlaps operations (the default MaxConcurrentIo),
// every read is held until two reads are in the device at once: a batch
// whose reads reach it together passes at once, while reads issued one
// after another each wait out the deadline.
TEST(FetchPagesTest, TwoMissesTakeOneDeviceRound) {
  SimDiskManager inner;
  ScriptedDisk disk(&inner);
  disk.HoldUntil(ScriptedDisk::Reads(), ScriptedDisk::InGroupsOf(2));
  BufferPool pool(8, &disk, Lru2());
  const std::vector<PageId> pages = PagesOnDisk(inner, 2, 'a');
  inner.ResetStats();

  std::array<Page*, 2> out{};
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(pool.FetchPages(pages, out).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(disk.counts(PageIo::Kind::kRead).peak, 2u)
      << "the reads ran one by one";
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(out[0]->id(), pages[0]);
  EXPECT_EQ(out[1]->id(), pages[1]);
  EXPECT_EQ(out[0]->Data()[0], 'a');
  EXPECT_EQ(out[1]->Data()[0], 'b');
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(inner.stats().reads, 2u);
  for (PageId p : pages) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  ExpectNoFrameLeaked(pool);
}

TEST(FetchPagesTest, MixesAHitAndAMissInEitherOrder) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, Lru2());
  const std::vector<PageId> pages = PagesOnDisk(disk, 3, 'a');
  ASSERT_TRUE(pool.FetchPage(pages[0]).ok());
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  pool.ResetStats();
  disk.ResetStats();

  std::array<Page*, 2> out{};
  const PageId hit_then_miss[] = {pages[0], pages[1]};
  ASSERT_TRUE(pool.FetchPages(hit_then_miss, out).ok());
  EXPECT_EQ(out[0]->Data()[0], 'a');
  EXPECT_EQ(out[1]->Data()[0], 'b');
  for (PageId p : hit_then_miss) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  const PageId miss_then_hit[] = {pages[2], pages[0]};
  ASSERT_TRUE(pool.FetchPages(miss_then_hit, out, AccessType::kWrite).ok());
  EXPECT_EQ(out[0]->Data()[0], 'c');
  EXPECT_EQ(out[1]->Data()[0], 'a');
  EXPECT_TRUE(out[0]->is_dirty());
  EXPECT_TRUE(out[1]->is_dirty());
  for (PageId p : miss_then_hit) EXPECT_TRUE(pool.UnpinPage(p, false).ok());

  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(disk.stats().reads, 2u);
  ExpectNoFrameLeaked(pool);
}

TEST(FetchPagesTest, ReadFailureInTheSecondPageUnpinsTheFirst) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner);
  BufferPool pool(4, &disk, Lru2());
  const std::vector<PageId> pages = PagesOnDisk(inner, 2, 'a');
  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, pages[1]));

  std::array<Page*, 2> out{};
  EXPECT_EQ(pool.FetchPages(pages, out).code(), StatusCode::kIoError);
  // The first page's read landed: it is admitted, and unpinned.
  EXPECT_TRUE(pool.IsResident(pages[0]));
  EXPECT_EQ(pool.UnpinPage(pages[0], false).code(),
            StatusCode::kInvalidArgument);
  // Nothing is admitted for the failed page, and its frame is free again.
  EXPECT_FALSE(pool.IsResident(pages[1]));
  EXPECT_EQ(pool.ResidentCount(), 1u);
  EXPECT_EQ(pool.FreeFrameCount(), 3u);
  ExpectNoFrameLeaked(pool);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.read_failures, 1u);
  EXPECT_EQ(disk.stats().read_failures, 1u);
  EXPECT_EQ(pool.policy().ResidentCount(), 1u);

  disk.Heal();
  ASSERT_TRUE(pool.FetchPages(pages, out).ok());
  EXPECT_EQ(out[1]->Data()[0], 'b');
  for (PageId p : pages) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.read_failures, 1u);
}

TEST(FetchPagesTest, ResourceExhaustedLeaksNoPinOrFrame) {
  SimDiskManager disk;
  BufferPool pool(3, &disk, Lru2());
  // Two pages stay pinned; the third frame holds an unpinned page.
  std::vector<PageId> held;
  for (int i = 0; i < 2; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    held.push_back((*page)->id());
  }
  auto spare = pool.NewPage();
  ASSERT_TRUE(spare.ok());
  ASSERT_TRUE(pool.UnpinPage((*spare)->id(), true).ok());
  const std::vector<PageId> pages = PagesOnDisk(disk, 2, 'a');

  std::array<Page*, 2> out{};
  EXPECT_EQ(pool.FetchPages(pages, out).code(),
            StatusCode::kResourceExhausted);
  ExpectNoFrameLeaked(pool);
  EXPECT_EQ(pool.ResidentCount(), 3u);
  // The run holds nothing: a page it read stays admitted, unpinned.
  for (PageId p : pages) {
    if (pool.IsResident(p)) {
      EXPECT_EQ(pool.UnpinPage(p, false).code(),
                StatusCode::kInvalidArgument);
    }
  }
  // One page alone still fits.
  auto one = pool.FetchPage(pages[1]);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)->Data()[0], 'b');
  EXPECT_TRUE(pool.UnpinPage(pages[1], false).ok());
  for (PageId p : held) EXPECT_TRUE(pool.UnpinPage(p, true).ok());
  ExpectNoFrameLeaked(pool);
}

// Fills `pool` with dirty pages stamped 'd'; returns their ids.
std::vector<PageId> FillWithDirtyPages(BufferPool& pool) {
  std::vector<PageId> dirty;
  for (size_t i = 0; i < pool.capacity(); ++i) {
    auto page = pool.NewPage();
    EXPECT_TRUE(page.ok());
    std::memset((*page)->Data(), 'd', kPageSize);
    dirty.push_back((*page)->id());
    EXPECT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
  }
  return dirty;
}

TEST(FetchPagesTest, DirtyVictimsPairedReadsLandInTheirOwnFrames) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, Lru2());
  const std::vector<PageId> dirty = FillWithDirtyPages(pool);
  const std::vector<PageId> pages = PagesOnDisk(disk, 2, 'x');
  pool.ResetStats();
  disk.ResetStats();

  std::array<Page*, 2> out{};
  ASSERT_TRUE(pool.FetchPages(pages, out).ok());
  // Each claim's write-back carried its read into the pool's one read
  // scratch page; a copy made after the next claim would give both frames
  // the second page's image.
  EXPECT_EQ(out[0]->Data()[0], 'x');
  EXPECT_EQ(out[0]->Data()[kPageSize - 1], 'x');
  EXPECT_EQ(out[1]->Data()[0], 'y');
  for (PageId p : pages) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.dirty_writebacks, 2u);
  EXPECT_EQ(disk.stats().writes, 2u);
  EXPECT_EQ(disk.stats().reads, 2u);
  std::vector<char> image(kPageSize);
  for (PageId p : dirty) {
    ASSERT_TRUE(disk.ReadPage(p, image.data()).ok());
    EXPECT_EQ(image[0], 'd');
  }
  ExpectNoFrameLeaked(pool);
}

TEST(FetchPagesTest, WorkerModeWritesTheRunsVictimsBehind) {
  SimDiskManager disk;
  BufferPool pool(2, &disk, Lru2(), BufferPoolOptions{.io_workers = 1});
  const std::vector<PageId> dirty = FillWithDirtyPages(pool);
  const std::vector<PageId> pages = PagesOnDisk(disk, 2, 'x');
  pool.ResetStats();

  std::array<Page*, 2> out{};
  ASSERT_TRUE(pool.FetchPages(pages, out).ok());
  EXPECT_EQ(out[0]->Data()[0], 'x');
  EXPECT_EQ(out[1]->Data()[0], 'y');
  for (PageId p : pages) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  pool.Quiesce();
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.writebehind_writes + stats.dirty_writebacks, 2u);
  EXPECT_EQ(stats.writebehind_writes, 2u);
  std::vector<char> image(kPageSize);
  for (PageId p : dirty) {
    ASSERT_TRUE(disk.ReadPage(p, image.data()).ok());
    EXPECT_EQ(image[0], 'd');
  }
  ExpectNoFrameLeaked(pool);
}

TEST(FetchPagesTest, ShardedPoolFixesPageByPage) {
  SimDiskManager run_disk;
  SimDiskManager fetch_disk;
  auto factory = [](size_t, size_t) { return Lru2(); };
  ShardedBufferPool runs(16, 4, &run_disk, factory);
  ShardedBufferPool fetches(16, 4, &fetch_disk, factory);
  const std::vector<PageId> run_pages = PagesOnDisk(run_disk, 6, 'a');
  const std::vector<PageId> fetch_pages = PagesOnDisk(fetch_disk, 6, 'a');
  ASSERT_EQ(run_pages, fetch_pages);

  std::array<Page*, 3> out{};
  for (size_t first : {0, 3, 1}) {
    auto run = std::span(run_pages).subspan(first, 3);
    ASSERT_TRUE(runs.FetchPages(run, out).ok());
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(out[i]->id(), run[i]);
      EXPECT_EQ(out[i]->Data()[0], static_cast<char>('a' + first + i));
      EXPECT_TRUE(runs.UnpinPage(run[i], false).ok());
    }
    for (PageId p : run) ASSERT_TRUE(fetches.FetchPage(p).ok());
    for (PageId p : run) EXPECT_TRUE(fetches.UnpinPage(p, false).ok());
  }
  difftest::ExpectCountersEq(runs.stats(), fetches.stats());

  // A failure unpins the pages fixed before it.
  SimDiskManager inner;
  FaultInjectingDiskManager faulty(&inner);
  ShardedBufferPool pool(16, 4, &faulty, factory);
  const std::vector<PageId> pages = PagesOnDisk(inner, 3, 'a');
  faulty.AddRule(FaultRule::FailPage(FaultOp::kRead, pages[2]));
  EXPECT_EQ(pool.FetchPages(pages, out).code(), StatusCode::kIoError);
  for (PageId p : {pages[0], pages[1]}) {
    EXPECT_TRUE(pool.IsResident(p));
    EXPECT_EQ(pool.UnpinPage(p, false).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(pool.IsResident(pages[2]));
}

// ---------------------------------------------------------------------------
// PoolModel's run step.

class FetchPagesModelTest : public ::testing::TestWithParam<const char*> {};

// A single-threaded mix over 64 pages and 12 frames: skewed FetchPages of
// a page and its successor (two in five operations), or of a lone page;
// 20% writes. Every op goes through ModelCheckedPool, which feeds the
// model the same sequence: a run through PoolModel::FetchRun.
TEST_P(FetchPagesModelTest, MixOfFetchesAndRunsMatchesModel) {
  constexpr size_t kCapacity = 12;
  constexpr uint64_t kPages = 64;
  constexpr int kOps = 20000;
  auto config = ParsePolicySpec(GetParam());
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  auto factory = MakeShardPolicyFactory(*config);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  const difftest::MakePolicyFn make_policy = *factory;
  SimDiskManager disk;
  auto recorded = std::make_unique<difftest::RecordingPolicy>(
      make_policy(0, kCapacity));
  difftest::RecordingPolicy* recorder = recorded.get();
  BufferPool pool(kCapacity, &disk, std::move(recorded));
  difftest::PoolModel model({kCapacity}, make_policy,
                            [](PageId) { return size_t{0}; });
  difftest::ModelCheckedPool checked(pool, model);
  const std::vector<PageId> pages = difftest::AllocateDb(checked, kPages);

  RecursiveSkewDistribution dist(0.8, 0.2, kPages - 1);
  RandomEngine rng(/*seed=*/20261020);
  uint64_t runs = 0;
  for (int op = 0; op < kOps; ++op) {
    const size_t first = dist.Sample(rng) - 1;
    const AccessType type =
        rng.NextBernoulli(0.2) ? AccessType::kWrite : AccessType::kRead;
    const bool write = type == AccessType::kWrite;
    if (rng.NextBernoulli(0.4)) {
      const PageId run[] = {pages[first], pages[first + 1]};
      std::array<Page*, 2> out{};
      ASSERT_TRUE(checked.FetchPages(run, out, type).ok()) << "op " << op;
      for (PageId p : run) ASSERT_TRUE(checked.UnpinPage(p, write).ok());
      ++runs;
    } else {
      ASSERT_TRUE(checked.FetchPage(pages[first], type).ok()) << "op " << op;
      ASSERT_TRUE(checked.UnpinPage(pages[first], write).ok());
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GT(runs, 0u);

  const BufferPoolStats stats = pool.stats();
  const BufferPoolStats& expected = model.stats();
  EXPECT_EQ(stats.hits, expected.hits);
  EXPECT_EQ(stats.misses, expected.misses);
  EXPECT_EQ(stats.evictions, expected.evictions);
  EXPECT_EQ(stats.correlated_refs, expected.correlated_refs);
  EXPECT_GT(stats.correlated_refs, 0u);
  EXPECT_EQ(recorder->evictions(), model.evictions(0));
  // Under LRU-2 a run's pinned hit is sometimes the miss's first nominee,
  // so the skip-and-Restore step ran; LRU never ranks a page it just
  // referenced first.
  if (std::string(GetParam()) == "LRU-2") {
    EXPECT_GT(recorder->restores(), 0u);
  } else {
    EXPECT_EQ(recorder->restores(), 0u);
  }
  EXPECT_EQ(difftest::LruKClock(recorder->inner()),
            difftest::LruKClock(model.policy(0)));
  for (PageId p : pages) {
    EXPECT_EQ(pool.IsResident(p), model.IsResident(p)) << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, FetchPagesModelTest,
                         ::testing::Values("LRU-2", "LRU"),
                         [](const auto& info) {
                           return std::string(info.param) == "LRU"
                                      ? std::string("LRU")
                                      : std::string("LRU2");
                         });

}  // namespace
}  // namespace lruk

// Deterministic fault injection (storage/fault_injecting_disk_manager.h)
// and the error-path hardening of both buffer pools.
//
// Four layers of coverage:
//  * Injector unit tests — rule mechanics (Nth, per-page, probabilistic,
//    torn writes, latency spikes), Heal()/AddRule re-arming, the retry
//    counter, stats merging, and byte-for-byte trace replay under the
//    same (seed, schedule).
//  * Differential test — an empty-schedule wrapper over SimDiskManager is
//    byte-identical to the bare manager under a deterministic pool
//    workload: same IoStats (every field), same pool counters, same
//    victim sequence, same resident set, same page images.
//  * Pool hardening units — a failed read admits nothing; a failed dirty
//    write-back rolls the eviction back (policy Restore, all three victim
//    indices, latched and optimistic eviction); FlushAll tries every page and keeps failed pages dirty;
//    retries absorb transient faults; NewPage reclaims its id.
//  * Fault-sweep property grid — 208 points of seeds x fault rates x
//    (plain, sharded) x (latched, optimistic): Zipfian workload with injected
//    faults, then Heal() + FlushAll(), asserting no acknowledged write is
//    ever lost, durability on the inner disk, pool/policy residency sync,
//    pin-count hygiene, and that replaying the same (seed, schedule)
//    reproduces the identical fault trace. A concurrent variant (TSan
//    target) races faults against pin/unpin across shards.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_guard.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

// ---------------------------------------------------------------------------
// Helpers.

void ExpectIoStatsEq(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.deallocations, b.deallocations);
  EXPECT_EQ(a.read_failures, b.read_failures);
  EXPECT_EQ(a.write_failures, b.write_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.simulated_micros, b.simulated_micros);
}

void ExpectPoolStatsEq(const BufferPoolStats& a, const BufferPoolStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
  EXPECT_EQ(a.read_failures, b.read_failures);
  EXPECT_EQ(a.write_failures, b.write_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.coalesced_reads, b.coalesced_reads);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_EQ(a.prefetch_used, b.prefetch_used);
  EXPECT_EQ(a.prefetch_dropped, b.prefetch_dropped);
}

std::string TraceToString(const std::vector<FaultEvent>& trace) {
  std::string out;
  for (const FaultEvent& e : trace) {
    out += FaultEventToString(e);
    out += "\n";
  }
  return out;
}

// Allocates `n` zeroed pages through any disk manager, returning their ids.
std::vector<PageId> AllocateRaw(DiskManager& disk, uint64_t n) {
  std::vector<PageId> pages;
  for (uint64_t i = 0; i < n; ++i) {
    auto p = disk.AllocatePage();
    EXPECT_TRUE(p.ok());
    pages.push_back(*p);
  }
  return pages;
}

// Allocates `n` pages through a pool (NewPage + unpin-dirty).
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

// Stamp written into a page image by the sweep workload: the page id plus
// a monotonically increasing write counter.
struct PageStamp {
  PageId page = kInvalidPageId;
  uint64_t value = 0;
};

void WriteStamp(char* data, PageId p, uint64_t value) {
  PageStamp stamp{p, value};
  std::memcpy(data, &stamp, sizeof(stamp));
}

PageStamp ReadStamp(const char* data) {
  PageStamp stamp;
  std::memcpy(&stamp, data, sizeof(stamp));
  return stamp;
}

// Forwarding LRU-K wrapper that records the eviction sequence, so the
// differential test can compare victim choice — not just counters.
class RecordingLruK final : public ReplacementPolicy {
 public:
  explicit RecordingLruK(LruKOptions options) : inner_(options) {}

  void SetReferencingProcess(uint32_t process) override {
    inner_.SetReferencingProcess(process);
  }
  void PrepareAdmit(PageId p) override { inner_.PrepareAdmit(p); }
  void RecordAccess(PageId p, AccessType type) override {
    inner_.RecordAccess(p, type);
  }
  void RecordAccessBatch(const AccessRecord* records, size_t n) override {
    inner_.RecordAccessBatch(records, n);
  }
  void Admit(PageId p, AccessType type) override { inner_.Admit(p, type); }
  std::optional<PageId> Evict() override {
    auto victim = inner_.Evict();
    if (victim.has_value()) evictions_.push_back(*victim);
    return victim;
  }
  void Restore(PageId p) override {
    // The recorded eviction did not happen after all.
    ASSERT_FALSE(evictions_.empty());
    ASSERT_EQ(evictions_.back(), p);
    evictions_.pop_back();
    inner_.Restore(p);
  }
  void Remove(PageId p) override { inner_.Remove(p); }
  void SetEvictable(PageId p, bool evictable) override {
    inner_.SetEvictable(p, evictable);
  }
  size_t ResidentCount() const override { return inner_.ResidentCount(); }
  size_t EvictableCount() const override { return inner_.EvictableCount(); }
  bool IsResident(PageId p) const override { return inner_.IsResident(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override {
    inner_.ForEachResident(visit);
  }
  std::string_view Name() const override { return inner_.Name(); }

  const std::vector<PageId>& evictions() const { return evictions_; }

 private:
  LruKPolicy inner_;
  std::vector<PageId> evictions_;
};

// ---------------------------------------------------------------------------
// Injector unit tests.

TEST(FaultInjectorTest, FailNthReadFiresExactlyOnce) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/1);
  std::vector<PageId> pages = AllocateRaw(disk, 3);
  disk.AddRule(FaultRule::FailNth(FaultOp::kRead, 2));

  char buf[kPageSize];
  EXPECT_TRUE(disk.ReadPage(pages[0], buf).ok());   // 1st read passes.
  Status second = disk.ReadPage(pages[1], buf);     // 2nd fails.
  EXPECT_EQ(second.code(), StatusCode::kIoError);
  EXPECT_TRUE(disk.ReadPage(pages[1], buf).ok());   // Transient: 3rd passes.
  EXPECT_TRUE(disk.ReadPage(pages[2], buf).ok());

  ASSERT_EQ(disk.TraceSize(), 1u);
  FaultEvent event = disk.Trace()[0];
  EXPECT_EQ(event.op_index, 2u);
  EXPECT_EQ(event.op, FaultOp::kRead);
  EXPECT_EQ(event.effect, FaultEffect::kError);
  EXPECT_EQ(event.page, pages[1]);

  IoStats stats = disk.stats();
  EXPECT_EQ(stats.reads, 3u);
  EXPECT_EQ(stats.read_failures, 1u);
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_EQ(stats.retries, 1u);  // The re-issue of pages[1] right after.
}

TEST(FaultInjectorTest, FailPageIsPermanentUntilHealAndAddRuleRearms) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/2);
  std::vector<PageId> pages = AllocateRaw(disk, 2);
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pages[0]));

  char buf[kPageSize] = {};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(disk.WritePage(pages[0], buf).code(), StatusCode::kIoError);
  }
  EXPECT_TRUE(disk.WritePage(pages[1], buf).ok());  // Other pages untouched.
  EXPECT_EQ(disk.TraceSize(), 3u);

  EXPECT_FALSE(disk.healed());
  disk.Heal();
  EXPECT_TRUE(disk.healed());
  EXPECT_TRUE(disk.WritePage(pages[0], buf).ok());
  EXPECT_EQ(disk.TraceSize(), 3u);  // No new fires while healed.

  disk.AddRule(FaultRule::FailNth(FaultOp::kRead, 1));  // Re-arms.
  EXPECT_FALSE(disk.healed());
  // The permanent page rule is armed again too.
  EXPECT_EQ(disk.WritePage(pages[0], buf).code(), StatusCode::kIoError);
  EXPECT_EQ(disk.ReadPage(pages[1], buf).code(), StatusCode::kIoError);
}

TEST(FaultInjectorTest, ProbabilisticScheduleRepliesDeterministically) {
  auto run = [](uint64_t seed) {
    SimDiskManager inner;
    FaultInjectingDiskManager disk(&inner, seed);
    std::vector<PageId> pages = AllocateRaw(disk, 8);
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.3));
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.3));
    char buf[kPageSize] = {};
    for (int i = 0; i < 400; ++i) {
      PageId p = pages[i % pages.size()];
      if (i % 3 == 0) {
        (void)disk.WritePage(p, buf);
      } else {
        (void)disk.ReadPage(p, buf);
      }
    }
    return disk.Trace();
  };

  std::vector<FaultEvent> a = run(42);
  std::vector<FaultEvent> b = run(42);
  EXPECT_GT(a.size(), 20u);                   // The rate actually bites.
  EXPECT_LT(a.size(), 250u);                  // ...but not on every op.
  EXPECT_EQ(a, b) << "same seed must replay byte-for-byte:\n"
                  << TraceToString(a) << "vs\n"
                  << TraceToString(b);
  std::vector<FaultEvent> c = run(43);
  EXPECT_NE(a, c) << "different seeds draw different fault patterns";
}

TEST(FaultInjectorTest, TornWriteLeavesPrefixOverOldImage) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/3);
  std::vector<PageId> pages = AllocateRaw(disk, 1);
  PageId p = pages[0];

  char old_image[kPageSize];
  std::memset(old_image, 0xAA, kPageSize);
  ASSERT_TRUE(disk.WritePage(p, old_image).ok());

  constexpr size_t kTornBytes = 512;
  disk.AddRule(FaultRule::TornWriteNth(/*nth=*/1, kTornBytes));
  char new_image[kPageSize];
  std::memset(new_image, 0xBB, kPageSize);
  Status torn = disk.WritePage(p, new_image);
  EXPECT_EQ(torn.code(), StatusCode::kIoError);

  // The inner manager holds the torn hybrid: new prefix, old tail.
  char got[kPageSize];
  ASSERT_TRUE(inner.ReadPage(p, got).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    char want = i < kTornBytes ? static_cast<char>(0xBB)
                               : static_cast<char>(0xAA);
    ASSERT_EQ(got[i], want) << "byte " << i;
  }

  ASSERT_EQ(disk.TraceSize(), 1u);
  EXPECT_EQ(disk.Trace()[0].effect, FaultEffect::kTornWrite);
  EXPECT_EQ(disk.stats().write_failures, 1u);
}

TEST(FaultInjectorTest, LatencySpikeChargesTimeWithoutFailing) {
  SimDiskOptions sim_options;
  sim_options.read_micros = 100.0;
  SimDiskManager inner(sim_options);
  FaultInjectingDiskManager disk(&inner, /*seed=*/4);
  std::vector<PageId> pages = AllocateRaw(disk, 1);
  disk.AddRule(
      FaultRule::LatencySpikeNth(FaultOp::kRead, /*nth=*/2, /*micros=*/5000));

  char buf[kPageSize];
  EXPECT_TRUE(disk.ReadPage(pages[0], buf).ok());
  EXPECT_TRUE(disk.ReadPage(pages[0], buf).ok());  // Spiked but succeeds.
  EXPECT_TRUE(disk.ReadPage(pages[0], buf).ok());

  IoStats stats = disk.stats();
  EXPECT_EQ(stats.reads, 3u);
  EXPECT_EQ(stats.read_failures, 0u);
  EXPECT_DOUBLE_EQ(stats.simulated_micros, 3 * 100.0 + 5000.0);
  ASSERT_EQ(disk.TraceSize(), 1u);
  EXPECT_EQ(disk.Trace()[0].effect, FaultEffect::kLatency);
}

TEST(FaultInjectorTest, ResetStatsClearsInnerAndInjectedCounters) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/5);
  std::vector<PageId> pages = AllocateRaw(disk, 1);
  disk.AddRule(FaultRule::FailNth(FaultOp::kRead, 1));

  char buf[kPageSize] = {};
  EXPECT_FALSE(disk.ReadPage(pages[0], buf).ok());
  EXPECT_TRUE(disk.ReadPage(pages[0], buf).ok());
  EXPECT_TRUE(disk.WritePage(pages[0], buf).ok());
  // Organic failure counted by the inner manager itself.
  EXPECT_EQ(disk.ReadPage(999, buf).code(), StatusCode::kNotFound);

  IoStats before = disk.stats();
  EXPECT_EQ(before.reads, 1u);
  EXPECT_EQ(before.writes, 1u);
  EXPECT_EQ(before.read_failures, 2u);  // 1 injected + 1 organic.
  EXPECT_EQ(before.retries, 1u);

  disk.ResetStats();
  IoStats after = disk.stats();
  ExpectIoStatsEq(after, IoStats{});
  ExpectIoStatsEq(inner.stats(), IoStats{});
}

// ---------------------------------------------------------------------------
// Differential test: an empty schedule is a transparent pass-through.

TEST(FaultInjectorDifferentialTest, EmptyScheduleIsByteIdenticalToBareDisk) {
  constexpr uint64_t kDbPages = 96;
  constexpr size_t kCapacity = 24;

  SimDiskManager bare;
  auto bare_policy = std::make_unique<RecordingLruK>(LruKOptions{.k = 2});
  RecordingLruK* bare_recorder = bare_policy.get();
  BufferPool bare_pool(kCapacity, &bare, std::move(bare_policy));

  SimDiskManager inner;
  FaultInjectingDiskManager wrapped(&inner, /*seed=*/7);
  auto wrapped_policy = std::make_unique<RecordingLruK>(LruKOptions{.k = 2});
  RecordingLruK* wrapped_recorder = wrapped_policy.get();
  BufferPool wrapped_pool(kCapacity, &wrapped, std::move(wrapped_policy));

  std::vector<PageId> bare_pages = AllocateDb(bare_pool, kDbPages);
  std::vector<PageId> wrapped_pages = AllocateDb(wrapped_pool, kDbPages);
  ASSERT_EQ(bare_pages, wrapped_pages);

  auto drive = [&](BufferPool& pool, const std::vector<PageId>& pages) {
    RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
    RandomEngine rng(/*seed=*/20260806);
    for (int i = 0; i < 20000; ++i) {
      PageId p = pages[dist.Sample(rng) - 1];
      bool write = rng.NextBernoulli(0.25);
      auto page =
          pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
      ASSERT_TRUE(page.ok()) << i;
      if (write) WriteStamp((*page)->Data(), p, static_cast<uint64_t>(i));
      ASSERT_TRUE(pool.UnpinPage(p, write).ok()) << i;
      if (i % 1009 == 0) ASSERT_TRUE(pool.FlushPage(p).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  };
  drive(bare_pool, bare_pages);
  drive(wrapped_pool, wrapped_pages);

  // Same victim sequence — replacement behaviour, not just counts.
  EXPECT_EQ(bare_recorder->evictions(), wrapped_recorder->evictions());
  ExpectPoolStatsEq(bare_pool.stats(), wrapped_pool.stats());
  // Same IoStats, every field, through the wrapper's merged view.
  ExpectIoStatsEq(bare.stats(), wrapped.stats());
  EXPECT_EQ(wrapped.TraceSize(), 0u);

  // Same resident set and identical page images on disk.
  ASSERT_EQ(bare_pool.ResidentCount(), wrapped_pool.ResidentCount());
  char a[kPageSize];
  char b[kPageSize];
  for (PageId p : bare_pages) {
    EXPECT_EQ(bare_pool.IsResident(p), wrapped_pool.IsResident(p));
    ASSERT_TRUE(bare.ReadPage(p, a).ok());
    ASSERT_TRUE(inner.ReadPage(p, b).ok());
    EXPECT_EQ(std::memcmp(a, b, kPageSize), 0) << "page " << p;
  }
}

// ---------------------------------------------------------------------------
// Pool hardening units.

TEST(PoolFaultHardeningTest, FailedReadAdmitsNothing) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/11);
  auto policy = std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
  LruKPolicy* lruk = policy.get();
  BufferPool pool(4, &disk, std::move(policy));
  std::vector<PageId> pages = AllocateDb(pool, 2);

  PageId target = pages[0];
  // Make the target non-resident first (delete it from the pool's view by
  // flushing + evicting is fiddly; just use a fresh non-resident page).
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<PageId> extra = AllocateRaw(disk, 1);
  target = extra[0];

  disk.AddRule(FaultRule::FailPage(FaultOp::kRead, target));
  size_t residents_before = pool.ResidentCount();
  Timestamp time_before = lruk->CurrentTime();

  auto fetched = pool.FetchPage(target);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);

  EXPECT_EQ(pool.ResidentCount(), residents_before);
  EXPECT_FALSE(pool.IsResident(target));
  EXPECT_FALSE(lruk->IsResident(target));
  EXPECT_EQ(lruk->ResidentCount(), residents_before);
  EXPECT_EQ(lruk->CurrentTime(), time_before);  // No phantom tick.
  EXPECT_EQ(pool.stats().read_failures, 1u);

  disk.Heal();
  auto healed = pool.FetchPage(target);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(pool.UnpinPage(target, false).ok());
}

// The write-back rollback, exercised with an infinite and a finite RIP on
// both eviction paths (latched Evict(), optimistic EvictBatch nomination
// under a bucket lock): the policy must restore the victim exactly (no
// clock tick, the same history block, the same next victim) and the pool
// must keep the dirty image. The victim idles past the finite RIP before
// its eviction fails, which a resident page may: only non-resident
// history expires.
class WriteBackRollbackTest
    : public ::testing::TestWithParam<std::tuple<Timestamp, bool>> {};

TEST_P(WriteBackRollbackTest, FailedWriteBackRollsBackEviction) {
  const auto [rip, optimistic] = GetParam();
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/13);
  auto policy = std::make_unique<LruKPolicy>(
      LruKOptions{.k = 2, .retained_information_period = rip});
  LruKPolicy* lruk = policy.get();
  BufferPool pool(3, &disk, std::move(policy),
                  BufferPoolOptions{.optimistic_hits = optimistic});

  // Resident dirty page A, referenced once (infinite backward distance, so
  // the next victim); clean C and D referenced alternately while A idles;
  // B waits on disk.
  std::vector<PageId> ids = AllocateRaw(disk, 4);
  PageId a = ids[0];
  PageId b = ids[1];
  PageId c = ids[2];
  PageId d = ids[3];
  auto page_a = pool.FetchPage(a, AccessType::kWrite);
  ASSERT_TRUE(page_a.ok());
  WriteStamp((*page_a)->Data(), a, /*value=*/777);
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  for (int i = 0; i < 4; ++i) {
    for (PageId p : {c, d}) {
      ASSERT_TRUE(pool.FetchPage(p).ok());
      ASSERT_TRUE(pool.UnpinPage(p, false).ok());
    }
  }
  (void)pool.stats();  // Drains the optimistic pool's published hits.
  const HistoryBlock block_before = *lruk->DebugBlock(a);
  ASSERT_GT(lruk->CurrentTime() - block_before.last, 4u);

  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, a));
  Timestamp time_before = lruk->CurrentTime();
  auto fetched = pool.FetchPage(b);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);

  // The eviction rolled back: A is still resident (and still dirty — its
  // acknowledged write was not lost) with its history block unchanged, B
  // was never admitted, the policy and frame table agree, no eviction was
  // counted, and the clock is unmoved.
  EXPECT_TRUE(pool.IsResident(a));
  EXPECT_FALSE(pool.IsResident(b));
  EXPECT_TRUE(lruk->IsResident(a));
  EXPECT_EQ(lruk->ResidentCount(), 3u);
  EXPECT_EQ(lruk->EvictableCount(), 3u);
  EXPECT_EQ(lruk->CurrentTime(), time_before);
  const HistoryBlock* block_after = lruk->DebugBlock(a);
  ASSERT_NE(block_after, nullptr);
  EXPECT_EQ(block_after->hist[0], block_before.hist[0]);
  EXPECT_EQ(block_after->hist[1], block_before.hist[1]);
  EXPECT_EQ(block_after->last, block_before.last);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.dirty_writebacks, 0u);
  EXPECT_EQ(stats.write_failures, 1u);

  // Re-pinning A sees the unwritten stamp.
  auto again = pool.FetchPage(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ReadStamp((*again)->Data()).value, 777u);
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());

  // After healing, the same fetch completes: A, whose second reference is
  // still the oldest, is written back and B admitted; A's stamp is
  // durable on the inner disk.
  disk.Heal();
  auto healed = pool.FetchPage(b);
  ASSERT_TRUE(healed.ok());
  ASSERT_TRUE(pool.UnpinPage(b, false).ok());
  EXPECT_FALSE(pool.IsResident(a));
  EXPECT_TRUE(pool.IsResident(b));
  char buf[kPageSize];
  ASSERT_TRUE(inner.ReadPage(a, buf).ok());
  EXPECT_EQ(ReadStamp(buf).value, 777u);
  stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.dirty_writebacks, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    RipsAndHitPaths, WriteBackRollbackTest,
    ::testing::Combine(::testing::Values<Timestamp>(kInfinitePeriod, 4),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) == kInfinitePeriod
                             ? "InfiniteRip"
                             : "FiniteRip";
      return std::get<1>(info.param) ? name + "Optimistic" : name;
    });

TEST(PoolFaultHardeningTest, FlushAllTriesEveryPageAndKeepsFailedDirty) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/17);
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 3);
  ASSERT_TRUE(pool.FlushAll().ok());

  // Dirty all three, then make the middle one unwritable.
  for (size_t i = 0; i < pages.size(); ++i) {
    auto page = pool.FetchPage(pages[i], AccessType::kWrite);
    ASSERT_TRUE(page.ok());
    WriteStamp((*page)->Data(), pages[i], 1000 + i);
    ASSERT_TRUE(pool.UnpinPage(pages[i], true).ok());
  }
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, pages[1]));

  Status flushed = pool.FlushAll();
  EXPECT_EQ(flushed.code(), StatusCode::kIoError);

  // The healthy pages reached disk despite the failure in their midst...
  char buf[kPageSize];
  ASSERT_TRUE(inner.ReadPage(pages[0], buf).ok());
  EXPECT_EQ(ReadStamp(buf).value, 1000u);
  ASSERT_TRUE(inner.ReadPage(pages[2], buf).ok());
  EXPECT_EQ(ReadStamp(buf).value, 1002u);
  // ...and the failed page is still dirty, so healing + reflushing
  // completes the job (nothing silently dropped).
  disk.Heal();
  EXPECT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(inner.ReadPage(pages[1], buf).ok());
  EXPECT_EQ(ReadStamp(buf).value, 1001u);
}

TEST(PoolFaultHardeningTest, RetryAbsorbsTransientFaults) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/19);
  BufferPoolOptions options;
  options.io_max_attempts = 3;  // Immediate re-issue.
  BufferPool pool(1, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  std::vector<PageId> pages = AllocateDb(pool, 1);

  // One transient write failure: the flush's first attempt fails inside
  // the pool, the retry succeeds, and the caller never sees an error.
  disk.AddRule(FaultRule::FailNth(FaultOp::kWrite, 1));
  auto page = pool.FetchPage(pages[0], AccessType::kWrite);
  ASSERT_TRUE(page.ok());
  WriteStamp((*page)->Data(), pages[0], 4242);
  ASSERT_TRUE(pool.UnpinPage(pages[0], true).ok());
  EXPECT_TRUE(pool.FlushPage(pages[0]).ok());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.write_failures, 0u);  // Absorbed, not surfaced.
  IoStats io = disk.stats();
  EXPECT_EQ(io.write_failures, 1u);  // The disk level still saw it.
  EXPECT_EQ(io.retries, 1u);
  char buf[kPageSize];
  ASSERT_TRUE(inner.ReadPage(pages[0], buf).ok());
  EXPECT_EQ(ReadStamp(buf).value, 4242u);

  // A transient read failure on the fetch path is absorbed the same way.
  // Push the (now clean) page out of the single frame first, so the next
  // fetch must hit the disk.
  std::vector<PageId> extra = AllocateDb(pool, 1);
  ASSERT_FALSE(pool.IsResident(pages[0]));
  disk.AddRule(FaultRule::FailNth(FaultOp::kRead, 1));
  auto reread = pool.FetchPage(pages[0]);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(ReadStamp((*reread)->Data()).value, 4242u);
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  EXPECT_EQ(pool.stats().read_failures, 0u);
  EXPECT_EQ(pool.stats().retries, 2u);
}

TEST(PoolFaultHardeningTest, NewPageReclaimsItsIdWhenAdmissionFails) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/23);
  BufferPool pool(1, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));

  auto pinned = pool.NewPage();
  ASSERT_TRUE(pinned.ok());  // Holds the only frame, pinned.
  uint64_t allocated_before = disk.NumAllocatedPages();

  auto failed = pool.NewPage();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // The freshly allocated id was returned to the allocator.
  EXPECT_EQ(disk.NumAllocatedPages(), allocated_before);

  // Same deal when the admission fails on a dirty write-back fault.
  ASSERT_TRUE(pool.UnpinPage((*pinned)->id(), true).ok());
  disk.AddRule(FaultRule::FailPage(FaultOp::kWrite, (*pinned)->id()));
  auto blocked = pool.NewPage();
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kIoError);
  EXPECT_EQ(disk.NumAllocatedPages(), allocated_before);
  EXPECT_TRUE(pool.IsResident((*pinned)->id()));  // Rolled back, intact.
}

TEST(PoolFaultHardeningTest, DeletePageLeavesPoolIntactWhenDiskRefuses) {
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/29);
  BufferPool pool(2, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 1);

  // Deallocate behind the pool's back, so the pool-level delete fails at
  // the disk step: the resident page (and its policy entry) must survive.
  ASSERT_TRUE(disk.DeallocatePage(pages[0]).ok());
  Status deleted = pool.DeletePage(pages[0]);
  EXPECT_EQ(deleted.code(), StatusCode::kNotFound);
  EXPECT_TRUE(pool.IsResident(pages[0]));
  EXPECT_EQ(pool.ResidentCount(), 1u);
}

// ---------------------------------------------------------------------------
// Fault-sweep property grid.

enum class PoolKind { kPlain, kSharded };

struct SweepPoint {
  uint64_t seed = 0;
  double fault_rate = 0.0;
  PoolKind kind = PoolKind::kPlain;
  bool optimistic = false;
};

struct SweepResult {
  std::vector<FaultEvent> trace;
  BufferPoolStats stats;
};

constexpr uint64_t kSweepDbPages = 64;
constexpr size_t kSweepCapacity = 16;
constexpr int kSweepTraceLen = 1200;

// Runs one grid point end-to-end and checks every invariant; returns the
// fault trace + final stats so the caller can assert replay equality.
SweepResult RunSweepPoint(const SweepPoint& point) {
  SweepResult result;
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, point.seed);

  BufferPoolOptions options;
  options.optimistic_hits = point.optimistic;
  if (point.seed % 2 == 1) {
    options.io_max_attempts = 2;  // Immediate re-issue.
  }

  auto factory = [](size_t, size_t shard_capacity) {
    LruKOptions o{.k = 2};
    o.capacity_hint = shard_capacity;
    return std::make_unique<LruKPolicy>(o);
  };
  std::unique_ptr<BufferPool> plain;
  std::unique_ptr<ShardedBufferPool> sharded;
  PoolInterface* pool = nullptr;
  if (point.kind == PoolKind::kPlain) {
    plain = std::make_unique<BufferPool>(kSweepCapacity, &disk,
                                         factory(0, kSweepCapacity), options);
    pool = plain.get();
  } else {
    sharded = std::make_unique<ShardedBufferPool>(
        kSweepCapacity, /*num_shards=*/4, &disk, factory, options);
    pool = sharded.get();
  }

  // Allocation runs fault-free so every grid point starts from the same
  // database; the schedule is armed afterwards.
  std::vector<PageId> pages = AllocateDb(*pool, kSweepDbPages);
  if (point.fault_rate > 0.0) {
    disk.AddRule(
        FaultRule::FailWithProbability(FaultOp::kRead, point.fault_rate));
    disk.AddRule(
        FaultRule::FailWithProbability(FaultOp::kWrite, point.fault_rate));
    disk.AddRule(FaultRule::LatencyWithProbability(
        FaultOp::kRead, point.fault_rate / 2, /*micros=*/250.0));
  }

  // Zipfian workload under fire. `shadow` records acknowledged writes
  // (fetch + stamp + unpin-dirty all succeeded): the pool must NEVER lose
  // one, fault or no fault — failed evictions roll back, failed flushes
  // keep the dirty bit.
  std::map<PageId, uint64_t> shadow;
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(point.seed ^ 0x5DEECE66DULL);
  for (int i = 0; i < kSweepTraceLen; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(0.3);
    auto page =
        pool->FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    if (!page.ok()) {
      // Injected faults surface as kIoError; nothing else may leak out of
      // a single-threaded workload with free frames.
      EXPECT_EQ(page.status().code(), StatusCode::kIoError)
          << "op " << i << ": " << page.status().ToString();
      continue;
    }
    EXPECT_GE((*page)->pin_count(), 1) << "op " << i;
    uint64_t value = static_cast<uint64_t>(i) + 1;
    if (write) WriteStamp((*page)->Data(), p, value);
    Status unpinned = pool->UnpinPage(p, write);
    EXPECT_TRUE(unpinned.ok()) << "op " << i;
    if (write && unpinned.ok()) shadow[p] = value;
    if (i % 251 == 0) {
      Status flushed = pool->FlushPage(p);
      EXPECT_TRUE(flushed.ok() ||
                  flushed.code() == StatusCode::kIoError)
          << "op " << i << ": " << flushed.ToString();
    }
  }

  // Heal, then the pool must be able to make everything durable.
  disk.Heal();
  EXPECT_TRUE(pool->FlushAll().ok());

  // Capture replay artifacts before verification perturbs the stats.
  result.trace = disk.Trace();
  result.stats = pool->stats();

  // --- Invariants ---
  EXPECT_LE(pool->ResidentCount(), kSweepCapacity);
  // Every fetch resolves to exactly one hit or miss, errors included
  // (NewPage counts neither, so the allocation phase contributes nothing).
  EXPECT_EQ(result.stats.hits + result.stats.misses,
            static_cast<uint64_t>(kSweepTraceLen));

  // Pool <-> policy residency sync, pin hygiene, history consistency.
  auto check_shard = [&](BufferPool& shard) {
    auto& lruk = static_cast<LruKPolicy&>(shard.policy());
    EXPECT_EQ(shard.ResidentCount(), lruk.ResidentCount());
    // Every frame is unpinned, so everything resident is evictable.
    EXPECT_EQ(lruk.EvictableCount(), lruk.ResidentCount());
    // Both Evict and EvictBatch defer retaining a victim's history until
    // the policy's next Evict/Admit (a demand read that fails after its
    // eviction leaves one pending). The deferred list also holds victims
    // restored since, so it bounds the gap from above.
    const size_t settled =
        lruk.ResidentCount() + lruk.NonResidentHistorySize();
    EXPECT_GE(lruk.HistorySize(), settled);
    EXPECT_LE(lruk.HistorySize(), settled + lruk.PendingDeferredEvictions());
  };
  if (point.kind == PoolKind::kPlain) {
    check_shard(*plain);
    for (PageId p : pages) {
      EXPECT_EQ(plain->IsResident(p), plain->policy().IsResident(p))
          << "page " << p;
    }
  } else {
    for (size_t s = 0; s < sharded->shard_count(); ++s) {
      check_shard(sharded->shard(s));
    }
    for (PageId p : pages) {
      EXPECT_EQ(sharded->IsResident(p),
                sharded->shard(sharded->ShardOf(p)).policy().IsResident(p))
          << "page " << p;
    }
  }

  // No acknowledged write lost: the pool's view has the stamp, and after
  // FlushAll the inner disk has it too (durability).
  char buf[kPageSize];
  for (const auto& [p, value] : shadow) {
    auto page = pool->FetchPage(p);
    EXPECT_TRUE(page.ok()) << "page " << p;
    if (!page.ok()) continue;
    EXPECT_EQ(ReadStamp((*page)->Data()).value, value) << "page " << p;
    EXPECT_EQ((*page)->pin_count(), 1) << "page " << p;  // No leaked pins.
    EXPECT_TRUE(pool->UnpinPage(p, false).ok());
    Status durable = inner.ReadPage(p, buf);
    EXPECT_TRUE(durable.ok()) << "page " << p;
    if (durable.ok()) {
      EXPECT_EQ(ReadStamp(buf).value, value) << "page " << p;
    }
  }
  return result;
}

TEST(FaultSweepTest, GridOfSeedsRatesPoolsAndHitPaths) {
  const double kRates[] = {0.0, 0.05, 0.15, 0.3};
  int points = 0;
  int faulted_points = 0;
  for (uint64_t seed = 1; seed <= 13; ++seed) {
    for (double rate : kRates) {
      for (PoolKind kind : {PoolKind::kPlain, PoolKind::kSharded}) {
        for (bool optimistic : {false, true}) {
          SweepPoint point{seed * 7919, rate, kind, optimistic};
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << point.seed << " rate=" << rate
                       << " kind=" << (kind == PoolKind::kPlain ? "plain"
                                                                : "sharded")
                       << " optimistic=" << optimistic);
          SweepResult first = RunSweepPoint(point);
          if (::testing::Test::HasFatalFailure()) return;
          // Replay: the identical (seed, schedule, workload) reproduces
          // the identical fault trace and pool counters.
          SweepResult second = RunSweepPoint(point);
          EXPECT_EQ(first.trace, second.trace)
              << TraceToString(first.trace) << "vs\n"
              << TraceToString(second.trace);
          ExpectPoolStatsEq(first.stats, second.stats);
          if (rate > 0.0) {
            EXPECT_GT(first.trace.size(), 0u)
                << "fault rate " << rate << " never fired";
            ++faulted_points;
          } else {
            EXPECT_EQ(first.trace.size(), 0u);
          }
          ++points;
        }
      }
    }
  }
  EXPECT_GE(points, 200);  // The acceptance bar: >= 200 grid points.
  EXPECT_EQ(points, 13 * 4 * 2 * 2);
  EXPECT_EQ(faulted_points, 13 * 3 * 2 * 2);
}

// ---------------------------------------------------------------------------
// Faults racing concurrent pin/unpin across shards (TSan/ASan target; the
// suite name carries "Concurren" so the sanitizer CI matrix picks it up).

TEST(FaultConcurrencyTest, ConcurrentFaultsPreserveShardInvariants) {
  constexpr size_t kCapacity = 64;
  constexpr uint64_t kDbPages = 256;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/0xFA17ED);
  BufferPoolOptions options;
  options.optimistic_hits = true;
  options.io_max_attempts = 2;
  auto factory = [](size_t, size_t shard_capacity) {
    LruKOptions o{.k = 2};
    o.capacity_hint = shard_capacity;
    return std::make_unique<LruKPolicy>(o);
  };
  ShardedBufferPool pool(kCapacity, /*num_shards=*/4, &disk, factory,
                         options);
  std::vector<PageId> pages = AllocateDb(pool, kDbPages);
  ASSERT_TRUE(pool.FlushAll().ok());
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.05));
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.05));

  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> io_errors{0};
  std::atomic<uint64_t> exhausted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
      RandomEngine rng(0xC0FFEE + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        PageId p = pages[dist.Sample(rng) - 1];
        // kWrite dirties the page (exercising faulty write-backs) but the
        // bytes are never touched — concurrent writers to the same page
        // must coordinate themselves, and this test has no such protocol.
        bool write = rng.NextBernoulli(0.2);
        attempts.fetch_add(1, std::memory_order_relaxed);
        auto page = pool.FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        if (!page.ok()) {
          StatusCode code = page.status().code();
          if (code == StatusCode::kIoError) {
            io_errors.fetch_add(1, std::memory_order_relaxed);
          } else if (code == StatusCode::kResourceExhausted) {
            // All frames of the owning shard momentarily pinned.
            exhausted.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected fetch error: "
                          << page.status().ToString();
          }
          continue;
        }
        ASSERT_TRUE(pool.UnpinPage(p, write).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(io_errors.load(), 0u) << "faults never fired under load";

  disk.Heal();
  ASSERT_TRUE(pool.FlushAll().ok());

  // Every fetch resolved to exactly one hit or miss, errors included
  // (NewPage counts neither, so allocation contributes nothing).
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, attempts.load());
  EXPECT_GT(stats.retries, 0u);
  EXPECT_LE(pool.ResidentCount(), kCapacity);

  // Shard <-> policy sync and pin hygiene after the storm.
  for (size_t s = 0; s < pool.shard_count(); ++s) {
    BufferPool& shard = pool.shard(s);
    auto& lruk = static_cast<LruKPolicy&>(shard.policy());
    EXPECT_EQ(shard.ResidentCount(), lruk.ResidentCount()) << "shard " << s;
    EXPECT_EQ(lruk.EvictableCount(), lruk.ResidentCount()) << "shard " << s;
    EXPECT_GE(lruk.HistorySize(), lruk.ResidentCount()) << "shard " << s;
  }
  for (PageId p : pages) {
    if (!pool.IsResident(p)) continue;
    auto page = pool.FetchPage(p);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->pin_count(), 1) << "leaked pin on page " << p;
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
}

}  // namespace
}  // namespace lruk

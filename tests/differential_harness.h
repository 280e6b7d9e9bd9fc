// Shared 20k-op differential harness.
//
// Three suites (async_io_test.cc, optimistic_pool_test.cc,
// batched_access_test.cc) grew byte-for-byte copies of the same
// scaffolding: the stats comparators, the AllocateDb warm-up, a
// victim-recording policy wrapper, and the mixed deterministic workload
// with its RunScenario driver. This header is the single home for all of
// it; adaptive_policy_test.cc builds its fixed-expert differential on the
// same pieces (DiffScenarioConfig::make_policy swaps the policy under
// record).
//
// Everything is inline and header-only: each test binary stays standalone,
// and the compiler sees one definition per TU.

#ifndef LRUK_TESTS_DIFFERENTIAL_HARNESS_H_
#define LRUK_TESTS_DIFFERENTIAL_HARNESS_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace difftest {

using CounterField = uint64_t BufferPoolStats::*;

// Expects every listed pool counter equal, naming each that differs,
// except the counters in `skip`.
inline void ExpectCountersEq(const BufferPoolStats& a,
                             const BufferPoolStats& b,
                             std::span<const CounterField> skip = {}) {
  for (const PoolCounter& counter : kPoolCounters) {
    if (std::find(skip.begin(), skip.end(), counter.field) != skip.end()) {
      continue;
    }
    EXPECT_EQ(a.*counter.field, b.*counter.field) << counter.name;
  }
}

// The counters that differ between pool modes running one op sequence:
// write-behind and lane drops exist only in worker mode, the optimistic
// and fallback counters only with optimistic hits, access_drops and
// pin_cas_retries follow the latch-free publish path, and latch_acquires
// is what the optimistic path removes.
inline constexpr CounterField kModeDependentCounters[] = {
    &BufferPoolStats::writebehind_writes,
    &BufferPoolStats::writebehind_readmits,
    &BufferPoolStats::io_drops_flush,
    &BufferPoolStats::optimistic_hits,
    &BufferPoolStats::optimistic_fallbacks,
    &BufferPoolStats::fallback_probe_miss,
    &BufferPoolStats::fallback_version_conflict,
    &BufferPoolStats::fallback_resize,
    &BufferPoolStats::access_drops,
    &BufferPoolStats::pin_cas_retries,
    &BufferPoolStats::latch_acquires,
};

// The differential comparison: every counter but the mode-dependent ones,
// so a newly listed counter is compared by default.
inline void ExpectPoolStatsEq(const BufferPoolStats& a,
                              const BufferPoolStats& b) {
  ExpectCountersEq(a, b, kModeDependentCounters);
}

inline void ExpectIoStatsEq(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.deallocations, b.deallocations);
  EXPECT_EQ(a.read_failures, b.read_failures);
  EXPECT_EQ(a.write_failures, b.write_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.simulated_micros, b.simulated_micros);
}

inline std::vector<PageId> AllocateDb(PoolInterface& pool, uint64_t n) {
  std::vector<PageId> pages;
  for (uint64_t i = 0; i < n; ++i) {
    auto page = pool.NewPage();
    EXPECT_TRUE(page.ok());
    pages.push_back((*page)->id());
    EXPECT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
  }
  return pages;
}

// Forwarding wrapper recording the surviving eviction sequence around ANY
// inner policy (a Restore pops its eviction — eviction skips and
// write-behind rollbacks cancel out exactly, so what remains is the true
// victim order). Unused EvictBatch nominees come back in reverse
// nomination order, but a batch's CONSUMED nominee stays evicted
// mid-sequence — so Restore erases the most recent occurrence instead of
// asserting strict LIFO.
class RecordingPolicy final : public ReplacementPolicy {
 public:
  explicit RecordingPolicy(std::unique_ptr<ReplacementPolicy> inner)
      : inner_(std::move(inner)) {}

  void SetReferencingProcess(uint32_t process) override {
    inner_->SetReferencingProcess(process);
  }
  void PrepareAdmit(PageId p) override { inner_->PrepareAdmit(p); }
  void RecordAccess(PageId p, AccessType type) override {
    inner_->RecordAccess(p, type);
  }
  void RecordAccessBatch(const AccessRecord* records, size_t n) override {
    inner_->RecordAccessBatch(records, n);
  }
  void Admit(PageId p, AccessType type) override { inner_->Admit(p, type); }
  std::optional<PageId> Evict() override {
    auto victim = inner_->Evict();
    if (victim.has_value()) evictions_.push_back(*victim);
    return victim;
  }
  size_t EvictBatch(size_t k, std::vector<PageId>* out) override {
    size_t n = inner_->EvictBatch(k, out);
    evictions_.insert(evictions_.end(), out->begin(), out->end());
    return n;
  }
  void Restore(PageId p) override {
    auto it = std::find(evictions_.rbegin(), evictions_.rend(), p);
    ASSERT_TRUE(it != evictions_.rend());
    evictions_.erase(std::next(it).base());
    inner_->Restore(p);
  }
  void Remove(PageId p) override { inner_->Remove(p); }
  void SetEvictable(PageId p, bool evictable) override {
    inner_->SetEvictable(p, evictable);
  }
  size_t ResidentCount() const override { return inner_->ResidentCount(); }
  size_t EvictableCount() const override { return inner_->EvictableCount(); }
  bool IsResident(PageId p) const override { return inner_->IsResident(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override {
    inner_->ForEachResident(visit);
  }
  std::string_view Name() const override { return inner_->Name(); }
  MetaPolicyStats GetMetaStats() const override {
    return inner_->GetMetaStats();
  }

  const std::vector<PageId>& evictions() const { return evictions_; }
  ReplacementPolicy& inner() { return *inner_; }
  const ReplacementPolicy& inner() const { return *inner_; }

 private:
  std::unique_ptr<ReplacementPolicy> inner_;
  std::vector<PageId> evictions_;
};

constexpr uint64_t kDiffDbPages = 96;
constexpr size_t kDiffCapacity = 24;
constexpr int kDiffOps = 20000;

// A mixed deterministic workload: skewed fetches, 25% writes, periodic
// FlushPage, periodic DeletePage + NewPage (id churn through the
// allocator's free list). Exercises every pool entry point that the
// async stack and the optimistic hit path (with its publish ring) touch.
// Reports the number of delete/new cycles through *delete_cycles (for
// closed-form policy-clock assertions: clock + correlated_refs == hits +
// misses + initial admissions + delete cycles).
inline void DriveMixedWorkload(PoolInterface& pool,
                               std::vector<PageId>& pages,
                               int ops = kDiffOps,
                               int* delete_cycles = nullptr) {
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(/*seed=*/20260809);
  int cycles = 0;
  for (int i = 0; i < ops; ++i) {
    size_t idx = dist.Sample(rng) - 1;
    PageId p = pages[idx];
    bool write = rng.NextBernoulli(0.25);
    auto page =
        pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    ASSERT_TRUE(page.ok()) << "op " << i;
    if (write) {
      std::memcpy((*page)->Data(), &i, sizeof(i));
    }
    ASSERT_TRUE(pool.UnpinPage(p, write).ok()) << "op " << i;
    if (i % 1009 == 0) {
      ASSERT_TRUE(pool.FlushPage(p).ok());
    }
    if (i % 501 == 250) {
      ASSERT_TRUE(pool.DeletePage(p).ok()) << "op " << i;
      auto fresh = pool.NewPage();
      ASSERT_TRUE(fresh.ok());
      pages[idx] = (*fresh)->id();
      ASSERT_TRUE(pool.UnpinPage((*fresh)->id(), true).ok());
      ++cycles;
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  if (delete_cycles != nullptr) *delete_cycles = cycles;
}

// Builds the policy under record for one pool (shard_index 0 for the
// plain pool). Defaults to the repo's canonical LRU-2.
using MakePolicyFn = std::function<std::unique_ptr<ReplacementPolicy>(
    size_t shard_index, size_t capacity)>;

struct DiffScenarioConfig {
  bool sharded = false;
  size_t num_shards = 4;
  size_t capacity = kDiffCapacity;
  uint64_t db_pages = kDiffDbPages;
  int ops = kDiffOps;
  bool optimistic = false;
  size_t io_workers = 0;    // > 0: worker mode, which writes behind.
  MakePolicyFn make_policy{};  // Null: LruKOptions{.k = 2}.
};

struct DiffScenarioResult {
  BufferPoolStats stats;
  IoStats io;
  // Surviving eviction sequence per policy instance (one for the plain
  // pool, one per shard for the sharded pool).
  std::vector<std::vector<PageId>> evictions;
  std::vector<bool> residency;
  std::vector<std::string> images;
  // Inner policy logical clocks, parallel to `evictions` (0 when the
  // inner policy is not LRU-K).
  std::vector<Timestamp> clocks;
  int delete_cycles = 0;
};

inline DiffScenarioResult RunDiffScenario(const DiffScenarioConfig& config) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.optimistic_hits = config.optimistic;
  options.io_workers = config.io_workers;
  MakePolicyFn make_policy = config.make_policy;
  if (!make_policy) {
    make_policy = [](size_t, size_t) {
      return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
    };
  }

  DiffScenarioResult result;
  std::vector<PageId> pages;
  std::vector<RecordingPolicy*> recorders;
  auto finish = [&](PoolInterface& pool) {
    result.stats = pool.stats();
    for (RecordingPolicy* r : recorders) {
      result.evictions.push_back(r->evictions());
      const auto* lruk = dynamic_cast<const LruKPolicy*>(&r->inner());
      result.clocks.push_back(lruk != nullptr ? lruk->CurrentTime() : 0);
    }
    for (PageId p : pages) result.residency.push_back(pool.IsResident(p));
  };
  if (!config.sharded) {
    auto policy = std::make_unique<RecordingPolicy>(
        make_policy(0, config.capacity));
    recorders.push_back(policy.get());
    BufferPool pool(config.capacity, &disk, std::move(policy), options);
    pages = AllocateDb(pool, config.db_pages);
    DriveMixedWorkload(pool, pages, config.ops, &result.delete_cycles);
    finish(pool);
  } else {
    recorders.resize(config.num_shards, nullptr);
    ShardedBufferPool pool(
        config.capacity, config.num_shards, &disk,
        [&](size_t shard, size_t shard_capacity) {
          auto policy = std::make_unique<RecordingPolicy>(
              make_policy(shard, shard_capacity));
          recorders[shard] = policy.get();
          return policy;
        },
        options);
    pages = AllocateDb(pool, config.db_pages);
    DriveMixedWorkload(pool, pages, config.ops, &result.delete_cycles);
    finish(pool);
  }
  result.io = disk.stats();
  char buf[kPageSize];
  for (PageId p : pages) {
    EXPECT_TRUE(disk.ReadPage(p, buf).ok());
    result.images.emplace_back(buf, kPageSize);
  }
  return result;
}

inline void ExpectScenarioEq(const DiffScenarioResult& a,
                             const DiffScenarioResult& b) {
  ExpectPoolStatsEq(a.stats, b.stats);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.residency, b.residency);
  EXPECT_EQ(a.images, b.images);
  EXPECT_EQ(a.clocks, b.clocks);
  // IoStats modulo the verification reads RunDiffScenario itself issued
  // (same count on both sides, so full equality still holds
  // field-for-field).
  ExpectIoStatsEq(a.io, b.io);
}

}  // namespace difftest
}  // namespace lruk

#endif  // LRUK_TESTS_DIFFERENTIAL_HARNESS_H_

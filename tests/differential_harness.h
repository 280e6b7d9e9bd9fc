// Shared 20k-op differential harness.
//
// Three suites (async_io_test.cc, optimistic_pool_test.cc,
// batched_access_test.cc) grew byte-for-byte copies of the same
// scaffolding: the stats comparators, the AllocateDb warm-up, a
// victim-recording policy wrapper, and the mixed deterministic workload
// with its RunScenario driver. This header is the single home for all of
// it, and for the page stamps the fault and flush suites write;
// adaptive_policy_test.cc builds its fixed-expert differential on the
// same pieces (DiffScenarioConfig::make_policy swaps the policy under
// record). Every scenario also feeds its op sequence to PoolModel, a
// naive model of the pool that is the pools' independent reference.
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
// write-behind and lane drops exist only in worker mode, and
// latch_acquires follows the dispatcher (a worker-mode miss re-takes the
// latch after its read).
inline constexpr CounterField kModeDependentCounters[] = {
    &BufferPoolStats::writebehind_writes,
    &BufferPoolStats::writebehind_readmits,
    &BufferPoolStats::io_drops_flush,
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

// Allocates `n` pages through a pool (NewPage + unpin-dirty).
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

// A stamp at the front of a page image: the page id and a value the
// writer counts up, so a reader can tell which write an image holds.
struct PageStamp {
  PageId page = kInvalidPageId;
  uint64_t value = 0;
};

inline void WriteStamp(char* data, PageId p, uint64_t value) {
  PageStamp stamp{p, value};
  std::memcpy(data, &stamp, sizeof(stamp));
}

inline PageStamp ReadStamp(const char* data) {
  PageStamp stamp;
  std::memcpy(&stamp, data, sizeof(stamp));
  return stamp;
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
    ++restores_;
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
  size_t restores() const { return restores_; }
  ReplacementPolicy& inner() { return *inner_; }
  const ReplacementPolicy& inner() const { return *inner_; }

 private:
  std::unique_ptr<ReplacementPolicy> inner_;
  std::vector<PageId> evictions_;
  size_t restores_ = 0;
};

// Builds the policy under record for one pool (shard_index 0 for the
// plain pool). Defaults to the repo's canonical LRU-2.
using MakePolicyFn = std::function<std::unique_ptr<ReplacementPolicy>(
    size_t shard_index, size_t capacity)>;

// A naive single-threaded model of a pool: per shard, the bare policy
// driven by ReferenceStep at the shard's capacity — no page table, pins,
// latch, access buffer or disk. The step's residency is the model's. On
// top of the step the model keeps the pool's correlated re-fix rule: a
// hit whose previous fix on the pool named the same page reaches no
// policy. A NewPage is a step that misses; a delete calls Remove. Fed the
// op sequence a pool ran (ModelCheckedPool), it must end with the pool's
// hits, misses, evictions, correlated_refs, victim order and LRU-K clock.
class PoolModel {
 public:
  // `shard_capacities` has one entry per shard; `shard_of` routes a page
  // to its shard.
  PoolModel(const std::vector<size_t>& shard_capacities,
            const MakePolicyFn& make_policy,
            std::function<size_t(PageId)> shard_of)
      : shard_of_(std::move(shard_of)) {
    for (size_t i = 0; i < shard_capacities.size(); ++i) {
      shards_.push_back(
          {shard_capacities[i], make_policy(i, shard_capacities[i]), {}});
    }
  }

  void Fetch(PageId p, AccessType type) {
    const bool refix = last_fix_ == p;
    last_fix_ = p;
    if (refix && IsResident(p)) {
      ++stats_.hits;
      ++stats_.correlated_refs;
      return;
    }
    ++(Step(p, type) ? stats_.hits : stats_.misses);
  }
  // A BufferPool::FetchPages run on a one-shard model, in the order the
  // pool documents: every hit's RecordAccess (a re-fix of the page fixed
  // just before reaches no policy), then each miss's PrepareAdmit and,
  // when the frames are full (the resident pages plus the run's earlier
  // misses), an eviction, in page order, then each miss's Admit in page
  // order. The pool holds the run's hits pinned while it evicts, so a
  // victim that is one of them is skipped and handed back with Restore
  // once the miss's victim is found.
  void FetchRun(std::span<const PageId> pages, AccessType type) {
    ASSERT_EQ(shards_.size(), 1u) << "a run is BufferPool's";
    Shard& shard = shards_[0];
    ReplacementPolicy& policy = *shard.policy;
    std::vector<PageId> hits;
    std::vector<PageId> misses;
    for (size_t i = 0; i < pages.size(); ++i) {
      const PageId p = pages[i];
      if (!policy.IsResident(p)) {
        misses.push_back(p);
        continue;
      }
      hits.push_back(p);
      ++stats_.hits;
      const PageId previous = i == 0 ? last_fix_ : pages[i - 1];
      if (previous == p) {
        ++stats_.correlated_refs;
      } else {
        policy.RecordAccess(p, type);
      }
    }
    for (size_t claimed = 0; claimed < misses.size(); ++claimed) {
      ++stats_.misses;
      policy.PrepareAdmit(misses[claimed]);
      if (policy.ResidentCount() + claimed < shard.capacity) continue;
      std::vector<PageId> skipped;
      std::optional<PageId> victim;
      while ((victim = policy.Evict()).has_value() &&
             std::find(hits.begin(), hits.end(), *victim) != hits.end()) {
        skipped.push_back(*victim);
      }
      ASSERT_TRUE(victim.has_value()) << "no unpinned victim for a run";
      for (auto it = skipped.rbegin(); it != skipped.rend(); ++it) {
        policy.Restore(*it);
      }
      shard.evictions.push_back(*victim);
      ++stats_.evictions;
    }
    for (PageId p : misses) policy.Admit(p, type);
    if (!pages.empty()) last_fix_ = pages.back();
  }
  void NewPage(PageId p) {
    last_fix_ = p;
    Step(p, AccessType::kWrite);
  }
  void Delete(PageId p) {
    ReplacementPolicy& policy = *shards_[shard_of_(p)].policy;
    if (policy.IsResident(p)) policy.Remove(p);
  }

  // hits, misses, evictions and correlated_refs; every other counter 0.
  const BufferPoolStats& stats() const { return stats_; }
  bool IsResident(PageId p) const {
    return shards_[shard_of_(p)].policy->IsResident(p);
  }
  size_t shard_count() const { return shards_.size(); }
  const std::vector<PageId>& evictions(size_t shard) const {
    return shards_[shard].evictions;
  }
  const ReplacementPolicy& policy(size_t shard) const {
    return *shards_[shard].policy;
  }

 private:
  struct Shard {
    size_t capacity;
    std::unique_ptr<ReplacementPolicy> policy;
    std::vector<PageId> evictions;
  };

  // One reference through p's shard; logs its victim, returns whether it
  // hit.
  bool Step(PageId p, AccessType type) {
    Shard& shard = shards_[shard_of_(p)];
    const auto [hit, victim] =
        ReferenceStep(*shard.policy, shard.capacity, {.page = p, .type = type});
    if (victim.has_value()) {
      shard.evictions.push_back(*victim);
      ++stats_.evictions;
    }
    return hit;
  }

  std::function<size_t(PageId)> shard_of_;
  std::vector<Shard> shards_;
  PageId last_fix_ = kInvalidPageId;
  BufferPoolStats stats_;
};

// A pool that forwards every call to `pool` and mirrors each one that
// succeeded in `model`, so one workload feeds both the same op sequence.
class ModelCheckedPool final : public PoolInterface {
 public:
  ModelCheckedPool(PoolInterface& pool, PoolModel& model)
      : pool_(pool), model_(model) {}

  Result<Page*> FetchPage(PageId p,
                          AccessType type = AccessType::kRead) override {
    auto page = pool_.FetchPage(p, type);
    if (page.ok()) model_.Fetch(p, type);
    return page;
  }
  // Modeled as BufferPool's run (PoolModel::FetchRun).
  Status FetchPages(std::span<const PageId> pages, std::span<Page*> out,
                    AccessType type = AccessType::kRead) override {
    Status fixed = pool_.FetchPages(pages, out, type);
    if (fixed.ok()) model_.FetchRun(pages, type);
    return fixed;
  }
  Result<Page*> NewPage() override {
    auto page = pool_.NewPage();
    if (page.ok()) model_.NewPage((*page)->id());
    return page;
  }
  Status UnpinPage(PageId p, bool dirty) override {
    return pool_.UnpinPage(p, dirty);
  }
  Status FlushPage(PageId p) override { return pool_.FlushPage(p); }
  Status FlushAll() override { return pool_.FlushAll(); }
  Status DeletePage(PageId p) override {
    Status deleted = pool_.DeletePage(p);
    if (deleted.ok()) model_.Delete(p);
    return deleted;
  }
  size_t capacity() const override { return pool_.capacity(); }
  size_t ResidentCount() const override { return pool_.ResidentCount(); }
  bool IsResident(PageId p) const override { return pool_.IsResident(p); }
  BufferPoolStats stats() const override { return pool_.stats(); }
  void ResetStats() override { pool_.ResetStats(); }

 private:
  PoolInterface& pool_;
  PoolModel& model_;
};

// The policy's logical clock if it is LRU-K, else 0.
inline Timestamp LruKClock(const ReplacementPolicy& policy) {
  const auto* lruk = dynamic_cast<const LruKPolicy*>(&policy);
  return lruk != nullptr ? lruk->CurrentTime() : 0;
}

constexpr uint64_t kDiffDbPages = 96;
constexpr size_t kDiffCapacity = 24;
constexpr int kDiffOps = 20000;

// A mixed deterministic workload: skewed fetches, 25% writes, periodic
// FlushPage, periodic DeletePage + NewPage (id churn through the
// allocator's free list). Exercises every pool entry point that the
// async stack and the latch-free hit path (with its publish ring) touch.
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

struct DiffScenarioConfig {
  bool sharded = false;
  size_t num_shards = 4;
  size_t capacity = kDiffCapacity;
  uint64_t db_pages = kDiffDbPages;
  int ops = kDiffOps;
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
  // PoolModel's end state after the same op sequence: its counters,
  // victim order, clocks and residency, shaped as the pool's above.
  BufferPoolStats model_stats;
  std::vector<std::vector<PageId>> model_evictions;
  std::vector<Timestamp> model_clocks;
  std::vector<bool> model_residency;
};

inline DiffScenarioResult RunDiffScenario(const DiffScenarioConfig& config) {
  SimDiskManager disk;
  BufferPoolOptions options;
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
  // Drives `pool` through the model, then records both end states.
  auto run = [&](PoolInterface& pool, const std::vector<size_t>& capacities,
                 std::function<size_t(PageId)> shard_of) {
    PoolModel model(capacities, make_policy, std::move(shard_of));
    ModelCheckedPool checked(pool, model);
    pages = AllocateDb(checked, config.db_pages);
    DriveMixedWorkload(checked, pages, config.ops, &result.delete_cycles);
    result.stats = pool.stats();
    for (RecordingPolicy* r : recorders) {
      result.evictions.push_back(r->evictions());
      result.clocks.push_back(LruKClock(r->inner()));
    }
    for (PageId p : pages) result.residency.push_back(pool.IsResident(p));
    result.model_stats = model.stats();
    for (size_t i = 0; i < model.shard_count(); ++i) {
      result.model_evictions.push_back(model.evictions(i));
      result.model_clocks.push_back(LruKClock(model.policy(i)));
    }
    for (PageId p : pages) result.model_residency.push_back(model.IsResident(p));
  };
  if (!config.sharded) {
    auto policy = std::make_unique<RecordingPolicy>(
        make_policy(0, config.capacity));
    recorders.push_back(policy.get());
    BufferPool pool(config.capacity, &disk, std::move(policy), options);
    run(pool, {config.capacity}, [](PageId) { return size_t{0}; });
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
    std::vector<size_t> capacities;
    for (size_t i = 0; i < pool.shard_count(); ++i) {
      capacities.push_back(pool.shard(i).capacity());
    }
    run(pool, capacities, [&pool](PageId p) { return pool.ShardOf(p); });
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

// The pool ended where PoolModel did: the same hits, misses, evictions
// and correlated re-fixes, the same victims in the same order per shard,
// the same LRU-K clocks and the same resident pages.
inline void ExpectMatchesModel(const DiffScenarioResult& r) {
  EXPECT_EQ(r.stats.hits, r.model_stats.hits);
  EXPECT_EQ(r.stats.misses, r.model_stats.misses);
  EXPECT_EQ(r.stats.evictions, r.model_stats.evictions);
  EXPECT_EQ(r.stats.correlated_refs, r.model_stats.correlated_refs);
  EXPECT_EQ(r.evictions, r.model_evictions);
  EXPECT_EQ(r.clocks, r.model_clocks);
  EXPECT_EQ(r.residency, r.model_residency);
}

}  // namespace difftest
}  // namespace lruk

#endif  // LRUK_TESTS_DIFFERENTIAL_HARNESS_H_

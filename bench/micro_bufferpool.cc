// Buffer-pool throughput microbenchmark: fetch/unpin cycles against the
// simulated disk under each policy, at a skewed access pattern where ~30%
// of fetches miss. Complements micro_policy_overhead (pure policy cost) by
// measuring the full manager path: page table, frame management, policy
// callbacks, and dirty write-back. BM_PoolCleanMiss prices the clean miss
// on its own, and BM_RunBatchPair the device batch a dirty miss hands over.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

constexpr size_t kFrames = 256;
constexpr uint64_t kDiskPages = 4096;

void RunPool(benchmark::State& state, const char* policy_name,
             double write_fraction) {
  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;  // Measure manager cost, not fake I/O.
  disk_options.write_micros = 0.0;
  SimDiskManager disk(disk_options);

  PolicyContext context;
  context.capacity = kFrames;
  auto config = ParsePolicyName(policy_name);
  auto policy = MakePolicy(*config, context);
  if (!policy.ok()) {
    state.SkipWithError(policy.status().ToString().c_str());
    return;
  }
  BufferPool pool(kFrames, &disk, std::move(*policy));

  // Allocate the database.
  std::vector<PageId> pages;
  pages.reserve(kDiskPages);
  for (uint64_t i = 0; i < kDiskPages; ++i) {
    auto page = pool.NewPage();
    if (!page.ok()) {
      state.SkipWithError("allocation failed");
      return;
    }
    pages.push_back((*page)->id());
    (void)pool.UnpinPage((*page)->id(), false);
  }

  RecursiveSkewDistribution dist(0.8, 0.2, kDiskPages);
  RandomEngine rng(4242);

  for (auto _ : state) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(write_fraction);
    auto page = pool.FetchPage(
        p, write ? AccessType::kWrite : AccessType::kRead);
    if (!page.ok()) {
      state.SkipWithError("fetch failed");
      return;
    }
    benchmark::DoNotOptimize((*page)->Data()[0]);
    (void)pool.UnpinPage(p, false);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_ratio"] = pool.stats().HitRatio();
}

// 64 frames over 4,096 pages read uniformly at random: ~98% of fetches
// miss and every victim is clean, so an iteration is one clean miss —
// tracker registration, the (zero-latency) read with the latch released,
// admission — plus its unpin. EXPERIMENTS.md "One miss path" compares it
// with the two miss paths it replaced.
void BM_PoolCleanMiss(benchmark::State& state) {
  constexpr size_t kMissFrames = 64;
  SimDiskManager disk;
  std::vector<PageId> pages;
  pages.reserve(kDiskPages);
  for (uint64_t i = 0; i < kDiskPages; ++i) {
    auto p = disk.AllocatePage();
    if (!p.ok()) {
      state.SkipWithError("allocation failed");
      return;
    }
    pages.push_back(*p);
  }
  BufferPool pool(kMissFrames, &disk,
                  std::make_unique<LruKPolicy>(
                      LruKOptions{.k = 2, .capacity_hint = kMissFrames}));
  RandomEngine rng(11);
  for (auto _ : state) {
    PageId p = pages[rng.NextBounded(kDiskPages)];
    auto page = pool.FetchPage(p);
    if (!page.ok()) {
      state.SkipWithError("fetch failed");
      return;
    }
    benchmark::DoNotOptimize((*page)->Data()[0]);
    (void)pool.UnpinPage(p, false);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_ratio"] = pool.stats().HitRatio();
}

// A device that stores nothing and answers at once, and keeps the default
// MaxConcurrentIo, so a batch of two goes to RunBatch's runners.
class InstantDisk final : public DiskManager {
 public:
  Status ReadPage(PageId, char*) override { return Status::Ok(); }
  Status WritePage(PageId, const char*) override { return Status::Ok(); }
  Result<PageId> AllocatePage() override { return PageId{0}; }
  Status DeallocatePage(PageId) override { return Status::Ok(); }
  uint64_t NumAllocatedPages() const override { return 0; }
};

// One iteration is one RunBatch of a write and a read, the shape of a
// dirty miss's batch, on a zero-latency device: the cost of handing a
// batch to the runners and collecting it, with no device time to hide it.
void BM_RunBatchPair(benchmark::State& state) {
  InstantDisk disk;
  std::vector<char> victim(kPageSize);
  std::vector<char> scratch(kPageSize);
  PageIo pair[] = {{PageIo::Kind::kWrite, 1, victim.data(), Status::Ok()},
                   {PageIo::Kind::kRead, 2, scratch.data(), Status::Ok()}};
  for (auto _ : state) {
    disk.RunBatch(pair);
    benchmark::DoNotOptimize(pair[1].status.ok());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PoolLru(benchmark::State& s) { RunPool(s, "LRU", 0.0); }
void BM_PoolLru2(benchmark::State& s) { RunPool(s, "LRU-2", 0.0); }
void BM_PoolLru2Writes(benchmark::State& s) { RunPool(s, "LRU-2", 0.3); }
void BM_PoolTwoQ(benchmark::State& s) { RunPool(s, "2Q", 0.0); }
void BM_PoolArc(benchmark::State& s) { RunPool(s, "ARC", 0.0); }
void BM_PoolClock(benchmark::State& s) { RunPool(s, "CLOCK", 0.0); }

BENCHMARK(BM_PoolLru);
BENCHMARK(BM_PoolLru2);
BENCHMARK(BM_PoolLru2Writes);
BENCHMARK(BM_PoolTwoQ);
BENCHMARK(BM_PoolArc);
BENCHMARK(BM_PoolClock);
BENCHMARK(BM_PoolCleanMiss);
BENCHMARK(BM_RunBatchPair);

}  // namespace
}  // namespace lruk

BENCHMARK_MAIN();

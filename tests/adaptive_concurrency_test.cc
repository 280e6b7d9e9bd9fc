// Adaptive meta-policy under multi-threaded churn (TSan/ASan target — the
// sanitizer CI matrix runs this suite by name).
//
// Eight threads hammer a sharded pool whose shards each run
// `adaptive:lruk2+arc+2q`. It is the deepest concurrent composition the
// meta-policy rides in: latch-free hits publish into the access ring,
// buffered references drain into RecordAccessBatch under the shard latch,
// evictions flow through the active expert's EvictBatch with victim
// booking, and switch decisions fire on drain ticks. Asserted invariants:
//
//  * Exact fetch accounting: hits + misses == total fetches, no failures.
//  * Regret accounting: every ghost saw every observed reference, so the
//    summed per-expert ghost misses bound the meta-policy's windowed live
//    misses (sum(expert window misses) >= window_misses would be too
//    strong shard-merged; the cumulative form below is the invariant).
//  * No switch lands mid-EvictBatch: AdaptivePolicy carries an
//    LRUK_ASSERT (active in every build type) on that path, so this run
//    doubles as its stress test — an abort here is the failure.
//  * MetaStats snapshots are coherent: expert lists congruent across
//    shards, active_refs sum to the references the shards applied.

#include <atomic>
#include <thread>
#include <vector>

#include "bufferpool/sharded_buffer_pool.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using difftest::AllocateDb;

TEST(AdaptiveConcurrencyTest, RegretAccountingHoldsUnderChurn) {
  constexpr size_t kFrames = 256;
  constexpr size_t kShards = 4;
  constexpr uint64_t kDbPages = 1024;
  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 5000;

  SimDiskManager disk;
  auto spec = ParsePolicySpec("adaptive:lruk2+arc+2q");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // Tighten the switching knobs so expert churn actually happens during
  // the run (the default window is sized for long-lived pools).
  spec->adaptive.window_refs = 1024;
  spec->adaptive.window_buckets = 4;
  spec->adaptive.cooldown_refs = 256;
  spec->adaptive.min_window_misses = 4;
  auto factory = MakeShardPolicyFactory(*spec);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();

  ShardedBufferPool pool(kFrames, kShards, &disk, *factory);

  std::vector<PageId> pages = AllocateDb(pool, kDbPages);
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RecursiveSkewDistribution dist(0.8, 0.2, kDbPages);
      RandomEngine rng(0xADA1 + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        PageId p = pages[dist.Sample(rng) - 1];
        bool write = rng.NextBernoulli(0.1);
        auto page = pool.FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        if (!page.ok()) {
          ++failures;
          continue;
        }
        if (i % 1024 == 0) (void)pool.FlushPage(p);
        (void)pool.UnpinPage(p, false);
        if (i % 2048 == 0) (void)pool.MetaStats();  // Concurrent snapshots.
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0u);  // 64 frames/shard, <= 8 pinned at once.

  BufferPoolStats totals = pool.stats();  // Draining observation point.
  EXPECT_EQ(totals.hits + totals.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);

  MetaPolicyStats meta = pool.MetaStats();
  EXPECT_TRUE(meta.adaptive);
  ASSERT_EQ(meta.experts.size(), 3u);
  EXPECT_EQ(meta.experts[0].name, "lruk2");
  EXPECT_EQ(meta.experts[1].name, "arc");
  EXPECT_EQ(meta.experts[2].name, "2q");

  // Every ghost observed every applied reference, so each expert's
  // cumulative ghost misses — and a fortiori their sum — bound the
  // windowed live misses the switch decision reads.
  uint64_t ghost_sum = 0;
  for (const MetaExpertStats& e : meta.experts) {
    EXPECT_GT(e.ghost_misses, 0u);
    ghost_sum += e.ghost_misses;
  }
  EXPECT_GE(ghost_sum, meta.window_misses);
  EXPECT_LE(meta.window_misses, meta.total_misses);

  // Reference accounting: the references the experts observed (one per
  // applied RecordAccess/Admit across all shards) can never exceed the
  // fetch stream plus the initial admissions; with latch-free publishing
  // some records may drop (counted by the pools), never double-apply, and
  // correlated re-fixes never reach the policy (counted too).
  uint64_t active_refs = 0;
  for (const MetaExpertStats& e : meta.experts) active_refs += e.active_refs;
  const uint64_t upper =
      static_cast<uint64_t>(kThreads) * kOpsPerThread + kDbPages;
  EXPECT_LE(active_refs, upper);
  EXPECT_EQ(active_refs + totals.access_drops + totals.correlated_refs, upper);

  // Per-shard snapshots are coherent with the merged view.
  uint64_t shard_misses = 0;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    MetaPolicyStats s = pool.shard(i).MetaStats();
    EXPECT_TRUE(s.adaptive);
    ASSERT_EQ(s.experts.size(), 3u);
    shard_misses += s.total_misses;
  }
  EXPECT_EQ(shard_misses, meta.total_misses);

  ASSERT_TRUE(pool.FlushAll().ok());
}

}  // namespace
}  // namespace lruk

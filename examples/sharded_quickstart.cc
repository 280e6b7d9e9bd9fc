// Sharded quickstart: the same buffer-pool code running over the
// single-latch BufferPool and the ShardedBufferPool, via PoolInterface.
//
//   $ ./sharded_quickstart
//
// Part 1 builds a 4-shard pool with per-shard LRU-2, shows how pages are
// routed to shards, and runs multi-threaded Zipfian traffic against it.
// Part 2 swaps the sharded pool under a PageGuard-using helper that was
// written against PoolInterface — no code changes on the consumer side.

#include <cstdio>
#include <thread>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_guard.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/policy_factory.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace {

// Written once against PoolInterface; works over either pool.
lruk::Status Touch(lruk::PoolInterface& pool, lruk::PageId p) {
  auto guard = lruk::PageGuard::Fetch(pool, p, lruk::AccessType::kWrite);
  if (!guard.ok()) return guard.status();
  ++guard->AsMut<uint64_t>()[0];
  return lruk::Status::Ok();  // Guard unpins (dirty) on scope exit.
}

}  // namespace

int main() {
  using namespace lruk;

  // ---------------------------------------------------------------
  // Part 1: constructing and driving a sharded pool.
  // ---------------------------------------------------------------
  std::printf("== Part 1: a 4-shard pool with per-shard LRU-2 ==\n\n");

  SimDiskManager disk;  // Internally latched: shards share it safely.
  auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
  if (!factory.ok()) {
    std::fprintf(stderr, "factory: %s\n", factory.status().ToString().c_str());
    return 1;
  }
  ShardedBufferPool pool(/*capacity=*/256, /*num_shards=*/4, &disk, *factory);

  constexpr uint64_t kDbPages = 1024;
  std::vector<PageId> pages;
  for (uint64_t i = 0; i < kDbPages; ++i) {
    auto page = pool.NewPage();
    if (!page.ok()) return 1;
    pages.push_back((*page)->id());
    (void)pool.UnpinPage((*page)->id(), false);
  }
  std::printf("page ids 0..4 land in shards:");
  for (PageId p = 0; p < 5; ++p) {
    std::printf(" %zu", pool.ShardOf(p));
  }
  std::printf("  (hashed, not modulo — dense ranges spread out)\n");

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RandomEngine rng(42 + static_cast<uint64_t>(t));
      RecursiveSkewDistribution zipf(0.8, 0.2, kDbPages);
      for (int i = 0; i < 20000; ++i) {
        (void)Touch(pool, pages[zipf.Sample(rng) - 1]);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  BufferPoolStats total = pool.stats();
  std::printf("\n%d threads x 20000 Zipfian touches: aggregate hit ratio "
              "%.3f\n",
              kThreads, total.HitRatio());
  std::printf("per-shard breakdown (each shard runs its own LRU-2):\n");
  size_t i = 0;
  for (const BufferPoolStats& s : pool.ShardStats()) {
    std::printf("  shard %zu: %s\n", i++, FormatCounters(s).c_str());
  }

  // ---------------------------------------------------------------
  // Part 2: one consumer, either pool.
  // ---------------------------------------------------------------
  std::printf("\n== Part 2: the same helper over the single-latch pool ==\n\n");

  SimDiskManager single_disk;
  auto policy = MakePolicy(PolicyConfig::LruK(2), PolicyContext{});
  if (!policy.ok()) return 1;
  BufferPool single(/*capacity=*/256, &single_disk, std::move(*policy));
  auto page = single.NewPage();
  if (!page.ok()) return 1;
  PageId p = (*page)->id();
  (void)single.UnpinPage(p, false);
  for (int n = 0; n < 3; ++n) {
    if (!Touch(single, p).ok()) return 1;
  }
  auto check = single.FetchPage(p);
  if (!check.ok()) return 1;
  std::printf("Touch() ran unchanged against BufferPool: counter = %llu\n",
              static_cast<unsigned long long>((*check)->As<uint64_t>()[0]));
  (void)single.UnpinPage(p, false);

  std::printf("\nPick BufferPool for single-threaded exactness, "
              "ShardedBufferPool when threads contend on the latch "
              "(see DESIGN.md, \"Concurrency & sharding\").\n");
  return 0;
}

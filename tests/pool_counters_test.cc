// The pool's counter list (LRUK_POOL_COUNTERS in pool_interface.h) drives
// BufferPoolStats, its shard merge, the pools' atomic mirror with its
// snapshot and reset, and the benches' JSON writer. These tests run every
// pool shape with most counters moving — worker-mode dispatcher, retries
// over a fault schedule, client threads — and check through
// ForEachCounter that each of those generated pieces covers every counter.
// Threaded, so the names match CI's sanitizer regex ('Concurren').

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bufferpool/buffer_pool.h"
#include "bufferpool/pool_interface.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "gtest/gtest.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using Counters = std::vector<std::pair<std::string, uint64_t>>;

// The `"name": value` members of the bench writer's flat JSON form, in
// order. A member that is not a [a-z_]+ name and an unsigned value is a
// test failure.
Counters ParseMembers(const std::string& json) {
  Counters out;
  size_t at = 0;
  while ((at = json.find('"', at)) != std::string::npos) {
    const size_t name_end = json.find('"', at + 1);
    if (name_end == std::string::npos) {
      ADD_FAILURE() << "unterminated name in " << json;
      break;
    }
    std::string name = json.substr(at + 1, name_end - at - 1);
    const bool name_ok =
        !name.empty() && std::all_of(name.begin(), name.end(), [](char ch) {
          return (ch >= 'a' && ch <= 'z') || ch == '_';
        });
    size_t digits = name_end + 1;
    if (json.compare(digits, 2, ": ") == 0) digits += 2;
    size_t digits_end = digits;
    while (digits_end < json.size() && json[digits_end] >= '0' &&
           json[digits_end] <= '9') {
      ++digits_end;
    }
    if (!name_ok || digits == name_end + 1 || digits_end == digits) {
      ADD_FAILURE() << "not a counter member at " << json.substr(at);
      break;
    }
    out.emplace_back(std::move(name),
                     std::stoull(json.substr(digits, digits_end - digits)));
    at = digits_end;
  }
  return out;
}

Counters ListCounters(const BufferPoolStats& stats) {
  Counters out;
  ForEachCounter(stats, [&](const char* name, uint64_t value) {
    out.emplace_back(name, value);
  });
  return out;
}

// Parameter: sharded.
class PoolCountersConcurrencyTest : public ::testing::TestWithParam<bool> {};

constexpr size_t kFrames = 32;
constexpr size_t kShards = 4;
constexpr uint64_t kDbPages = 160;
constexpr int kClients = 4;
constexpr int kOpsPerClient = 1500;

// Each client alternates a 24-page sequential run with 40
// skewed fetches, a quarter of them writes (dirty victims, written behind),
// every fifth one re-fixed at once (a correlated re-fix). Page bytes are
// never written, so clients sharing a page do not race on its data; a
// failed fetch (an injected fault after retries) is skipped.
void Drive(PoolInterface& pool, const std::vector<PageId>& pages) {
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&pool, &pages, t] {
      RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
      RandomEngine rng(/*seed=*/0xC0C0 + static_cast<uint64_t>(t));
      size_t scan = static_cast<size_t>(t) * 40;
      auto fix = [&](PageId p, bool write) {
        auto page = pool.FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        if (page.ok()) {
          EXPECT_TRUE(pool.UnpinPage(p, write).ok());
        }
      };
      for (int i = 0; i < kOpsPerClient; ++i) {
        if (i % 64 < 24) {
          fix(pages[scan++ % pages.size()], /*write=*/false);
          continue;
        }
        PageId p = pages[dist.Sample(rng) - 1];
        bool write = rng.NextBernoulli(0.25);
        fix(p, write);
        if (i % 5 == 0) fix(p, write);
      }
    });
  }
  for (auto& client : clients) client.join();
}

TEST_P(PoolCountersConcurrencyTest, MergeSnapshotResetAndJsonCoverTheList) {
  const bool is_sharded = GetParam();
  SimDiskManager inner;
  FaultInjectingDiskManager disk(&inner, /*seed=*/2026);
  BufferPoolOptions options;
  options.io_max_attempts = 2;
  options.io_workers = 2;

  std::unique_ptr<BufferPool> plain;
  std::unique_ptr<ShardedBufferPool> sharded;
  PoolInterface* pool = nullptr;
  if (is_sharded) {
    auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
    ASSERT_TRUE(factory.ok());
    sharded = std::make_unique<ShardedBufferPool>(kFrames, kShards, &disk,
                                                  *factory, options);
    pool = sharded.get();
  } else {
    plain = std::make_unique<BufferPool>(
        kFrames, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
        options);
    pool = plain.get();
  }
  const uint64_t latches_per_stats = is_sharded ? kShards : 1;

  std::vector<PageId> pages;
  for (uint64_t i = 0; i < kDbPages; ++i) {
    auto page = pool->NewPage();
    ASSERT_TRUE(page.ok());
    pages.push_back((*page)->id());
    ASSERT_TRUE(pool->UnpinPage(pages.back(), true).ok());
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  pool->ResetStats();
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, 0.1));
  disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, 0.1));

  Drive(*pool, pages);
  disk.Heal();
  if (sharded) sharded->Quiesce();
  if (plain) plain->Quiesce();

  // Settle the access buffers so every snapshot below reads one state.
  const BufferPoolStats settled = pool->stats();
  // Most counters move: 16-18 of 23 in runs of this test. These are the
  // ones that move in every run.
  SCOPED_TRACE("moved: " + FormatCounters(settled));
  for (uint64_t BufferPoolStats::*field :
       {&BufferPoolStats::hits, &BufferPoolStats::misses,
        &BufferPoolStats::evictions, &BufferPoolStats::read_failures,
        &BufferPoolStats::retries, &BufferPoolStats::coalesced_reads,
        &BufferPoolStats::writebehind_writes,
        &BufferPoolStats::optimistic_hits,
        &BufferPoolStats::optimistic_fallbacks,
        &BufferPoolStats::fallback_probe_miss,
        &BufferPoolStats::correlated_refs, &BufferPoolStats::latch_acquires}) {
    EXPECT_GT(settled.*field, 0u);
  }

  // The sharded total is the counter-by-counter sum of its shards. The
  // total's own pass takes each shard latch once more.
  if (sharded) {
    const std::vector<BufferPoolStats> shards = sharded->ShardStats();
    const Counters total = ListCounters(sharded->stats());
    ASSERT_EQ(shards.size(), kShards);
    Counters sum = ListCounters(BufferPoolStats{});
    for (const BufferPoolStats& shard : shards) {
      Counters one = ListCounters(shard);
      for (size_t i = 0; i < sum.size(); ++i) sum[i].second += one[i].second;
    }
    ASSERT_EQ(total.size(), sum.size());
    for (size_t i = 0; i < total.size(); ++i) {
      const bool latch = total[i].first == "latch_acquires";
      EXPECT_EQ(total[i].second, sum[i].second + (latch ? kShards : 0))
          << total[i].first;
    }
  }

  // Quiesced, the lock-free snapshot reads what stats() reads, except the
  // latch stats() itself takes (once per shard).
  const Counters snap = ListCounters(pool->StatsSnapshot());
  const Counters full = ListCounters(pool->stats());
  ASSERT_EQ(snap.size(), std::size(kPoolCounters));
  for (size_t i = 0; i < snap.size(); ++i) {
    const bool latch = snap[i].first == "latch_acquires";
    EXPECT_EQ(full[i].second,
              snap[i].second + (latch ? latches_per_stats : 0))
        << snap[i].first;
  }

  // The bench JSON writer emits every listed counter, by name, in list
  // order, with its value — so every key CI reads is among them.
  EXPECT_EQ(ParseMembers(PoolCountersJson(settled)), ListCounters(settled));

  // ResetStats zeroes every counter.
  pool->ResetStats();
  for (const auto& [name, value] : ListCounters(pool->StatsSnapshot())) {
    EXPECT_EQ(value, 0u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, PoolCountersConcurrencyTest,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? "Sharded" : "Plain";
                         });

}  // namespace
}  // namespace lruk

// Fault-sweep microbenchmark: a Zipfian fetch/unpin workload driven through
// both buffer pools over a FaultInjectingDiskManager at several injected
// fault rates, with bounded retry enabled. Reports throughput, hit ratio
// and the failure/retry counters the pools surface, and exercises the two
// properties the fault subsystem promises:
//
//  * determinism — every cell runs twice with the same (seed, schedule);
//    the injected fault traces must be identical event-by-event, and
//    every pool counter must match exactly.
//  * recovery — after Heal() a FlushAll must succeed (failed write-backs
//    kept their dirty flags, so nothing is stranded) and drain the pool's
//    dirty set to the disk.
//
// Shape checks (CI greps for ": NO"):
//  * accounting — hits + misses == ops issued in every cell, faults or not.
//  * replay — both runs of every cell produced identical traces + stats.
//  * recovery — post-Heal FlushAll succeeded in every cell.
//
// Flags: --json <path> writes machine-readable results (BENCH_faults.json
// trajectory); --quick shrinks the per-cell op count for CI smoke runs.

#include <cstdio>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bufferpool/buffer_pool.h"
#include "bufferpool/pool_interface.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "sim/table.h"
#include "storage/fault_injecting_disk_manager.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

constexpr size_t kFrames = 64;
constexpr uint64_t kDbPages = 512;
constexpr double kWriteFraction = 0.2;

struct Cell {
  std::string pool;
  double fault_rate = 0.0;
  uint64_t ops = 0;
  double ops_per_sec = 0.0;
  BufferPoolStats stats;  // Failures are pool-level, after retries.
  uint64_t injected_events = 0;
  bool replay_identical = false;
  bool accounting_exact = false;
  bool recovery_clean = false;
};

struct RunResult {
  std::vector<FaultEvent> trace;
  BufferPoolStats stats;
  bool flush_ok = false;
  double seconds = 0.0;
  bool setup_ok = false;
};

// One deterministic pass: allocate the database fault-free, arm the
// probabilistic schedule, run the Zipfian churn single-threaded (the op
// sequence must be identical between runs for the trace comparison to be
// meaningful), then heal and flush.
RunResult RunOnce(const std::string& pool_kind, double rate, uint64_t seed,
                  uint64_t total_ops) {
  RunResult result;
  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  FaultInjectingDiskManager disk(&base, seed);

  BufferPoolOptions options;
  options.io_max_attempts = 3;  // Immediate re-issue.
  std::unique_ptr<PoolInterface> pool;
  if (pool_kind == "single-latch") {
    pool = std::make_unique<BufferPool>(
        kFrames, &disk,
        std::make_unique<LruKPolicy>(
            LruKOptions{.k = 2, .capacity_hint = kFrames}),
        options);
  } else {
    auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
    if (!factory.ok()) {
      std::fprintf(stderr, "factory: %s\n",
                   factory.status().ToString().c_str());
      return result;
    }
    pool = std::make_unique<ShardedBufferPool>(kFrames, /*num_shards=*/4,
                                               &disk, *factory, options);
  }

  std::vector<PageId> pages;
  pages.reserve(kDbPages);
  for (uint64_t i = 0; i < kDbPages; ++i) {
    auto page = pool->NewPage();
    if (!page.ok()) {
      std::fprintf(stderr, "allocation failed: %s\n",
                   page.status().ToString().c_str());
      return result;
    }
    pages.push_back((*page)->id());
    (void)pool->UnpinPage((*page)->id(), false);
  }
  if (!pool->FlushAll().ok()) return result;
  pool->ResetStats();
  disk.ResetStats();
  result.setup_ok = true;

  if (rate > 0.0) {
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kRead, rate));
    disk.AddRule(FaultRule::FailWithProbability(FaultOp::kWrite, rate));
  }

  RecursiveSkewDistribution dist(0.8, 0.2, kDbPages);
  RandomEngine rng(seed ^ 0x9E3779B97F4A7C15ull);
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < total_ops; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(kWriteFraction);
    auto page =
        pool->FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    if (page.ok()) (void)pool->UnpinPage(p, write);
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  result.trace = disk.Trace();
  result.stats = pool->stats();
  disk.Heal();
  result.flush_ok = pool->FlushAll().ok();
  return result;
}

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<Cell>& cells, uint64_t ops,
               bool accounting_ok, bool replay_ok, bool recovery_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_sweep\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f,
               ",\n  \"frames\": %zu,\n  \"db_pages\": %llu,\n"
               "  \"ops_per_cell\": %llu,\n  \"cells\": [\n",
               kFrames, static_cast<unsigned long long>(kDbPages),
               static_cast<unsigned long long>(ops));
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"pool\": \"%s\", \"fault_rate\": %.2f, "
        "\"ops_per_sec\": %.1f, \"hit_ratio\": %.4f, %s, "
        "\"injected_events\": %llu, \"replay_identical\": %s, "
        "\"recovery_clean\": %s}%s\n",
        c.pool.c_str(), c.fault_rate, c.ops_per_sec, c.stats.HitRatio(),
        PoolCountersJson(c.stats).c_str(),
        static_cast<unsigned long long>(c.injected_events),
        c.replay_identical ? "true" : "false",
        c.recovery_clean ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"checks\": {\n"
               "    \"accounting_exact\": %s,\n"
               "    \"replay_identical\": %s,\n"
               "    \"recovery_clean\": %s\n  }\n}\n",
               accounting_ok ? "true" : "false", replay_ok ? "true" : "false",
               recovery_ok ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace lruk

int main(int argc, char** argv) {
  using namespace lruk;

  const char* json_path = nullptr;
  bool quick = false;
  BenchProvenance provenance;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (ParseProvenanceFlag(argc, argv, &i, &provenance)) {
      // consumed
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json <path>] [--git-sha <sha>] "
                   "[--build-type <type>] [--sanitizer <name>]\n",
                   argv[0]);
      return 2;
    }
  }

  const uint64_t total_ops = quick ? 20000 : 200000;
  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.15};
  const std::vector<std::string> pools = {"single-latch", "sharded x4"};

  std::printf(
      "Fault sweep: Zipfian 80-20 fetch/unpin (%llu pages, %zu frames, "
      "LRU-2, %.0f%% writes, retry x3) over injected read+write faults\n\n",
      static_cast<unsigned long long>(kDbPages), kFrames,
      kWriteFraction * 100);

  std::vector<Cell> cells;
  AsciiTable table({"pool", "fault rate", "ops/sec", "hit ratio", "injected",
                    "read fails", "write fails", "retries"});

  bool all_setup_ok = true;
  for (size_t pi = 0; pi < pools.size(); ++pi) {
    for (size_t ri = 0; ri < rates.size(); ++ri) {
      uint64_t seed = 0xF5EEDull + pi * 131 + ri;
      RunResult first = RunOnce(pools[pi], rates[ri], seed, total_ops);
      RunResult second = RunOnce(pools[pi], rates[ri], seed, total_ops);
      if (!first.setup_ok || !second.setup_ok) {
        all_setup_ok = false;
        continue;
      }
      Cell cell;
      cell.pool = pools[pi];
      cell.fault_rate = rates[ri];
      cell.ops = total_ops;
      cell.ops_per_sec = first.seconds > 0
                             ? static_cast<double>(total_ops) / first.seconds
                             : 0.0;
      cell.stats = first.stats;
      cell.injected_events = first.trace.size();
      cell.replay_identical = first.trace == second.trace &&
                              first.stats == second.stats;
      cell.accounting_exact =
          cell.stats.hits + cell.stats.misses == total_ops;
      cell.recovery_clean = first.flush_ok && second.flush_ok;
      table.AddRow({cell.pool, AsciiTable::Fixed(cell.fault_rate, 2),
                    AsciiTable::Integer(
                        static_cast<uint64_t>(cell.ops_per_sec)),
                    AsciiTable::Fixed(cell.stats.HitRatio(), 3),
                    AsciiTable::Integer(cell.injected_events),
                    AsciiTable::Integer(cell.stats.read_failures),
                    AsciiTable::Integer(cell.stats.write_failures),
                    AsciiTable::Integer(cell.stats.retries)});
      cells.push_back(cell);
    }
  }
  table.Print();

  bool accounting_ok = all_setup_ok;
  bool replay_ok = all_setup_ok;
  bool recovery_ok = all_setup_ok;
  for (const Cell& c : cells) {
    if (!c.accounting_exact) {
      accounting_ok = false;
      std::printf("accounting mismatch: %s rate=%.2f: %llu + %llu != %llu\n",
                  c.pool.c_str(), c.fault_rate,
                  static_cast<unsigned long long>(c.stats.hits),
                  static_cast<unsigned long long>(c.stats.misses),
                  static_cast<unsigned long long>(c.ops));
    }
    if (!c.replay_identical) {
      replay_ok = false;
      std::printf("replay divergence: %s rate=%.2f\n", c.pool.c_str(),
                  c.fault_rate);
    }
    if (!c.recovery_clean) {
      recovery_ok = false;
      std::printf("post-heal FlushAll failed: %s rate=%.2f\n", c.pool.c_str(),
                  c.fault_rate);
    }
  }

  std::printf("\nshape: hit+miss totals exactly equal ops in every cell: %s\n",
              accounting_ok ? "yes" : "NO");
  std::printf("shape: same (seed, schedule) replays the identical fault "
              "trace and stats: %s\n",
              replay_ok ? "yes" : "NO");
  std::printf("shape: post-heal FlushAll drains every cell cleanly: %s\n",
              recovery_ok ? "yes" : "NO");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, cells, total_ops, accounting_ok,
              replay_ok, recovery_ok);
    std::printf("wrote %s\n", json_path);
  }
  return accounting_ok && replay_ok && recovery_ok ? 0 : 1;
}

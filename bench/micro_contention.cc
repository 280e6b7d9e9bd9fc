// Contention microbenchmark for the pool's hit path: multi-threaded
// Zipfian fetch/unpin throughput swept over thread count on the
// single-latch BufferPool (the per-shard microcosm: every miss serializes
// on one latch, every warm hit takes none), plus a 4-shard composition
// row. LRU-2 policy, hot set mostly resident, ~5% writes: the read-mostly
// regime the latch-free hit path targets.
//
// Per-cell observability: alongside throughput and the AccessBuffer drain
// counters, every cell reports the pool's latch_acquires and
// pin_cas_retries as per-op rates — the direct evidence that warm hits
// take no latch (latch/op is ~the miss and drain rate) and what the
// speculative pin CAS costs under contention. Dedicated "hot page" cells
// (1 and 8 threads) hammer two resident pages, alternating between them —
// maximal pin-CAS traffic. (Two, not one: a thread's back-to-back fetch of
// the same page is a correlated re-fix that publishes no reference, so a
// one-page cell would measure nothing of the publish path;
// `correlated_refs` reads 0 in these cells.)
//
// Shape checks:
//  * accounting — for every cell, hits + misses must equal the ops issued
//    exactly (the hit path may not lose a fetch).
//  * publish path — the 1-thread hot-page cell must show <= 0.1 latch
//    acquires per op in every build (warm-hit publishing is genuinely
//    latch-free; the residue is ring drains).
//
// Flags: --json <path> writes machine-readable results (BENCH_*.json
// trajectory); --quick shrinks the per-cell op count for CI smoke runs.

#include <cstdio>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bufferpool/buffer_pool.h"
#include "bufferpool/pool_interface.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "sim/table.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

constexpr size_t kFrames = 512;
constexpr uint64_t kDbPages = 4096;
constexpr uint64_t kHotDbPages = 8;
constexpr double kWriteFraction = 0.05;

struct Cell {
  std::string pool;
  // The hit path, kept in the JSON for its readers: every pool's hits are
  // latch-free ("optimistic").
  std::string mode = "optimistic";
  std::string workload = "zipfian";  // "zipfian" | "hot_page"
  size_t shards = 1;
  int threads = 1;
  double ops_per_sec = 0.0;
  uint64_t ops_issued = 0;
  // Every pool counter over the measured churn. SimDiskManager never
  // fails here, so the failure/retry counters must read zero — exporting
  // them keeps the error-path accounting visible in the same artifact that
  // tracks the happy path (bench/fault_sweep.cc exercises the non-zero
  // regime). The latch-free hit-path counters show how many hits ran
  // latch-free, why abandoned fast-path attempts fell back, what the pin
  // CAS cost under contention, and — the headline — how often the pool
  // latch was taken at all.
  BufferPoolStats stats{};
  // AccessBuffer drain counters: records per drain shows what a drain
  // amortizes.
  AccessBufferStats buffer_stats{};
};

double PerOp(uint64_t count, uint64_t ops) {
  return ops > 0 ? static_cast<double>(count) / static_cast<double>(ops) : 0;
}

// Multi-threaded fetch/unpin churn; every op must succeed (the pool is
// never pinned full), so ops issued is exact by construction. `Pool` is
// BufferPool or ShardedBufferPool (both expose access_buffer_stats(),
// which PoolInterface does not). The hot_page workload alternates between
// pages[0] and pages[1] on every thread (each fetch an uncorrelated hit);
// zipfian samples the 80-20 skew.
template <typename Pool>
void RunCell(Pool& pool, Cell& cell, uint64_t total_ops, uint64_t db_pages) {
  std::vector<PageId> pages;
  pages.reserve(db_pages);
  for (uint64_t i = 0; i < db_pages; ++i) {
    auto page = pool.NewPage();
    if (!page.ok()) {
      std::fprintf(stderr, "allocation failed: %s\n",
                   page.status().ToString().c_str());
      return;
    }
    pages.push_back((*page)->id());
    (void)pool.UnpinPage((*page)->id(), false);
  }
  pool.ResetStats();
  // Counters are lifetime totals; snapshot after setup so the reported
  // drain numbers cover only the measured churn.
  AccessBufferStats setup_stats = pool.access_buffer_stats();

  bool hot = cell.workload == "hot_page";
  RecursiveSkewDistribution dist(0.8, 0.2, db_pages);
  uint64_t ops_per_thread = total_ops / static_cast<uint64_t>(cell.threads);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(cell.threads));
  for (int t = 0; t < cell.threads; ++t) {
    workers.emplace_back([&, t] {
      RandomEngine rng(0xFACE + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        PageId p = hot ? pages[i & 1] : pages[dist.Sample(rng) - 1];
        bool write = !hot && rng.NextBernoulli(kWriteFraction);
        auto page = pool.FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        if (page.ok()) (void)pool.UnpinPage(p, false);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  cell.stats = pool.stats();
  cell.ops_issued = ops_per_thread * static_cast<uint64_t>(cell.threads);
  cell.ops_per_sec =
      seconds > 0 ? static_cast<double>(cell.ops_issued) / seconds : 0;
  AccessBufferStats end_stats = pool.access_buffer_stats();
  cell.buffer_stats.drains = end_stats.drains - setup_stats.drains;
  cell.buffer_stats.drained_records =
      end_stats.drained_records - setup_stats.drained_records;
  cell.buffer_stats.empty_drains =
      end_stats.empty_drains - setup_stats.empty_drains;
  cell.buffer_stats.full_pushes =
      end_stats.full_pushes - setup_stats.full_pushes;
}

double RecordsPerDrain(const AccessBufferStats& s) {
  return s.drains > 0
             ? static_cast<double>(s.drained_records) /
                   static_cast<double>(s.drains)
             : 0.0;
}

std::unique_ptr<ReplacementPolicy> MakeLru2(size_t capacity) {
  return std::make_unique<LruKPolicy>(
      LruKOptions{.k = 2, .capacity_hint = capacity});
}

// A zero-latency simulated disk: the cells measure the pool, not fake I/O.
SimDiskOptions ZeroLatencyDisk() {
  SimDiskOptions options;
  options.read_micros = 0.0;
  options.write_micros = 0.0;
  return options;
}

struct Checks {
  bool accounting_ok = true;
  double publish_latch_1t = 0.0;   // 1t hot page, latch/op.
  bool publish_latch_ok = false;   // Counter-based: always enforced.
};

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<Cell>& cells, unsigned cores, uint64_t ops,
               const Checks& checks) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_contention\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f,
               ",\n  \"cores\": %u,\n  \"frames\": %zu,\n"
               "  \"db_pages\": %llu,\n  \"ops_per_cell\": %llu,\n"
               "  \"cells\": [\n",
               cores, kFrames, static_cast<unsigned long long>(kDbPages),
               static_cast<unsigned long long>(ops));
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"pool\": \"%s\", \"mode\": \"%s\", \"workload\": \"%s\", "
        "\"shards\": %zu, \"threads\": %d, \"ops_per_sec\": %.1f, "
        "\"hit_ratio\": %.4f, \"drains\": %llu, \"drained_records\": %llu, "
        "\"empty_drains\": %llu, \"full_pushes\": %llu, "
        "\"records_per_drain\": %.1f, %s, "
        "\"latch_acquires_per_op\": %.4f, \"cas_retries_per_op\": %.4f}%s\n",
        c.pool.c_str(), c.mode.c_str(), c.workload.c_str(), c.shards,
        c.threads, c.ops_per_sec, c.stats.HitRatio(),
        static_cast<unsigned long long>(c.buffer_stats.drains),
        static_cast<unsigned long long>(c.buffer_stats.drained_records),
        static_cast<unsigned long long>(c.buffer_stats.empty_drains),
        static_cast<unsigned long long>(c.buffer_stats.full_pushes),
        RecordsPerDrain(c.buffer_stats), PoolCountersJson(c.stats).c_str(),
        PerOp(c.stats.latch_acquires, c.ops_issued),
        PerOp(c.stats.pin_cas_retries, c.ops_issued),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"checks\": {\n"
               "    \"accounting_exact\": %s,\n"
               "    \"publish_latch_per_op_1t\": %.4f,\n"
               "    \"publish_latch_ok\": %s\n  }\n}\n",
               checks.accounting_ok ? "true" : "false",
               checks.publish_latch_1t,
               checks.publish_latch_ok ? "true" : "false");
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

  const uint64_t total_ops = quick ? 60000 : 400000;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  unsigned cores = std::thread::hardware_concurrency();
  provenance.threads = static_cast<unsigned>(thread_counts.back());

  std::printf(
      "Hit-path contention ladder: Zipfian 80-20 fetch/unpin (%llu pages, "
      "%zu frames, LRU-2, %.0f%% writes, %u cores)\n\n",
      static_cast<unsigned long long>(kDbPages), kFrames,
      kWriteFraction * 100, cores);

  std::vector<Cell> cells;
  AsciiTable table({"pool", "workload", "threads", "ops/sec", "hit ratio",
                    "latch/op", "cas/op", "recs/drain"});
  auto add_row = [&](const Cell& cell) {
    table.AddRow({cell.pool, cell.workload,
                  AsciiTable::Integer(cell.threads),
                  AsciiTable::Integer(
                      static_cast<uint64_t>(cell.ops_per_sec)),
                  AsciiTable::Fixed(cell.stats.HitRatio(), 3),
                  AsciiTable::Fixed(PerOp(cell.stats.latch_acquires,
                                          cell.ops_issued), 3),
                  AsciiTable::Fixed(PerOp(cell.stats.pin_cas_retries,
                                          cell.ops_issued), 4),
                  AsciiTable::Fixed(RecordsPerDrain(cell.buffer_stats), 1)});
    cells.push_back(cell);
  };

  Checks checks;
  for (int threads : thread_counts) {
    SimDiskManager disk(ZeroLatencyDisk());
    BufferPool pool(kFrames, &disk, MakeLru2(kFrames));
    Cell cell{.pool = "single-latch", .shards = 1, .threads = threads};
    RunCell(pool, cell, total_ops, kDbPages);
    add_row(cell);
  }

  // Composition row: the hit path through ShardedBufferPool.
  {
    SimDiskManager disk(ZeroLatencyDisk());
    auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
    if (!factory.ok()) {
      std::fprintf(stderr, "factory: %s\n",
                   factory.status().ToString().c_str());
      return 1;
    }
    ShardedBufferPool pool(kFrames, /*num_shards=*/4, &disk, *factory);
    Cell cell{.pool = "sharded x4", .shards = 4, .threads = 8};
    RunCell(pool, cell, total_ops, kDbPages);
    add_row(cell);
  }

  // The hot-page cells: every thread alternates between the same two
  // resident pages (so each fetch is an uncorrelated hit that publishes
  // its reference). At 8 threads the pin CAS is the entire workload; at 1
  // thread this is the pure per-hit cost with no misses and no contention.
  double hot1_latch_per_op = 0;
  for (int threads : {1, 8}) {
    SimDiskManager disk(ZeroLatencyDisk());
    BufferPool pool(kFrames, &disk, MakeLru2(kFrames));
    Cell cell{.pool = "single-latch", .workload = "hot_page", .shards = 1,
              .threads = threads};
    RunCell(pool, cell, total_ops, kHotDbPages);
    if (threads == 1) {
      hot1_latch_per_op = PerOp(cell.stats.latch_acquires, cell.ops_issued);
    }
    add_row(cell);
  }
  table.Print();

  checks.accounting_ok = true;
  BufferPoolStats total;
  for (const Cell& c : cells) {
    if (c.stats.hits + c.stats.misses != c.ops_issued) {
      checks.accounting_ok = false;
      std::printf("accounting mismatch: %s %s t=%d: %llu + %llu != %llu\n",
                  c.pool.c_str(), c.workload.c_str(), c.threads,
                  static_cast<unsigned long long>(c.stats.hits),
                  static_cast<unsigned long long>(c.stats.misses),
                  static_cast<unsigned long long>(c.ops_issued));
    }
    total += c.stats;
  }
  std::printf("\nio error accounting (expect all zero on SimDisk): "
              "read_failures=%llu write_failures=%llu retries=%llu\n",
              static_cast<unsigned long long>(total.read_failures),
              static_cast<unsigned long long>(total.write_failures),
              static_cast<unsigned long long>(total.retries));

  checks.publish_latch_1t = hot1_latch_per_op;
  std::printf("1t hot-page publish path: %.4f latch/op\n",
              checks.publish_latch_1t);
  // Publish-path floor (single-threaded, so core-count independent):
  // warm-hit publishing must keep the latch essentially off the hot path
  // (drains amortize across the ring; 0.1/op is 6x the 64-record ring's
  // drain rate, generous headroom over noise) — counter-based, so it binds
  // in every build.
  checks.publish_latch_ok = checks.publish_latch_1t <= 0.1;
  std::printf("shape: hit+miss totals exactly equal ops in every cell: %s\n",
              checks.accounting_ok ? "yes" : "NO");
  std::printf("shape: 1-thread hot-page <= 0.1 latch/op: %s\n",
              checks.publish_latch_ok ? "yes" : "NO");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, cells, cores, total_ops, checks);
    std::printf("wrote %s\n", json_path);
  }
  return checks.accounting_ok && checks.publish_latch_ok ? 0 : 1;
}

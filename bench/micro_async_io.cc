// Async-I/O microbenchmark: measures the two wins the IoDispatcher claims.
//
// Section 1 — scan latency (deterministic, inline dispatcher). Example
// 1.2-style workloads driven through a real BufferPool over a simulated
// 10 ms disk: a pure sequential scan, and an interactive/hot mix where a
// batch scan reads sequential chunks between bursts of hot-set traffic.
// Readahead off is the synchronous baseline: every scan page is a demand
// miss, so the caller stalls misses x read_micros of simulated I/O time.
// Readahead on prefetches the detected run; the same pages still cross
// the disk, but almost none of the reads happen on the demand path. The
// pool runs LRU-2 with a correlated reference period so the
// prefetch-admit + demand-hit pair counts as one uncorrelated reference
// — scanned pages stay preferred victims (the paper's scan-resistance
// story) while the not-yet-consumed readahead window, being the most
// recently touched of the once-referenced pages, survives until demand.
//
// Section 2 — coalescing (threaded, worker mode). Eight threads churn a
// skewed page set over a disk wrapper that sleeps for real microseconds
// per read, widening the window in which concurrent misses on the same
// page land; the per-page request tracker folds those into one physical
// read. Worker mode writes the churn's dirty victims behind.
//
// Section 3 — write-behind eviction (threaded). A dirty-heavy churn (70%
// writes) over a disk whose writes cost 5x its reads, paced below disk
// saturation so the question is purely WHERE the victim write-back runs:
// on the miss path (sync: the inline dispatcher, io_workers = 0, whose
// evicting thread writes the victim back before its read), or off it
// (write-behind: worker mode posts the pinned-copy victim write on the
// Flush lane and admits immediately). Client-side fetch latency
// percentiles and the dispatcher's per-lane counters expose the
// difference.
//
// Section 4 — overlapped flushes (threaded). FlushAll of 512 dirty pages
// over a disk wrapper whose writes sleep 200 us of real time. The flush
// hands the device one DiskManager::WritePages batch with the pool latch
// released, and WritePages keeps up to kMaxWritesInFlight writes in
// flight, so the flush takes a fraction of the 512 x 200 us it would take
// written one at a time. The gain needs a device that overlaps writes, as
// this sleeping one does. Further FlushAll rounds then run while a
// foreground thread fetches (hits, each taking the pool latch) 64 clean
// pages, paced ~20 us apart, and time each fetch that overlaps a flush: a
// flush that held the latch across its writes would stall such a fetch
// for most of the flush.
//
// Shape checks (CI greps for ": NO"):
//  * readahead — simulated foreground stall with readahead on is at
//    least 5x below the synchronous baseline in every scan pair, with
//    prefetch_used nonzero.
//  * coalescing — coalesced_reads nonzero in every threaded cell, and
//    physical reads never exceed misses.
//  * write-behind — foreground victim writes are <= 5% of all victim
//    writes in every write-behind cell (writebehind_writes carries the
//    rest), and client fetch p99 beats the sync baseline's.
//  * accounting — hits + misses == ops issued in every cell.
//  * overlapped flush — FlushAll's wall time is at least 4x under the
//    serial time (pages x write sleep).
//  * flush off the latch — the p99 of foreground fetches that overlap a
//    FlushAll is under a tenth of its median wall time.
//
// Flags: --json <path> writes machine-readable results (BENCH_async_io
// trajectory); --quick shrinks op counts for CI smoke runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
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
#include "sim/table.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

constexpr double kReadMicros = 10000.0;  // 10 ms simulated disk read.
constexpr Timestamp kScanCrp = 64;       // Covers the admit->demand gap.

// ---------------------------------------------------------------------
// Section 1: scan latency.

struct ScanCell {
  std::string workload;  // "sequential-scan" | "example-1.2-mix"
  std::string pool;      // "single-latch" | "sharded x4"
  bool readahead = false;
  uint64_t ops = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_used = 0;
  uint64_t physical_reads = 0;
  double foreground_stall_ms = 0.0;
  bool accounting_exact = false;
};

std::unique_ptr<PoolInterface> MakePool(const std::string& pool_kind,
                                        size_t frames, DiskManager* disk,
                                        const BufferPoolOptions& options) {
  if (pool_kind == "single-latch") {
    return std::make_unique<BufferPool>(
        frames, disk,
        std::make_unique<LruKPolicy>(LruKOptions{
            .k = 2,
            .correlated_reference_period = kScanCrp,
            .capacity_hint = frames}),
        options);
  }
  auto factory =
      MakeShardPolicyFactory(PolicyConfig::LruK(2, kScanCrp));
  if (!factory.ok()) {
    std::fprintf(stderr, "factory: %s\n",
                 factory.status().ToString().c_str());
    return nullptr;
  }
  return std::make_unique<ShardedBufferPool>(frames, /*num_shards=*/4, disk,
                                             *factory, options);
}

// Allocates `db_pages` through the pool, flushes, and zeroes all stats so
// the measured phase starts from a cold-but-allocated database.
bool AllocateDb(PoolInterface* pool, DiskManager* disk, uint64_t db_pages,
                std::vector<PageId>* pages) {
  pages->clear();
  pages->reserve(db_pages);
  for (uint64_t i = 0; i < db_pages; ++i) {
    auto page = pool->NewPage();
    if (!page.ok()) {
      std::fprintf(stderr, "allocation failed: %s\n",
                   page.status().ToString().c_str());
      return false;
    }
    pages->push_back((*page)->id());
    (void)pool->UnpinPage((*page)->id(), false);
  }
  if (!pool->FlushAll().ok()) return false;
  pool->ResetStats();
  disk->ResetStats();
  return true;
}

// One deterministic scan cell: single-threaded, inline dispatcher, so the
// demand-miss count (and with it the simulated foreground stall) is exact
// and replayable.
ScanCell RunScanCell(const std::string& workload,
                     const std::string& pool_kind, bool readahead,
                     uint64_t scan_pages, uint64_t hot_pages,
                     uint64_t chunk) {
  ScanCell cell;
  cell.workload = workload;
  cell.pool = pool_kind;
  cell.readahead = readahead;

  SimDiskOptions disk_options;
  disk_options.read_micros = kReadMicros;
  disk_options.write_micros = kReadMicros;
  SimDiskManager disk(disk_options);

  constexpr size_t kFrames = 512;
  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = 0;  // Inline: deterministic, byte-exact.
  options.readahead = readahead;

  auto pool = MakePool(pool_kind, kFrames, &disk, options);
  if (pool == nullptr) return cell;

  std::vector<PageId> pages;
  if (!AllocateDb(pool.get(), &disk, scan_pages + hot_pages, &pages)) {
    return cell;
  }

  // Warm the hot set (mix workload only) so its pages carry >= 2
  // uncorrelated references and are replacement-protected before the scan
  // starts competing for frames.
  RandomEngine rng(20260809);
  if (hot_pages > 0) {
    for (uint64_t round = 0; round < 4; ++round) {
      for (uint64_t h = 0; h < hot_pages; ++h) {
        PageId p = pages[scan_pages + h];
        auto page = pool->FetchPage(p, AccessType::kRead);
        if (page.ok()) (void)pool->UnpinPage(p, false);
      }
    }
    pool->ResetStats();
    disk.ResetStats();
  }

  uint64_t ops = 0;
  uint64_t next_scan = 0;
  while (next_scan < scan_pages) {
    // A chunk of the batch scan...
    for (uint64_t i = 0; i < chunk && next_scan < scan_pages; ++i) {
      PageId p = pages[next_scan++];
      auto page = pool->FetchPage(p, AccessType::kRead);
      if (page.ok()) (void)pool->UnpinPage(p, false);
      ++ops;
    }
    // ...then a burst of interactive traffic (mix workload only).
    for (uint64_t i = 0; i < chunk && hot_pages > 0; ++i) {
      PageId p = pages[scan_pages + rng.NextBounded(hot_pages)];
      auto page = pool->FetchPage(p, AccessType::kRead);
      if (page.ok()) (void)pool->UnpinPage(p, false);
      ++ops;
    }
  }

  BufferPoolStats stats = pool->stats();
  cell.ops = ops;
  cell.hits = stats.hits;
  cell.misses = stats.misses;
  cell.prefetch_issued = stats.prefetch_issued;
  cell.prefetch_used = stats.prefetch_used;
  cell.physical_reads = disk.stats().reads;
  // The caller blocks only on demand misses; prefetch reads retire off
  // the demand path (and overlap with compute once io_workers > 0).
  cell.foreground_stall_ms =
      static_cast<double>(stats.misses) * kReadMicros / 1000.0;
  cell.accounting_exact = stats.hits + stats.misses == ops;
  return cell;
}

// ---------------------------------------------------------------------
// Section 2: coalescing under real concurrency.

// Wraps a DiskManager and sleeps for real microseconds per read (and
// optionally per write), so a miss stays in flight long enough for
// concurrent misses on the same page to pile onto the request tracker (a
// simulated-time disk returns instantly and would shrink the coalescing
// window to nearly nothing), and so a foreground victim write-back costs
// real, measurable client latency in the write-behind cells.
class SleepingDiskManager final : public DiskManager {
 public:
  SleepingDiskManager(DiskManager* inner, uint64_t read_sleep_micros,
                      uint64_t write_sleep_micros = 0)
      : inner_(inner),
        read_sleep_micros_(read_sleep_micros),
        write_sleep_micros_(write_sleep_micros) {}

  Status ReadPage(PageId p, char* out) override {
    std::this_thread::sleep_for(
        std::chrono::microseconds(read_sleep_micros_));
    return inner_->ReadPage(p, out);
  }
  Status WritePage(PageId p, const char* data) override {
    if (write_sleep_micros_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(write_sleep_micros_));
    }
    return inner_->WritePage(p, data);
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status DeallocatePage(PageId p) override {
    return inner_->DeallocatePage(p);
  }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  DiskManager* inner_;
  uint64_t read_sleep_micros_;
  uint64_t write_sleep_micros_;
};

struct CoalesceCell {
  std::string pool;
  uint64_t threads = 0;
  uint64_t workers = 0;
  uint64_t ops = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t coalesced_reads = 0;
  uint64_t physical_reads = 0;
  double coalescing_ratio = 0.0;
  double wall_seconds = 0.0;
  bool accounting_exact = false;
  bool reads_bounded = false;
};

CoalesceCell RunCoalesceCell(const std::string& pool_kind,
                             uint64_t ops_per_thread) {
  CoalesceCell cell;
  cell.pool = pool_kind;
  cell.threads = 8;
  cell.workers = 4;

  constexpr size_t kFrames = 32;
  constexpr uint64_t kDbPages = 64;
  constexpr double kWriteFraction = 0.3;

  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  SleepingDiskManager disk(&base, /*read_sleep_micros=*/200);

  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = cell.workers;

  std::unique_ptr<PoolInterface> pool;
  if (pool_kind == "single-latch") {
    pool = std::make_unique<BufferPool>(
        kFrames, &disk,
        std::make_unique<LruKPolicy>(
            LruKOptions{.k = 2, .capacity_hint = kFrames}),
        options);
  } else {
    auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
    if (!factory.ok()) return cell;
    pool = std::make_unique<ShardedBufferPool>(kFrames, /*num_shards=*/4,
                                               &disk, *factory, options);
  }

  std::vector<PageId> pages;
  if (!AllocateDb(pool.get(), &disk, kDbPages, &pages)) return cell;

  std::atomic<uint64_t> issued{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cell.threads);
  for (uint64_t t = 0; t < cell.threads; ++t) {
    threads.emplace_back([&, t] {
      RecursiveSkewDistribution dist(0.8, 0.2, kDbPages);
      RandomEngine rng(0xA51Cull * (t + 1));
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        PageId p = pages[dist.Sample(rng) - 1];
        bool write = rng.NextBernoulli(kWriteFraction);
        auto page = pool->FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        issued.fetch_add(1, std::memory_order_relaxed);
        if (page.ok()) (void)pool->UnpinPage(p, write);
      }
    });
  }
  for (auto& th : threads) th.join();
  cell.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  BufferPoolStats stats = pool->stats();
  cell.ops = issued.load();
  cell.hits = stats.hits;
  cell.misses = stats.misses;
  cell.coalesced_reads = stats.coalesced_reads;
  cell.physical_reads = disk.stats().reads;
  cell.coalescing_ratio =
      stats.misses > 0
          ? static_cast<double>(stats.coalesced_reads) / stats.misses
          : 0.0;
  cell.accounting_exact = stats.hits + stats.misses == cell.ops;
  // Every coalesced miss shares another miss's read; prefetching is off,
  // so the disk can never see more read ops than the pool counted misses.
  cell.reads_bounded = cell.physical_reads <= cell.misses;
  return cell;
}

// ---------------------------------------------------------------------
// Section 3: write-behind eviction under a dirty-heavy churn.

struct WriteBehindCell {
  std::string mode;  // "sync" | "write-behind" | "wb sharded x4"
  uint64_t threads = 0;
  uint64_t workers = 0;
  uint64_t ops = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t dirty_writebacks = 0;  // Foreground (miss-path) victim writes.
  uint64_t writebehind_writes = 0;
  uint64_t writebehind_readmits = 0;
  uint64_t io_drops_flush = 0;
  uint64_t io_drops_prefetch = 0;
  IoDispatcherStats dispatcher;  // Per-lane depth/drop/wait accounting.
  double fetch_p50_micros = 0.0;
  double fetch_p99_micros = 0.0;
  double wall_seconds = 0.0;
  bool accounting_exact = false;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

// Dirty-heavy churn: 70% of unpins dirty the page, writes cost 5x reads
// (150 us vs 30 us of real sleep), and each client thread paces itself
// with think time so the offered load stays below disk saturation —
// write-behind reorders work, it does not create capacity, so the
// interesting regime is the one where the Flush lane CAN keep up and the
// only question is whether the miss path still pays for victim writes.
WriteBehindCell RunWriteBehindCell(const std::string& mode,
                                   uint64_t ops_per_thread) {
  WriteBehindCell cell;
  cell.mode = mode;
  cell.threads = 6;
  // Sync runs the inline dispatcher: its victim writes stay on the miss
  // path. Worker mode writes them behind.
  cell.workers = mode == "sync" ? 0 : 4;

  constexpr size_t kFrames = 64;
  constexpr uint64_t kDbPages = 96;
  constexpr double kWriteFraction = 0.7;
  constexpr uint64_t kThinkMicros = 150;

  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  SleepingDiskManager disk(&base, /*read_sleep_micros=*/30,
                           /*write_sleep_micros=*/150);

  BufferPoolOptions options;
  options.io_dispatcher = true;
  options.io_workers = cell.workers;

  std::unique_ptr<PoolInterface> pool;
  IoDispatcher* dispatcher = nullptr;
  if (mode == "wb sharded x4") {
    auto factory = MakeShardPolicyFactory(PolicyConfig::LruK(2));
    if (!factory.ok()) return cell;
    auto sharded = std::make_unique<ShardedBufferPool>(
        kFrames, /*num_shards=*/4, &disk, *factory, options);
    dispatcher = sharded->io_dispatcher();
    pool = std::move(sharded);
  } else {
    auto single = std::make_unique<BufferPool>(
        kFrames, &disk,
        std::make_unique<LruKPolicy>(
            LruKOptions{.k = 2, .capacity_hint = kFrames}),
        options);
    dispatcher = single->io_dispatcher();
    pool = std::move(single);
  }

  std::vector<PageId> pages;
  if (!AllocateDb(pool.get(), &disk, kDbPages, &pages)) return cell;

  std::atomic<uint64_t> issued{0};
  std::mutex merge_latch;
  std::vector<double> fetch_micros;
  fetch_micros.reserve(cell.threads * ops_per_thread);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cell.threads);
  for (uint64_t t = 0; t < cell.threads; ++t) {
    threads.emplace_back([&, t] {
      RandomEngine rng(0xD17Bull * (t + 1));
      std::vector<double> local;
      local.reserve(ops_per_thread);
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        PageId p = pages[rng.NextBounded(kDbPages)];
        bool write = rng.NextBernoulli(kWriteFraction);
        auto before = std::chrono::steady_clock::now();
        auto page = pool->FetchPage(
            p, write ? AccessType::kWrite : AccessType::kRead);
        local.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - before)
                            .count());
        issued.fetch_add(1, std::memory_order_relaxed);
        if (page.ok()) (void)pool->UnpinPage(p, write);
        std::this_thread::sleep_for(std::chrono::microseconds(kThinkMicros));
      }
      std::lock_guard<std::mutex> guard(merge_latch);
      fetch_micros.insert(fetch_micros.end(), local.begin(), local.end());
    });
  }
  for (auto& th : threads) th.join();
  cell.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  BufferPoolStats stats = pool->stats();
  cell.ops = issued.load();
  cell.hits = stats.hits;
  cell.misses = stats.misses;
  cell.dirty_writebacks = stats.dirty_writebacks;
  cell.writebehind_writes = stats.writebehind_writes;
  cell.writebehind_readmits = stats.writebehind_readmits;
  cell.io_drops_flush = stats.io_drops_flush;
  cell.io_drops_prefetch = stats.io_drops_prefetch;
  if (dispatcher != nullptr) cell.dispatcher = dispatcher->stats();
  cell.fetch_p50_micros = Percentile(&fetch_micros, 0.50);
  cell.fetch_p99_micros = Percentile(&fetch_micros, 0.99);
  cell.accounting_exact = stats.hits + stats.misses == cell.ops;
  return cell;
}

// ---------------------------------------------------------------------
// Section 4: overlapped flushes.

struct FlushCell {
  uint64_t pages = 0;
  uint64_t write_micros = 0;
  uint64_t reps = 0;
  double serial_ms = 0.0;  // pages x write_micros, written one at a time.
  double wall_ms = 0.0;    // Median FlushAll wall time over the reps.
  double speedup = 0.0;    // serial_ms / wall_ms.
  bool all_written = false;
  // Foreground fetches that overlapped a FlushAll, over `reps` more
  // rounds, and their latency.
  uint64_t fetches_during_flush = 0;
  double fetch_p50_us = 0.0;
  double fetch_p99_us = 0.0;
  double fetch_max_us = 0.0;
};

// Dirties the 512 flush pages of a pool that also holds 64 clean hot
// pages (all resident) and times FlushAll, `reps` times; reports the
// median. Then `reps` more rounds time a foreground thread's fetches of
// the hot pages during each FlushAll.
FlushCell RunFlushCell(uint64_t reps) {
  using Clock = std::chrono::steady_clock;
  constexpr uint64_t kHotPages = 64;
  FlushCell cell;
  cell.pages = 512;
  cell.write_micros = 200;
  cell.reps = reps;
  cell.serial_ms = static_cast<double>(cell.pages * cell.write_micros) / 1e3;

  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  SleepingDiskManager disk(&base, /*read_sleep_micros=*/0,
                           /*write_sleep_micros=*/cell.write_micros);
  const uint64_t frames = cell.pages + kHotPages;
  BufferPool pool(frames, &disk,
                  std::make_unique<LruKPolicy>(
                      LruKOptions{.k = 2, .capacity_hint = frames}));
  auto new_pages = [&](uint64_t n, std::vector<PageId>* out) {
    for (uint64_t i = 0; i < n; ++i) {
      auto page = pool.NewPage();
      if (!page.ok()) return false;
      out->push_back((*page)->id());
      (void)pool.UnpinPage((*page)->id(), true);
    }
    return true;
  };
  std::vector<PageId> hot;
  std::vector<PageId> pages;
  if (!new_pages(kHotPages, &hot) || !pool.FlushAll().ok() ||
      !new_pages(cell.pages, &pages)) {
    return cell;
  }

  // One FlushAll of the dirty pages; re-dirties them first unless `fresh`.
  bool flushed = true;
  auto flush_round = [&](bool fresh, Clock::time_point* start,
                         Clock::time_point* end) {
    if (!fresh) {
      for (PageId p : pages) {
        auto page = pool.FetchPage(p, AccessType::kWrite);
        if (!page.ok()) return false;
        (void)pool.UnpinPage(p, true);
      }
    }
    uint64_t writes_before = base.stats().writes;
    *start = Clock::now();
    flushed = pool.FlushAll().ok() && flushed;
    *end = Clock::now();
    flushed = flushed && base.stats().writes - writes_before == cell.pages;
    return true;
  };

  std::vector<double> wall_ms;
  for (uint64_t r = 0; r < reps; ++r) {
    Clock::time_point start, end;
    if (!flush_round(r == 0, &start, &end)) return cell;
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  cell.wall_ms = Percentile(&wall_ms, 0.50);
  cell.speedup = cell.wall_ms > 0.0 ? cell.serial_ms / cell.wall_ms : 0.0;

  std::vector<double> fetch_us;
  for (uint64_t r = 0; r < reps; ++r) {
    std::atomic<bool> stop{false};
    std::atomic<bool> running{false};
    std::vector<std::pair<Clock::time_point, Clock::time_point>> fetches;
    std::thread foreground([&] {
      fetches.reserve(1 << 16);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        PageId p = hot[i % kHotPages];
        Clock::time_point begin = Clock::now();
        auto page = pool.FetchPage(p);
        Clock::time_point done = Clock::now();
        if (page.ok()) (void)pool.UnpinPage(p, false);
        fetches.emplace_back(begin, done);
        running.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
    while (!running.load(std::memory_order_acquire)) std::this_thread::yield();
    Clock::time_point start, end;
    const bool ok = flush_round(/*fresh=*/false, &start, &end);
    stop.store(true);
    foreground.join();
    if (!ok) return cell;
    for (const auto& [begin, done] : fetches) {
      if (begin < end && done > start) {
        fetch_us.push_back(
            std::chrono::duration<double, std::micro>(done - begin).count());
      }
    }
  }
  cell.fetches_during_flush = fetch_us.size();
  cell.fetch_p50_us = Percentile(&fetch_us, 0.50);
  cell.fetch_p99_us = Percentile(&fetch_us, 0.99);
  cell.fetch_max_us = fetch_us.empty() ? 0.0 : fetch_us.back();
  cell.all_written = flushed;
  return cell;
}

// ---------------------------------------------------------------------

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<ScanCell>& scan_cells,
               const std::vector<CoalesceCell>& coalesce_cells,
               const std::vector<WriteBehindCell>& wb_cells,
               const FlushCell& flush_cell, bool readahead_ok,
               bool prefetch_used_ok, bool coalesce_ok, bool wb_foreground_ok,
               bool wb_p99_ok, bool accounting_ok, bool flush_ok,
               bool flush_unlatched_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_async_io\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f, ",\n  \"read_micros\": %.1f,\n  \"scan_cells\": [\n",
               kReadMicros);
  for (size_t i = 0; i < scan_cells.size(); ++i) {
    const ScanCell& c = scan_cells[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"pool\": \"%s\", \"readahead\": %s, "
        "\"ops\": %llu, \"hits\": %llu, \"misses\": %llu, "
        "\"prefetch_issued\": %llu, \"prefetch_used\": %llu, "
        "\"physical_reads\": %llu, \"foreground_stall_ms\": %.1f}%s\n",
        c.workload.c_str(), c.pool.c_str(), c.readahead ? "true" : "false",
        static_cast<unsigned long long>(c.ops),
        static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.prefetch_issued),
        static_cast<unsigned long long>(c.prefetch_used),
        static_cast<unsigned long long>(c.physical_reads),
        c.foreground_stall_ms, i + 1 < scan_cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"coalescing_cells\": [\n");
  for (size_t i = 0; i < coalesce_cells.size(); ++i) {
    const CoalesceCell& c = coalesce_cells[i];
    std::fprintf(
        f,
        "    {\"pool\": \"%s\", \"threads\": %llu, \"io_workers\": %llu, "
        "\"ops\": %llu, \"hits\": %llu, \"misses\": %llu, "
        "\"coalesced_reads\": %llu, \"coalescing_ratio\": %.4f, "
        "\"physical_reads\": %llu, \"wall_seconds\": %.3f}%s\n",
        c.pool.c_str(), static_cast<unsigned long long>(c.threads),
        static_cast<unsigned long long>(c.workers),
        static_cast<unsigned long long>(c.ops),
        static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.coalesced_reads),
        c.coalescing_ratio,
        static_cast<unsigned long long>(c.physical_reads), c.wall_seconds,
        i + 1 < coalesce_cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"writebehind_cells\": [\n");
  for (size_t i = 0; i < wb_cells.size(); ++i) {
    const WriteBehindCell& c = wb_cells[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"threads\": %llu, \"io_workers\": %llu, "
        "\"ops\": %llu, \"hits\": %llu, \"misses\": %llu, "
        "\"dirty_writebacks\": %llu, \"writebehind_writes\": %llu, "
        "\"writebehind_readmits\": %llu, \"io_drops_flush\": %llu, "
        "\"io_drops_prefetch\": %llu, "
        "\"fetch_p50_micros\": %.1f, \"fetch_p99_micros\": %.1f, "
        "\"wall_seconds\": %.3f, \"starvation_grants\": %llu, "
        "\"lanes\": [",
        c.mode.c_str(), static_cast<unsigned long long>(c.threads),
        static_cast<unsigned long long>(c.workers),
        static_cast<unsigned long long>(c.ops),
        static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.dirty_writebacks),
        static_cast<unsigned long long>(c.writebehind_writes),
        static_cast<unsigned long long>(c.writebehind_readmits),
        static_cast<unsigned long long>(c.io_drops_flush),
        static_cast<unsigned long long>(c.io_drops_prefetch),
        c.fetch_p50_micros, c.fetch_p99_micros, c.wall_seconds,
        static_cast<unsigned long long>(c.dispatcher.starvation_grants));
    for (size_t l = 0; l < kIoClassCount; ++l) {
      const IoLaneStats& lane = c.dispatcher.lanes[l];
      std::fprintf(
          f,
          "{\"class\": \"%s\", \"accepted\": %llu, \"rejected\": %llu, "
          "\"executed\": %llu, \"queue_highwater\": %llu, "
          "\"wait_micros\": %llu, \"max_wait_micros\": %llu}%s",
          IoClassName(static_cast<IoClass>(l)),
          static_cast<unsigned long long>(lane.accepted),
          static_cast<unsigned long long>(lane.rejected),
          static_cast<unsigned long long>(lane.executed),
          static_cast<unsigned long long>(lane.queue_highwater),
          static_cast<unsigned long long>(lane.wait_micros),
          static_cast<unsigned long long>(lane.max_wait_micros),
          l + 1 < kIoClassCount ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < wb_cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"flush_cells\": [\n"
               "    {\"pool\": \"single-latch\", \"pages\": %llu, "
               "\"write_micros\": %llu, \"reps\": %llu, "
               "\"serial_ms\": %.1f, \"wall_ms\": %.2f, "
               "\"speedup\": %.2f, \"fetches_during_flush\": %llu, "
               "\"fetch_p50_us\": %.2f, \"fetch_p99_us\": %.2f, "
               "\"fetch_max_us\": %.1f}\n",
               static_cast<unsigned long long>(flush_cell.pages),
               static_cast<unsigned long long>(flush_cell.write_micros),
               static_cast<unsigned long long>(flush_cell.reps),
               flush_cell.serial_ms, flush_cell.wall_ms, flush_cell.speedup,
               static_cast<unsigned long long>(flush_cell.fetches_during_flush),
               flush_cell.fetch_p50_us, flush_cell.fetch_p99_us,
               flush_cell.fetch_max_us);
  std::fprintf(f,
               "  ],\n  \"checks\": {\n"
               "    \"readahead_beats_sync\": %s,\n"
               "    \"prefetch_used_nonzero\": %s,\n"
               "    \"coalesced_nonzero\": %s,\n"
               "    \"writebehind_foreground_near_zero\": %s,\n"
               "    \"writebehind_p99_beats_sync\": %s,\n"
               "    \"accounting_exact\": %s,\n"
               "    \"flush_overlaps_writes\": %s,\n"
               "    \"fetch_during_flush_unstalled\": %s\n  }\n}\n",
               readahead_ok ? "true" : "false",
               prefetch_used_ok ? "true" : "false",
               coalesce_ok ? "true" : "false",
               wb_foreground_ok ? "true" : "false",
               wb_p99_ok ? "true" : "false",
               accounting_ok ? "true" : "false", flush_ok ? "true" : "false",
               flush_unlatched_ok ? "true" : "false");
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

  const uint64_t scan_pages = quick ? 2048 : 8192;
  const uint64_t hot_pages = 128;
  const uint64_t chunk = 32;
  const uint64_t ops_per_thread = quick ? 400 : 2500;
  const uint64_t wb_ops_per_thread = quick ? 600 : 3000;
  provenance.threads = 8;  // Maximum client threads across the sections.

  std::printf(
      "Async I/O: scans over a simulated %.0f ms disk (inline dispatcher, "
      "LRU-2 CRP=%llu, 512 frames), then 8-thread coalescing churn over a "
      "sleeping disk\n\n",
      kReadMicros / 1000.0, static_cast<unsigned long long>(kScanCrp));

  struct ScanSpec {
    const char* workload;
    const char* pool;
    uint64_t hot;
  };
  const std::vector<ScanSpec> scan_specs = {
      {"sequential-scan", "single-latch", 0},
      {"example-1.2-mix", "single-latch", hot_pages},
      {"sequential-scan", "sharded x4", 0},
  };

  std::vector<ScanCell> scan_cells;
  AsciiTable scan_table({"workload", "pool", "readahead", "misses",
                         "prefetch used", "physical reads", "stall (ms)"});
  bool readahead_ok = true;
  bool prefetch_used_ok = true;
  bool accounting_ok = true;
  for (const ScanSpec& spec : scan_specs) {
    ScanCell off = RunScanCell(spec.workload, spec.pool, false, scan_pages,
                               spec.hot, chunk);
    ScanCell on = RunScanCell(spec.workload, spec.pool, true, scan_pages,
                              spec.hot, chunk);
    for (const ScanCell* c : {&off, &on}) {
      scan_table.AddRow({c->workload, c->pool, c->readahead ? "on" : "off",
                         AsciiTable::Integer(c->misses),
                         AsciiTable::Integer(c->prefetch_used),
                         AsciiTable::Integer(c->physical_reads),
                         AsciiTable::Fixed(c->foreground_stall_ms, 1)});
      accounting_ok = accounting_ok && c->accounting_exact;
      scan_cells.push_back(*c);
    }
    if (on.foreground_stall_ms * 5 > off.foreground_stall_ms) {
      readahead_ok = false;
      std::printf("readahead win too small: %s/%s %.1f ms vs %.1f ms\n",
                  spec.workload, spec.pool, on.foreground_stall_ms,
                  off.foreground_stall_ms);
    }
    if (on.prefetch_used == 0) prefetch_used_ok = false;
  }
  scan_table.Print();

  std::printf("\n");
  std::vector<CoalesceCell> coalesce_cells;
  AsciiTable co_table({"pool", "misses", "coalesced", "ratio",
                       "physical reads", "wall (s)"});
  bool coalesce_ok = true;
  bool bounded_ok = true;
  for (const char* pool_kind : {"single-latch", "sharded x4"}) {
    CoalesceCell c = RunCoalesceCell(pool_kind, ops_per_thread);
    co_table.AddRow({c.pool, AsciiTable::Integer(c.misses),
                     AsciiTable::Integer(c.coalesced_reads),
                     AsciiTable::Fixed(c.coalescing_ratio, 3),
                     AsciiTable::Integer(c.physical_reads),
                     AsciiTable::Fixed(c.wall_seconds, 3)});
    accounting_ok = accounting_ok && c.accounting_exact;
    bounded_ok = bounded_ok && c.reads_bounded;
    if (c.coalesced_reads == 0) coalesce_ok = false;
    coalesce_cells.push_back(c);
  }
  co_table.Print();

  std::printf("\nwrite-behind: 6 threads, 70%% writes, write cost 5x read, "
              "paced below saturation (96 pages / 64 frames)\n");
  std::vector<WriteBehindCell> wb_cells;
  AsciiTable wb_table({"mode", "misses", "fg writes", "wb writes",
                       "readmits", "flush drops", "p50 (us)", "p99 (us)"});
  bool wb_foreground_ok = true;
  bool wb_p99_ok = true;
  double sync_p99 = 0.0;
  double wb_single_p99 = 0.0;
  for (const char* mode : {"sync", "write-behind", "wb sharded x4"}) {
    WriteBehindCell c = RunWriteBehindCell(mode, wb_ops_per_thread);
    wb_table.AddRow({c.mode, AsciiTable::Integer(c.misses),
                     AsciiTable::Integer(c.dirty_writebacks),
                     AsciiTable::Integer(c.writebehind_writes),
                     AsciiTable::Integer(c.writebehind_readmits),
                     AsciiTable::Integer(c.io_drops_flush),
                     AsciiTable::Fixed(c.fetch_p50_micros, 1),
                     AsciiTable::Fixed(c.fetch_p99_micros, 1)});
    accounting_ok = accounting_ok && c.accounting_exact;
    if (c.mode == "sync") sync_p99 = c.fetch_p99_micros;
    if (c.mode == "write-behind") wb_single_p99 = c.fetch_p99_micros;
    if (c.mode != "sync") {
      // Foreground (miss-path) victim writes must be <= 5% of all victim
      // writes: the Flush lane carries the rest.
      uint64_t total_victim_writes =
          c.dirty_writebacks + c.writebehind_writes;
      if (c.writebehind_writes == 0 ||
          c.dirty_writebacks * 20 > total_victim_writes) {
        wb_foreground_ok = false;
        std::printf("write-behind still writing in the foreground: %s "
                    "fg=%llu wb=%llu\n",
                    c.mode.c_str(),
                    static_cast<unsigned long long>(c.dirty_writebacks),
                    static_cast<unsigned long long>(c.writebehind_writes));
      }
    }
    wb_cells.push_back(c);
  }
  // Compare apples to apples: single-latch write-behind vs single-latch
  // sync (the sharded cell has 4x the latches and would win regardless).
  if (wb_single_p99 >= sync_p99) {
    wb_p99_ok = false;
    std::printf("write-behind p99 did not beat sync: %.1f us vs %.1f us\n",
                wb_single_p99, sync_p99);
  }
  wb_table.Print();

  FlushCell flush_cell = RunFlushCell(quick ? 3 : 7);
  std::printf("\noverlapped flush: FlushAll of %llu dirty pages, %llu us "
              "per write, median of %llu\n",
              static_cast<unsigned long long>(flush_cell.pages),
              static_cast<unsigned long long>(flush_cell.write_micros),
              static_cast<unsigned long long>(flush_cell.reps));
  AsciiTable flush_table({"pool", "serial (ms)", "FlushAll (ms)", "speedup"});
  flush_table.AddRow({"single-latch",
                      AsciiTable::Fixed(flush_cell.serial_ms, 1),
                      AsciiTable::Fixed(flush_cell.wall_ms, 2),
                      AsciiTable::Fixed(flush_cell.speedup, 2)});
  flush_table.Print();
  const bool flush_ok = flush_cell.all_written && flush_cell.speedup >= 4.0;
  std::printf("\nforeground fetches (hits) during FlushAll, %llu rounds\n",
              static_cast<unsigned long long>(flush_cell.reps));
  AsciiTable fetch_table({"pool", "fetches", "p50 (us)", "p99 (us)",
                          "max (us)", "FlushAll (ms)"});
  fetch_table.AddRow(
      {"single-latch", std::to_string(flush_cell.fetches_during_flush),
       AsciiTable::Fixed(flush_cell.fetch_p50_us, 2),
       AsciiTable::Fixed(flush_cell.fetch_p99_us, 2),
       AsciiTable::Fixed(flush_cell.fetch_max_us, 1),
       AsciiTable::Fixed(flush_cell.wall_ms, 2)});
  fetch_table.Print();
  const bool flush_unlatched_ok =
      flush_cell.fetches_during_flush > 0 &&
      flush_cell.fetch_p99_us * 10.0 < flush_cell.wall_ms * 1e3;

  std::printf("\nshape: readahead stalls >= 5x below the synchronous "
              "baseline in every scan pair: %s\n",
              readahead_ok ? "yes" : "NO");
  std::printf("shape: prefetched pages are consumed by demand fetches "
              "(prefetch_used > 0): %s\n",
              prefetch_used_ok ? "yes" : "NO");
  std::printf("shape: concurrent same-page misses coalesce "
              "(coalesced_reads > 0, physical reads <= misses): %s\n",
              coalesce_ok && bounded_ok ? "yes" : "NO");
  std::printf("shape: write-behind keeps foreground victim writes <= 5%% "
              "of all victim writes: %s\n",
              wb_foreground_ok ? "yes" : "NO");
  std::printf("shape: write-behind client fetch p99 beats the sync "
              "baseline: %s\n",
              wb_p99_ok ? "yes" : "NO");
  std::printf("shape: hit+miss totals exactly equal ops in every cell: %s\n",
              accounting_ok ? "yes" : "NO");
  std::printf("shape: FlushAll overlaps its writes (>= 4x under the serial "
              "time): %s\n",
              flush_ok ? "yes" : "NO");
  std::printf("shape: a fetch during FlushAll waits for no flush write (p99 "
              "< 1/10 of its wall time): %s\n",
              flush_unlatched_ok ? "yes" : "NO");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, scan_cells, coalesce_cells, wb_cells,
              flush_cell, readahead_ok, prefetch_used_ok,
              coalesce_ok && bounded_ok, wb_foreground_ok, wb_p99_ok,
              accounting_ok, flush_ok, flush_unlatched_ok);
    std::printf("wrote %s\n", json_path);
  }
  return readahead_ok && prefetch_used_ok && coalesce_ok && bounded_ok &&
                 wb_foreground_ok && wb_p99_ok && accounting_ok &&
                 flush_ok && flush_unlatched_ok
             ? 0
             : 1;
}

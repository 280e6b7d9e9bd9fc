// Async-I/O microbenchmark: measures the pool's I/O paths — coalesced
// misses, write-behind, overlapped flushes and device batches.
//
// Section 1, scan readahead, is deleted with the readahead it measured;
// the other sections keep their numbers.
//
// Section 2 — coalescing (threaded, worker mode). Eight threads churn a
// skewed page set over a disk wrapper that sleeps for real microseconds
// per read, widening the window in which concurrent misses on the same
// page land; the per-page request tracker folds those into one physical
// read. Each miss reads on its own client thread, so up to eight reads
// are in flight at once; worker mode's four writer threads write the
// churn's dirty victims behind.
//
// Section 3 — write-behind eviction (threaded). A dirty-heavy churn (70%
// writes) over a disk whose writes cost 5x its reads, paced below disk
// saturation so the question is purely WHERE the victim write-back runs:
// on the miss path (sync: the default pool, io_workers = 0, whose
// evicting thread writes the victim back with its read), or off it
// (write-behind: worker mode posts the pinned-copy victim write on its
// write-behind queue, admits immediately and reads on the client
// thread). Client-side fetch latency percentiles and the queue's
// counters (the JSON's `lanes`, whose demand entry is always 0) expose
// the difference.
//
// Section 4 — overlapped flushes (threaded). FlushAll of 512 dirty pages
// over a disk wrapper whose writes sleep 200 us of real time. The flush
// hands the device one DiskManager::RunBatch batch with the pool latch
// released, and RunBatch keeps up to kMaxIoInFlight writes in
// flight, so the flush takes a fraction of the 512 x 200 us it would take
// written one at a time. The gain needs a device that overlaps writes, as
// this sleeping one does. Further FlushAll rounds then run while a
// foreground thread fetches (hits, each taking the pool latch) 64 clean
// pages, paced ~20 us apart, and time each fetch that overlaps a flush: a
// flush that held the latch across its writes would stall such a fetch
// for most of the flush.
//
// Section 5 — dirty misses (one thread, the default pool). The pool
// churns dirtying fetches over 4x its frames on a disk wrapper whose
// reads and writes each sleep 200 us, so nearly every miss evicts a dirty
// victim. Such a miss hands the device the victim's write-back and its
// own read as one DiskManager::RunBatch batch, under the pool latch. The
// cell runs twice, on the sleeping disk as it is (it declares the default
// kMaxIoInFlight, so the pair overlaps) and declaring 1 (the pair runs
// write, then read), and times each miss.
//
// Section 6 — hits during clean misses (two threads, the default pool).
// One thread reads pages that are not resident, one after another, on a
// disk wrapper whose reads sleep 200 us; every victim is clean, so each
// read runs with the pool latch released. Meanwhile a second thread
// fetches 64 resident pages (hits, each taking the latch), paced ~20 us
// apart, and times each fetch: a pool that held its latch across the
// read would stall such a hit for up to a whole read.
//
// Section 7 — allocation write-backs (one thread, the default pool). The
// thread NewPages N pages through a pool of N/4 frames on a disk wrapper
// whose writes sleep 200 us, unpinning each dirty, so once the frames are
// full every allocation's victim is dirty. An allocation whose first
// victim is dirty writes back up to MaxConcurrentIo() dirty victims as one
// DiskManager::RunBatch batch and keeps the extra frames for the next
// allocations. The cell runs twice, on the sleeping disk as it is (the
// default kMaxIoInFlight: batches of 16) and declaring 1 (one victim per
// allocation, written alone), and times each allocation and the run.
//
// Every thread sleeps with 1 ns timer slack (main sets it before any
// thread starts; threads inherit it), as bench/e2e's TimedDisk does: with
// the default 50 us slack a nominal 200 us sleep lasts ~265 us.
//
// Shape checks (CI greps for ": NO"):
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
//  * dirty-miss overlap — both dirty-miss runs carry identical counters,
//    and the miss p50 on the concurrent device is <= 0.7x the serial one.
//  * hit during a clean miss — every fetch of the resident pages was a
//    hit, and the p99 of those taken while the other thread's misses read
//    is under a tenth of the read time.
//  * allocation write-backs overlap — both allocation runs count the same
//    evictions, dirty write-backs and device writes, and the concurrent
//    run's total time is <= 0.25x the serial one's.
//
// Flags: --json <path> writes machine-readable results (BENCH_async_io
// trajectory); --quick shrinks op counts for CI smoke runs.

#include <sys/prctl.h>

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
                      uint64_t write_sleep_micros = 0,
                      size_t max_concurrent_io = kMaxIoInFlight)
      : inner_(inner),
        read_sleep_micros_(read_sleep_micros),
        write_sleep_micros_(write_sleep_micros),
        max_concurrent_io_(max_concurrent_io) {}

  size_t MaxConcurrentIo() const override { return max_concurrent_io_; }

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
  size_t max_concurrent_io_;
};

struct CoalesceCell {
  std::string pool;
  uint64_t threads = 0;
  uint64_t workers = 0;
  uint64_t ops = 0;
  BufferPoolStats stats;
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

  cell.stats = pool->stats();
  const BufferPoolStats& stats = cell.stats;
  cell.ops = issued.load();
  cell.physical_reads = disk.stats().reads;
  cell.coalescing_ratio =
      stats.misses > 0
          ? static_cast<double>(stats.coalesced_reads) / stats.misses
          : 0.0;
  cell.accounting_exact = stats.hits + stats.misses == cell.ops;
  // Every coalesced miss shares another miss's read, so the disk can never
  // see more read ops than the pool counted misses.
  cell.reads_bounded = cell.physical_reads <= stats.misses;
  return cell;
}

// ---------------------------------------------------------------------
// Section 3: write-behind eviction under a dirty-heavy churn.

struct WriteBehindCell {
  std::string mode;  // "sync" | "write-behind" | "wb sharded x4"
  uint64_t threads = 0;
  uint64_t workers = 0;
  uint64_t ops = 0;
  // dirty_writebacks counts foreground (miss-path) victim writes.
  BufferPoolStats stats;
  IoDispatcherStats dispatcher;  // The queue's depth/refusal/wait counts.
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
// interesting regime is the one where the writers CAN keep up and the
// only question is whether the miss path still pays for victim writes.
WriteBehindCell RunWriteBehindCell(const std::string& mode,
                                   uint64_t ops_per_thread) {
  WriteBehindCell cell;
  cell.mode = mode;
  cell.threads = 6;
  // Sync runs an inline pool: its victim writes stay on the miss path.
  // Worker mode writes them behind.
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

  cell.stats = pool->stats();
  cell.ops = issued.load();
  if (dispatcher != nullptr) cell.dispatcher = dispatcher->stats();
  cell.fetch_p50_micros = Percentile(&fetch_micros, 0.50);
  cell.fetch_p99_micros = Percentile(&fetch_micros, 0.99);
  cell.accounting_exact = cell.stats.hits + cell.stats.misses == cell.ops;
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
// Section 5: dirty misses.

struct DirtyMissCell {
  std::string device;  // "concurrent" | "serial"
  size_t max_concurrent_io = 0;
  uint64_t ops = 0;
  BufferPoolStats stats;
  double miss_p50_us = 0.0;
  double miss_p99_us = 0.0;
  bool accounting_exact = false;
};

// One thread fetches pages of a 256-page database through a default
// 64-frame pool, every fetch for writing, uniformly at random
// (seeded, so both runs make the same references), and times each miss.
DirtyMissCell RunDirtyMissCell(size_t max_concurrent_io, uint64_t ops) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kFrames = 64;
  constexpr uint64_t kDbPages = 256;
  constexpr uint64_t kSleepMicros = 200;
  DirtyMissCell cell;
  cell.device = max_concurrent_io > 1 ? "concurrent" : "serial";
  cell.max_concurrent_io = max_concurrent_io;
  cell.ops = ops;

  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  SleepingDiskManager disk(&base, kSleepMicros, kSleepMicros,
                           max_concurrent_io);
  std::vector<PageId> pages;
  for (uint64_t i = 0; i < kDbPages; ++i) {
    auto p = base.AllocatePage();
    if (!p.ok()) return cell;
    pages.push_back(*p);
  }
  BufferPool pool(kFrames, &disk,
                  std::make_unique<LruKPolicy>(
                      LruKOptions{.k = 2, .capacity_hint = kFrames}));
  RandomEngine rng(7);
  std::vector<double> miss_us;
  for (uint64_t i = 0; i < ops; ++i) {
    const PageId p = pages[rng.NextBounded(kDbPages)];
    const uint64_t misses = pool.StatsSnapshot().misses;
    const Clock::time_point begin = Clock::now();
    auto page = pool.FetchPage(p, AccessType::kWrite);
    const Clock::time_point done = Clock::now();
    if (!page.ok()) return cell;
    (*page)->Data()[0] = static_cast<char>(i);
    (void)pool.UnpinPage(p, true);
    if (pool.StatsSnapshot().misses != misses) {
      miss_us.push_back(
          std::chrono::duration<double, std::micro>(done - begin).count());
    }
  }
  cell.stats = pool.stats();
  cell.miss_p50_us = Percentile(&miss_us, 0.50);
  cell.miss_p99_us = Percentile(&miss_us, 0.99);
  cell.accounting_exact = cell.stats.hits + cell.stats.misses == ops &&
                          miss_us.size() == cell.stats.misses;
  return cell;
}

// ---------------------------------------------------------------------
// Section 6: hits during clean misses.

struct HitDuringMissCell {
  uint64_t read_micros = 0;
  uint64_t hot_pages = 0;
  uint64_t hits = 0;      // Fetches of the resident pages that hit.
  uint64_t fetches = 0;   // Fetches of the resident pages.
  uint64_t misses = 0;    // The other thread's misses meanwhile.
  BufferPoolStats stats;  // The pool's counters over both threads.
  double hit_p50_us = 0.0;
  double hit_p99_us = 0.0;
  double hit_max_us = 0.0;
};

// A default pool holds 64 resident pages, each referenced twice (so LRU-2
// keeps them over pages referenced once), and 16 more frames. One thread
// fetches pages that are not resident, in order, each a clean miss over a
// 200 us read; another fetches the resident pages round-robin, paced ~20 us
// apart, `fetches` times, and times each fetch.
HitDuringMissCell RunHitDuringMissCell(uint64_t fetches) {
  using Clock = std::chrono::steady_clock;
  constexpr uint64_t kHotPages = 64;
  constexpr uint64_t kColdPages = 4096;
  constexpr size_t kFrames = kHotPages + 16;
  HitDuringMissCell cell;
  cell.read_micros = 200;
  cell.hot_pages = kHotPages;

  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  SleepingDiskManager disk(&base, cell.read_micros);
  BufferPool pool(kFrames, &disk,
                  std::make_unique<LruKPolicy>(
                      LruKOptions{.k = 2, .capacity_hint = kFrames}));
  std::vector<PageId> hot;
  for (uint64_t i = 0; i < kHotPages; ++i) {
    auto page = pool.NewPage();
    if (!page.ok()) return cell;
    hot.push_back((*page)->id());
    (void)pool.UnpinPage((*page)->id(), false);
  }
  std::vector<PageId> cold;
  for (uint64_t i = 0; i < kColdPages; ++i) {
    auto p = base.AllocatePage();
    if (!p.ok()) return cell;
    cold.push_back(*p);
  }
  if (!pool.FlushAll().ok()) return cell;
  for (PageId p : hot) {  // The second reference.
    if (!pool.FetchPage(p).ok()) return cell;
    (void)pool.UnpinPage(p, false);
  }
  pool.ResetStats();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread scanner([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const PageId p = cold[i % kColdPages];
      auto page = pool.FetchPage(p);
      if (page.ok()) (void)pool.UnpinPage(p, false);
      misses.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start timing once the scanner is inside its reads.
  while (misses.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
  std::vector<double> hit_us;
  hit_us.reserve(fetches);
  const uint64_t hits_before = pool.StatsSnapshot().hits;
  const uint64_t misses_before = misses.load();
  for (uint64_t i = 0; i < fetches; ++i) {
    const PageId p = hot[i % kHotPages];
    const Clock::time_point begin = Clock::now();
    auto page = pool.FetchPage(p);
    const Clock::time_point done = Clock::now();
    if (page.ok()) (void)pool.UnpinPage(p, false);
    hit_us.push_back(
        std::chrono::duration<double, std::micro>(done - begin).count());
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  // The scanner's own misses are the only other hits or misses.
  cell.hits = pool.StatsSnapshot().hits - hits_before;
  cell.misses = misses.load() - misses_before;
  stop.store(true);
  scanner.join();
  cell.stats = pool.stats();
  cell.fetches = fetches;
  cell.hit_p50_us = Percentile(&hit_us, 0.50);
  cell.hit_p99_us = Percentile(&hit_us, 0.99);
  cell.hit_max_us = hit_us.empty() ? 0.0 : hit_us.back();
  return cell;
}

// ---------------------------------------------------------------------
// Section 7: allocation write-backs.

struct AllocationCell {
  std::string device;  // "concurrent" | "serial"
  size_t max_concurrent_io = 0;
  uint64_t pages = 0;
  size_t frames = 0;
  BufferPoolStats stats;
  uint64_t device_writes = 0;
  double alloc_p50_us = 0.0;
  double alloc_p99_us = 0.0;
  double total_ms = 0.0;
};

// One thread NewPages `pages` pages through a default pool of pages / 4
// frames on the 200 us sleeping disk, unpinning each dirty, and times each
// allocation and the whole run. With pages a multiple of 64, the
// allocations past the first pool-full come in whole batches of 16, so
// both runs evict the same pages.
AllocationCell RunAllocationCell(size_t max_concurrent_io, uint64_t pages) {
  using Clock = std::chrono::steady_clock;
  constexpr uint64_t kSleepMicros = 200;
  AllocationCell cell;
  cell.device = max_concurrent_io > 1 ? "concurrent" : "serial";
  cell.max_concurrent_io = max_concurrent_io;
  cell.pages = pages;
  cell.frames = static_cast<size_t>(pages / 4);

  SimDiskOptions disk_options;
  disk_options.read_micros = 0.0;
  disk_options.write_micros = 0.0;
  SimDiskManager base(disk_options);
  SleepingDiskManager disk(&base, kSleepMicros, kSleepMicros,
                           max_concurrent_io);
  BufferPool pool(cell.frames, &disk,
                  std::make_unique<LruKPolicy>(
                      LruKOptions{.k = 2, .capacity_hint = cell.frames}));
  std::vector<double> alloc_us;
  alloc_us.reserve(pages);
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < pages; ++i) {
    const Clock::time_point begin = Clock::now();
    auto page = pool.NewPage();
    const Clock::time_point done = Clock::now();
    if (!page.ok()) return cell;
    std::memset((*page)->Data(), static_cast<int>(i), kPageSize);
    (void)pool.UnpinPage((*page)->id(), true);
    alloc_us.push_back(
        std::chrono::duration<double, std::micro>(done - begin).count());
  }
  cell.total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  cell.stats = pool.stats();
  cell.device_writes = base.stats().writes;
  cell.alloc_p50_us = Percentile(&alloc_us, 0.50);
  cell.alloc_p99_us = Percentile(&alloc_us, 0.99);
  return cell;
}

// ---------------------------------------------------------------------

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<CoalesceCell>& coalesce_cells,
               const std::vector<WriteBehindCell>& wb_cells,
               const FlushCell& flush_cell,
               const std::vector<DirtyMissCell>& dirty_cells,
               const HitDuringMissCell& hit_cell,
               const std::vector<AllocationCell>& alloc_cells,
               bool coalesce_ok, bool wb_foreground_ok, bool wb_p99_ok,
               bool accounting_ok, bool flush_ok, bool flush_unlatched_ok,
               bool dirty_miss_ok, bool hit_unstalled_ok,
               bool alloc_overlap_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_async_io\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f, ",\n  \"coalescing_cells\": [\n");
  for (size_t i = 0; i < coalesce_cells.size(); ++i) {
    const CoalesceCell& c = coalesce_cells[i];
    std::fprintf(
        f,
        "    {\"pool\": \"%s\", \"threads\": %llu, \"io_workers\": %llu, "
        "\"ops\": %llu, %s, \"coalescing_ratio\": %.4f, "
        "\"physical_reads\": %llu, \"wall_seconds\": %.3f}%s\n",
        c.pool.c_str(), static_cast<unsigned long long>(c.threads),
        static_cast<unsigned long long>(c.workers),
        static_cast<unsigned long long>(c.ops),
        PoolCountersJson(c.stats).c_str(), c.coalescing_ratio,
        static_cast<unsigned long long>(c.physical_reads), c.wall_seconds,
        i + 1 < coalesce_cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"writebehind_cells\": [\n");
  for (size_t i = 0; i < wb_cells.size(); ++i) {
    const WriteBehindCell& c = wb_cells[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"threads\": %llu, \"io_workers\": %llu, "
        "\"ops\": %llu, %s, "
        "\"fetch_p50_micros\": %.1f, \"fetch_p99_micros\": %.1f, "
        "\"wall_seconds\": %.3f, \"lanes\": [",
        c.mode.c_str(), static_cast<unsigned long long>(c.threads),
        static_cast<unsigned long long>(c.workers),
        static_cast<unsigned long long>(c.ops),
        PoolCountersJson(c.stats).c_str(), c.fetch_p50_micros,
        c.fetch_p99_micros, c.wall_seconds);
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
  std::fprintf(f, "  ],\n  \"dirty_miss_cells\": [\n");
  for (size_t i = 0; i < dirty_cells.size(); ++i) {
    const DirtyMissCell& c = dirty_cells[i];
    std::fprintf(
        f,
        "    {\"device\": \"%s\", \"max_concurrent_io\": %zu, "
        "\"ops\": %llu, %s, \"miss_p50_us\": %.1f, "
        "\"miss_p99_us\": %.1f}%s\n",
        c.device.c_str(), c.max_concurrent_io,
        static_cast<unsigned long long>(c.ops),
        PoolCountersJson(c.stats).c_str(), c.miss_p50_us, c.miss_p99_us,
        i + 1 < dirty_cells.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"hit_during_miss_cells\": [\n"
      "    {\"pool\": \"single-latch\", \"read_micros\": %llu, "
      "\"hot_pages\": %llu, \"fetches\": %llu, \"hot_hits\": %llu, "
      "\"misses_meanwhile\": %llu, %s, \"hit_p50_us\": %.2f, "
      "\"hit_p99_us\": %.2f, \"hit_max_us\": %.1f}\n",
      static_cast<unsigned long long>(hit_cell.read_micros),
      static_cast<unsigned long long>(hit_cell.hot_pages),
      static_cast<unsigned long long>(hit_cell.fetches),
      static_cast<unsigned long long>(hit_cell.hits),
      static_cast<unsigned long long>(hit_cell.misses),
      PoolCountersJson(hit_cell.stats).c_str(), hit_cell.hit_p50_us,
      hit_cell.hit_p99_us, hit_cell.hit_max_us);
  std::fprintf(f, "  ],\n  \"allocation_cells\": [\n");
  for (size_t i = 0; i < alloc_cells.size(); ++i) {
    const AllocationCell& c = alloc_cells[i];
    std::fprintf(
        f,
        "    {\"device\": \"%s\", \"max_concurrent_io\": %zu, "
        "\"pages\": %llu, \"frames\": %zu, %s, \"device_writes\": %llu, "
        "\"alloc_p50_us\": %.1f, \"alloc_p99_us\": %.1f, "
        "\"total_ms\": %.1f}%s\n",
        c.device.c_str(), c.max_concurrent_io,
        static_cast<unsigned long long>(c.pages), c.frames,
        PoolCountersJson(c.stats).c_str(),
        static_cast<unsigned long long>(c.device_writes), c.alloc_p50_us,
        c.alloc_p99_us, c.total_ms, i + 1 < alloc_cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"checks\": {\n"
               "    \"coalesced_nonzero\": %s,\n"
               "    \"writebehind_foreground_near_zero\": %s,\n"
               "    \"writebehind_p99_beats_sync\": %s,\n"
               "    \"accounting_exact\": %s,\n"
               "    \"flush_overlaps_writes\": %s,\n"
               "    \"fetch_during_flush_unstalled\": %s,\n"
               "    \"dirty_miss_overlaps\": %s,\n"
               "    \"hit_during_miss_unstalled\": %s,\n"
               "    \"allocation_writes_overlap\": %s\n  }\n}\n",
               coalesce_ok ? "true" : "false",
               wb_foreground_ok ? "true" : "false",
               wb_p99_ok ? "true" : "false",
               accounting_ok ? "true" : "false", flush_ok ? "true" : "false",
               flush_unlatched_ok ? "true" : "false",
               dirty_miss_ok ? "true" : "false",
               hit_unstalled_ok ? "true" : "false",
               alloc_overlap_ok ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace lruk

int main(int argc, char** argv) {
  using namespace lruk;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

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

  const uint64_t ops_per_thread = quick ? 400 : 2500;
  const uint64_t wb_ops_per_thread = quick ? 600 : 3000;
  const uint64_t dirty_ops = quick ? 800 : 4000;
  const uint64_t hit_fetches = quick ? 2000 : 4000;
  const uint64_t alloc_pages = quick ? 512 : 2048;
  provenance.threads = 8;  // Maximum client threads across the sections.

  std::printf("Async I/O: 8-thread coalescing churn over a sleeping disk\n\n");
  bool accounting_ok = true;
  std::vector<CoalesceCell> coalesce_cells;
  AsciiTable co_table({"pool", "misses", "coalesced", "ratio",
                       "physical reads", "wall (s)"});
  bool coalesce_ok = true;
  bool bounded_ok = true;
  for (const char* pool_kind : {"single-latch", "sharded x4"}) {
    CoalesceCell c = RunCoalesceCell(pool_kind, ops_per_thread);
    co_table.AddRow({c.pool, AsciiTable::Integer(c.stats.misses),
                     AsciiTable::Integer(c.stats.coalesced_reads),
                     AsciiTable::Fixed(c.coalescing_ratio, 3),
                     AsciiTable::Integer(c.physical_reads),
                     AsciiTable::Fixed(c.wall_seconds, 3)});
    accounting_ok = accounting_ok && c.accounting_exact;
    bounded_ok = bounded_ok && c.reads_bounded;
    if (c.stats.coalesced_reads == 0) coalesce_ok = false;
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
    const BufferPoolStats& s = c.stats;
    wb_table.AddRow({c.mode, AsciiTable::Integer(s.misses),
                     AsciiTable::Integer(s.dirty_writebacks),
                     AsciiTable::Integer(s.writebehind_writes),
                     AsciiTable::Integer(s.writebehind_readmits),
                     AsciiTable::Integer(s.io_drops_flush),
                     AsciiTable::Fixed(c.fetch_p50_micros, 1),
                     AsciiTable::Fixed(c.fetch_p99_micros, 1)});
    accounting_ok = accounting_ok && c.accounting_exact;
    if (c.mode == "sync") sync_p99 = c.fetch_p99_micros;
    if (c.mode == "write-behind") wb_single_p99 = c.fetch_p99_micros;
    if (c.mode != "sync") {
      // Foreground (miss-path) victim writes must be <= 5% of all victim
      // writes: the write-behind writers carry the rest.
      uint64_t total_victim_writes =
          s.dirty_writebacks + s.writebehind_writes;
      if (s.writebehind_writes == 0 ||
          s.dirty_writebacks * 20 > total_victim_writes) {
        wb_foreground_ok = false;
        std::printf("write-behind still writing in the foreground: %s "
                    "fg=%llu wb=%llu\n",
                    c.mode.c_str(),
                    static_cast<unsigned long long>(s.dirty_writebacks),
                    static_cast<unsigned long long>(s.writebehind_writes));
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

  std::printf("\ndirty misses: one thread, default pool, 200 us reads and "
              "writes, 256 pages / 64 frames, every fetch dirtying\n");
  const std::vector<DirtyMissCell> dirty_cells = {
      RunDirtyMissCell(DiskManager::kMaxIoInFlight, dirty_ops),
      RunDirtyMissCell(1, dirty_ops)};
  AsciiTable dirty_table({"device", "max in flight", "misses",
                          "dirty write-backs", "miss p50 (us)",
                          "miss p99 (us)"});
  for (const DirtyMissCell& c : dirty_cells) {
    dirty_table.AddRow({c.device, std::to_string(c.max_concurrent_io),
                        AsciiTable::Integer(c.stats.misses),
                        AsciiTable::Integer(c.stats.dirty_writebacks),
                        AsciiTable::Fixed(c.miss_p50_us, 1),
                        AsciiTable::Fixed(c.miss_p99_us, 1)});
    accounting_ok = accounting_ok && c.accounting_exact;
  }
  dirty_table.Print();
  const DirtyMissCell& concurrent = dirty_cells[0];
  const DirtyMissCell& serial = dirty_cells[1];
  const bool dirty_counts_equal = concurrent.stats == serial.stats;
  if (!dirty_counts_equal) {
    std::printf("dirty-miss runs differ in their counters:\n  concurrent: "
                "%s\n  serial:     %s\n",
                FormatCounters(concurrent.stats).c_str(),
                FormatCounters(serial.stats).c_str());
  }
  const bool dirty_miss_ok =
      dirty_counts_equal && concurrent.stats.dirty_writebacks > 0 &&
      concurrent.miss_p50_us <= 0.7 * serial.miss_p50_us;

  const HitDuringMissCell hit_cell = RunHitDuringMissCell(hit_fetches);
  std::printf("\nhits during clean misses: 64 resident pages fetched ~20 us "
              "apart while another thread misses on %llu us reads\n",
              static_cast<unsigned long long>(hit_cell.read_micros));
  AsciiTable hit_table({"pool", "fetches", "hits", "misses meanwhile",
                        "hit p50 (us)", "hit p99 (us)", "hit max (us)"});
  hit_table.AddRow({"single-latch", AsciiTable::Integer(hit_cell.fetches),
                    AsciiTable::Integer(hit_cell.hits),
                    AsciiTable::Integer(hit_cell.misses),
                    AsciiTable::Fixed(hit_cell.hit_p50_us, 2),
                    AsciiTable::Fixed(hit_cell.hit_p99_us, 2),
                    AsciiTable::Fixed(hit_cell.hit_max_us, 1)});
  hit_table.Print();
  const bool hit_unstalled_ok =
      hit_cell.fetches > 0 && hit_cell.hits == hit_cell.fetches &&
      hit_cell.misses > 0 &&
      hit_cell.hit_p99_us * 10.0 < static_cast<double>(hit_cell.read_micros);

  std::printf("\nallocation write-backs: one thread, default pool, 200 us "
              "writes, %llu pages NewPage'd through %llu frames, each "
              "unpinned dirty\n",
              static_cast<unsigned long long>(alloc_pages),
              static_cast<unsigned long long>(alloc_pages / 4));
  const std::vector<AllocationCell> alloc_cells = {
      RunAllocationCell(DiskManager::kMaxIoInFlight, alloc_pages),
      RunAllocationCell(1, alloc_pages)};
  AsciiTable alloc_table({"device", "max in flight", "evictions",
                          "dirty write-backs", "device writes",
                          "alloc p50 (us)", "alloc p99 (us)", "total (ms)"});
  for (const AllocationCell& c : alloc_cells) {
    alloc_table.AddRow({c.device, std::to_string(c.max_concurrent_io),
                        AsciiTable::Integer(c.stats.evictions),
                        AsciiTable::Integer(c.stats.dirty_writebacks),
                        AsciiTable::Integer(c.device_writes),
                        AsciiTable::Fixed(c.alloc_p50_us, 1),
                        AsciiTable::Fixed(c.alloc_p99_us, 1),
                        AsciiTable::Fixed(c.total_ms, 1)});
  }
  alloc_table.Print();
  const AllocationCell& alloc_concurrent = alloc_cells[0];
  const AllocationCell& alloc_serial = alloc_cells[1];
  const bool alloc_counts_equal =
      alloc_concurrent.stats.evictions == alloc_serial.stats.evictions &&
      alloc_concurrent.stats.dirty_writebacks ==
          alloc_serial.stats.dirty_writebacks &&
      alloc_concurrent.device_writes == alloc_serial.device_writes;
  if (!alloc_counts_equal) {
    std::printf("allocation runs differ in their counts:\n  concurrent: %s "
                "device_writes=%llu\n  serial:     %s device_writes=%llu\n",
                FormatCounters(alloc_concurrent.stats).c_str(),
                static_cast<unsigned long long>(alloc_concurrent.device_writes),
                FormatCounters(alloc_serial.stats).c_str(),
                static_cast<unsigned long long>(alloc_serial.device_writes));
  }
  const bool alloc_overlap_ok =
      alloc_counts_equal && alloc_concurrent.stats.dirty_writebacks > 0 &&
      alloc_concurrent.total_ms <= 0.25 * alloc_serial.total_ms;

  std::printf("\nshape: concurrent same-page misses coalesce "
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
  std::printf("shape: a dirty miss on a concurrent device waits <= 0.7x the "
              "serial one (miss p50 %.0f vs %.0f us, same counters): %s\n",
              concurrent.miss_p50_us, serial.miss_p50_us,
              dirty_miss_ok ? "yes" : "NO");
  std::printf("shape: a hit during a clean miss waits for no device read "
              "(p99 < 1/10 of the read time): %s\n",
              hit_unstalled_ok ? "yes" : "NO");

  std::printf("shape: allocations on a concurrent device take <= 0.25x "
              "the serial time (%.0f vs %.0f ms, same counts), "
              "allocation_writes_overlap: %s\n",
              alloc_concurrent.total_ms, alloc_serial.total_ms,
              alloc_overlap_ok ? "yes" : "NO");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, coalesce_cells, wb_cells, flush_cell,
              dirty_cells, hit_cell, alloc_cells, coalesce_ok && bounded_ok,
              wb_foreground_ok, wb_p99_ok, accounting_ok, flush_ok,
              flush_unlatched_ok, dirty_miss_ok, hit_unstalled_ok,
              alloc_overlap_ok);
    std::printf("wrote %s\n", json_path);
  }
  return coalesce_ok && bounded_ok && wb_foreground_ok && wb_p99_ok &&
                 accounting_ok && flush_ok && flush_unlatched_ok &&
                 dirty_miss_ok && hit_unstalled_ok && alloc_overlap_ok
             ? 0
             : 1;
}

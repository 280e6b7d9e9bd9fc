// Allocation write-back batches (DESIGN.md §8 "Allocation batches", and
// §7 for their failure cases): an inline pool's NewPage whose first victim is
// dirty evicts the policy's next victims while they are dirty, up to the
// device's MaxConcurrentIo(), and writes them back as one
// DiskManager::RunBatch batch; one freed frame serves the allocation and
// the others go on the free list.
//
// Coverage:
//  * Batches — a heap + B+tree load through NewPage on a device that
//    declares the default MaxConcurrentIo writes back in batches of up to
//    MaxConcurrentIo() (full ones, in a bulk load), writes every page
//    once, and leaves the device images byte for byte as a serial
//    device's.
//  * Serial order — on a device that declares 1, every allocation at a
//    full pool writes exactly its one victim, in the policy's order.
//  * Shards — a sharded pool's shards batch their own victims (through
//    AdmitNewPage), with the serial device's images.
//  * Rollback — a failed write inside a batch restores exactly that
//    victim (resident, dirty, unpinned, its LRU-2 history untouched); the
//    other victims stay evicted and the allocation takes a freed frame. If
//    every write fails, the allocation fails with the write's error and
//    the pool and policy are as before.
//  * Pins — a batch skips pinned pages: it never writes or evicts one.
//  * Policy order — with no page pinned a batch hands no nominee back, so
//    under LRU, FIFO, CLOCK, 2Q and ARC (whose Restore re-admits) the
//    concurrent device's victims and the policy's remaining order are the
//    serial device's.
//  * Threads — while a batch's writes are held in the device, fetches of
//    its victims wait, and then read the written image, never the one on
//    disk before the write. When every RunBatch runner is held by a
//    concurrent FlushAll, the batch runs in order on the allocating
//    thread and completes.
//  * The page table — erasing several locked buckets moves no bucket that
//    is still locked.
//
// The suite name carries "Concurren", so the sanitizer CI matrix runs it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_table.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/arc.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "heap/heap_file.h"
#include "storage/sim_disk_manager.h"

namespace lruk {
namespace {

// A device over SimDiskManager that logs every operation and its thread,
// counts the writes of each page, fails the writes of pages it is told
// to, and holds writes of gated pages until they are opened (a held write
// that waits 10 s is counted and let through, so a test fails instead of
// hanging). It declares `max_concurrent_io`.
class BatchDevice final : public DiskManager {
 public:
  struct Op {
    PageIo::Kind kind;
    PageId page;
    std::thread::id thread;
  };

  BatchDevice(DiskManager* inner, size_t max_concurrent_io)
      : inner_(inner), max_concurrent_io_(max_concurrent_io) {}

  void FailWrites(PageId p) {
    std::lock_guard<std::mutex> guard(mutex_);
    failing_.insert(p);
  }
  void Heal() {
    std::lock_guard<std::mutex> guard(mutex_);
    failing_.clear();
  }
  void Close(PageId p) {
    std::lock_guard<std::mutex> guard(mutex_);
    gated_.insert(p);
  }
  void OpenAll() {
    std::lock_guard<std::mutex> guard(mutex_);
    gated_.clear();
    cv_.notify_all();
  }
  // Waits up to 10 s until `n` writes wait at the gate.
  bool AwaitHeld(size_t n) {
    std::unique_lock<std::mutex> guard(mutex_);
    return cv_.wait_for(guard, std::chrono::seconds(10),
                        [&] { return held_ >= n; });
  }
  std::vector<Op> TakeOps() {
    std::lock_guard<std::mutex> guard(mutex_);
    return std::exchange(ops_, {});
  }
  uint64_t writes() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return writes_;
  }
  uint64_t WritesOf(PageId p) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = writes_of_.find(p);
    return it == writes_of_.end() ? 0 : it->second;
  }
  uint64_t timeouts() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return timeouts_;
  }

  size_t MaxConcurrentIo() const override { return max_concurrent_io_; }
  Status ReadPage(PageId p, char* out) override {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ops_.push_back({PageIo::Kind::kRead, p, std::this_thread::get_id()});
    }
    return inner_->ReadPage(p, out);
  }
  Status WritePage(PageId p, const char* data) override {
    {
      std::unique_lock<std::mutex> guard(mutex_);
      ops_.push_back({PageIo::Kind::kWrite, p, std::this_thread::get_id()});
      if (gated_.contains(p)) {
        ++held_;
        cv_.notify_all();
        if (!cv_.wait_for(guard, std::chrono::seconds(10),
                          [&] { return !gated_.contains(p); })) {
          ++timeouts_;
        }
        --held_;
      }
      if (failing_.contains(p)) return Status::IoError("injected write");
    }
    Status status = inner_->WritePage(p, data);
    std::lock_guard<std::mutex> guard(mutex_);
    ++writes_;
    ++writes_of_[p];
    return status;
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status DeallocatePage(PageId p) override {
    return inner_->DeallocatePage(p);
  }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }

 private:
  DiskManager* inner_;
  size_t max_concurrent_io_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_set<PageId> failing_;
  std::unordered_set<PageId> gated_;
  size_t held_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t writes_ = 0;
  std::unordered_map<PageId, uint64_t> writes_of_;
  std::vector<Op> ops_;
};

// A pool wrapper that records how many device writes each NewPage made:
// single-threaded, that is the size of the allocation's one RunBatch
// batch (0 when it took a free frame or a clean victim).
class BatchRecorder final : public PoolInterface {
 public:
  BatchRecorder(BufferPool* pool, BatchDevice* disk)
      : pool_(pool), disk_(disk) {}

  const std::vector<uint64_t>& batches() const { return batches_; }

  Result<Page*> FetchPage(PageId p, AccessType type) override {
    return pool_->FetchPage(p, type);
  }
  Result<Page*> NewPage() override {
    const uint64_t before = disk_->writes();
    auto page = pool_->NewPage();
    batches_.push_back(disk_->writes() - before);
    return page;
  }
  Status UnpinPage(PageId p, bool dirty) override {
    return pool_->UnpinPage(p, dirty);
  }
  Status FlushPage(PageId p) override { return pool_->FlushPage(p); }
  Status FlushAll() override { return pool_->FlushAll(); }
  Status DeletePage(PageId p) override { return pool_->DeletePage(p); }
  size_t capacity() const override { return pool_->capacity(); }
  size_t ResidentCount() const override { return pool_->ResidentCount(); }
  bool IsResident(PageId p) const override { return pool_->IsResident(p); }
  BufferPoolStats stats() const override { return pool_->stats(); }
  void ResetStats() override { pool_->ResetStats(); }

 private:
  BufferPool* pool_;
  BatchDevice* disk_;
  std::vector<uint64_t> batches_;
};

std::unique_ptr<LruKPolicy> Lru2() {
  return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
}

// The byte NewFilledPages fills page `p` with: never 0, the byte of a
// freshly allocated page on the device.
char Fill(PageId p) { return static_cast<char>('A' + p % 26); }

std::vector<char> Filled(PageId p) {
  return std::vector<char>(kPageSize, Fill(p));
}

// NewPage `n` pages, each filled with Fill(id) and unpinned dirty, except
// those whose index is in `keep_pinned`. Returns the pages.
std::vector<Page*> NewFilledPages(PoolInterface& pool, size_t n,
                                  const std::vector<size_t>& keep_pinned = {}) {
  std::vector<Page*> pages;
  for (size_t i = 0; i < n; ++i) {
    auto page = pool.NewPage();
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) return pages;
    std::memset((*page)->Data(), Fill((*page)->id()), kPageSize);
    if (std::count(keep_pinned.begin(), keep_pinned.end(), i) == 0) {
      EXPECT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
    }
    pages.push_back(*page);
  }
  return pages;
}

std::vector<char> DiskImage(DiskManager& disk, PageId p) {
  std::vector<char> image(kPageSize);
  EXPECT_TRUE(disk.ReadPage(p, image.data()).ok()) << "page " << p;
  return image;
}

std::vector<PageId> WritesIn(const std::vector<BatchDevice::Op>& ops) {
  std::vector<PageId> pages;
  for (const BatchDevice::Op& op : ops) {
    if (op.kind == PageIo::Kind::kWrite) pages.push_back(op.page);
  }
  return pages;
}

// ---------------------------------------------------------------------------
// Batches on a concurrent device, one victim on a serial one.

// The records of a heap file, then the keys of a B+tree over them (as
// bench/e2e's set-ups load their tables), loaded through a 64-frame pool,
// then flushed.
struct LoadRun {
  std::vector<uint64_t> batches;
  BufferPoolStats stats;
  uint64_t pages = 0;
  std::vector<uint64_t> writes_of;  // Per page id, load and flush.
  std::vector<std::vector<char>> images;
};

LoadRun Load(size_t max_concurrent_io) {
  constexpr size_t kFrames = 64;
  constexpr uint64_t kRecords = 6000;
  LoadRun run;
  SimDiskManager inner;
  BatchDevice disk(&inner, max_concurrent_io);
  {
    BufferPool pool(kFrames, &disk, Lru2());
    BatchRecorder recorder(&pool, &disk);
    HeapFile heap(&recorder);
    BTree index(&recorder);
    std::string record(200, ' ');
    std::vector<uint64_t> rids;
    for (uint64_t k = 0; k < kRecords; ++k) {
      std::memcpy(record.data(), &k, sizeof(k));
      record[100] = static_cast<char>(k * 7);
      auto rid = heap.Insert(record);
      EXPECT_TRUE(rid.ok()) << rid.status().ToString();
      if (!rid.ok()) return run;
      rids.push_back(rid->Pack());
    }
    for (uint64_t k = 0; k < kRecords; ++k) {
      EXPECT_TRUE(index.Insert(k, rids[k]).ok());
    }
    run.stats = pool.stats();
    EXPECT_TRUE(index.CheckInvariants().ok());
    EXPECT_TRUE(pool.FlushAll().ok());
    run.batches = recorder.batches();
  }
  run.pages = inner.NumAllocatedPages();
  for (PageId p = 0; p < run.pages; ++p) {
    run.writes_of.push_back(disk.WritesOf(p));
    run.images.push_back(DiskImage(inner, p));
  }
  EXPECT_EQ(disk.timeouts(), 0u);
  return run;
}

TEST(AllocationBatchConcurrencyTest, LoadWritesBackInBatchesOfTheDeviceWidth) {
  const LoadRun concurrent = Load(DiskManager::kMaxIoInFlight);
  const LoadRun serial = Load(1);

  ASSERT_GT(concurrent.pages, 256u) << "the load never filled the pool";
  uint64_t written = 0;
  uint64_t full = 0;
  for (uint64_t size : concurrent.batches) {
    EXPECT_LE(size, DiskManager::kMaxIoInFlight);
    written += size;
    if (size == DiskManager::kMaxIoInFlight) ++full;
  }
  EXPECT_EQ(written, concurrent.stats.dirty_writebacks);
  EXPECT_EQ(concurrent.stats.evictions, concurrent.stats.dirty_writebacks);
  // A bulk load's victims are all dirty, so nearly every batch is full.
  EXPECT_GE(full * DiskManager::kMaxIoInFlight * 10, written * 9);
  for (uint64_t size : serial.batches) EXPECT_LE(size, 1u);

  // Every page reaches the device exactly once, and the images are the
  // serial device's.
  ASSERT_EQ(concurrent.pages, serial.pages);
  for (PageId p = 0; p < concurrent.pages; ++p) {
    EXPECT_EQ(concurrent.writes_of[p], 1u) << "page " << p;
    EXPECT_EQ(serial.writes_of[p], 1u) << "page " << p;
  }
  EXPECT_TRUE(concurrent.images == serial.images);
  EXPECT_EQ(concurrent.stats.misses, 0u);
  EXPECT_EQ(serial.stats.misses, 0u);
}

// A serial device sees one write per allocation: once the pool is full,
// each allocation writes back its one victim, the least recently
// allocated page.
TEST(AllocationBatchConcurrencyTest, SerialDeviceWritesOneVictimPerAllocation) {
  constexpr size_t kFrames = 8;
  SimDiskManager inner;
  BatchDevice disk(&inner, /*max_concurrent_io=*/1);
  BufferPool pool(kFrames, &disk, Lru2());
  BatchRecorder recorder(&pool, &disk);
  std::vector<Page*> pages = NewFilledPages(recorder, 3 * kFrames);
  ASSERT_EQ(pages.size(), 3 * kFrames);

  std::vector<uint64_t> expected_batches(kFrames, 0);
  expected_batches.resize(3 * kFrames, 1);
  EXPECT_EQ(recorder.batches(), expected_batches);
  std::vector<PageId> expected_writes;
  for (PageId p = 0; p < 2 * kFrames; ++p) expected_writes.push_back(p);
  const std::vector<BatchDevice::Op> ops = disk.TakeOps();
  EXPECT_EQ(WritesIn(ops), expected_writes);
  EXPECT_EQ(ops.size(), expected_writes.size()) << "a read was issued";
  EXPECT_EQ(pool.FreeFrameCount(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 2 * kFrames);
  EXPECT_EQ(stats.dirty_writebacks, 2 * kFrames);
}

// The same allocations on a concurrent device: one batch per pool-full of
// allocations, in the same victim order, and the same pages on disk.
TEST(AllocationBatchConcurrencyTest, ConcurrentDeviceWritesAPoolFullAtOnce) {
  constexpr size_t kFrames = 8;
  SimDiskManager inner;
  BatchDevice disk(&inner, DiskManager::kMaxIoInFlight);
  BufferPool pool(kFrames, &disk, Lru2());
  BatchRecorder recorder(&pool, &disk);
  std::vector<Page*> pages = NewFilledPages(recorder, 3 * kFrames);
  ASSERT_EQ(pages.size(), 3 * kFrames);

  std::vector<uint64_t> expected_batches(3 * kFrames, 0);
  expected_batches[kFrames] = kFrames;
  expected_batches[2 * kFrames] = kFrames;
  EXPECT_EQ(recorder.batches(), expected_batches);
  std::vector<PageId> written = WritesIn(disk.TakeOps());
  std::sort(written.begin(), written.end());
  std::vector<PageId> expected_writes;
  for (PageId p = 0; p < 2 * kFrames; ++p) expected_writes.push_back(p);
  EXPECT_EQ(written, expected_writes);
  EXPECT_EQ(pool.FreeFrameCount(), 0u);
  for (PageId p = 0; p < 2 * kFrames; ++p) {
    EXPECT_FALSE(pool.IsResident(p)) << "page " << p;
    EXPECT_EQ(DiskImage(inner, p), Filled(p));
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 2 * kFrames);
  EXPECT_EQ(stats.dirty_writebacks, 2 * kFrames);
}

// A sharded pool allocates the id at the pool level and admits the page
// into its shard (AdmitNewPage), so each shard batches its own victims.
// The same allocations on both devices leave the same pages on disk.
TEST(AllocationBatchConcurrencyTest, ShardedPoolBatchesPerShard) {
  constexpr size_t kFrames = 64;
  constexpr size_t kShards = 4;
  constexpr size_t kPages = 512;
  struct Run {
    std::vector<uint64_t> batches;
    BufferPoolStats stats;
    std::vector<std::vector<char>> images;
  };
  auto run = [&](size_t max_concurrent_io) {
    Run r;
    SimDiskManager inner;
    BatchDevice disk(&inner, max_concurrent_io);
    {
      ShardedBufferPool pool(kFrames, kShards, &disk, [](size_t, size_t) {
        return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
      });
      for (size_t i = 0; i < kPages; ++i) {
        const uint64_t before = disk.writes();
        std::vector<Page*> page = NewFilledPages(pool, 1);
        EXPECT_EQ(page.size(), 1u);
        r.batches.push_back(disk.writes() - before);
      }
      r.stats = pool.stats();
      EXPECT_TRUE(pool.FlushAll().ok());
    }
    for (PageId p = 0; p < kPages; ++p) r.images.push_back(DiskImage(inner, p));
    return r;
  };
  const Run concurrent = run(DiskManager::kMaxIoInFlight);
  const Run serial = run(1);

  EXPECT_EQ(*std::max_element(serial.batches.begin(), serial.batches.end()),
            1u);
  const uint64_t widest =
      *std::max_element(concurrent.batches.begin(), concurrent.batches.end());
  EXPECT_GT(widest, 1u) << "no shard batched its victims";
  EXPECT_LE(widest, kFrames / kShards);  // One shard's frames at most.
  EXPECT_EQ(concurrent.stats.evictions, concurrent.stats.dirty_writebacks);
  EXPECT_EQ(serial.stats.evictions, kPages - kFrames);
  EXPECT_TRUE(concurrent.images == serial.images);
  for (PageId p = 0; p < kPages; ++p) {
    EXPECT_EQ(concurrent.images[p], Filled(p)) << "page " << p;
  }
}

// ---------------------------------------------------------------------------
// Rollback and pins.

// What a failed write-back must leave as it was: the page's LRU-2 block
// and the policy's counts.
struct VictimState {
  std::vector<Timestamp> hist;
  Timestamp last = 0;
  bool resident = false;
  bool evictable = false;

  static VictimState Of(const LruKPolicy& policy, PageId p) {
    VictimState s;
    const HistoryBlock* block = policy.DebugBlock(p);
    if (block == nullptr) return s;
    for (size_t i = 0; i < block->hist.size(); ++i) {
      s.hist.push_back(block->hist[i]);
    }
    s.last = block->last;
    s.resident = block->resident;
    s.evictable = block->evictable;
    return s;
  }
  bool operator==(const VictimState&) const = default;
};

// Eight dirty pages in eight frames, each referenced twice (allocated,
// then fetched), so LRU-2's victim order is the allocation order and each
// page has a finite backward 2-distance.
struct FullPool {
  SimDiskManager inner;
  BatchDevice disk{&inner, DiskManager::kMaxIoInFlight};
  LruKPolicy* lruk = nullptr;
  std::unique_ptr<BufferPool> pool;
  std::vector<Page*> pages;

  static constexpr size_t kFrames = 8;

  FullPool() {
    auto policy = Lru2();
    lruk = policy.get();
    pool = std::make_unique<BufferPool>(kFrames, &disk, std::move(policy));
    pages = NewFilledPages(*pool, kFrames);
    for (size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(pages[i]->id(), static_cast<PageId>(i));
    }
    // A fix of another page between the two references, so the second is
    // not a correlated re-fix of the first.
    for (Page* page : pages) {
      EXPECT_TRUE(pool->FetchPage(page->id()).ok());
      EXPECT_TRUE(pool->UnpinPage(page->id(), false).ok());
    }
    (void)pool->stats();  // Drains the published hits into the policy.
    (void)disk.TakeOps();
  }
};

TEST(AllocationBatchConcurrencyTest, FailedWriteRestoresExactlyThatVictim) {
  FullPool t;
  const PageId failing = 3;
  const VictimState before = VictimState::Of(*t.lruk, failing);
  const std::optional<Timestamp> distance_before =
      t.lruk->BackwardKDistance(failing);
  const Timestamp time_before = t.lruk->CurrentTime();
  ASSERT_TRUE(distance_before.has_value());
  const BufferPoolStats stats_before = t.pool->stats();

  t.disk.FailWrites(failing);
  auto page = t.pool->NewPage();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  const PageId fresh = (*page)->id();
  ASSERT_TRUE(t.pool->UnpinPage(fresh, true).ok());

  // The failed victim: resident in its own frame, dirty, unpinned, with
  // its image, and its history as it was (the allocation's admission
  // ticked the clock once).
  EXPECT_TRUE(t.pool->IsResident(failing));
  Page* victim = t.pages[failing];
  EXPECT_EQ(victim->id(), failing);
  EXPECT_TRUE(victim->is_dirty());
  EXPECT_EQ(victim->pin_count(), 0);
  EXPECT_EQ(std::vector<char>(victim->Data(), victim->Data() + kPageSize),
            Filled(failing));
  EXPECT_TRUE(t.lruk->IsResident(failing));
  EXPECT_TRUE(VictimState::Of(*t.lruk, failing) == before);
  const Timestamp ticks = t.lruk->CurrentTime() - time_before;
  EXPECT_EQ(ticks, 1u);
  const std::optional<Timestamp> distance = t.lruk->BackwardKDistance(failing);
  ASSERT_TRUE(distance.has_value());
  EXPECT_EQ(*distance, *distance_before + ticks);
  EXPECT_EQ(t.disk.WritesOf(failing), 0u);

  // The other seven victims were written once and stay evicted; the
  // allocation took one of their frames and six are free.
  for (PageId p = 0; p < FullPool::kFrames; ++p) {
    if (p == failing) continue;
    EXPECT_FALSE(t.pool->IsResident(p)) << "page " << p;
    EXPECT_FALSE(t.lruk->IsResident(p)) << "page " << p;
    EXPECT_EQ(t.disk.WritesOf(p), 1u) << "page " << p;
    EXPECT_EQ(DiskImage(t.inner, p), Filled(p));
  }
  EXPECT_TRUE(t.pool->IsResident(fresh));
  EXPECT_EQ(t.pool->FreeFrameCount(), FullPool::kFrames - 2);
  EXPECT_EQ(t.pool->ResidentCount(), 2u);
  const BufferPoolStats stats = t.pool->stats();
  EXPECT_EQ(stats.evictions - stats_before.evictions, FullPool::kFrames - 1);
  EXPECT_EQ(stats.dirty_writebacks - stats_before.dirty_writebacks,
            FullPool::kFrames - 1);
  EXPECT_EQ(stats.write_failures, 1u);

  // After healing, the victim is written back by a later flush.
  t.disk.Heal();
  ASSERT_TRUE(t.pool->FlushAll().ok());
  EXPECT_EQ(DiskImage(t.inner, failing), Filled(failing));
}

TEST(AllocationBatchConcurrencyTest, EveryWriteFailingLeavesThePoolAsBefore) {
  FullPool t;
  std::vector<VictimState> before;
  for (Page* page : t.pages) {
    before.push_back(VictimState::Of(*t.lruk, page->id()));
    t.disk.FailWrites(page->id());
  }
  const Timestamp time_before = t.lruk->CurrentTime();
  const size_t history_before = t.lruk->HistorySize();
  const BufferPoolStats stats_before = t.pool->stats();

  auto page = t.pool->NewPage();
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIoError);

  EXPECT_EQ(WritesIn(t.disk.TakeOps()).size(), FullPool::kFrames)
      << "the batch did not try every victim";
  for (size_t i = 0; i < t.pages.size(); ++i) {
    Page* p = t.pages[i];
    EXPECT_TRUE(t.pool->IsResident(p->id()));
    EXPECT_TRUE(p->is_dirty());
    EXPECT_EQ(p->pin_count(), 0);
    EXPECT_TRUE(VictimState::Of(*t.lruk, p->id()) == before[i])
        << "page " << p->id();
  }
  EXPECT_EQ(t.lruk->CurrentTime(), time_before);
  EXPECT_EQ(t.lruk->HistorySize(), history_before);
  EXPECT_EQ(t.lruk->ResidentCount(), FullPool::kFrames);
  EXPECT_EQ(t.pool->ResidentCount(), FullPool::kFrames);
  EXPECT_EQ(t.pool->FreeFrameCount(), 0u);
  const BufferPoolStats stats = t.pool->stats();
  EXPECT_EQ(stats.evictions, stats_before.evictions);
  EXPECT_EQ(stats.dirty_writebacks, stats_before.dirty_writebacks);
  EXPECT_EQ(stats.write_failures, FullPool::kFrames);

  // Healed, the same allocation goes through, writing the same batch.
  t.disk.Heal();
  auto retry = t.pool->NewPage();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(WritesIn(t.disk.TakeOps()).size(), FullPool::kFrames);
}

// Pages 0, 2 and 5 of eight stay pinned from their allocation, so the
// policy's victim order (allocation order) interleaves them with the
// dirty pages the batch takes.
TEST(AllocationBatchConcurrencyTest, BatchSkipsPinnedPages) {
  constexpr size_t kFrames = 8;
  const std::vector<size_t> pinned = {0, 2, 5};
  SimDiskManager inner;
  BatchDevice disk(&inner, DiskManager::kMaxIoInFlight);
  auto policy = Lru2();
  LruKPolicy* lruk = policy.get();
  BufferPool pool(kFrames, &disk, std::move(policy));
  std::vector<Page*> pages = NewFilledPages(pool, kFrames, pinned);
  ASSERT_EQ(pages.size(), kFrames);

  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_TRUE(pool.UnpinPage((*page)->id(), true).ok());

  std::vector<PageId> written = WritesIn(disk.TakeOps());
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, (std::vector<PageId>{1, 3, 4, 6, 7}));
  for (size_t i : pinned) {
    const PageId p = pages[i]->id();
    EXPECT_TRUE(pool.IsResident(p)) << "page " << p;
    EXPECT_TRUE(lruk->IsResident(p)) << "page " << p;
    EXPECT_EQ(pages[i]->id(), p);
    EXPECT_EQ(pages[i]->pin_count(), 1);
    EXPECT_TRUE(pages[i]->is_dirty());
    ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  }
  for (PageId p : written) EXPECT_FALSE(pool.IsResident(p));
  EXPECT_EQ(pool.stats().evictions, kFrames - pinned.size());
  EXPECT_EQ(pool.FreeFrameCount(), kFrames - pinned.size() - 1);
}

// ---------------------------------------------------------------------------
// Policy order.

// Page `i` of OrderRun's allocations is flushed clean, so its eviction
// ends a batch: after dirty runs of 3, 5, 12 and 19 pages (the last cut
// at the device width).
bool FlushedClean(size_t i) {
  const size_t r = i % 40;
  return r == 3 || r == 9 || r == 10 || r == 23;
}

struct OrderRun {
  std::vector<PageId> evictions;  // The victims, in eviction order.
  size_t restores = 0;
  uint64_t writes = 0;
  size_t free_frames = 0;  // After the first `pages` allocations.
  std::vector<PageId> remaining;  // The order the policy evicts the rest.
  // ARC's ghost lists and target, as (B1, B2) membership per page id.
  std::vector<std::pair<bool, bool>> ghosts;
  double arc_target = 0;
};

// `pages` allocations through a 32-frame pool under `config`, each page
// unpinned dirty and flushed clean where FlushedClean says, then as many
// more as they left frames free.
OrderRun RunOrder(const PolicyConfig& config, size_t max_concurrent_io,
                  size_t pages) {
  constexpr size_t kFrames = 32;
  OrderRun run;
  SimDiskManager inner;
  BatchDevice disk(&inner, max_concurrent_io);
  PolicyContext context;
  context.capacity = kFrames;
  auto made = MakePolicy(config, context);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return run;
  auto recording =
      std::make_unique<difftest::RecordingPolicy>(std::move(*made));
  difftest::RecordingPolicy* policy = recording.get();
  BufferPool pool(kFrames, &disk, std::move(recording));
  size_t allocated = 0;
  auto allocate = [&](size_t n) {
    for (; n > 0; --n, ++allocated) {
      std::vector<Page*> page = NewFilledPages(pool, 1);
      if (page.size() != 1) return;
      EXPECT_EQ(page[0]->id(), static_cast<PageId>(allocated));
      if (FlushedClean(allocated)) {
        EXPECT_TRUE(pool.FlushPage(page[0]->id()).ok());
      }
    }
  };
  allocate(pages);
  run.free_frames = pool.FreeFrameCount();
  allocate(run.free_frames);
  EXPECT_EQ(pool.FreeFrameCount(), 0u);
  run.evictions = policy->evictions();
  run.restores = policy->restores();
  run.writes = pool.stats().dirty_writebacks;
  EXPECT_EQ(pool.stats().evictions, run.evictions.size());
  if (const auto* arc = dynamic_cast<const ArcPolicy*>(&policy->inner())) {
    for (PageId p = 0; p < allocated; ++p) {
      run.ghosts.emplace_back(arc->InGhostB1(p), arc->InGhostB2(p));
    }
    run.arc_target = arc->target_p();
  }
  // The pool is done with the policy (its destructor only flushes).
  while (std::optional<PageId> v = policy->inner().Evict()) {
    run.remaining.push_back(*v);
  }
  return run;
}

// A policy on the default Restore (every one but LRU-K) re-admits a page
// it is handed back, which moves it as an admission would, so a batch must
// hand back no nominee it has not examined. With no page pinned it hands
// back none: it nominates one page at a time after its first victim, and a
// clean nominee ends it. Under each policy, once the concurrent device's
// pool has taken the frames its batches freed early (and the serial one
// has allocated as many pages), the two pools have evicted the same
// victims in the same order, and their policies hold the same pages in
// the same eviction order, with the same ARC ghosts and target.
TEST(AllocationBatchConcurrencyTest, BatchKeepsThePolicysSerialOrder) {
  constexpr size_t kPages = 200;
  for (const auto& [name, config] :
       std::vector<std::pair<std::string, PolicyConfig>>{
           {"LRU", PolicyConfig::Lru()},
           {"FIFO", PolicyConfig::Of(PolicyKind::kFifo)},
           {"CLOCK", PolicyConfig::Of(PolicyKind::kClock)},
           {"2Q", PolicyConfig::TwoQ()},
           {"ARC", PolicyConfig::Arc()}}) {
    SCOPED_TRACE(name);
    const OrderRun concurrent =
        RunOrder(config, DiskManager::kMaxIoInFlight, kPages);
    const OrderRun serial = RunOrder(config, /*max_concurrent_io=*/1,
                                     kPages + concurrent.free_frames);

    EXPECT_EQ(concurrent.restores, 0u);
    EXPECT_EQ(serial.restores, 0u);
    EXPECT_GT(concurrent.writes, 0u);
    EXPECT_EQ(serial.free_frames, 0u);
    // Batches ran, and evicted ahead of the allocations.
    EXPECT_GT(concurrent.free_frames, 1u);
    EXPECT_EQ(concurrent.evictions, serial.evictions);
    EXPECT_EQ(concurrent.remaining, serial.remaining);
    EXPECT_EQ(concurrent.ghosts, serial.ghosts);
    EXPECT_EQ(concurrent.arc_target, serial.arc_target);
  }
}

// ---------------------------------------------------------------------------
// Threads.

// While a batch's writes are held in the device, fetches of its victims
// (latch-free first, then latched) wait for the batch, and every one of
// them reads the page as written, not the zeroed image the device held
// before the write.
TEST(AllocationBatchConcurrencyTest, FetchOfAHeldVictimReadsTheWrittenImage) {
  FullPool t;
  for (Page* page : t.pages) t.disk.Close(page->id());
  std::atomic<bool> allocated{false};
  std::thread allocator([&] {
    auto page = t.pool->NewPage();
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (page.ok()) {
      EXPECT_TRUE(t.pool->UnpinPage((*page)->id(), true).ok());
    }
    allocated.store(true);
  });
  ASSERT_TRUE(t.disk.AwaitHeld(FullPool::kFrames))
      << "the batch's writes never reached the device together";

  std::atomic<int> fetched{0};
  std::vector<std::thread> fetchers;
  for (size_t i = 0; i < FullPool::kFrames; ++i) {
    fetchers.emplace_back([&, i] {
      const PageId p = static_cast<PageId>(i);
      auto page = t.pool->FetchPage(p);
      EXPECT_TRUE(page.ok()) << page.status().ToString();
      if (!page.ok()) return;
      EXPECT_EQ(std::vector<char>((*page)->Data(), (*page)->Data() + kPageSize),
                Filled(p))
          << "page " << p;
      EXPECT_TRUE(t.pool->UnpinPage(p, false).ok());
      fetched.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fetched.load(), 0) << "a fetch completed during the batch";
  EXPECT_FALSE(allocated.load());

  t.disk.OpenAll();
  allocator.join();
  for (std::thread& f : fetchers) f.join();
  EXPECT_EQ(fetched.load(), static_cast<int>(FullPool::kFrames));
  EXPECT_EQ(t.disk.timeouts(), 0u);
  for (size_t i = 0; i < FullPool::kFrames; ++i) {
    const PageId p = static_cast<PageId>(i);
    EXPECT_EQ(t.disk.WritesOf(p), 1u) << "page " << p;
  }
}

// A FlushAll whose writes are held occupies every RunBatch runner; an
// allocation meanwhile finds none free, so its batch runs in order on the
// allocating thread (its writes take as long as that many single
// write-backs would) and completes without waiting for the flush.
TEST(AllocationBatchConcurrencyTest, BatchRunsOnTheCallerWhileRunnersAreBusy) {
  constexpr size_t kWidth = DiskManager::kMaxIoInFlight;
  constexpr size_t kFrames = 4 * kWidth;
  SimDiskManager inner;
  BatchDevice disk(&inner, kWidth);
  BufferPool pool(kFrames, &disk, Lru2());
  std::vector<Page*> flushed = NewFilledPages(pool, kWidth);
  for (Page* page : flushed) disk.Close(page->id());
  std::atomic<bool> flush_done{false};
  std::thread flusher([&] {
    EXPECT_TRUE(pool.FlushAll().ok());
    flush_done.store(true);
  });
  ASSERT_TRUE(disk.AwaitHeld(kWidth)) << "the flush never spread";
  (void)disk.TakeOps();

  // The flush's pages are the policy's first victims, but pinned.
  std::vector<PageId> rest;
  for (Page* page : NewFilledPages(pool, kFrames - kWidth)) {
    rest.push_back(page->id());
  }
  ASSERT_EQ(pool.FreeFrameCount(), 0u);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
  EXPECT_FALSE(flush_done.load());

  const std::vector<BatchDevice::Op> ops = disk.TakeOps();
  std::vector<PageId> expected;
  for (size_t i = 0; i < kWidth; ++i) expected.push_back(rest[i]);
  EXPECT_EQ(WritesIn(ops), expected);
  for (const BatchDevice::Op& op : ops) {
    EXPECT_EQ(op.thread, std::this_thread::get_id()) << "page " << op.page;
  }
  EXPECT_EQ(pool.FreeFrameCount(), kWidth - 1);

  disk.OpenAll();
  flusher.join();
  EXPECT_EQ(disk.timeouts(), 0u);
  for (Page* p : flushed) EXPECT_EQ(DiskImage(inner, p->id()), Filled(p->id()));
}

// ---------------------------------------------------------------------------
// The page table.

// Six pages in one probe cluster; erasing three of them, locked and given
// front first, leaves the other three in place and findable latch-free.
TEST(AllocationBatchConcurrencyTest, ErasingLockedBucketsMovesNoneStillLocked) {
  constexpr size_t kCapacity = 16;
  PageTable table(kCapacity);
  // Pages that hash to one bucket, found by probing an empty table.
  std::vector<PageId> cluster;
  std::optional<size_t> home;
  for (PageId p = 1; cluster.size() < 6; ++p) {
    PageTable probe(kCapacity);
    probe.Insert(p, 0);
    PageTable::Snapshot snap;
    ASSERT_TRUE(probe.OptimisticFind(p, &snap));
    if (!home.has_value()) home = snap.bucket;
    if (snap.bucket == *home) cluster.push_back(p);
  }
  for (size_t i = 0; i < cluster.size(); ++i) {
    table.Insert(cluster[i], static_cast<FrameId>(i));
  }
  std::vector<size_t> locked = {table.LockBucket(cluster[0]),
                                table.LockBucket(cluster[2]),
                                table.LockBucket(cluster[3])};
  table.UnlockErased(std::span(locked));

  EXPECT_EQ(table.size(), 3u);
  for (size_t i : {0, 2, 3}) EXPECT_FALSE(table.contains(cluster[i]));
  for (size_t i : {1, 4, 5}) {
    FrameId frame = 0;
    ASSERT_TRUE(table.Find(cluster[i], &frame)) << "page " << cluster[i];
    EXPECT_EQ(frame, static_cast<FrameId>(i));
    PageTable::Snapshot snap;
    EXPECT_TRUE(table.OptimisticFind(cluster[i], &snap))
        << "page " << cluster[i] << " left in a locked bucket";
  }
}

}  // namespace
}  // namespace lruk

#include "heap/heap_file.h"

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/lru.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

namespace lruk {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(64, &disk_, std::make_unique<LruPolicy>()) {}

  SimDiskManager disk_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  HeapFile heap(&pool_);
  auto rid = heap.Insert("hello records");
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  auto got = heap.Get(*rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello records");
  EXPECT_EQ(heap.Size(), 1u);
}

TEST_F(HeapFileTest, RejectsBadSizes) {
  HeapFile heap(&pool_);
  EXPECT_FALSE(heap.Insert("").ok());
  std::string huge(HeapFile::MaxRecordSize() + 1, 'x');
  EXPECT_FALSE(heap.Insert(huge).ok());
  std::string max(HeapFile::MaxRecordSize(), 'y');
  EXPECT_TRUE(heap.Insert(max).ok());
}

TEST_F(HeapFileTest, ChainsAcrossPages) {
  HeapFile heap(&pool_);
  // 2000-byte customer rows (Example 1.1): two per 4 KiB page.
  std::vector<RecordId> rids;
  for (int i = 0; i < 100; ++i) {
    std::string row(2000, static_cast<char>('a' + i % 26));
    auto rid = heap.Insert(row);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ(heap.CountPages(), 50u);  // Exactly two rows per page.
  for (int i = 0; i < 100; ++i) {
    auto got = heap.Get(rids[i]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)[0], static_cast<char>('a' + i % 26));
    EXPECT_EQ(got->size(), 2000u);
  }
}

TEST_F(HeapFileTest, DeleteTombstonesAndReusesSlot) {
  HeapFile heap(&pool_);
  auto a = heap.Insert("aaaa");
  auto b = heap.Insert("bbbb");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(heap.Delete(*a).ok());
  EXPECT_FALSE(heap.Get(*a).ok());
  EXPECT_EQ(heap.Size(), 1u);
  EXPECT_EQ(heap.Delete(*a).code(), StatusCode::kNotFound);

  auto c = heap.Insert("cccc");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->page, a->page);
  EXPECT_EQ(c->slot, a->slot);  // Tombstoned slot id reused.
  EXPECT_EQ(*heap.Get(*c), "cccc");
  EXPECT_EQ(*heap.Get(*b), "bbbb");
}

TEST_F(HeapFileTest, CompactionReclaimsDeletedSpace) {
  HeapFile heap(&pool_);
  // Fill one page with four ~1000-byte records, delete two, then insert a
  // 1900-byte record: only compaction makes it fit in the same page.
  std::vector<RecordId> rids;
  for (int i = 0; i < 4; ++i) {
    auto rid = heap.Insert(std::string(1000, static_cast<char>('0' + i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_EQ(heap.CountPages(), 1u);
  ASSERT_TRUE(heap.Delete(rids[0]).ok());
  ASSERT_TRUE(heap.Delete(rids[2]).ok());
  auto big = heap.Insert(std::string(1900, 'Z'));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(heap.CountPages(), 1u) << "compaction should have made room";
  EXPECT_EQ(heap.Get(*big)->size(), 1900u);
  EXPECT_EQ((*heap.Get(rids[1]))[0], '1');
  EXPECT_EQ((*heap.Get(rids[3]))[0], '3');
}

TEST_F(HeapFileTest, UpdateInPlaceAndGrowing) {
  HeapFile heap(&pool_);
  auto rid = heap.Insert("short");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap.Update(*rid, "tiny").ok());  // Shrink in place.
  EXPECT_EQ(*heap.Get(*rid), "tiny");
  ASSERT_TRUE(heap.Update(*rid, std::string(500, 'g')).ok());  // Grow.
  EXPECT_EQ(heap.Get(*rid)->size(), 500u);
  EXPECT_EQ(heap.Size(), 1u);
  // Growing beyond the page fails cleanly and preserves the record.
  std::string too_big(HeapFile::MaxRecordSize(), 'x');
  auto filler = heap.Insert(std::string(3000, 'f'));
  (void)filler;
  Status status = heap.Update(*rid, too_big);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(heap.Get(*rid)->size(), 500u);
}

TEST_F(HeapFileTest, ScanVisitsLiveRecordsInChainOrder) {
  HeapFile heap(&pool_);
  std::vector<RecordId> rids;
  for (int i = 0; i < 20; ++i) {
    auto rid = heap.Insert(std::string(700, static_cast<char>('A' + i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE(heap.Delete(rids[3]).ok());
  ASSERT_TRUE(heap.Delete(rids[7]).ok());

  int seen = 0;
  char last = 0;
  ASSERT_TRUE(heap.Scan([&](RecordId rid, std::string_view record) {
                    EXPECT_NE(rid, rids[3]);
                    EXPECT_NE(rid, rids[7]);
                    EXPECT_GE(record[0], last);  // Chain order ascending.
                    last = record[0];
                    ++seen;
                    return true;
                  }).ok());
  EXPECT_EQ(seen, 18);

  // Early stop.
  seen = 0;
  ASSERT_TRUE(heap.Scan([&](RecordId, std::string_view) {
                    return ++seen < 5;
                  }).ok());
  EXPECT_EQ(seen, 5);
}

TEST_F(HeapFileTest, ReattachRecoversSizeAndTail) {
  PageId head;
  RecordId keep;
  {
    HeapFile heap(&pool_);
    for (int i = 0; i < 10; ++i) {
      auto rid = heap.Insert(std::string(1500, 'r'));
      ASSERT_TRUE(rid.ok());
      if (i == 4) keep = *rid;
    }
    ASSERT_TRUE(heap.Delete(keep).ok());
    head = heap.HeadPageId();
  }
  HeapFile reattached(&pool_, head);
  EXPECT_EQ(reattached.Size(), 9u);
  EXPECT_FALSE(reattached.Get(keep).ok());
  // Inserting still works and lands on the tail.
  auto rid = reattached.Insert("after reattach");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*reattached.Get(*rid), "after reattach");
}

TEST_F(HeapFileTest, ReadsLeavePagesClean) {
  // A 40-page heap over an 8-frame pool: every read path cycles the pages
  // through the pool, so a read that dirtied a page would write it back.
  SimDiskManager disk;
  BufferPool small_pool(8, &disk, std::make_unique<LruPolicy>());
  HeapFile heap(&small_pool);
  std::vector<RecordId> rids;
  for (int i = 0; i < 80; ++i) {  // Two 2,000-byte rows a page.
    auto rid = heap.Insert(std::string(2000, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE(small_pool.FlushAll().ok());
  small_pool.ResetStats();
  const uint64_t writes_after_load = disk.stats().writes;

  // Updates and deletes that find no record leave the page clean too.
  RecordId absent{rids[0].page, 500};
  EXPECT_EQ(heap.Update(absent, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(heap.Delete(absent).code(), StatusCode::kNotFound);
  for (const RecordId& rid : rids) ASSERT_TRUE(heap.Get(rid).ok());
  size_t scanned = 0;
  ASSERT_TRUE(heap.Scan([&](RecordId, std::string_view) {
                    ++scanned;
                    return true;
                  }).ok());
  EXPECT_EQ(scanned, rids.size());
  EXPECT_EQ(heap.CountPages(), 40u);
  HeapFile reattached(&small_pool, heap.HeadPageId());
  EXPECT_EQ(reattached.Size(), rids.size());

  EXPECT_GT(small_pool.stats().evictions, 0u);
  EXPECT_EQ(small_pool.stats().dirty_writebacks, 0u);
  EXPECT_EQ(disk.stats().writes, writes_after_load);

  // A real update is written back when a scan evicts its page. The first
  // pool is still alive (its destructor flushes), so a fresh pool over the
  // same disk sees the row only through that eviction write.
  const std::string updated(2000, 'U');
  ASSERT_TRUE(heap.Update(rids[0], updated).ok());
  ASSERT_TRUE(heap.Scan([](RecordId, std::string_view) { return true; }).ok());
  ASSERT_FALSE(small_pool.IsResident(rids[0].page));
  EXPECT_EQ(small_pool.stats().dirty_writebacks, 1u);
  EXPECT_EQ(disk.stats().writes, writes_after_load + 1);
  BufferPool fresh_pool(8, &disk, std::make_unique<LruPolicy>());
  HeapFile after_restart(&fresh_pool, heap.HeadPageId());
  EXPECT_EQ(after_restart.Size(), rids.size());
  EXPECT_EQ(*after_restart.Get(rids[0]), updated);
}

TEST_F(HeapFileTest, RandomizedAgainstModel) {
  SimDiskManager disk;
  BufferPool small_pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{}));
  HeapFile heap(&small_pool);
  std::map<uint64_t, std::string> model;  // Packed rid -> payload.
  RandomEngine rng(31415);

  for (int step = 0; step < 2000; ++step) {
    double action = rng.NextDouble();
    if (action < 0.5) {
      std::string payload(1 + rng.NextBounded(600), 'a');
      for (auto& c : payload) {
        c = static_cast<char>('a' + rng.NextBounded(26));
      }
      auto rid = heap.Insert(payload);
      ASSERT_TRUE(rid.ok());
      model[rid->Pack()] = payload;
    } else if (action < 0.75 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(heap.Delete(RecordId::Unpack(it->first)).ok());
      model.erase(it);
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      auto got = heap.Get(RecordId::Unpack(it->first));
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, it->second);
    }
    ASSERT_EQ(heap.Size(), model.size());
  }
  // Full verification by scan.
  uint64_t live = 0;
  ASSERT_TRUE(heap.Scan([&](RecordId rid, std::string_view record) {
                    auto it = model.find(rid.Pack());
                    EXPECT_NE(it, model.end());
                    if (it != model.end()) {
                      EXPECT_EQ(record, it->second);
                    }
                    ++live;
                    return true;
                  }).ok());
  EXPECT_EQ(live, model.size());
}

// Forwards to a pool, recording the length of each FetchPages run and the
// pins its caller holds.
class RunRecordingPool final : public PoolInterface {
 public:
  explicit RunRecordingPool(PoolInterface& pool) : pool_(pool) {}

  Result<Page*> FetchPage(PageId p, AccessType type) override {
    auto page = pool_.FetchPage(p, type);
    if (page.ok()) ++pins_;
    return page;
  }
  Status FetchPages(std::span<const PageId> pages, std::span<Page*> out,
                    AccessType type) override {
    runs_.push_back(pages.size());
    Status fixed = pool_.FetchPages(pages, out, type);
    if (fixed.ok()) pins_ += static_cast<int64_t>(pages.size());
    return fixed;
  }
  Result<Page*> NewPage() override {
    auto page = pool_.NewPage();
    if (page.ok()) ++pins_;
    return page;
  }
  Status UnpinPage(PageId p, bool dirty) override {
    Status unpinned = pool_.UnpinPage(p, dirty);
    if (unpinned.ok()) --pins_;
    return unpinned;
  }
  Status FlushPage(PageId p) override { return pool_.FlushPage(p); }
  Status FlushAll() override { return pool_.FlushAll(); }
  Status DeletePage(PageId p) override { return pool_.DeletePage(p); }
  size_t capacity() const override { return pool_.capacity(); }
  size_t ResidentCount() const override { return pool_.ResidentCount(); }
  bool IsResident(PageId p) const override { return pool_.IsResident(p); }
  BufferPoolStats stats() const override { return pool_.stats(); }
  void ResetStats() override { pool_.ResetStats(); }

  // Pins taken through this pool and not yet released.
  int64_t pins() const { return pins_; }
  const std::vector<size_t>& runs() const { return runs_; }
  void ClearRuns() { runs_.clear(); }

 private:
  PoolInterface& pool_;
  int64_t pins_ = 0;
  std::vector<size_t> runs_;
};

// Fills `heap` with `pages` pages of two 2,000-byte rows, each row's bytes
// its index; returns the rows' ids in insertion order.
std::vector<RecordId> FillTwoRowsPerPage(HeapFile& heap, int pages) {
  std::vector<RecordId> rids;
  for (int i = 0; i < 2 * pages; ++i) {
    auto rid = heap.Insert(std::string(2000, static_cast<char>(i)));
    EXPECT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  return rids;
}

TEST_F(HeapFileTest, PairedScanVisitsEveryRecordInChainOrder) {
  SimDiskManager disk;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{}));
  RunRecordingPool recording(pool);
  HeapFile heap(&recording);
  const std::vector<RecordId> rids = FillTwoRowsPerPage(heap, 7);
  ASSERT_TRUE(recording.FlushAll().ok());
  recording.ClearRuns();

  std::vector<RecordId> seen;
  ASSERT_TRUE(heap.Scan([&](RecordId rid, std::string_view row) {
                    EXPECT_EQ(row[0], static_cast<char>(seen.size()));
                    seen.push_back(rid);
                    return true;
                  }).ok());
  EXPECT_EQ(seen, rids);
  // Seven pages: three runs of two, then the last page alone.
  EXPECT_EQ(recording.runs(), (std::vector<size_t>{2, 2, 2, 1}));
  EXPECT_EQ(recording.pins(), 0);
}

TEST_F(HeapFileTest, ReattachRebuildsThePageList) {
  HeapFile heap(&pool_);
  const std::vector<RecordId> rids = FillTwoRowsPerPage(heap, 5);
  HeapFile reattached(&pool_, heap.HeadPageId());
  EXPECT_EQ(reattached.HeadPageId(), heap.HeadPageId());
  EXPECT_EQ(reattached.CountPages(), 5u);
  // The rebuilt list ends at the tail: a new page chains after it.
  std::vector<RecordId> expected = rids;
  for (int i = 0; i < 2; ++i) {
    auto rid = reattached.Insert(std::string(2000, 'n'));
    ASSERT_TRUE(rid.ok());
    expected.push_back(*rid);
  }
  EXPECT_EQ(reattached.CountPages(), 6u);
  std::vector<RecordId> seen;
  ASSERT_TRUE(reattached.Scan([&](RecordId rid, std::string_view) {
                    seen.push_back(rid);
                    return true;
                  }).ok());
  EXPECT_EQ(seen, expected);
}

TEST_F(HeapFileTest, EarlyStopLeavesNoPins) {
  RunRecordingPool recording(pool_);
  HeapFile heap(&recording);
  const std::vector<RecordId> rids = FillTwoRowsPerPage(heap, 4);
  // Stop on the first row of each page of the first run, and on the
  // second row of a page.
  for (size_t stop_at : {size_t{0}, size_t{2}, size_t{3}}) {
    size_t visited = 0;
    ASSERT_TRUE(heap.Scan([&](RecordId rid, std::string_view) {
                      EXPECT_EQ(rid, rids[visited]);
                      return visited++ < stop_at;
                    }).ok());
    EXPECT_EQ(visited, stop_at + 1);
    EXPECT_EQ(recording.pins(), 0) << "stopped at row " << stop_at;
  }
}

TEST_F(HeapFileTest, ScanWithOneSpareFrameCompletes) {
  SimDiskManager disk;
  BufferPool pool(3, &disk, std::make_unique<LruKPolicy>(LruKOptions{}));
  RunRecordingPool recording(pool);
  HeapFile heap(&recording);
  const std::vector<RecordId> rids = FillTwoRowsPerPage(heap, 5);
  // Two frames stay pinned, so no run of two pages fits.
  std::vector<PageId> held;
  for (int i = 0; i < 2; ++i) {
    auto page = recording.NewPage();
    ASSERT_TRUE(page.ok());
    held.push_back((*page)->id());
  }
  std::vector<RecordId> seen;
  ASSERT_TRUE(heap.Scan([&](RecordId rid, std::string_view) {
                    seen.push_back(rid);
                    return true;
                  }).ok());
  EXPECT_EQ(seen, rids);
  for (PageId p : held) ASSERT_TRUE(recording.UnpinPage(p, true).ok());
  EXPECT_EQ(recording.pins(), 0);
  EXPECT_EQ(pool.ResidentCount() + pool.FreeFrameCount(), pool.capacity());
}

TEST(RecordIdTest, PackUnpackRoundTrip) {
  RecordId rid{123456, 789};
  RecordId back = RecordId::Unpack(rid.Pack());
  EXPECT_EQ(back, rid);
}

}  // namespace
}  // namespace lruk

// The latch-free hit path every pool takes, deterministic half (the
// threaded half lives in optimistic_concurrency_test.cc).
//
// Coverage layers:
//  * PageTable units — insert/find/erase round-trips against a reference
//    map under heavy id reuse (backward-shift clusters), version growth,
//    LockBucket forcing optimistic readers to fall back, UnlockErased
//    removing the mapping, OptimisticFind/Validate agreeing with the
//    latched surface when nothing is mutating.
//  * Differential battery — single-threaded, both pools end exactly where
//    a naive model of the pool does (difftest::PoolModel: the bare policy
//    driven by ReferenceStep) over the 20k-op mixed workload async_io_test.cc
//    uses: same hits, misses, evictions and correlated re-fixes, same
//    victim sequence, same LRU-K clock, same residency — and so does a
//    run whose hits fill the publish ring's stripe, and so does every
//    policy in the catalogue that needs no oracle context.
//  * Zero-mutex hit — a warm fetch/unpin pair acquires the pool latch
//    ZERO times, asserted via the latch_acquires counter; its reference
//    reaches the policy at the next drain.
//  * StatsSnapshot — the lock-free snapshot equals the draining stats()
//    when the pool is quiescent.
//  * Error paths — UnpinPage/DeletePage report NotFound and
//    InvalidArgument, pinned pages are never victims (pin counts as
//    ground truth), ResourceExhausted when every frame is pinned, and id
//    reuse after delete works.

#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_table.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using difftest::AllocateDb;
using difftest::DiffScenarioResult;
using difftest::ExpectMatchesModel;
using difftest::ExpectPoolStatsEq;
using difftest::ModelCheckedPool;
using difftest::PoolModel;
using difftest::RecordingPolicy;
using difftest::RunDiffScenario;
using difftest::kDiffDbPages;

// Erases `p` (present) as the pool does: lock its bucket, then erase.
void Erase(PageTable& table, PageId p) {
  table.UnlockErased(table.LockBucket(p));
}

// ---------------------------------------------------------------------------
// PageTable units.

TEST(OptimisticPageTableTest, InsertFindEraseRoundTrip) {
  PageTable table(16);
  EXPECT_GE(table.bucket_count(), 32u);  // Load factor <= 1/2.
  EXPECT_EQ(table.size(), 0u);

  for (PageId p = 0; p < 16; ++p) table.Insert(p, static_cast<FrameId>(p * 7));
  EXPECT_EQ(table.size(), 16u);
  for (PageId p = 0; p < 16; ++p) {
    FrameId frame = kInvalidFrameId;
    ASSERT_TRUE(table.Find(p, &frame));
    EXPECT_EQ(frame, static_cast<FrameId>(p * 7));
    EXPECT_TRUE(table.contains(p));
  }
  FrameId frame = kInvalidFrameId;
  EXPECT_FALSE(table.Find(99, &frame));
  EXPECT_FALSE(table.contains(99));

  for (PageId p = 0; p < 16; p += 2) Erase(table, p);
  EXPECT_EQ(table.size(), 8u);
  for (PageId p = 0; p < 16; ++p) {
    EXPECT_EQ(table.contains(p), p % 2 == 1) << "page " << p;
  }
}

// Backward-shift deletion against a reference map: a small table under
// heavy id reuse keeps probe clusters dense, so erases constantly relocate
// entries. Every surviving mapping must stay findable — by the latched
// probe AND by the optimistic one (single-threaded, a stable table must
// always yield consistent snapshots that validate).
TEST(OptimisticPageTableTest, BackwardShiftChurnMatchesReferenceMap) {
  constexpr size_t kCapacity = 12;
  PageTable table(kCapacity);
  std::unordered_map<PageId, FrameId> reference;
  RandomEngine rng(/*seed=*/20260809);

  for (int step = 0; step < 4000; ++step) {
    bool insert = reference.size() < kCapacity &&
                  (reference.empty() || rng.NextBernoulli(0.5));
    if (insert) {
      PageId p = rng.NextBounded(64);  // Narrow id range: reuse + clustering.
      if (reference.contains(p)) continue;
      FrameId frame = static_cast<FrameId>(rng.NextBounded(kCapacity));
      table.Insert(p, frame);
      reference[p] = frame;
    } else {
      size_t skip = rng.NextBounded(reference.size());
      auto it = reference.begin();
      std::advance(it, skip);
      Erase(table, it->first);
      reference.erase(it);
    }
    ASSERT_EQ(table.size(), reference.size());
    for (const auto& [p, frame] : reference) {
      FrameId found = kInvalidFrameId;
      ASSERT_TRUE(table.Find(p, &found)) << "page " << p;
      ASSERT_EQ(found, frame);
      PageTable::Snapshot snap;
      ASSERT_TRUE(table.OptimisticFind(p, &snap)) << "page " << p;
      ASSERT_EQ(snap.frame, frame);
      ASSERT_TRUE(table.Validate(snap));
      ASSERT_EQ(snap.version % 2, 0u);  // Stable buckets are always even.
    }
  }
}

TEST(OptimisticPageTableTest, LockBucketForcesOptimisticFallback) {
  PageTable table(8);
  table.Insert(5, 3);
  PageTable::Snapshot before;
  ASSERT_TRUE(table.OptimisticFind(5, &before));
  EXPECT_EQ(before.frame, 3u);

  size_t bucket = table.LockBucket(5);
  EXPECT_EQ(bucket, before.bucket);
  // Locked (odd) bucket: no optimistic reader may claim a hit, and a pin
  // taken against the old snapshot must fail validation.
  PageTable::Snapshot during;
  EXPECT_FALSE(table.OptimisticFind(5, &during));
  EXPECT_FALSE(table.Validate(before));

  table.UnlockUnchanged(bucket);
  // Mapping intact, but the version moved on: old snapshots stay dead.
  FrameId frame = kInvalidFrameId;
  ASSERT_TRUE(table.Find(5, &frame));
  EXPECT_EQ(frame, 3u);
  EXPECT_FALSE(table.Validate(before));
  PageTable::Snapshot after;
  ASSERT_TRUE(table.OptimisticFind(5, &after));
  EXPECT_GT(after.version, before.version);  // Versions only grow.
  EXPECT_TRUE(table.Validate(after));
}

TEST(OptimisticPageTableTest, UnlockErasedRemovesTheMapping) {
  PageTable table(8);
  for (PageId p = 0; p < 8; ++p) table.Insert(p, static_cast<FrameId>(p));
  PageTable::Snapshot snap;
  ASSERT_TRUE(table.OptimisticFind(2, &snap));

  size_t bucket = table.LockBucket(2);
  table.UnlockErased(bucket);
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.size(), 7u);
  EXPECT_FALSE(table.Validate(snap));
  // The backward shift left every other mapping findable.
  for (PageId p = 0; p < 8; ++p) {
    if (p == 2) continue;
    FrameId frame = kInvalidFrameId;
    ASSERT_TRUE(table.Find(p, &frame)) << "page " << p;
    EXPECT_EQ(frame, static_cast<FrameId>(p));
  }
}

// ---------------------------------------------------------------------------
// Differential battery: the pool against PoolModel, its naive model.
// Workload and scaffolding live in differential_harness.h (shared with
// async_io_test.cc).

TEST(OptimisticDifferentialTest, MatchesModelPlainPool) {
  DiffScenarioResult r = RunDiffScenario({});
  ExpectMatchesModel(r);
  // The latch-free path served every hit and never misfired:
  // single-threaded, nothing invalidates a probe mid-flight, so every
  // fallback is an honest probe miss (the page was simply absent) — never
  // a version conflict or a displacement-bound overflow — and the
  // attribution split is exact.
  EXPECT_EQ(r.stats.optimistic_hits, r.stats.hits);
  EXPECT_EQ(r.stats.optimistic_fallbacks, r.stats.misses);
  EXPECT_EQ(r.stats.fallback_probe_miss, r.stats.misses);
  EXPECT_EQ(r.stats.fallback_version_conflict, 0u);
  EXPECT_EQ(r.stats.fallback_resize, 0u);
  EXPECT_EQ(r.stats.access_drops, 0u);
  EXPECT_EQ(r.stats.pin_cas_retries, 0u);
  // Closed-form clock: every reference was applied exactly once — one
  // tick per fetch, per initial NewPage admission, and per delete/new
  // cycle's replacement admission — except the correlated re-fixes, which
  // never reach the policy. The skewed stream repeats pages back to back,
  // so there are some.
  EXPECT_GT(r.stats.correlated_refs, 0u);
  EXPECT_EQ(r.clocks[0] + r.stats.correlated_refs,
            r.stats.hits + r.stats.misses + kDiffDbPages +
                static_cast<uint64_t>(r.delete_cycles));
}

TEST(OptimisticDifferentialTest, MatchesModelShardedPool) {
  DiffScenarioResult r = RunDiffScenario({.sharded = true});
  ExpectMatchesModel(r);
  EXPECT_EQ(r.stats.optimistic_hits, r.stats.hits);
  EXPECT_EQ(r.stats.access_drops, 0u);
}

TEST(OptimisticDifferentialTest, RingFullPathMatchesModel) {
  // Alternating hits on two resident pages with no miss, hence no drain,
  // in between: the thread's 64-record stripe fills and every 65th
  // publish takes the ring-full path (drain, then apply under the latch).
  // Ending on such a publish makes its reference the policy's newest. The
  // FIFO contract must hold across the path: the policy's clock, backward
  // K-distances and next victims end exactly where the model's do.
  constexpr uint64_t kHits = 3 * 65;
  constexpr size_t kFrames = 8;
  auto make_policy = [](size_t, size_t) {
    return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
  };
  SimDiskManager disk;
  auto policy = std::make_unique<RecordingPolicy>(make_policy(0, kFrames));
  RecordingPolicy* recorder = policy.get();
  BufferPool pool(kFrames, &disk, std::move(policy));
  PoolModel model({kFrames}, make_policy, [](PageId) { return size_t{0}; });
  ModelCheckedPool checked(pool, model);
  const auto& lruk = static_cast<const LruKPolicy&>(recorder->inner());
  const auto& model_lruk = static_cast<const LruKPolicy&>(model.policy(0));
  const std::vector<PageId> pages = AllocateDb(checked, kFrames);

  BufferPoolStats before = pool.StatsSnapshot();
  for (uint64_t i = 0; i < kHits; ++i) {
    PageId p = pages[i & 1];
    ASSERT_TRUE(checked.FetchPage(p).ok());
    ASSERT_TRUE(checked.UnpinPage(p, false).ok());
  }
  BufferPoolStats after = pool.StatsSnapshot();
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kHits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(pool.access_buffer_stats().full_pushes, 0u);
  EXPECT_EQ(pool.stats().access_drops, 0u);  // Drains.
  EXPECT_EQ(lruk.CurrentTime(), model_lruk.CurrentTime());
  for (PageId p : pages) {
    EXPECT_EQ(lruk.BackwardKDistance(p), model_lruk.BackwardKDistance(p))
        << "page " << p;
  }

  // The next victims: admissions that evict every page but the two hot
  // ones, then some of the fresh pages themselves.
  AllocateDb(checked, kFrames);
  EXPECT_EQ(recorder->evictions(), model.evictions(0));
  EXPECT_EQ(recorder->evictions().size(), kFrames);
  EXPECT_EQ(lruk.CurrentTime(), model_lruk.CurrentTime());
}

// The same battery under every policy that needs no oracle context. A
// latch-free hit reaches the policy only at the next drain, so each
// policy must still see its references in fix order, and all of them
// before the Evict of the miss that follows. Single-threaded there is
// never a pinned nominee, so no Restore runs and the victim order is the
// policy's own, whatever its Restore does.
class PolicyModelTest : public ::testing::TestWithParam<const char*> {
 protected:
  static difftest::MakePolicyFn SpecPolicy() {
    auto config = ParsePolicySpec(GetParam());
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    auto factory = MakeShardPolicyFactory(*config);
    EXPECT_TRUE(factory.ok()) << factory.status().ToString();
    return *factory;
  }
};

TEST_P(PolicyModelTest, PlainPoolMatchesModel) {
  DiffScenarioResult r = RunDiffScenario({.make_policy = SpecPolicy()});
  ExpectMatchesModel(r);
  EXPECT_GT(r.stats.evictions, 0u);
  EXPECT_GT(r.stats.correlated_refs, 0u);
  EXPECT_EQ(r.stats.optimistic_hits, r.stats.hits);
  EXPECT_EQ(r.stats.access_drops, 0u);
}

TEST_P(PolicyModelTest, ShardedPoolMatchesModel) {
  DiffScenarioResult r =
      RunDiffScenario({.sharded = true, .make_policy = SpecPolicy()});
  ExpectMatchesModel(r);
  EXPECT_GT(r.stats.evictions, 0u);
  EXPECT_EQ(r.stats.optimistic_hits, r.stats.hits);
  EXPECT_EQ(r.stats.access_drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyModelTest,
    ::testing::Values("LRU", "LRU-3", "FIFO", "MRU", "LFU", "CLOCK", "GCLOCK",
                      "LRD", "RANDOM", "2Q", "ARC", "adaptive:lruk2+arc+2q"),
    [](const auto& info) {
      std::string name = info.param;
      if (name.starts_with("adaptive:")) return std::string("Adaptive");
      std::erase(name, '-');
      return name == "2Q" ? std::string("TwoQ") : name;
    });

// ---------------------------------------------------------------------------
// The zero-mutex hit: the acceptance criterion of the latch-free path.

TEST(OptimisticHitPathTest, WarmHitAcquiresNoLatch) {
  constexpr size_t kPages = 64;
  SimDiskManager disk;
  BufferPool pool(128, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, kPages);

  // Everything resident (capacity > kPages): from here on, every fetch is
  // a warm hit and every unpin balances a latch-free pin. The loop
  // publishes kPages records, exactly one ring stripe's 64, so no drain
  // is triggered.
  BufferPoolStats before = pool.StatsSnapshot();
  for (PageId p : pages) {
    auto page = pool.FetchPage(p, AccessType::kRead);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->id(), p);
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  BufferPoolStats after = pool.StatsSnapshot();

  // ZERO pool-latch acquisitions across 64 fetch/unpin pairs.
  EXPECT_EQ(after.latch_acquires, before.latch_acquires);
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kPages);
  EXPECT_EQ(after.hits - before.hits, kPages);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.optimistic_fallbacks, before.optimistic_fallbacks);

  // The buffered references land in the policy at the next drain point.
  (void)pool.stats();
  EXPECT_EQ(pool.policy().ResidentCount(), kPages);
}

TEST(OptimisticHitPathTest, LatchFreeHitsReachThePolicyAtTheDrain) {
  // A warm hit publishes its reference to the ring and returns: the
  // policy clock stands still until the next drain applies every one.
  constexpr uint64_t kHits = 10;
  SimDiskManager disk;
  auto policy = std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
  const LruKPolicy* lruk = policy.get();
  BufferPool pool(8, &disk, std::move(policy));
  std::vector<PageId> pages = AllocateDb(pool, 2);
  BufferPoolStats before = pool.stats();  // Drains.
  const Timestamp start = lruk->CurrentTime();
  const uint64_t drained_before = pool.access_buffer_stats().drained_records;
  for (uint64_t i = 0; i < kHits; ++i) {
    PageId p = pages[i & 1];  // Alternate: no correlated re-fix.
    ASSERT_TRUE(pool.FetchPage(p).ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
    EXPECT_EQ(lruk->CurrentTime(), start) << "hit " << i;
  }
  BufferPoolStats after = pool.stats();  // Drains.
  EXPECT_EQ(after.hits - before.hits, kHits);
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kHits);
  EXPECT_EQ(lruk->CurrentTime(), start + kHits);
  EXPECT_EQ(after.access_drops, 0u);
  EXPECT_EQ(pool.access_buffer_stats().drained_records - drained_before,
            kHits);
}

TEST(OptimisticHitPathTest, StatsSnapshotMatchesStatsWhenQuiescent) {
  SimDiskManager disk;
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 48);
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(/*seed=*/11);
  for (int i = 0; i < 2000; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(0.25);
    auto page =
        pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(p, write).ok());
  }

  // Quiescent pool: the lock-free snapshot and the draining stats() agree
  // on every counter. stats() itself takes the latch once, which is the
  // only drift the proxy counter may show.
  BufferPoolStats snap = pool.StatsSnapshot();
  BufferPoolStats full = pool.stats();
  ExpectPoolStatsEq(snap, full);
  EXPECT_EQ(snap.optimistic_hits, full.optimistic_hits);
  EXPECT_EQ(snap.optimistic_fallbacks, full.optimistic_fallbacks);
  EXPECT_EQ(snap.pin_cas_retries, full.pin_cas_retries);
  EXPECT_EQ(full.latch_acquires, snap.latch_acquires + 1);
  EXPECT_GT(snap.optimistic_hits, 0u);
}

// ---------------------------------------------------------------------------
// Error paths and the pin protocol.

TEST(OptimisticHitPathTest, UnpinErrorsMatchLatchedCodes) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 2);
  // Non-resident page: the probe misses, and the latched path reports
  // NotFound.
  EXPECT_EQ(pool.UnpinPage(999, false).code(), StatusCode::kNotFound);
  // Resident but unpinned: the probe sees pin == 0 and defers to the
  // latched path, which reports InvalidArgument.
  EXPECT_EQ(pool.UnpinPage(pages[0], false).code(),
            StatusCode::kInvalidArgument);
  // Balanced unpin still works afterwards.
  auto page = pool.FetchPage(pages[0]);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(pool.UnpinPage(pages[0], false).ok());
  EXPECT_EQ((*page)->pin_count(), 0);
}

TEST(OptimisticHitPathTest, PinCountsAreEvictionGroundTruth) {
  // The policy is never told of pins — AcquireFrame trusts the atomic pin
  // counts. Pinned pages must survive eviction pressure and exhaust the
  // pool (PolicyPinTest in bufferpool_test.cc runs this under every
  // policy).
  SimDiskManager disk;
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 8);

  std::vector<Page*> pinned;
  for (size_t i = 0; i < 4; ++i) {
    auto page = pool.FetchPage(pages[i]);
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
  }
  // Every frame pinned: the next distinct fetch finds no victim.
  auto exhausted = pool.FetchPage(pages[7]);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  // The pinned pages were untouched by the failed eviction hunt.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.IsResident(pages[i]));
    EXPECT_EQ(pinned[i]->pin_count(), 1);
  }
  // Releasing one pin re-enables eviction.
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  auto fetched = pool.FetchPage(pages[7]);
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.UnpinPage(pages[7], false).ok());
  for (size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(pool.UnpinPage(pages[i], false).ok());
  }
}

TEST(OptimisticHitPathTest, DeleteRefusesPinnedAndReusesIds) {
  SimDiskManager disk;
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 4);

  auto page = pool.FetchPage(pages[0]);
  ASSERT_TRUE(page.ok());
  // Pinned: the bucket-locked delete sees pin > 0 and refuses.
  EXPECT_EQ(pool.DeletePage(pages[0]).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());

  // Unpinned: the delete lands, the frame returns to the free list, and
  // the allocator hands the id out again.
  ASSERT_TRUE(pool.DeletePage(pages[0]).ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  EXPECT_EQ(pool.DeletePage(pages[0]).code(), StatusCode::kNotFound);
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->id(), pages[0]);
  EXPECT_TRUE(pool.UnpinPage((*fresh)->id(), true).ok());
}

}  // namespace
}  // namespace lruk

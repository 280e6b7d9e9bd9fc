// Cross-module integration tests: the full stack (workload -> simulator ->
// policy) reproducing the paper's qualitative claims, and the B+tree +
// buffer pool + LRU-K stack reproducing Example 1.1's buffer composition.

#include <memory>
#include <unordered_set>

#include "btree/btree.h"
#include "bufferpool/buffer_pool.h"
#include "core/lru.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "sim/simulator.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "workload/correlated.h"
#include "workload/trace.h"
#include "workload/moving_hotspot.h"
#include "workload/sequential.h"
#include "workload/two_pool.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

SimOptions Sim(size_t capacity, uint64_t warmup, uint64_t measure) {
  SimOptions sim;
  sim.capacity = capacity;
  sim.warmup_refs = warmup;
  sim.measure_refs = measure;
  return sim;
}

TEST(IntegrationTest, TwoPoolLru2KeepsHotPoolResident) {
  // Example 1.1's fix: with B slightly above N1, LRU-2 should hold nearly
  // all hot (index) pages while LRU-1 wastes half the buffer on cold pages.
  TwoPoolOptions topt;
  topt.n1 = 100;
  topt.n2 = 10000;
  TwoPoolWorkload gen(topt);
  SimOptions sim = Sim(110, 10 * topt.n1, 30 * topt.n1);

  auto lru1 = SimulatePolicy(PolicyConfig::Lru(), gen, sim);
  auto lru2 = SimulatePolicy(PolicyConfig::LruK(2), gen, sim);
  ASSERT_TRUE(lru1.ok() && lru2.ok());

  // Buffer composition at the end: LRU-1 splits ~50/50 (paper Section 1.1),
  // LRU-2 should hold the vast majority of pool-1 pages.
  uint64_t lru1_hot = lru1->classes[0].resident_at_end;
  uint64_t lru2_hot = lru2->classes[0].resident_at_end;
  EXPECT_LT(lru1_hot, 70u);
  EXPECT_GT(lru2_hot, 90u);
  EXPECT_GT(lru2->HitRatio(), lru1->HitRatio() + 0.1);
}

TEST(IntegrationTest, ScanResistanceOfLru2) {
  // Example 1.2: sequential scans poison LRU but barely dent LRU-2,
  // because scanned pages have b_t(p,2) = infinity and are replaced early.
  MixedScanOptions mopt;
  mopt.hot_pages = 200;
  mopt.total_pages = 20000;
  mopt.hot_probability = 0.95;
  // 70% of references come from the scanner: LRU's residence time
  // (~B / miss-rate ~ 430 refs) then falls below the hot pages'
  // interarrival (~700 refs) and the hot set churns out of the buffer.
  mopt.scan_fraction = 0.7;
  mopt.scan_initially_active = true;

  MixedScanWorkload gen(mopt);
  SimOptions sim = Sim(300, 20000, 40000);
  auto lru1 = SimulatePolicy(PolicyConfig::Lru(), gen, sim);
  auto lru2 = SimulatePolicy(PolicyConfig::LruK(2), gen, sim);
  ASSERT_TRUE(lru1.ok() && lru2.ok());
  // Hot-class hit ratios: LRU-2 keeps serving the interactive class.
  double lru1_hot = lru1->classes[0].HitRatio();
  double lru2_hot = lru2->classes[0].HitRatio();
  EXPECT_GT(lru2_hot, lru1_hot + 0.1);
  EXPECT_GT(lru2_hot, 0.9);
}

TEST(IntegrationTest, Lru2AdaptsToMovingHotspotUnlikeLfu) {
  // Section 4.3's LFU caveat: cumulative counts freeze the old hot set.
  MovingHotspotOptions mopt;
  mopt.num_pages = 5000;
  mopt.hot_pages = 50;
  mopt.hot_probability = 0.9;
  mopt.epoch_length = 15000;
  mopt.shift = 1000;  // Hot set moves far each epoch.
  MovingHotspotWorkload gen(mopt);
  SimOptions sim = Sim(100, 30000, 60000);  // Several epochs measured.
  auto lru2 = SimulatePolicy(PolicyConfig::LruK(2), gen, sim);
  auto lfu = SimulatePolicy(PolicyConfig::Lfu(), gen, sim);
  ASSERT_TRUE(lru2.ok() && lfu.ok());
  EXPECT_GT(lru2->HitRatio(), lfu->HitRatio() + 0.05);
}

TEST(IntegrationTest, CorrelatedReferencePeriodFiltersBursts) {
  // On a burst-heavy cold stream mixed with a steady hot set, an LRU-2
  // with a sufficient CRP must beat an LRU-2 with CRP = 0: without the
  // time-out, a burst of 3 references makes a cold page look hot.
  auto make_gen = [] {
    TwoPoolOptions topt;
    topt.n1 = 64;
    topt.n2 = 20000;
    topt.seed = 5;
    auto base = std::make_unique<TwoPoolWorkload>(topt);
    CorrelatedOptions copt;
    copt.burst_probability = 0.5;
    copt.max_burst_length = 4;
    copt.seed = 6;
    return std::make_unique<CorrelatedWorkload>(std::move(base), copt);
  };
  SimOptions sim = Sim(96, 20000, 60000);
  auto gen_no_crp = make_gen();
  auto no_crp = SimulatePolicy(PolicyConfig::LruK(2, /*crp=*/0),
                               *gen_no_crp, sim);
  auto gen_crp = make_gen();
  auto with_crp = SimulatePolicy(PolicyConfig::LruK(2, /*crp=*/8),
                                 *gen_crp, sim);
  ASSERT_TRUE(no_crp.ok() && with_crp.ok());
  EXPECT_GT(with_crp->HitRatio(), no_crp->HitRatio());
}

TEST(IntegrationTest, RetainedInformationIsLoadBearing) {
  // The Section 2.1.2 scenario: hot pages are re-referenced at intervals
  // (~2*N1 = 200 refs) longer than their first-fault residence, so without
  // retained history LRU-2 never observes a second reference — every fault
  // looks brand new and the policy degenerates to its subsidiary LRU. With
  // history retained, the second fault reveals the finite interarrival and
  // the hot pool gets pinned down.
  // Concretely (paper Section 5): "a page referenced with metronome-like
  // regularity at intervals just above its residence period will [n]ever be
  // noticed as referenced twice" without retained history. Page 0 recurs
  // every 32 references; everything else is a one-shot stream of distinct
  // pages; the buffer holds 16 pages, so page 0 is always evicted before
  // it returns.
  constexpr uint64_t kPeriod = 32;
  constexpr uint64_t kTotal = 4800;
  std::vector<AccessRecord> refs;
  PageId fresh = 1;
  for (uint64_t t = 0; t < kTotal; ++t) {
    if (t % kPeriod == 0) {
      refs.push_back({.page = 0, .type = AccessType::kRead});
    } else {
      refs.push_back({.page = fresh++, .type = AccessType::kRead});
    }
  }
  TraceWorkload gen(std::move(refs));
  SimOptions sim = Sim(16, 800, kTotal - 800);

  auto infinite = SimulatePolicy(
      PolicyConfig::LruK(2, 0, kInfinitePeriod), gen, sim);
  auto tiny = SimulatePolicy(PolicyConfig::LruK(2, 0, /*rip=*/1), gen, sim);
  ASSERT_TRUE(infinite.ok() && tiny.ok());
  // With retained history, page 0's second fault reveals b = 32 (finite),
  // it gets pinned down by the victim order, and every later metronome
  // reference hits. Without history it never hits at all.
  EXPECT_EQ(tiny->hits, 0u);
  EXPECT_GT(infinite->hits, 100u);
}

struct Example11Result {
  double index_fraction = 0.0;  // Index pages / resident pages at the end.
  uint64_t probe_reads = 0;     // Disk reads during the probe phase.
};

// Builds the Example 1.1 database: a clustered index over 20,000 keys
// (scaled to 2,000 for test speed) whose values name record pages; probes
// random keys and fixes each key's record page `record_fixes` times in a
// row (2 = the Get-then-Update pair of a read-modify-write).
void RunExample11(std::unique_ptr<ReplacementPolicy> policy, int record_fixes,
                  Example11Result* result) {
  constexpr uint64_t kKeys = 2000;
  constexpr uint64_t kRecordsPerPage = 2;
  SimDiskManager disk;
  BufferPool pool(32, &disk, std::move(policy));

  // Record pages first.
  std::vector<PageId> record_pages;
  for (uint64_t i = 0; i < kKeys / kRecordsPerPage; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    record_pages.push_back((*page)->id());
    ASSERT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
  }
  BTreeOptions options;
  options.leaf_capacity = 100;
  BTree tree(&pool, options);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree.Insert(k, record_pages[k / kRecordsPerPage]).ok());
  }
  std::unordered_set<PageId> index_pages;
  auto leaves = tree.LeafPageIds();
  ASSERT_TRUE(leaves.ok());
  index_pages.insert(leaves->begin(), leaves->end());
  index_pages.insert(tree.RootPageId());

  // Probe phase: random key -> index descent -> record page fix(es).
  const uint64_t reads_before = disk.stats().reads;
  RandomEngine rng(31337);
  for (int probe = 0; probe < 20000; ++probe) {
    uint64_t key = rng.NextBounded(kKeys);
    auto record_page = tree.Get(key);
    ASSERT_TRUE(record_page.ok());
    for (int fix = 0; fix < record_fixes; ++fix) {
      auto guard = PageGuard::Fetch(pool, *record_page);
      ASSERT_TRUE(guard.ok());
      if (fix > 0) guard->MutableData()[0] ^= 1;  // The update.
    }
  }
  result->probe_reads = disk.stats().reads - reads_before;

  // Composition: fraction of resident pages that are index pages.
  size_t index_resident = 0;
  size_t total_resident = 0;
  for (PageId p = 0; p < disk.NumAllocatedPages() + 8; ++p) {
    if (!pool.IsResident(p)) continue;
    ++total_resident;
    if (index_pages.contains(p)) ++index_resident;
  }
  ASSERT_GT(total_resident, 0u);
  result->index_fraction =
      static_cast<double>(index_resident) / static_cast<double>(total_resident);
}

std::unique_ptr<ReplacementPolicy> MakeLru2() {
  LruKOptions options;
  options.k = 2;
  return std::make_unique<LruKPolicy>(options);
}

TEST(IntegrationTest, BTreeExample11CompositionUnderLruK) {
  // Under LRU-2 the pool should fill with index pages, under LRU the mix
  // stays diluted.
  Example11Result lru;
  Example11Result lruk;
  {
    SCOPED_TRACE("LRU");
    RunExample11(std::make_unique<LruPolicy>(), 1, &lru);
  }
  {
    SCOPED_TRACE("LRU-2");
    RunExample11(MakeLru2(), 1, &lruk);
  }
  // LRU-2's buffer must be much richer in index pages. With 2000 keys at
  // 100 per packed leaf the index is 21 pages (20 leaves + root), so the
  // achievable maximum fraction in the 32-frame pool is 21/32 ~ 0.66 —
  // which LRU-2 should hit while LRU stays diluted by record pages.
  EXPECT_GT(lruk.index_fraction, lru.index_fraction + 0.1);
  EXPECT_GT(lruk.index_fraction, 0.62);
  EXPECT_LT(lru.index_fraction, 0.55);
}

TEST(IntegrationTest, BTreeExample11RecordRefixIsOneReference) {
  // The same probes, but each record page is fixed twice back to back, as
  // a Get-then-Update pair does. The paper's §2.1.1 counts such a pair as
  // one reference: the second fix must not make record pages look twice
  // as popular as index pages. So LRU-2 keeps the index resident and pays
  // exactly the single-fix probe's reads, and Example 1.1's result holds:
  // LRU-2 reads less than LRU.
  Example11Result single;
  Example11Result paired;
  Example11Result lru_paired;
  {
    SCOPED_TRACE("LRU-2 single fix");
    RunExample11(MakeLru2(), 1, &single);
  }
  {
    SCOPED_TRACE("LRU-2 paired fix");
    RunExample11(MakeLru2(), 2, &paired);
  }
  {
    SCOPED_TRACE("LRU paired fix");
    RunExample11(std::make_unique<LruPolicy>(), 2, &lru_paired);
  }
  EXPECT_GT(paired.index_fraction, 0.62);
  EXPECT_EQ(paired.probe_reads, single.probe_reads);
  EXPECT_LT(paired.probe_reads, lru_paired.probe_reads);
}

TEST(IntegrationTest, FullStackDeterminism) {
  // Same seed, same configuration: the entire stack must be bit-stable.
  ZipfianOptions zopt;
  zopt.num_pages = 400;
  ZipfianWorkload gen(zopt);
  SimOptions sim = Sim(64, 3000, 9000);
  auto a = SimulatePolicy(PolicyConfig::LruK(3), gen, sim);
  auto b = SimulatePolicy(PolicyConfig::LruK(3), gen, sim);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->hits, b->hits);
  EXPECT_EQ(a->evictions, b->evictions);
  EXPECT_EQ(a->total_misses, b->total_misses);
}

}  // namespace
}  // namespace lruk

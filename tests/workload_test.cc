// Tests for the reference-string generators: determinism under Reset, the
// distributional properties the paper's experiments rely on, and class
// labeling.

#include <memory>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "workload/correlated.h"
#include "workload/moving_hotspot.h"
#include "workload/sequential.h"
#include "workload/synthetic_oltp.h"
#include "workload/two_pool.h"
#include "workload/uniform_workload.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

// Every generator must replay the identical stream after Reset().
void ExpectResetDeterminism(ReferenceStringGenerator& gen, int n = 2000) {
  gen.Reset();  // Start from the stream head regardless of prior draws.
  std::vector<PageId> first;
  first.reserve(n);
  for (int i = 0; i < n; ++i) first.push_back(gen.Next().page);
  gen.Reset();
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(gen.Next().page, first[i]) << "diverged at position " << i;
  }
}

TEST(TwoPoolTest, AlternatesPools) {
  TwoPoolOptions options;
  options.n1 = 10;
  options.n2 = 100;
  TwoPoolWorkload gen(options);
  for (int i = 0; i < 500; ++i) {
    AccessRecord ref = gen.Next();
    if (i % 2 == 0) {
      EXPECT_LT(ref.page, 10u) << "even positions reference pool 1";
    } else {
      EXPECT_GE(ref.page, 10u);
      EXPECT_LT(ref.page, 110u);
    }
  }
}

TEST(TwoPoolTest, ProbabilitiesMatchPaperFormula) {
  TwoPoolOptions options;
  options.n1 = 100;
  options.n2 = 10000;
  TwoPoolWorkload gen(options);
  auto probs = gen.Probabilities();
  ASSERT_TRUE(probs.has_value());
  ASSERT_EQ(probs->size(), 10100u);
  EXPECT_DOUBLE_EQ((*probs)[0], 1.0 / 200.0);       // beta_1 = 1/(2*N1).
  EXPECT_DOUBLE_EQ((*probs)[100], 1.0 / 20000.0);   // beta_2 = 1/(2*N2).
  double sum = std::accumulate(probs->begin(), probs->end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TwoPoolTest, ClassesSplitAtPoolBoundary) {
  TwoPoolOptions options;
  options.n1 = 10;
  options.n2 = 20;
  TwoPoolWorkload gen(options);
  EXPECT_EQ(gen.NumClasses(), 2u);
  EXPECT_EQ(gen.ClassOf(0), 0u);
  EXPECT_EQ(gen.ClassOf(9), 0u);
  EXPECT_EQ(gen.ClassOf(10), 1u);
  EXPECT_EQ(gen.ClassOf(29), 1u);
}

TEST(TwoPoolTest, ResetReplaysStream) {
  TwoPoolWorkload gen(TwoPoolOptions{});
  ExpectResetDeterminism(gen);
}

TEST(TwoPoolTest, WriteFractionProducesWrites) {
  TwoPoolOptions options;
  options.write_fraction = 0.5;
  TwoPoolWorkload gen(options);
  int writes = 0;
  for (int i = 0; i < 2000; ++i) {
    if (gen.Next().type == AccessType::kWrite) ++writes;
  }
  EXPECT_NEAR(writes / 2000.0, 0.5, 0.05);
}

TEST(ZipfianTest, EightyTwentyReferenceSkew) {
  ZipfianOptions options;
  options.num_pages = 1000;
  options.alpha = 0.8;
  options.beta = 0.2;
  ZipfianWorkload gen(options);
  int hot = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.Next().page < 200) ++hot;  // Hottest 20% of pages.
  }
  EXPECT_NEAR(hot / static_cast<double>(kDraws), 0.8, 0.01);
}

TEST(ZipfianTest, ProbabilitiesSumToOneAndDecrease) {
  ZipfianOptions options;
  options.num_pages = 500;
  ZipfianWorkload gen(options);
  auto probs = gen.Probabilities();
  ASSERT_TRUE(probs.has_value());
  double sum = std::accumulate(probs->begin(), probs->end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (size_t i = 1; i < probs->size(); ++i) {
    EXPECT_LE((*probs)[i], (*probs)[i - 1]);
  }
}

TEST(ZipfianTest, ShuffledMappingKeepsProbabilityMass) {
  ZipfianOptions options;
  options.num_pages = 100;
  options.shuffle_pages = true;
  ZipfianWorkload gen(options);
  auto probs = gen.Probabilities();
  ASSERT_TRUE(probs.has_value());
  double sum = std::accumulate(probs->begin(), probs->end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Shuffled: page 0 is almost surely not the hottest.
  ExpectResetDeterminism(gen);
}

TEST(UniformTest, CoversAllPagesEvenly) {
  UniformOptions options;
  options.num_pages = 50;
  UniformWorkload gen(options);
  std::vector<int> counts(50, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[gen.Next().page];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
  ExpectResetDeterminism(gen);
}

TEST(SequentialScanTest, CyclesInOrder) {
  SequentialScanOptions options;
  options.num_pages = 5;
  options.start = 3;
  SequentialScanWorkload gen(options);
  std::vector<PageId> expected = {3, 4, 0, 1, 2, 3, 4};
  for (PageId want : expected) EXPECT_EQ(gen.Next().page, want);
  gen.Reset();
  EXPECT_EQ(gen.Next().page, 3u);
}

TEST(MixedScanTest, HotSetDominatesWithoutScan) {
  MixedScanOptions options;
  options.hot_pages = 100;
  options.total_pages = 10000;
  options.hot_probability = 0.95;
  MixedScanWorkload gen(options);
  int hot = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.Next().page < 100) ++hot;
  }
  // 95% targeted at the hot set plus ~1% of uniform spill.
  EXPECT_GT(hot / static_cast<double>(kDraws), 0.9);
}

TEST(MixedScanTest, ActiveScanEmitsSequentialRun) {
  MixedScanOptions options;
  options.hot_pages = 10;
  options.total_pages = 1000;
  options.scan_fraction = 1.0;  // Every reference from the scanner.
  options.scan_initially_active = true;
  MixedScanWorkload gen(options);
  for (PageId expected = 0; expected < 50; ++expected) {
    EXPECT_EQ(gen.Next().page, expected);
  }
}

TEST(MixedScanTest, TogglingScanChangesMix) {
  MixedScanOptions options;
  options.hot_pages = 10;
  options.total_pages = 100000;
  options.scan_fraction = 0.9;
  MixedScanWorkload gen(options);
  EXPECT_FALSE(gen.scan_active());
  gen.SetScanActive(true);
  int sequential_region = 0;
  for (int i = 0; i < 1000; ++i) {
    // Scan cursor starts at 0 and the hot set is tiny, so scan references
    // stay below 1000 for this draw count while random cold references
    // almost never land there.
    PageId p = gen.Next().page;
    if (p >= 10 && p < 1000) ++sequential_region;
  }
  EXPECT_GT(sequential_region, 700);
  gen.Reset();
  EXPECT_FALSE(gen.scan_active());  // Reset restores the initial phase.
}

TEST(MovingHotspotTest, WindowMovesEachEpoch) {
  MovingHotspotOptions options;
  options.num_pages = 1000;
  options.hot_pages = 10;
  options.epoch_length = 100;
  options.shift = 50;
  options.hot_probability = 1.0;
  MovingHotspotWorkload gen(options);
  for (int i = 0; i < 100; ++i) {
    PageId p = gen.Next().page;
    EXPECT_LT(p, 10u) << "epoch 0 window is [0,10)";
  }
  for (int i = 0; i < 100; ++i) {
    PageId p = gen.Next().page;
    EXPECT_GE(p, 50u) << "epoch 1 window is [50,60)";
    EXPECT_LT(p, 60u);
  }
  EXPECT_EQ(gen.hot_window_start(), 50u);
  EXPECT_EQ(gen.ClassOf(55), 0u);
  EXPECT_EQ(gen.ClassOf(5), 1u);
}

TEST(MovingHotspotTest, WindowWrapsAround) {
  MovingHotspotOptions options;
  options.num_pages = 100;
  options.hot_pages = 10;
  options.epoch_length = 10;
  options.shift = 95;
  options.hot_probability = 1.0;
  MovingHotspotWorkload gen(options);
  for (int i = 0; i < 10; ++i) gen.Next();
  gen.Next();  // Enter epoch 1: window starts at 95, wraps to 5.
  EXPECT_EQ(gen.hot_window_start(), 95u);
  EXPECT_EQ(gen.ClassOf(97), 0u);
  EXPECT_EQ(gen.ClassOf(3), 0u);  // 95 + 8 wraps.
  EXPECT_EQ(gen.ClassOf(50), 1u);
  ExpectResetDeterminism(gen);
}

TEST(SyntheticOltpTest, MatchesReportedQuantiles) {
  SyntheticOltpOptions options;
  options.num_pages = 20000;
  options.sequential_share = 0.0;  // Isolate the skewed probes.
  options.navigational_share = 0.0;
  options.hot_drift_period = 0;    // Freeze the mapping for fixed bands.
  SyntheticOltpWorkload gen(options);
  constexpr int kDraws = 200000;
  int band_a = 0;
  int band_ab = 0;
  uint64_t a_end = 600;    // 3% of 20000.
  uint64_t b_end = 13000;  // 65% of 20000.
  for (int i = 0; i < kDraws; ++i) {
    PageId p = gen.Next().page;
    if (p < a_end) ++band_a;
    if (p < b_end) ++band_ab;
  }
  // The paper: 40% of references -> 3% of pages; ~90% -> 65% (the
  // recursive-skew CDF gives 0.894 at the 65% boundary).
  EXPECT_NEAR(band_a / static_cast<double>(kDraws), 0.40, 0.01);
  EXPECT_NEAR(band_ab / static_cast<double>(kDraws), 0.894, 0.01);
}

TEST(SyntheticOltpTest, EmitsSequentialRuns) {
  SyntheticOltpOptions options;
  options.num_pages = 10000;
  options.sequential_share = 1.0;  // Scan runs only.
  options.navigational_share = 0.0;
  SyntheticOltpWorkload gen(options);
  int consecutive = 0;
  PageId prev = gen.Next().page;
  for (int i = 0; i < 2000; ++i) {
    PageId p = gen.Next().page;
    if (p == (prev + 1) % 10000) ++consecutive;
    prev = p;
  }
  EXPECT_GT(consecutive, 1800);  // Mostly +1 steps inside runs.
}

TEST(SyntheticOltpTest, ClassesFollowBands) {
  SyntheticOltpOptions options;
  options.num_pages = 10000;
  SyntheticOltpWorkload gen(options);
  EXPECT_EQ(gen.NumClasses(), 3u);
  EXPECT_EQ(gen.ClassOf(0), 0u);
  EXPECT_EQ(gen.ClassOf(299), 0u);    // 3% = 300 pages.
  EXPECT_EQ(gen.ClassOf(300), 1u);
  EXPECT_EQ(gen.ClassOf(6499), 1u);   // 65% boundary at page 6500.
  EXPECT_EQ(gen.ClassOf(6500), 2u);
  EXPECT_EQ(gen.ClassOf(9999), 2u);
  ExpectResetDeterminism(gen);
}

TEST(CorrelatedTest, BurstsRepeatTheSamePage) {
  auto base = std::make_unique<UniformWorkload>(UniformOptions{
      .num_pages = 100000, .seed = 1, .write_fraction = 0.0});
  CorrelatedOptions options;
  options.burst_probability = 1.0;  // Every reference bursts.
  options.max_burst_length = 3;
  CorrelatedWorkload gen(std::move(base), options);
  // With p = 1 the stream is a concatenation of runs of length 2 or 3 of
  // the same page (distinct base pages collide with probability ~1e-5).
  std::vector<PageId> stream;
  for (int i = 0; i < 999; ++i) stream.push_back(gen.Next().page);
  size_t i = 0;
  while (i + 1 < stream.size()) {
    size_t run = 1;
    while (i + run < stream.size() && stream[i + run] == stream[i]) ++run;
    if (i + run >= stream.size()) break;  // Final run may be truncated.
    EXPECT_GE(run, 2u) << "run starting at " << i;
    EXPECT_LE(run, 3u) << "run starting at " << i;
    i += run;
  }
}

TEST(CorrelatedTest, ZeroProbabilityIsTransparent) {
  UniformOptions uopt{.num_pages = 1000, .seed = 7, .write_fraction = 0.0};
  auto base = std::make_unique<UniformWorkload>(uopt);
  UniformWorkload reference(uopt);
  CorrelatedOptions options;
  options.burst_probability = 0.0;
  CorrelatedWorkload gen(std::move(base), options);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(gen.Next().page, reference.Next().page);
  }
}

TEST(CorrelatedTest, ResetRestartsBursts) {
  auto base = std::make_unique<UniformWorkload>(
      UniformOptions{.num_pages = 500, .seed = 3, .write_fraction = 0.0});
  CorrelatedOptions options;
  options.burst_probability = 0.5;
  CorrelatedWorkload gen(std::move(base), options);
  ExpectResetDeterminism(gen);
}

TEST(MaterializeTest, TraceAndRefsAgree) {
  TwoPoolWorkload gen(TwoPoolOptions{});
  auto trace = MaterializeTrace(gen, 100);
  gen.Reset();
  auto refs = MaterializeRefs(gen, 100);
  ASSERT_EQ(trace.size(), 100u);
  ASSERT_EQ(refs.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(trace[i], refs[i].page);
}

}  // namespace
}  // namespace lruk

// Synthetic stand-in for the paper's Section 4.3 OLTP trace (a one-hour
// page-reference trace of a large bank's production CODASYL system,
// ~470,000 references, 20 GB database). The real trace is unavailable, so
// this generator reproduces the *statistics the paper reports about it*:
//
//  * "random, sequential, and navigational references to a CODASYL
//    database" — a three-way mixture of (a) independent skewed probes,
//    (b) sequential scan runs, (c) navigational chain traversals (short
//    forward hops along record chains);
//  * "an extremely high access skew for the hottest pages: 40% of the
//    references access only 3% of the database pages" while "90% of the
//    references access 65% of the pages" — the probes draw from a
//    recursive skew distribution with alpha = 0.40, beta = 0.03, whose
//    closed-form CDF (i/N)^(log alpha / log beta) matches BOTH quantiles:
//    Cdf(3%) = 0.40 exactly and Cdf(65%) = 0.894 ~ 0.90.
//
// Mixture components are specified as shares of *references* (not of run
// starts), so `sequential_share = 0.15` really means 15% of the emitted
// reference string comes from scan runs regardless of the mean run length.
//
// See DESIGN.md's substitution table for why this preserves the Table 4.3
// comparison (the conclusions depend on the hot-head/flat-tail skew shape
// plus scan/navigational pollution, not the literal bank data).

#ifndef LRUK_WORKLOAD_SYNTHETIC_OLTP_H_
#define LRUK_WORKLOAD_SYNTHETIC_OLTP_H_

#include <vector>

#include "util/random.h"
#include "util/zipf.h"
#include "workload/workload.h"

namespace lruk {

struct SyntheticOltpOptions {
  uint64_t num_pages = 25000;  // Pages accessed in the trace.
  // Probe skew: `skew_ref_fraction` of probe references hit
  // `skew_page_fraction` of the pages, recursively (paper quantiles).
  double skew_ref_fraction = 0.40;
  double skew_page_fraction = 0.03;
  // Reference-share mixture. Shares must sum to < 1; the remainder are
  // independent skewed probes.
  double sequential_share = 0.15;
  double navigational_share = 0.15;
  double mean_scan_run = 24.0;  // Geometric mean run lengths.
  double mean_nav_run = 8.0;
  uint64_t nav_stride = 3;  // Forward hop of 1..nav_stride pages.
  double write_fraction = 0.2;
  // Slow hot-spot churn: every `hot_drift_period` references one random
  // hot-band rank trades places with one random cold rank (0 disables).
  // A production workload is only "fairly stable" over an hour (paper
  // Section 4.3) — individual hot records come and go even while the
  // aggregate skew stays fixed. The default churns a hot page's identity
  // with a half-life of ~56k references (~7 minutes of the hour-long
  // trace); this is what separates LRU-2 (which re-evaluates a page from
  // its last two references) from the never-forgetting LFU, exactly as
  // the paper observed.
  uint64_t hot_drift_period = 75;
  uint64_t seed = 42;
};

class SyntheticOltpWorkload final : public ReferenceStringGenerator {
 public:
  explicit SyntheticOltpWorkload(SyntheticOltpOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.num_pages; }
  std::string_view Name() const override { return "synthetic-oltp"; }

  // Classes follow the two reported quantile boundaries:
  // 0 = hottest 3%, 1 = next 62%, 2 = coldest 35%.
  uint32_t ClassOf(PageId page) const override;
  uint32_t NumClasses() const override { return 3; }
  std::string_view ClassName(uint32_t cls) const override {
    switch (cls) {
      case 0:
        return "hot3%";
      case 1:
        return "warm62%";
      default:
        return "cold35%";
    }
  }

 private:
  enum class Mode { kIdle, kScan, kNav };

  PageId SampleProbe();
  uint64_t GeometricLength(double mean);
  // Applies one hot/cold swap to the rank -> page mapping.
  void ChurnStep();

  SyntheticOltpOptions options_;
  RecursiveSkewDistribution probe_dist_;
  RandomEngine rng_;
  RandomEngine drift_rng_;
  // page_of_rank_[r] = page currently holding rank r+1; rank_of_page_ is
  // its inverse (used by ClassOf).
  std::vector<PageId> page_of_rank_;
  std::vector<uint64_t> rank_of_page_;
  // Per-idle-decision start probabilities derived from reference shares.
  double scan_start_probability_;
  double nav_start_probability_;
  // Class boundaries (page ids): [0, a_end_) hot, [a_end_, b_end_) warm.
  uint64_t a_end_;
  uint64_t b_end_;

  Mode mode_ = Mode::kIdle;
  uint64_t run_remaining_ = 0;
  PageId cursor_ = 0;
  uint64_t refs_emitted_ = 0;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_SYNTHETIC_OLTP_H_

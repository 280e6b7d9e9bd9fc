#include "workload/synthetic_oltp.h"

#include <algorithm>
#include <numeric>
#include <cmath>

#include "util/macros.h"

namespace lruk {

SyntheticOltpWorkload::SyntheticOltpWorkload(SyntheticOltpOptions options)
    : options_(options),
      probe_dist_(options.skew_ref_fraction, options.skew_page_fraction,
                  options.num_pages),
      rng_(options.seed),
      drift_rng_(options.seed ^ 0xD81F7ULL) {
  LRUK_ASSERT(options_.num_pages >= 100, "trace database too small");
  double probe_share =
      1.0 - options_.sequential_share - options_.navigational_share;
  LRUK_ASSERT(probe_share >= 0.0, "mixture shares exceed 1");
  LRUK_ASSERT(options_.mean_scan_run >= 1.0 && options_.mean_nav_run >= 1.0,
              "mean run lengths must be >= 1");

  // Convert reference shares into run-start probabilities. Each idle
  // decision yields `mean_run` references for a run mode and 1 for a
  // probe, so per-decision expected references are
  //   E = 1 / (probe_share + seq/mean_scan + nav/mean_nav)
  // and the start probability of a mode is share * E / mean_run.
  double denom = probe_share +
                 options_.sequential_share / options_.mean_scan_run +
                 options_.navigational_share / options_.mean_nav_run;
  LRUK_ASSERT(denom > 0.0, "degenerate mixture");
  double per_decision_refs = 1.0 / denom;
  scan_start_probability_ =
      options_.sequential_share * per_decision_refs / options_.mean_scan_run;
  nav_start_probability_ =
      options_.navigational_share * per_decision_refs / options_.mean_nav_run;

  a_end_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(options_.skew_page_fraction *
                               static_cast<double>(options_.num_pages)));
  b_end_ = std::min(
      options_.num_pages - 1,
      std::max(a_end_ + 1,
               static_cast<uint64_t>(0.65 *
                                     static_cast<double>(options_.num_pages))));
  page_of_rank_.resize(options_.num_pages);
  rank_of_page_.resize(options_.num_pages);
  std::iota(page_of_rank_.begin(), page_of_rank_.end(), PageId{0});
  std::iota(rank_of_page_.begin(), rank_of_page_.end(), uint64_t{0});
}

void SyntheticOltpWorkload::ChurnStep() {
  // One random hot-band rank trades places with one random colder rank:
  // a hot record abruptly goes cold and an unknown one becomes hot.
  uint64_t hot_rank = drift_rng_.NextBounded(a_end_);
  uint64_t cold_rank =
      a_end_ + drift_rng_.NextBounded(options_.num_pages - a_end_);
  PageId hot_page = page_of_rank_[hot_rank];
  PageId cold_page = page_of_rank_[cold_rank];
  std::swap(page_of_rank_[hot_rank], page_of_rank_[cold_rank]);
  std::swap(rank_of_page_[hot_page], rank_of_page_[cold_page]);
}

uint32_t SyntheticOltpWorkload::ClassOf(PageId page) const {
  uint64_t rank_pos = rank_of_page_[page];
  if (rank_pos < a_end_) return 0;
  if (rank_pos < b_end_) return 1;
  return 2;
}

PageId SyntheticOltpWorkload::SampleProbe() {
  return page_of_rank_[probe_dist_.Sample(rng_) - 1];
}

uint64_t SyntheticOltpWorkload::GeometricLength(double mean) {
  // Geometric with the given mean (>= 1): P(len = n) = p(1-p)^(n-1),
  // p = 1/mean, sampled by inversion.
  double p = 1.0 / std::max(1.0, mean);
  double u = rng_.NextDouble();
  double len = std::ceil(std::log1p(-u) / std::log1p(-p));
  if (len < 1.0) len = 1.0;
  if (len > 1e6) len = 1e6;
  return static_cast<uint64_t>(len);
}

AccessRecord SyntheticOltpWorkload::Next() {
  AccessRecord ref;
  ++refs_emitted_;
  if (options_.hot_drift_period != 0 &&
      refs_emitted_ % options_.hot_drift_period == 0) {
    ChurnStep();
  }
  if (mode_ != Mode::kIdle) {
    // Continue the active run.
    if (mode_ == Mode::kScan) {
      cursor_ = (cursor_ + 1) % options_.num_pages;
    } else {
      // Navigational hop: forward along the record chain (no revisits
      // within a run; CODASYL set traversal moves forward).
      cursor_ = (cursor_ + 1 + rng_.NextBounded(options_.nav_stride)) %
                options_.num_pages;
    }
    ref.page = cursor_;
    if (--run_remaining_ == 0) mode_ = Mode::kIdle;
  } else {
    double u = rng_.NextDouble();
    if (u < scan_start_probability_) {
      // Start a scan run at a uniformly random position.
      cursor_ = rng_.NextBounded(options_.num_pages);
      run_remaining_ = GeometricLength(options_.mean_scan_run);
      mode_ = Mode::kScan;
      ref.page = cursor_;
      if (--run_remaining_ == 0) mode_ = Mode::kIdle;
    } else if (u < scan_start_probability_ + nav_start_probability_) {
      // Start a navigational walk from a skew-sampled record.
      cursor_ = SampleProbe();
      run_remaining_ = GeometricLength(options_.mean_nav_run);
      mode_ = Mode::kNav;
      ref.page = cursor_;
      if (--run_remaining_ == 0) mode_ = Mode::kIdle;
    } else {
      ref.page = SampleProbe();
    }
  }
  ref.type = rng_.NextBernoulli(options_.write_fraction) ? AccessType::kWrite
                                                         : AccessType::kRead;
  return ref;
}

void SyntheticOltpWorkload::Reset() {
  rng_ = RandomEngine(options_.seed);
  drift_rng_ = RandomEngine(options_.seed ^ 0xD81F7ULL);
  mode_ = Mode::kIdle;
  run_remaining_ = 0;
  cursor_ = 0;
  refs_emitted_ = 0;
  std::iota(page_of_rank_.begin(), page_of_rank_.end(), PageId{0});
  std::iota(rank_of_page_.begin(), rank_of_page_.end(), uint64_t{0});
}

}  // namespace lruk

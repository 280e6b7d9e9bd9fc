// Correlated-reference decorator (Section 2.1.1): wraps any base workload
// and, with probability `burst_probability` per base reference, expands it
// into a burst of `1 + extra` back-to-back references to the same page —
// modeling intra-transaction re-reads, transaction retries, and batch
// intra-process patterns (the paper's correlated reference-pair types 1-3).
//
// The burst length is uniform in [2, max_burst_length]. Bursts are exactly
// the pattern the Correlated Reference Period is designed to neutralize:
// with CRP >= max gap, LRU-K collapses each burst into a single
// uncorrelated reference; with CRP = 0 a burst of b references makes a
// cold page look like it has interarrival time ~1 and poisons the buffer.

#ifndef LRUK_WORKLOAD_CORRELATED_H_
#define LRUK_WORKLOAD_CORRELATED_H_

#include <memory>

#include "util/random.h"
#include "workload/workload.h"

namespace lruk {

struct CorrelatedOptions {
  double burst_probability = 0.3;
  uint32_t max_burst_length = 4;  // Total references per burst, >= 2.
  uint64_t seed = 42;
};

class CorrelatedWorkload final : public ReferenceStringGenerator {
 public:
  CorrelatedWorkload(std::unique_ptr<ReferenceStringGenerator> base,
                     CorrelatedOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return base_->NumPages(); }
  std::string_view Name() const override { return "correlated"; }
  // The stationary per-reference distribution is distorted by bursts, so
  // no exact probability vector is exposed.
  uint32_t ClassOf(PageId page) const override { return base_->ClassOf(page); }
  uint32_t NumClasses() const override { return base_->NumClasses(); }
  std::string_view ClassName(uint32_t cls) const override {
    return base_->ClassName(cls);
  }

 private:
  std::unique_ptr<ReferenceStringGenerator> base_;
  CorrelatedOptions options_;
  RandomEngine rng_;
  AccessRecord pending_;     // Page the active burst repeats.
  uint32_t burst_remaining_ = 0;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_CORRELATED_H_

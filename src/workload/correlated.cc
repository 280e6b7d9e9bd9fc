#include "workload/correlated.h"

#include <utility>

#include "util/macros.h"

namespace lruk {

CorrelatedWorkload::CorrelatedWorkload(
    std::unique_ptr<ReferenceStringGenerator> base, CorrelatedOptions options)
    : base_(std::move(base)), options_(options), rng_(options.seed) {
  LRUK_ASSERT(base_ != nullptr, "CorrelatedWorkload needs a base workload");
  LRUK_ASSERT(options_.max_burst_length >= 2, "bursts must repeat the page");
}

AccessRecord CorrelatedWorkload::Next() {
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    return pending_;
  }
  AccessRecord ref = base_->Next();
  if (rng_.NextBernoulli(options_.burst_probability)) {
    uint32_t total =
        2 + static_cast<uint32_t>(rng_.NextBounded(options_.max_burst_length - 1));
    pending_ = ref;
    burst_remaining_ = total - 1;  // This call emits the first of `total`.
  }
  return ref;
}

void CorrelatedWorkload::Reset() {
  base_->Reset();
  rng_ = RandomEngine(options_.seed);
  burst_remaining_ = 0;
}

}  // namespace lruk

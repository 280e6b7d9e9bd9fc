#include "workload/sequential.h"

#include "util/macros.h"

namespace lruk {

SequentialScanWorkload::SequentialScanWorkload(SequentialScanOptions options)
    : options_(options), next_(options.start % options.num_pages) {
  LRUK_ASSERT(options_.num_pages >= 1, "need at least one page");
}

AccessRecord SequentialScanWorkload::Next() {
  AccessRecord ref;
  ref.page = next_;
  next_ = (next_ + 1) % options_.num_pages;
  return ref;
}

void SequentialScanWorkload::Reset() {
  next_ = options_.start % options_.num_pages;
}

MixedScanWorkload::MixedScanWorkload(MixedScanOptions options)
    : options_(options),
      rng_(options.seed),
      scan_active_(options.scan_initially_active) {
  LRUK_ASSERT(options_.hot_pages >= 1 &&
                  options_.hot_pages <= options_.total_pages,
              "hot set must fit in the database");
}

AccessRecord MixedScanWorkload::InteractiveRef() {
  AccessRecord ref;
  if (rng_.NextBernoulli(options_.hot_probability)) {
    ref.page = rng_.NextBounded(options_.hot_pages);
  } else {
    ref.page = rng_.NextBounded(options_.total_pages);
  }
  return ref;
}

AccessRecord MixedScanWorkload::Next() {
  if (scan_active_ && rng_.NextBernoulli(options_.scan_fraction)) {
    AccessRecord ref;
    ref.page = scan_cursor_;
    scan_cursor_ = (scan_cursor_ + 1) % options_.total_pages;
    return ref;
  }
  return InteractiveRef();
}

void MixedScanWorkload::Reset() {
  rng_ = RandomEngine(options_.seed);
  scan_active_ = options_.scan_initially_active;
  scan_cursor_ = 0;
}

}  // namespace lruk

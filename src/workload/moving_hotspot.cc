#include "workload/moving_hotspot.h"

#include "util/macros.h"

namespace lruk {

MovingHotspotWorkload::MovingHotspotWorkload(MovingHotspotOptions options)
    : options_(options), rng_(options.seed) {
  LRUK_ASSERT(options_.hot_pages >= 1 &&
                  options_.hot_pages <= options_.num_pages,
              "hot window must fit in the database");
  LRUK_ASSERT(options_.epoch_length >= 1, "epoch must be nonempty");
}

uint32_t MovingHotspotWorkload::ClassOf(PageId page) const {
  // Window [window_start_, window_start_ + hot_pages) with wraparound.
  uint64_t offset =
      (page + options_.num_pages - window_start_) % options_.num_pages;
  return offset < options_.hot_pages ? 0 : 1;
}

AccessRecord MovingHotspotWorkload::Next() {
  if (refs_in_epoch_ == options_.epoch_length) {
    refs_in_epoch_ = 0;
    window_start_ = (window_start_ + options_.shift) % options_.num_pages;
  }
  ++refs_in_epoch_;

  AccessRecord ref;
  if (rng_.NextBernoulli(options_.hot_probability)) {
    uint64_t offset = rng_.NextBounded(options_.hot_pages);
    ref.page = (window_start_ + offset) % options_.num_pages;
  } else {
    ref.page = rng_.NextBounded(options_.num_pages);
  }
  return ref;
}

void MovingHotspotWorkload::Reset() {
  rng_ = RandomEngine(options_.seed);
  window_start_ = 0;
  refs_in_epoch_ = 0;
}

}  // namespace lruk

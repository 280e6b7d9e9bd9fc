// Evolving access patterns: a hot window that migrates across the database.
// Used for the adaptivity experiments (the paper, Section 4.1: "For
// evolving access patterns ... LRU-3 is less responsive than LRU-2", and
// Section 4.3: LFU "does not adapt itself to evolving access patterns").
//
// With probability `hot_probability` a reference hits the current hot
// window (uniform within it); otherwise it hits the whole database
// uniformly. Every `epoch_length` references the window advances by
// `shift` pages (wrapping), so pages cool down and fresh pages heat up.

#ifndef LRUK_WORKLOAD_MOVING_HOTSPOT_H_
#define LRUK_WORKLOAD_MOVING_HOTSPOT_H_

#include "util/random.h"
#include "workload/workload.h"

namespace lruk {

struct MovingHotspotOptions {
  uint64_t num_pages = 10000;
  uint64_t hot_pages = 100;
  double hot_probability = 0.8;
  uint64_t epoch_length = 10000;  // References per hot-window position.
  uint64_t shift = 100;           // Pages the window moves per epoch.
  uint64_t seed = 42;
};

class MovingHotspotWorkload final : public ReferenceStringGenerator {
 public:
  explicit MovingHotspotWorkload(MovingHotspotOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.num_pages; }
  std::string_view Name() const override { return "moving-hotspot"; }

  // Class 0 = currently hot, 1 = currently cold (time-varying!).
  uint32_t ClassOf(PageId page) const override;
  uint32_t NumClasses() const override { return 2; }
  std::string_view ClassName(uint32_t cls) const override {
    return cls == 0 ? "hot-now" : "cold-now";
  }

  PageId hot_window_start() const { return window_start_; }

 private:
  MovingHotspotOptions options_;
  RandomEngine rng_;
  PageId window_start_ = 0;
  uint64_t refs_in_epoch_ = 0;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_MOVING_HOTSPOT_H_
